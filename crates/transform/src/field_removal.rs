//! Unused-struct-field removal (Appendix C).
//!
//! Fields the query never needs are removed from their record definitions;
//! writes to them disappear, and — for base tables — every executor's load,
//! the gcc binary's read of its data image included, "avoids loading into
//! memory the values for the unnecessary fields".
//! Because field *indices* shift, this is a dedicated renumbering pass
//! rather than a rewrite rule.
//!
//! ### Liveness through copies
//!
//! A field `(s, i)` is **live** when a value read from it can reach
//! something other than a dead record field. Every use of a `FieldGet`
//! result `g` of `(s, i)` is one of two kinds:
//!
//! * a **copy** — `g` is argument `j` of a `StructNew` of `s2`, or the
//!   `value` of a `FieldSet` of field `j` of `s2`. It adds the edge
//!   `(s2, j) → (s, i)`: `(s, i)` is live if `(s2, j)` is;
//! * an **escaping use** — anything else (another operand, a block result,
//!   a `FieldSet`'s `obj`). It makes `(s, i)` live outright.
//!
//! A record a `StructNew` builds is classified the same way: it is live
//! when it escapes or is copied into a live field, and its argument `j`
//! is copied into `(s2, j)` only while the record is live. So a join
//! record that only the dead field of the next join's record holds is
//! dead, and so are its sources.
//!
//! The live set starts from the escaping uses, the index key columns of
//! base tables (their loaders read them whatever the query body does),
//! every field of a record used as an abstract hash-table key (the generic
//! runtime compares keys field-wise, which the IR cannot see) and, when
//! base tables may not be pruned, every base-table field. One worklist
//! closes it over the copy edges. A record type left with no live field
//! keeps field 0 (C structs cannot be empty), and that field pulls in its
//! sources like any other. So a join chain keeps only what some later
//! operator reads, however deep the chain.
//!
//! The rewrite drops dead fields from `StructNew` argument lists, drops
//! `FieldSet`s and `FieldGet`s of dead fields and the `StructNew`s of dead
//! records (their only uses are copies the rewrite drops), and renumbers
//! the rest. It creates no statement: a pruned base
//! table's record type is what every executor's loader reads, one column
//! per remaining field, found by name. Index nodes keep referring to
//! original column positions.

use std::sync::Arc;

use dblab_ir::expr::{Atom, Block, Expr};
use dblab_ir::{Program, StructId, Type};

/// No node / no new index.
const NONE: usize = usize::MAX;

/// Remove unused fields. `prune_tables` gates base-table pruning (disabled
/// in the TPC-H-compliant configuration); intermediate records are always
/// pruned.
pub fn apply(p: &Program, prune_tables: bool) -> Program {
    // Liveness nodes: field `i` of struct `s` is `base[s] + i`, and the
    // record the `k`-th `StructNew` builds is `nfields + k`.
    let mut base = Vec::with_capacity(p.structs.len() + 1);
    let mut nfields = 0;
    for (_, def) in p.structs.iter() {
        base.push(nfields);
        nfields += def.fields.len();
    }
    base.push(nfields);

    let nsyms = p.sym_types.len();
    let mut sc = Scan {
        base: &base,
        node: vec![NONE; nsyms],
        escapes: vec![false; nsyms],
        sets: Vec::new(),
        records: Vec::new(),
        args: Vec::new(),
        tables: Vec::new(),
        index_cols: Vec::new(),
        protected: vec![false; p.structs.len()],
    };
    sc.block(&p.body);
    let node_of = |a: usize| if a == NONE { NONE } else { sc.node[a] };

    // Seeds.
    let mut live = vec![false; nfields + sc.records.len()];
    for (g, &n) in sc.node.iter().enumerate() {
        if n != NONE && sc.escapes[g] {
            live[n] = true;
        }
    }
    for (sid, table) in &sc.tables {
        let s = sid.0 as usize;
        if !prune_tables {
            sc.protected[s] = true;
        }
        for (t, col) in &sc.index_cols {
            if t == table {
                live[base[s] + col] = true;
            }
        }
    }
    for (s, _) in sc.protected.iter().enumerate().filter(|(_, p)| **p) {
        live[base[s]..base[s + 1]].fill(true);
    }

    // A live field makes the values `FieldSet` copies into it live, and
    // argument `j` of a live record is live once field `j` is.
    let (set_start, set_src) = csr(nfields, sc.sets.iter().map(|&(f, g)| (f, sc.node[g])));
    let (rec_start, recs) = csr(
        p.structs.len(),
        sc.records.iter().enumerate().map(|(k, &(s, _))| (s, k)),
    );
    let mut owner = vec![0; nfields];
    for s in 0..p.structs.len() {
        owner[base[s]..base[s + 1]].fill(s);
    }
    let mut work: Vec<usize> = (0..live.len()).filter(|&n| live[n]).collect();
    let solve = |live: &mut Vec<bool>, work: &mut Vec<usize>| {
        while let Some(n) = work.pop() {
            if n < nfields {
                for &src in &set_src[set_start[n]..set_start[n + 1]] {
                    mark(src, live, work);
                }
                let s = owner[n];
                for &k in &recs[rec_start[s]..rec_start[s + 1]] {
                    if live[nfields + k] {
                        mark(node_of(sc.args[sc.records[k].1 + n - base[s]]), live, work);
                    }
                }
            } else {
                let (s, at) = sc.records[n - nfields];
                for j in 0..base[s + 1] - base[s] {
                    if live[base[s] + j] {
                        mark(node_of(sc.args[at + j]), live, work);
                    }
                }
            }
        }
    };
    solve(&mut live, &mut work);
    for s in 0..p.structs.len() {
        let fields = &live[base[s]..base[s + 1]];
        if !fields.is_empty() && !fields.contains(&true) {
            live[base[s]] = true; // C structs cannot be empty.
            work.push(base[s]);
            solve(&mut live, &mut work);
        }
    }
    if !live.contains(&false) {
        return p.clone();
    }

    // `renum[base[s] + i]` is field `i`'s new index in `s`, or NONE.
    let mut renum = vec![NONE; nfields];
    let mut out = p.clone();
    for s in 0..p.structs.len() {
        let mut next = 0;
        for f in base[s]..base[s + 1] {
            if live[f] {
                renum[f] = next;
                next += 1;
            }
        }
        let mut f = base[s];
        out.structs.get_mut(StructId(s as u32)).fields.retain(|_| {
            f += 1;
            live[f - 1]
        });
    }
    // Getters of dead fields and dead records go: their only uses are
    // copies into dead fields, which go too.
    let dead: Vec<bool> = sc.node.iter().map(|&n| n != NONE && !live[n]).collect();
    rewrite_block(&mut out.body, &base, &renum, &dead);
    out
}

/// Make node `n` live and queue it; NONE (a constant, or a symbol that is
/// neither a getter nor a record) is no node.
fn mark(n: usize, live: &mut [bool], work: &mut Vec<usize>) {
    if n != NONE && !live[n] {
        live[n] = true;
        work.push(n);
    }
}

/// `pairs` grouped by key `0..n`: the values of key `k` are
/// `vals[start[k]..start[k + 1]]`, in `pairs` order.
fn csr(n: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0; n + 1];
    for (k, _) in pairs.clone() {
        start[k + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut vals = vec![0; start[n]];
    for (k, v) in pairs {
        vals[fill[k]] = v;
        fill[k] += 1;
    }
    (start, vals)
}

/// The one walk over the program: getters, records, copy and escaping
/// uses, base tables, index key columns and protected hash-key structs.
struct Scan<'a> {
    base: &'a [usize],
    /// `node[g]`: the field a `FieldGet` bound to `g` reads, or the record
    /// a `StructNew` bound to `g` builds; NONE for any other symbol.
    node: Vec<usize>,
    /// `escapes[g]`: `g` has a use other than a copy into a field.
    escapes: Vec<bool>,
    /// `FieldSet` copies: (destination field, copied symbol).
    sets: Vec<(usize, usize)>,
    /// Per `StructNew`: (struct, offset of its arguments in `args`).
    records: Vec<(usize, usize)>,
    /// `StructNew` arguments: the symbol, or NONE for a constant.
    args: Vec<usize>,
    tables: Vec<(StructId, Arc<str>)>,
    index_cols: Vec<(Arc<str>, usize)>,
    /// Records used as abstract hash-table keys. After hash-table
    /// specialization the key comparisons are explicit `FieldGet`s, so
    /// nothing is protected.
    protected: Vec<bool>,
}

impl Scan<'_> {
    fn escape(&mut self, a: &Atom) {
        if let Atom::Sym(s) = a {
            self.escapes[s.0 as usize] = true;
        }
    }

    fn block(&mut self, b: &Block) {
        for st in &b.stmts {
            if let Type::HashMap(k, _) | Type::MultiMap(k, _) = &st.ty {
                if let Type::Record(sid) = &**k {
                    self.protected[sid.0 as usize] = true;
                }
            }
            match &st.expr {
                Expr::FieldGet { obj, sid, field } => {
                    self.node[st.sym.0 as usize] = self.base[sid.0 as usize] + field;
                    self.escape(obj);
                }
                Expr::StructNew { sid, args, .. } => {
                    let nfields = self.base[self.base.len() - 1];
                    self.node[st.sym.0 as usize] = nfields + self.records.len();
                    self.records.push((sid.0 as usize, self.args.len()));
                    let syms = args
                        .iter()
                        .map(|a| a.as_sym().map_or(NONE, |s| s.0 as usize));
                    self.args.extend(syms);
                }
                Expr::FieldSet {
                    obj,
                    sid,
                    field,
                    value,
                } => {
                    self.escape(obj);
                    if let Atom::Sym(g) = value {
                        let f = self.base[sid.0 as usize] + field;
                        self.sets.push((f, g.0 as usize));
                    }
                }
                Expr::LoadTable { sid, table, .. } => {
                    self.tables.push((*sid, table.clone()));
                }
                Expr::LoadIndexUnique { table, field }
                | Expr::LoadIndexStarts { table, field }
                | Expr::LoadIndexItems { table, field } => {
                    self.index_cols.push((table.clone(), *field));
                }
                e => e.for_each_atom(|a| self.escape(a)),
            }
            for blk in st.expr.blocks() {
                self.block(blk);
            }
        }
        self.escape(&b.result);
    }
}

/// Delete the `dead` getters and records, drop dead fields' `StructNew`
/// arguments and `FieldSet`s, and renumber the rest.
fn rewrite_block(b: &mut Block, base: &[usize], renum: &[usize], dead: &[bool]) {
    b.stmts.retain_mut(|st| {
        if dead[st.sym.0 as usize] {
            return false;
        }
        match &mut st.expr {
            Expr::FieldGet { sid, field, .. } | Expr::FieldSet { sid, field, .. } => {
                match renum[base[sid.0 as usize] + *field] {
                    NONE => return false,
                    nf => *field = nf,
                }
            }
            Expr::StructNew { sid, args, .. } => {
                let mut f = base[sid.0 as usize];
                args.retain(|_| {
                    f += 1;
                    renum[f - 1] != NONE
                });
            }
            _ => {}
        }
        for blk in st.expr.blocks_mut() {
            rewrite_block(blk, base, renum, dead);
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::{Atom, FieldDef, IrBuilder, Level, StructDef, Type};

    #[test]
    fn unread_fields_are_pruned_and_indices_remapped() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![
                FieldDef {
                    name: "a".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "b".into(),
                    ty: Type::Double,
                },
                FieldDef {
                    name: "c".into(),
                    ty: Type::Int,
                },
            ],
        });
        let r = b.struct_new(sid, vec![Atom::Int(1), Atom::double(2.0), Atom::Int(3)]);
        // Only c is read; a is written.
        b.field_set(r.clone(), sid, 0, Atom::Int(9));
        let c = b.field_get(r, sid, 2);
        b.printf("%d\n", vec![c]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(q.structs.get(sid).fields.len(), 1);
        assert_eq!(&*q.structs.get(sid).fields[0].name, "c");
        // StructNew has one arg; the write to `a` is gone; FieldGet uses 0.
        let sn = q
            .body
            .stmts
            .iter()
            .find_map(|st| match &st.expr {
                Expr::StructNew { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(sn, vec![Atom::Int(3)]);
        assert!(!q
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, Expr::FieldSet { .. })));
        let fg = q
            .body
            .stmts
            .iter()
            .find_map(|st| match &st.expr {
                Expr::FieldGet { field, .. } => Some(*field),
                _ => None,
            })
            .unwrap();
        assert_eq!(fg, 0);
    }

    #[test]
    fn base_tables_pruned_only_when_enabled() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "t".into(),
            fields: vec![
                FieldDef {
                    name: "x".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "y".into(),
                    ty: Type::Int,
                },
            ],
        });
        let arr = b.load_table("t", sid, dblab_ir::expr::Layout::Columnar);
        let rec = b.array_get(arr, Atom::Int(0));
        let x = b.field_get(rec, sid, 0);
        b.printf("%d\n", vec![x]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let compliant = apply(&p, false);
        assert_eq!(compliant.structs.get(sid).fields.len(), 2);

        let q = apply(&p, true);
        // The record type is what the loaders read.
        assert_eq!(field_names(&q, sid), ["x"]);
    }

    /// A struct of `Int` fields named `fields`.
    fn ints(b: &mut IrBuilder, name: &str, fields: &[&str]) -> StructId {
        b.structs.register(StructDef {
            name: name.into(),
            fields: fields
                .iter()
                .map(|f| FieldDef {
                    name: (*f).into(),
                    ty: Type::Int,
                })
                .collect(),
        })
    }

    /// Table `t(x, y, z)` and its row 0.
    fn row(b: &mut IrBuilder) -> (StructId, Atom) {
        let t = ints(b, "t", &["x", "y", "z"]);
        let arr = b.load_table("t", t, dblab_ir::expr::Layout::Columnar);
        let r = b.array_get(arr, Atom::Int(0));
        (t, r)
    }

    fn field_names(p: &Program, sid: StructId) -> Vec<String> {
        let fields = &p.structs.get(sid).fields;
        fields.iter().map(|f| f.name.to_string()).collect()
    }

    fn count(p: &Program, pred: impl Fn(&Expr) -> bool) -> usize {
        let mut n = 0;
        p.body.for_each_stmt(&mut |st| n += pred(&st.expr) as usize);
        n
    }

    #[test]
    fn a_two_deep_copy_chain_keeps_only_the_read_field() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let rec_a = ints(&mut b, "RecA", &["ax", "ay", "az"]);
        let rec_b = ints(&mut b, "RecB", &["bx", "by", "bz"]);
        let cols: Vec<Atom> = (0..3).map(|i| b.field_get(r.clone(), t, i)).collect();
        let a = b.struct_new(rec_a, cols);
        let copied: Vec<Atom> = (0..3).map(|i| b.field_get(a.clone(), rec_a, i)).collect();
        let bb = b.struct_new(rec_b, copied);
        let by = b.field_get(bb, rec_b, 1);
        b.printf("%d\n", vec![by]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, t), ["y"]);
        assert_eq!(field_names(&q, rec_a), ["ay"]);
        assert_eq!(field_names(&q, rec_b), ["by"]);
        // The getters that fed the dropped fields are gone with them.
        assert_eq!(count(&q, |e| matches!(e, Expr::FieldGet { .. })), 3);
    }

    #[test]
    fn a_field_set_copy_into_a_removed_field_is_dropped_with_its_getter() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let rec = ints(&mut b, "Rec", &["a", "b"]);
        let obj = b.struct_new(rec, vec![Atom::Int(0), Atom::Int(0)]);
        let x = b.field_get(r.clone(), t, 0);
        b.field_set(obj.clone(), rec, 1, x);
        let a = b.field_get(obj, rec, 0);
        let z = b.field_get(r, t, 2);
        b.printf("%d %d\n", vec![a, z]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, rec), ["a"]);
        assert_eq!(field_names(&q, t), ["z"]);
        assert_eq!(count(&q, |e| matches!(e, Expr::FieldSet { .. })), 0);
        let reads = |sid| move |e: &Expr| matches!(e, Expr::FieldGet { sid: s, .. } if *s == sid);
        assert_eq!(count(&q, reads(t)), 1);
    }

    #[test]
    fn a_protected_hash_key_keeps_its_sources() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let key = ints(&mut b, "Key", &["k0", "k1"]);
        let (x, y) = (b.field_get(r.clone(), t, 0), b.field_get(r, t, 1));
        let k = b.struct_new(key, vec![x, y]);
        let m = b.hashmap_new(Type::Record(key), Type::Int, 8);
        let v = b.hashmap_get_or_init(m, k, |_| Atom::Int(0));
        b.printf("%d\n", vec![v]);
        let p = b.finish(Atom::Unit, Level::MapList);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, key), ["k0", "k1"]);
        assert_eq!(field_names(&q, t), ["x", "y"]);
    }

    #[test]
    fn an_empty_record_keeps_field_0_and_its_source() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let rec = ints(&mut b, "Rec", &["e0", "e1"]);
        let (x, y) = (b.field_get(r.clone(), t, 0), b.field_get(r.clone(), t, 1));
        let e = b.struct_new(rec, vec![x, y]);
        let arr = b.array_new(Type::Record(rec), Atom::Int(1));
        b.array_set(arr, Atom::Int(0), e);
        let z = b.field_get(r, t, 2);
        b.printf("%d\n", vec![z]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, rec), ["e0"]);
        assert_eq!(field_names(&q, t), ["x", "z"]);
    }

    #[test]
    fn a_copied_getter_that_is_also_printed_stays_live() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let rec = ints(&mut b, "Rec", &["a", "b"]);
        let (x, y) = (b.field_get(r.clone(), t, 0), b.field_get(r, t, 1));
        let obj = b.struct_new(rec, vec![x.clone(), y.clone()]);
        let rb = b.field_get(obj, rec, 1);
        b.printf("%d %d\n", vec![rb, x]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, rec), ["b"]);
        assert_eq!(field_names(&q, t), ["x", "y"]);
        let args = q.body.stmts.iter().find_map(|st| match &st.expr {
            Expr::StructNew { args, .. } => Some(args.clone()),
            _ => None,
        });
        assert_eq!(args, Some(vec![y]));
    }

    #[test]
    fn a_record_copied_only_into_a_dead_field_is_dropped_with_its_sources() {
        let mut b = IrBuilder::new();
        let (t, r) = row(&mut b);
        let inner = ints(&mut b, "Inner", &["i0"]);
        let outer = b.structs.register(StructDef {
            name: "Outer".into(),
            fields: vec![
                FieldDef {
                    name: "o0".into(),
                    ty: Type::Record(inner),
                },
                FieldDef {
                    name: "o1".into(),
                    ty: Type::Int,
                },
            ],
        });
        let (x, y) = (b.field_get(r.clone(), t, 0), b.field_get(r, t, 1));
        let i = b.struct_new(inner, vec![x]);
        let o = b.struct_new(outer, vec![i, y]);
        let o1 = b.field_get(o, outer, 1);
        b.printf("%d\n", vec![o1]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(field_names(&q, outer), ["o1"]);
        assert_eq!(field_names(&q, t), ["y"]);
        let builds = |sid| move |e: &Expr| matches!(e, Expr::StructNew { sid: s, .. } if *s == sid);
        assert_eq!(count(&q, builds(inner)), 0);
    }
}
