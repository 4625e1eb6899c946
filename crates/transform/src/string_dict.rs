//! String dictionaries (§5.3).
//!
//! Per eligible string attribute, the loader builds a dictionary mapping
//! each value to an integer code; string operations then lower to integer
//! operations per the paper's Table 2:
//!
//! | operation | C code | integer form | dictionary |
//! |-----------|--------|--------------|------------|
//! | equals | `strcmp(x,y)==0` | `x == y` | normal |
//! | notEquals | `strcmp(x,y)!=0` | `x != y` | normal |
//! | startsWith | `strncmp(x,y,strlen(y))==0` | `x>=start && x<=end` | ordered |
//! | three-way compare (sorting) | `strcmp(x,y)` | `x - y` | ordered |
//!
//! Eligibility follows the paper's caveats: an attribute qualifies only if
//! *every* string operation over it is mappable (a single `LIKE`/`contains`
//! disqualifies it), it is not a key, and its distinct count is modest
//! ("string dictionaries can actually degrade performance when used for
//! primary keys or attributes with many distinct values"). The analysis
//! finds attribute uses through column provenance it derives from the
//! program itself (`Provenance`): a base record's field holds the column
//! it is named after, and a field every store fills from one column holds
//! that column, so predicates keep qualifying after records cross hash
//! tables.
//!
//! The pass retypes each chosen column's base-table field, and every
//! record field copied from it, from `String` to `Int`, and that type is
//! the whole contract with the loaders: every
//! executor reads an `Int` field over a `String` column as dictionary
//! codes. Dictionaries are always built sorted, so one dictionary serves
//! both the normal and the ordered operations.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use dblab_catalog::Schema;
use dblab_ir::expr::{Atom, Block, DictOp, Expr, PrimOp, Sym};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
use dblab_ir::types::StructId;
use dblab_ir::{IrBuilder, Program, Type};

/// Attributes with more distinct values than this keep their strings.
const MAX_DISTINCT: u64 = 50_000;

type ColId = (Arc<str>, usize);

#[derive(Default)]
struct Usage {
    eq_consts: HashSet<Arc<str>>,
    prefix_consts: HashSet<Arc<str>>,
    cmp_use: bool,
    disqualified: bool,
}

struct StringDict<'s> {
    schema: &'s Schema,
    prov: Provenance,
    usage: HashMap<ColId, Usage>,
    /// Eligible columns.
    chosen: BTreeSet<ColId>,
    /// Hoisted constant codes: (column, const, op) -> atom.
    consts: HashMap<(ColId, Arc<str>, DictOp), Atom>,
    /// Hash tables keyed directly by a dictionary-encoded column: their
    /// `String` key type must become `Int`.
    retype_maps: HashSet<Sym>,
}

/// Apply the transformation. Returns the rewritten program (identity when
/// nothing qualifies).
pub fn apply(p: &Program, schema: &Schema) -> Program {
    let mut rule = StringDict {
        schema,
        prov: Provenance::derive(p, schema),
        usage: HashMap::new(),
        chosen: BTreeSet::new(),
        consts: HashMap::new(),
        retype_maps: HashSet::new(),
    };
    analyze(&p.body, &mut rule);
    rule.choose();
    if rule.chosen.is_empty() {
        return p.clone();
    }
    run_rule(p, &mut rule, p.level)
}

/// What one record field is known to hold, joined over every value
/// stored into it.
#[derive(Clone, PartialEq)]
enum Holds {
    /// Nothing stored yet (or only copies of fields not yet resolved).
    Unknown,
    Column(ColId),
    /// Values of more than one origin.
    Mixed,
}

impl Holds {
    fn join(self, other: Holds) -> Holds {
        match (self, other) {
            (Holds::Unknown, x) | (x, Holds::Unknown) => x,
            (Holds::Column(a), Holds::Column(b)) if a == b => Holds::Column(a),
            _ => Holds::Mixed,
        }
    }
}

/// Column provenance, derived from the program: which base-table column
/// each record field and each `FieldGet` symbol is a verbatim copy of.
///
/// * a `LoadTable` record's field holds the column it is named after;
/// * any other record's field holds a column when every `StructNew`
///   argument and `FieldSet` value stored into it holds that column;
/// * a `FieldGet` holds what the field it reads holds.
///
/// One walk gathers the reads and stores; a fixpoint over the stores
/// resolves fields that copy fields of other records (a join record
/// copies the base record it was built from).
struct Provenance {
    fields: HashMap<(StructId, usize), ColId>,
    syms: HashMap<Sym, ColId>,
}

impl Provenance {
    fn derive(p: &Program, schema: &Schema) -> Provenance {
        let mut reads = HashMap::new();
        let mut stores: HashMap<(StructId, usize), Vec<&Atom>> = HashMap::new();
        let mut holds = HashMap::new();
        p.body.for_each_stmt(&mut |st| match &st.expr {
            Expr::LoadTable { table, sid, .. } => {
                let def = schema.table(table);
                for (i, f) in p.structs.get(*sid).fields.iter().enumerate() {
                    let col = (def.name.clone(), def.col_index(&f.name));
                    holds.insert((*sid, i), Holds::Column(col));
                }
            }
            Expr::StructNew { sid, args, .. } => {
                for (i, a) in args.iter().enumerate() {
                    stores.entry((*sid, i)).or_default().push(a);
                }
            }
            Expr::FieldSet {
                sid, field, value, ..
            } => stores.entry((*sid, *field)).or_default().push(value),
            Expr::FieldGet { sid, field, .. } => {
                reads.insert(st.sym, (*sid, *field));
            }
            _ => {}
        });
        loop {
            let mut changed = false;
            for (field, stored) in &stores {
                let of = |a: &Atom| match a.as_sym().and_then(|s| reads.get(&s)) {
                    Some(src) => holds.get(src).cloned().unwrap_or(Holds::Unknown),
                    None => Holds::Mixed,
                };
                let start = holds.get(field).cloned().unwrap_or(Holds::Unknown);
                let now = stored.iter().fold(start, |h, a| h.join(of(a)));
                if holds.get(field) != Some(&now) {
                    holds.insert(*field, now);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let fields: HashMap<(StructId, usize), ColId> = (holds.into_iter())
            .filter_map(|(f, h)| match h {
                Holds::Column(c) => Some((f, c)),
                _ => None,
            })
            .collect();
        let syms = (reads.iter())
            .filter_map(|(s, f)| Some((*s, fields.get(f)?.clone())))
            .collect();
        Provenance { fields, syms }
    }

    /// Which column (if any) does this atom carry?
    fn of(&self, a: &Atom) -> Option<ColId> {
        self.syms.get(&a.as_sym()?).cloned()
    }
}

fn analyze(b: &Block, rule: &mut StringDict<'_>) {
    for st in &b.stmts {
        // Classify string-op contexts.
        match &st.expr {
            Expr::Prim(op, args) => match op {
                PrimOp::StrEq | PrimOp::StrNe => {
                    classify_eq(rule, &args[0], &args[1]);
                }
                PrimOp::StrStartsWith => {
                    if let (Some(c), Atom::Str(k)) = (rule.prov.of(&args[0]), &args[1]) {
                        rule.usage
                            .entry(c)
                            .or_default()
                            .prefix_consts
                            .insert(k.clone());
                    } else {
                        disqualify_all(rule, args);
                    }
                }
                PrimOp::StrCmp => {
                    let (ca, cb) = (rule.prov.of(&args[0]), rule.prov.of(&args[1]));
                    match (ca, cb) {
                        (Some(x), Some(y)) if x == y => {
                            rule.usage.entry(x).or_default().cmp_use = true;
                        }
                        _ => disqualify_all(rule, args),
                    }
                }
                PrimOp::StrEndsWith
                | PrimOp::StrContains
                | PrimOp::StrLike
                | PrimOp::StrSubstr
                | PrimOp::HashStr => disqualify_all(rule, args),
                _ => {}
            },
            // Benign contexts for string-typed values: being stored,
            // keyed, compared for grouping, printed.
            Expr::Printf { .. }
            | Expr::StructNew { .. }
            | Expr::FieldSet { .. }
            | Expr::FieldGet { .. }
            | Expr::Atom(_)
            | Expr::HashMapGetOrInit { .. }
            | Expr::MultiMapAdd { .. }
            | Expr::MultiMapForeachAt { .. }
            | Expr::ArraySet { .. }
            | Expr::ListAppend { .. }
            | Expr::Assign { .. }
            | Expr::DeclVar { .. } => {}
            // Any other expression consuming a provenance-tracked string is
            // out of scope: disqualify.
            other => {
                other.for_each_atom(|a| {
                    if let Some(c) = rule.prov.of(a) {
                        if is_string_col(&c, rule.schema) {
                            rule.usage.entry(c).or_default().disqualified = true;
                        }
                    }
                });
            }
        }
        for blk in st.expr.blocks() {
            analyze(blk, rule);
        }
    }
}

fn classify_eq(rule: &mut StringDict<'_>, a: &Atom, b: &Atom) {
    match (rule.prov.of(a), b, rule.prov.of(b), a) {
        (Some(c), Atom::Str(k), _, _) | (_, _, Some(c), Atom::Str(k)) => {
            rule.usage.entry(c).or_default().eq_consts.insert(k.clone());
        }
        _ => disqualify_all(rule, &[a.clone(), b.clone()]),
    }
}

fn disqualify_all(rule: &mut StringDict<'_>, atoms: &[Atom]) {
    for a in atoms {
        if let Some(c) = rule.prov.of(a) {
            rule.usage.entry(c).or_default().disqualified = true;
        }
    }
}

fn is_string_col(c: &ColId, schema: &Schema) -> bool {
    schema.has_table(&c.0)
        && schema
            .table(&c.0)
            .columns
            .get(c.1)
            .map(|col| col.ty.is_string())
            == Some(true)
}

fn dict_name(c: &ColId) -> Arc<str> {
    format!("{}__{}", c.0, c.1).into()
}

impl StringDict<'_> {
    fn choose(&mut self) {
        for (col, u) in &self.usage {
            if u.disqualified || !is_string_col(col, self.schema) {
                continue;
            }
            if u.eq_consts.is_empty() && u.prefix_consts.is_empty() && !u.cmp_use {
                continue;
            }
            let def = self.schema.table(&col.0);
            let distinct = def.stats.distinct.get(col.1).copied().unwrap_or(0);
            if distinct == 0 || distinct > MAX_DISTINCT {
                continue;
            }
            if def.primary_key.contains(&col.1) {
                continue;
            }
            self.chosen.insert(col.clone());
        }
    }

    fn dict_of(&self, a: &Atom) -> Option<ColId> {
        let c = self.prov.of(a)?;
        self.chosen.contains(&c).then_some(c)
    }

    /// The hoisted code of a query constant (emitted at TimerStart).
    fn const_code(&mut self, _b: &mut IrBuilder, col: &ColId, k: &Arc<str>, op: DictOp) -> Atom {
        self.consts
            .get(&(col.clone(), k.clone(), op))
            .unwrap_or_else(|| panic!("dictionary constant {k} of {col:?} was not hoisted"))
            .clone()
    }
}

impl Rule for StringDict<'_> {
    fn name(&self) -> &'static str {
        "string-dictionaries"
    }

    fn prepare(&mut self, p: &Program, b: &mut IrBuilder) {
        // Hash tables keyed by a dictionary-encoded value switch to
        // integer keys.
        fn scan_keys(blk: &Block, rule: &StringDict<'_>, out: &mut HashSet<Sym>) {
            for st in &blk.stmts {
                if let Expr::HashMapGetOrInit { map, key, .. }
                | Expr::MultiMapAdd { map, key, .. }
                | Expr::MultiMapForeachAt { map, key, .. } = &st.expr
                {
                    if let (Some(ms), Some(_)) = (map.as_sym(), rule.dict_of(key)) {
                        out.insert(ms);
                    }
                }
                for sub in st.expr.blocks() {
                    scan_keys(sub, rule, out);
                }
            }
        }
        let mut retype = HashSet::new();
        scan_keys(&p.body, self, &mut retype);
        self.retype_maps = retype;

        // Retype every record field that verbatim-holds a chosen column:
        // the base-table fields and every record field copied from them.
        for ((sid, field), c) in &self.prov.fields {
            let def = b.structs.get_mut(*sid);
            if self.chosen.contains(c) && def.fields[*field].ty == Type::String {
                def.fields[*field].ty = Type::Int;
            }
        }
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, sym: Sym, _ty: &Type, e: &Expr) -> Option<Atom> {
        match e {
            // Hoist every query constant's dictionary lookup to the start
            // of the query phase (loop-invariant by construction; emitting
            // them lazily would scope them inside the loop that first
            // needed them).
            Expr::Prim(PrimOp::TimerStart, _) => {
                rw.b.prim(PrimOp::TimerStart, vec![]);
                let mut work: Vec<(ColId, Arc<str>, DictOp)> = Vec::new();
                for (col, u) in &self.usage {
                    if !self.chosen.contains(col) {
                        continue;
                    }
                    for k in &u.eq_consts {
                        work.push((col.clone(), k.clone(), DictOp::Lookup));
                    }
                    for k in &u.prefix_consts {
                        work.push((col.clone(), k.clone(), DictOp::RangeStart));
                        work.push((col.clone(), k.clone(), DictOp::RangeEnd));
                    }
                }
                work.sort_by_key(|a| (a.0.clone(), a.1.clone()));
                for (col, k, op) in work {
                    let a = rw.b.dict(dict_name(&col), op, Atom::Str(k.clone()));
                    self.consts.insert((col, k, op), a);
                }
                Some(Atom::Unit)
            }
            // A map keyed by codes keeps its size and specialization facts.
            Expr::HashMapNew {
                key,
                value,
                expected,
                dense,
                has_minmax,
            } if self.retype_maps.contains(&sym) => {
                debug_assert_eq!(*key, Type::String);
                let map = Expr::HashMapNew {
                    key: Type::Int,
                    value: value.clone(),
                    expected: *expected,
                    dense: *dense,
                    has_minmax: *has_minmax,
                };
                Some(rw.b.emit(Type::hash_map(Type::Int, value.clone()), map))
            }
            Expr::MultiMapNew {
                key,
                value,
                expected,
            } if self.retype_maps.contains(&sym) => {
                debug_assert_eq!(*key, Type::String);
                Some(rw.b.multimap_new(Type::Int, value.clone(), *expected))
            }
            Expr::Prim(op @ (PrimOp::StrEq | PrimOp::StrNe), args) => {
                let (col, cst) = match (self.dict_of(&args[0]), &args[1]) {
                    (Some(c), Atom::Str(k)) => (c, k.clone()),
                    _ => match (self.dict_of(&args[1]), &args[0]) {
                        (Some(c), Atom::Str(k)) => (c, k.clone()),
                        _ => return None,
                    },
                };
                let code = self.const_code(&mut rw.b, &col, &cst, DictOp::Lookup);
                let x = rw.atom(if matches!(&args[0], Atom::Str(_)) {
                    &args[1]
                } else {
                    &args[0]
                });
                Some(match op {
                    PrimOp::StrEq => rw.b.eq(x, code),
                    _ => rw.b.ne(x, code),
                })
            }
            Expr::Prim(PrimOp::StrStartsWith, args) => {
                let col = self.dict_of(&args[0])?;
                let Atom::Str(k) = &args[1] else { return None };
                let start = self.const_code(&mut rw.b, &col, k, DictOp::RangeStart);
                let end = self.const_code(&mut rw.b, &col, k, DictOp::RangeEnd);
                let x = rw.atom(&args[0]);
                let ge = rw.b.ge(x.clone(), start);
                let le = rw.b.le(x, end);
                Some(rw.b.and(ge, le))
            }
            Expr::Prim(PrimOp::StrCmp, args) => {
                let ca = self.dict_of(&args[0])?;
                let cb = self.dict_of(&args[1])?;
                if ca != cb {
                    return None;
                }
                let (x, y) = (rw.atom(&args[0]), rw.atom(&args[1]));
                Some(rw.b.sub(x, y))
            }
            Expr::Printf { fmt, args } => {
                let mut new_args = Vec::with_capacity(args.len());
                let mut changed = false;
                for a in args {
                    if let Some(col) = self.dict_of(a) {
                        let x = rw.atom(a);
                        new_args.push(rw.b.dict(dict_name(&col), DictOp::Decode, x));
                        changed = true;
                    } else {
                        new_args.push(rw.atom(a));
                    }
                }
                if !changed {
                    return None;
                }
                rw.b.emit_unit(Expr::Printf {
                    fmt: fmt.clone(),
                    args: new_args,
                });
                Some(Atom::Unit)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_catalog::{ColType, TableDef};
    use dblab_ir::expr::Layout;
    use dblab_ir::{FieldDef, Level, StructDef};

    fn schema() -> Schema {
        let mut t = TableDef::new("t", vec![("t_k", ColType::Int), ("t_s", ColType::String)])
            .with_primary_key(&["t_k"]);
        t.stats.row_count = 100;
        t.stats.int_max = vec![100, 0];
        t.stats.distinct = vec![100, 20];
        Schema::new(vec![t])
    }

    /// The record type of table `t`, its two columns as fields.
    fn table_record(b: &mut IrBuilder) -> dblab_ir::StructId {
        b.structs.register(StructDef {
            name: "t".into(),
            fields: vec![
                FieldDef {
                    name: "t_k".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "t_s".into(),
                    ty: Type::String,
                },
            ],
        })
    }

    fn program(op: PrimOp, konst: &str) -> Program {
        let mut b = IrBuilder::new();
        let sid = table_record(&mut b);
        let arr = b.load_table("t", sid, Layout::Columnar);
        b.prim(PrimOp::TimerStart, vec![]);
        let len = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), len, |bb, i| {
            let rec = bb.array_get(arr.clone(), i);
            let s = bb.field_get(rec, sid, 1);
            let p = bb.prim(op, vec![s.clone(), Atom::Str(konst.into())]);
            bb.if_then(p, |bb| bb.printf("%s\n", vec![s]));
        });
        b.finish(Atom::Unit, Level::MapList)
    }

    fn text(p: &Program) -> String {
        dblab_ir::printer::print_program(p)
    }

    #[test]
    fn equality_maps_to_integer_equality() {
        let p = program(PrimOp::StrEq, "hello");
        let q = apply(&p, &schema());
        let t = text(&q);
        assert!(t.contains("lookup"), "{t}");
        assert!(!t.contains("strEq"), "{t}");
        assert!(t.contains("decode"), "printing decodes: {t}");
        // The base struct field is now an int.
        let sid = q.structs.lookup("t").unwrap();
        assert_eq!(q.structs.get(sid).fields[1].ty, Type::Int);
    }

    #[test]
    fn starts_with_maps_to_range_check() {
        let p = program(PrimOp::StrStartsWith, "he");
        let q = apply(&p, &schema());
        let t = text(&q);
        assert!(t.contains("rangeStart"), "{t}");
        assert!(t.contains("rangeEnd"), "{t}");
        assert!(!t.contains("startsWith"), "{t}");
    }

    #[test]
    fn contains_disqualifies_the_attribute() {
        let p = program(PrimOp::StrContains, "he");
        let q = apply(&p, &schema());
        let t = text(&q);
        assert!(t.contains("contains"), "{t}");
        assert!(!t.contains("lookup"), "{t}");
    }

    #[test]
    fn high_cardinality_attributes_keep_strings() {
        let mut s = schema();
        s.table_mut("t").stats.distinct[1] = 1_000_000;
        let p = program(PrimOp::StrEq, "hello");
        let q = apply(&p, &s);
        assert!(text(&q).contains("strEq"));
    }

    /// A string column that reaches `StrEq` only through a join record's
    /// field: the build side copies `t_s` into a `Rec`, the probe side
    /// compares the copy. Provenance follows the copy, so the column gets
    /// a dictionary and both the base field and the copy become codes.
    #[test]
    fn a_column_compared_through_a_join_record_is_chosen() {
        let mut b = IrBuilder::new();
        let sid = table_record(&mut b);
        let rec = b.structs.register(StructDef {
            name: "Rec".into(),
            fields: vec![
                FieldDef {
                    name: "k".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "s".into(),
                    ty: Type::String,
                },
            ],
        });
        let arr = b.load_table("t", sid, Layout::Columnar);
        b.prim(PrimOp::TimerStart, vec![]);
        let mm = b.multimap_new(Type::Int, Type::Record(rec), 100);
        let len = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), len.clone(), |bb, i| {
            let row = bb.array_get(arr.clone(), i);
            let k = bb.field_get(row.clone(), sid, 0);
            let s = bb.field_get(row, sid, 1);
            let r = bb.struct_new_pooled(rec, vec![k.clone(), s], 100);
            bb.multimap_add(mm.clone(), k, r);
        });
        b.for_range(Atom::Int(0), len, |bb, i| {
            let row = bb.array_get(arr.clone(), i);
            let k = bb.field_get(row, sid, 0);
            bb.multimap_foreach_at(mm.clone(), k, |bb, r| {
                let s = bb.field_get(r, rec, 1);
                let p = bb.prim(PrimOp::StrEq, vec![s, Atom::Str("hello".into())]);
                bb.if_then(p, |bb| bb.printf("match\n", vec![]));
            });
        });
        let p = b.finish(Atom::Unit, Level::MapList);

        let q = apply(&p, &schema());
        let t = text(&q);
        assert!(t.contains("lookup"), "{t}");
        assert!(!t.contains("strEq"), "{t}");
        assert_eq!(q.structs.get(sid).fields[1].ty, Type::Int);
        assert_eq!(
            q.structs.get(rec).fields[1].ty,
            Type::Int,
            "the copy is retyped"
        );
    }
}
