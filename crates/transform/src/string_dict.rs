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
//! finds attribute uses through the provenance annotations (§3.3) that
//! pipelining attaches to every verbatim column copy, so predicates keep
//! qualifying even after records cross hash tables.
//!
//! The pass retypes each chosen column's base-table field from `String`
//! to `Int`, and that type is the whole contract with the loaders: every
//! executor reads an `Int` field over a `String` column as dictionary
//! codes. Dictionaries are always built sorted, so one dictionary serves
//! both the normal and the ordered operations.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use dblab_catalog::Schema;
use dblab_ir::expr::{Atom, Block, DictOp, Expr, PrimOp, Sym};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
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
        usage: HashMap::new(),
        chosen: BTreeSet::new(),
        consts: HashMap::new(),
        retype_maps: HashSet::new(),
    };
    analyze(&p.body, p, &mut rule);
    rule.choose();
    if rule.chosen.is_empty() {
        return p.clone();
    }
    run_rule(p, &mut rule, p.level)
}

/// Which dictionary-eligible column (if any) does this atom carry?
fn col_of(p: &Program, a: &Atom) -> Option<ColId> {
    match a {
        Atom::Sym(s) => p.annots.column(*s),
        _ => None,
    }
}

fn analyze(b: &Block, p: &Program, rule: &mut StringDict<'_>) {
    for st in &b.stmts {
        // Classify string-op contexts.
        match &st.expr {
            Expr::Prim(op, args) => match op {
                PrimOp::StrEq | PrimOp::StrNe => {
                    classify_eq(p, rule, &args[0], &args[1]);
                }
                PrimOp::StrStartsWith => {
                    if let (Some(c), Atom::Str(k)) = (col_of(p, &args[0]), &args[1]) {
                        rule.usage
                            .entry(c)
                            .or_default()
                            .prefix_consts
                            .insert(k.clone());
                    } else {
                        disqualify_all(p, rule, args);
                    }
                }
                PrimOp::StrCmp => {
                    let (ca, cb) = (col_of(p, &args[0]), col_of(p, &args[1]));
                    match (ca, cb) {
                        (Some(x), Some(y)) if x == y => {
                            rule.usage.entry(x).or_default().cmp_use = true;
                        }
                        _ => disqualify_all(p, rule, args),
                    }
                }
                PrimOp::StrEndsWith
                | PrimOp::StrContains
                | PrimOp::StrLike
                | PrimOp::StrSubstr
                | PrimOp::HashStr => disqualify_all(p, rule, args),
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
                    if let Some(c) = col_of(p, a) {
                        if is_string_col(&c, rule.schema) {
                            rule.usage.entry(c).or_default().disqualified = true;
                        }
                    }
                });
            }
        }
        for blk in st.expr.blocks() {
            analyze(blk, p, rule);
        }
    }
}

fn classify_eq(p: &Program, rule: &mut StringDict<'_>, a: &Atom, b: &Atom) {
    match (col_of(p, a), b, col_of(p, b), a) {
        (Some(c), Atom::Str(k), _, _) | (_, _, Some(c), Atom::Str(k)) => {
            rule.usage.entry(c).or_default().eq_consts.insert(k.clone());
        }
        _ => disqualify_all(p, rule, &[a.clone(), b.clone()]),
    }
}

fn disqualify_all(p: &Program, rule: &mut StringDict<'_>, atoms: &[Atom]) {
    for a in atoms {
        if let Some(c) = col_of(p, a) {
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

    fn dict_of(&self, p: &Program, a: &Atom) -> Option<ColId> {
        let c = col_of(p, a)?;
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
        fn scan_keys(blk: &Block, p: &Program, chosen: &BTreeSet<ColId>, out: &mut HashSet<Sym>) {
            for st in &blk.stmts {
                let key = match &st.expr {
                    Expr::HashMapGetOrInit { map, key, .. }
                    | Expr::MultiMapAdd { map, key, .. }
                    | Expr::MultiMapForeachAt { map, key, .. } => Some((map.as_sym(), key)),
                    _ => None,
                };
                if let Some((Some(ms), key)) = key {
                    if let Some(c) = col_of(p, key) {
                        if chosen.contains(&c) {
                            out.insert(ms);
                        }
                    }
                }
                for sub in st.expr.blocks() {
                    scan_keys(sub, p, chosen, out);
                }
            }
        }
        let mut retype = HashSet::new();
        scan_keys(&p.body, p, &self.chosen, &mut retype);
        self.retype_maps = retype;

        // Retype every record field that verbatim-holds a chosen column.
        // Base-table structs are found via LoadTable; intermediate structs
        // via the provenance of their constructor arguments.
        let mut retype: Vec<(dblab_ir::StructId, usize)> = Vec::new();
        fn walk(
            blk: &Block,
            p: &Program,
            chosen: &BTreeSet<ColId>,
            out: &mut Vec<(dblab_ir::StructId, usize)>,
        ) {
            for st in &blk.stmts {
                match &st.expr {
                    Expr::LoadTable { sid, table } => {
                        for c in chosen.iter().filter(|(t, _)| t == table) {
                            out.push((*sid, c.1));
                        }
                    }
                    Expr::StructNew { sid, args } => {
                        for (i, a) in args.iter().enumerate() {
                            if let Atom::Sym(s) = a {
                                if let Some(c) = p.annots.column(*s) {
                                    if chosen.contains(&c) {
                                        out.push((*sid, i));
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
                for sub in st.expr.blocks() {
                    walk(sub, p, chosen, out);
                }
            }
        }
        walk(&p.body, p, &self.chosen, &mut retype);
        for (sid, field) in retype {
            let def = b.structs.get_mut(sid);
            if def.fields[field].ty == Type::String {
                def.fields[field].ty = Type::Int;
            }
        }
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, _sym: Sym, _ty: &Type, e: &Expr) -> Option<Atom> {
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
            Expr::HashMapNew { key, value } if self.retype_maps.contains(&_sym) => {
                debug_assert_eq!(*key, Type::String);
                Some(rw.b.hashmap_new(Type::Int, value.clone()))
            }
            Expr::MultiMapNew { key, value } if self.retype_maps.contains(&_sym) => {
                debug_assert_eq!(*key, Type::String);
                Some(rw.b.multimap_new(Type::Int, value.clone()))
            }
            Expr::Prim(op @ (PrimOp::StrEq | PrimOp::StrNe), args) => {
                let (col, cst) = match (self.dict_of(rw.old, &args[0]), &args[1]) {
                    (Some(c), Atom::Str(k)) => (c, k.clone()),
                    _ => match (self.dict_of(rw.old, &args[1]), &args[0]) {
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
                let col = self.dict_of(rw.old, &args[0])?;
                let Atom::Str(k) = &args[1] else { return None };
                let start = self.const_code(&mut rw.b, &col, k, DictOp::RangeStart);
                let end = self.const_code(&mut rw.b, &col, k, DictOp::RangeEnd);
                let x = rw.atom(&args[0]);
                let ge = rw.b.ge(x.clone(), start);
                let le = rw.b.le(x, end);
                Some(rw.b.and(ge, le))
            }
            Expr::Prim(PrimOp::StrCmp, args) => {
                let ca = self.dict_of(rw.old, &args[0])?;
                let cb = self.dict_of(rw.old, &args[1])?;
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
                    if let Some(col) = self.dict_of(rw.old, a) {
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
    use dblab_ir::expr::Annot;
    use dblab_ir::{FieldDef, Level, StructDef};

    fn schema() -> Schema {
        let mut t = TableDef::new("t", vec![("t_k", ColType::Int), ("t_s", ColType::String)])
            .with_primary_key(&["t_k"]);
        t.stats.row_count = 100;
        t.stats.int_max = vec![100, 0];
        t.stats.distinct = vec![100, 20];
        Schema::new(vec![t])
    }

    fn program(op: PrimOp, konst: &str) -> Program {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
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
        });
        let arr = b.load_table("t", sid);
        b.prim(PrimOp::TimerStart, vec![]);
        let len = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), len, |bb, i| {
            let rec = bb.array_get(arr.clone(), i);
            let s = bb.field_get(rec, sid, 1);
            if let Atom::Sym(sy) = s {
                bb.annotate(
                    sy,
                    Annot::Column {
                        table: "t".into(),
                        field: 1,
                    },
                );
            }
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
}
