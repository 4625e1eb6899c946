//! List specialization: the lowering from ScaLite\[List\] to ScaLite
//! (§4.4).
//!
//! Two context-dependent strategies, exactly as the paper motivates:
//!
//! * **Intrusive linked lists** for hash-table buckets: the record type
//!   gains a `next` field, the bucket array stores head references, and
//!   insertion is a head push (Figure 4f) — "this removes one level of
//!   indirection caused by the separate allocations of the container nodes
//!   and the records";
//! * **Static arrays** for lists whose worst-case size is known from the
//!   bounded-loop analysis (the `bound` of their `ListNew`): a pre-sized
//!   `Array[T]` plus a count variable — "we benefit from the existing array
//!   layout optimizations provided for ScaLite down the DSL stack".

use std::collections::{HashMap, HashSet};

use dblab_ir::expr::{Atom, Block, Expr, Sym};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
use dblab_ir::types::StructId;
use dblab_ir::{FieldDef, IrBuilder, Level, Program, Type};

#[derive(Default)]
struct ListSpec {
    /// Record sids that received a `next` field, with its index.
    next_field: HashMap<StructId, usize>,
    /// Old symbols of bucket arrays (`Array[List[Rec]]`).
    bucket_arrays: HashSet<Sym>,
    /// Old symbols of `ListNew`s that initialize buckets (become nulls).
    bucket_lists: HashSet<Sym>,
    /// Old `ArrayGet` symbols over bucket arrays: (array sym, index atom).
    bucket_gets: HashMap<Sym, (Sym, Atom)>,
    /// Plain lists: old sym -> (new array atom, count var, elem type).
    plain: HashMap<Sym, (Atom, Sym)>,
}

/// Apply list specialization; the result is a plain ScaLite program.
pub fn apply(p: &Program) -> Program {
    let mut rule = ListSpec::default();
    // Analysis: classify lists before rewriting.
    classify(&p.body, &mut rule);
    run_rule(p, &mut rule, Level::ScaLite)
}

fn classify(b: &Block, st: &mut ListSpec) {
    for s in &b.stmts {
        match &s.expr {
            Expr::ArrayNew {
                elem: Type::List(inner),
                ..
            } => {
                if matches!(**inner, Type::Record(_)) {
                    st.bucket_arrays.insert(s.sym);
                }
            }
            Expr::ArraySet { arr, value, .. } => {
                if let (Atom::Sym(a), Atom::Sym(v)) = (arr, value) {
                    if st.bucket_arrays.contains(a) {
                        st.bucket_lists.insert(*v);
                    }
                }
            }
            Expr::ArrayGet {
                arr: Atom::Sym(a),
                idx,
            } if st.bucket_arrays.contains(a) => {
                st.bucket_gets.insert(s.sym, (*a, idx.clone()));
            }
            _ => {}
        }
        for blk in s.expr.blocks() {
            classify(blk, st);
        }
    }
}

impl ListSpec {
    fn ensure_next_field(&mut self, b: &mut IrBuilder, sid: StructId) -> usize {
        if let Some(i) = self.next_field.get(&sid) {
            return *i;
        }
        let def = b.structs.get_mut(sid);
        def.fields.push(FieldDef {
            name: "next".into(),
            ty: Type::Record(sid),
        });
        let idx = def.fields.len() - 1;
        self.next_field.insert(sid, idx);
        idx
    }
}

impl Rule for ListSpec {
    fn name(&self) -> &'static str {
        "list-specialization"
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, sym: Sym, _ty: &Type, e: &Expr) -> Option<Atom> {
        match e {
            // Bucket arrays become head-reference arrays (null-initialised).
            Expr::ArrayNew {
                elem: Type::List(inner),
                len,
            } if self.bucket_arrays.contains(&sym) => {
                let sid = match &**inner {
                    Type::Record(s) => *s,
                    other => panic!("bucket of {other}"),
                };
                self.ensure_next_field(&mut rw.b, sid);
                let len = rw.atom(len);
                Some(rw.b.array_new(Type::Record(sid), len))
            }
            // Bucket initialisation disappears: heads start null.
            Expr::ListNew { elem, bound } => {
                if self.bucket_lists.contains(&sym) {
                    return Some(Atom::Null(Box::new(elem.clone())));
                }
                // Static-array strategy for bounded plain lists.
                let bound = (*bound)?;
                let arr = rw.b.array_new(elem.clone(), Atom::Int(bound.max(1) as i64));
                let cnt = rw.b.decl_var(Atom::Int(0));
                self.plain.insert(sym, (arr.clone(), cnt));
                Some(arr)
            }
            Expr::ArraySet { arr, value, .. } => {
                if let (Atom::Sym(a), Atom::Sym(v)) = (arr, value) {
                    if self.bucket_arrays.contains(a) && self.bucket_lists.contains(v) {
                        return Some(Atom::Unit);
                    }
                }
                None
            }
            Expr::ListAppend { list, value } => {
                let ls = list.as_sym().expect("list atom");
                if let Some((arr_sym, idx)) = self.bucket_gets.get(&ls).cloned() {
                    // Intrusive head insertion (Figure 4f):
                    //   value.next = heads[idx]; heads[idx] = value
                    let heads = rw.atom(&Atom::Sym(arr_sym));
                    let idx = rw.atom(&idx);
                    let v = rw.atom(value);
                    let sid = match rw.b.atom_type(&v) {
                        Type::Record(s) => s,
                        other => panic!("intrusive element of type {other}"),
                    };
                    let nf = self.ensure_next_field(&mut rw.b, sid);
                    let old_head = rw.b.array_get(heads.clone(), idx.clone());
                    rw.b.field_set(v.clone(), sid, nf, old_head);
                    rw.b.array_set(heads, idx, v);
                    return Some(Atom::Unit);
                }
                if let Some((arr, cnt)) = self.plain.get(&ls).cloned() {
                    let v = rw.atom(value);
                    let i = rw.b.read_var(cnt);
                    rw.b.array_set(arr, i.clone(), v);
                    let i1 = rw.b.add(i, Atom::Int(1));
                    rw.b.assign(cnt, i1);
                    return Some(Atom::Unit);
                }
                panic!("ListAppend on unclassified list {ls}")
            }
            Expr::ListSize(l) => {
                let ls = l.as_sym().expect("list atom");
                let (_, cnt) = self
                    .plain
                    .get(&ls)
                    .cloned()
                    .expect("ListSize on non-static list");
                Some(rw.b.read_var(cnt))
            }
            Expr::ListForeach { list, var, body } => {
                let ls = list.as_sym().expect("list atom");
                if let Some((arr_sym, idx)) = self.bucket_gets.get(&ls).cloned() {
                    // Intrusive traversal:
                    //   var r = heads[idx]; while (r != null) { …; r = r.next }
                    let heads = rw.atom(&Atom::Sym(arr_sym));
                    let idx = rw.atom(&idx);
                    let head = rw.b.array_get(heads, idx);
                    let sid = match rw.b.atom_type(&head) {
                        Type::Record(s) => s,
                        other => panic!("intrusive element of type {other}"),
                    };
                    let nf = self.ensure_next_field(&mut rw.b, sid);
                    let cur = rw.b.decl_var(head);
                    // cond block: read cur != null
                    rw.b.scope_push();
                    let c = rw.b.read_var(cur);
                    let nonnull = rw.b.ne(c, Atom::Null(Box::new(Type::Record(sid))));
                    let cond = rw.b.scope_pop(nonnull);
                    // body block
                    rw.b.scope_push();
                    let r = rw.b.read_var(cur);
                    rw.map(*var, r.clone());
                    rw.block_inline(self, body);
                    let nxt = rw.b.field_get(r, sid, nf);
                    rw.b.assign(cur, nxt);
                    let wbody = rw.b.scope_pop(Atom::Unit);
                    rw.b.emit_unit(Expr::While { cond, body: wbody });
                    return Some(Atom::Unit);
                }
                if let Some((arr, cnt)) = self.plain.get(&ls).cloned() {
                    let n = rw.b.read_var(cnt);
                    let ivar = rw.b.bind(Type::Int);
                    rw.b.scope_push();
                    let v = rw.b.array_get(arr, Atom::Sym(ivar));
                    rw.map(*var, v);
                    rw.block_inline(self, body);
                    let fbody = rw.b.scope_pop(Atom::Unit);
                    rw.b.emit_unit(Expr::ForRange {
                        lo: Atom::Int(0),
                        hi: n,
                        var: ivar,
                        body: fbody,
                    });
                    return Some(Atom::Unit);
                }
                panic!("ListForeach on unclassified list {ls}")
            }
            // Records whose type gained a `next` field: extend construction
            // with a null tail.
            Expr::StructNew { sid, args, pool } => {
                let nf = *self.next_field.get(sid)?;
                let mut args: Vec<Atom> = args.iter().map(|a| rw.atom(a)).collect();
                debug_assert_eq!(args.len(), nf);
                args.push(Atom::Null(Box::new(Type::Record(*sid))));
                Some(rw.b.struct_new_pooled(*sid, args, *pool))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has_node(p: &Program, pred: fn(&Expr) -> bool) -> bool {
        fn walk(b: &Block, pred: fn(&Expr) -> bool) -> bool {
            b.stmts
                .iter()
                .any(|st| pred(&st.expr) || st.expr.blocks().iter().any(|blk| walk(blk, pred)))
        }
        walk(&p.body, pred)
    }

    #[test]
    fn bounded_list_becomes_static_array() {
        let mut b = IrBuilder::new();
        let l = b.list_new(Type::Int, Some(64));
        b.list_append(l.clone(), Atom::Int(1));
        b.list_append(l.clone(), Atom::Int(2));
        let n = b.list_size(l.clone());
        let total = b.decl_var(Atom::Int(0));
        b.list_foreach(l, |bb, v| {
            let c = bb.read_var(total);
            let s = bb.add(c, v);
            bb.assign(total, s);
        });
        b.printf("%d %d\n", vec![n, Atom::Sym(total)]);
        let p = b.finish(Atom::Unit, Level::List);

        let q = apply(&p);
        assert!(!has_node(&q, |e| matches!(e, Expr::ListNew { .. })));
        assert!(!has_node(&q, |e| matches!(e, Expr::ListForeach { .. })));
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::ArrayNew {
                len: Atom::Int(64),
                ..
            }
        )));
        let violations = dblab_ir::level::validate(&q);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(q.level, Level::ScaLite);
    }

    #[test]
    fn bucket_lists_become_intrusive() {
        // The shape hash_spec emits: Array[List[Pair]] with per-slot
        // ListNew, ArrayGet+Append inserts and ArrayGet+Foreach probes.
        let mut b = IrBuilder::new();
        let sid = b.structs.register(dblab_ir::StructDef {
            name: "Pair".into(),
            fields: vec![
                FieldDef {
                    name: "key".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "value".into(),
                    ty: Type::Int,
                },
            ],
        });
        let arr = b.array_new(Type::list(Type::Record(sid)), Atom::Int(4));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let l = bb.list_new(Type::Record(sid), None);
            bb.array_set(arr.clone(), i, l);
        });
        // insert
        let pair = b.struct_new_pooled(sid, vec![Atom::Int(1), Atom::Int(10)], 4);
        let l = b.array_get(arr.clone(), Atom::Int(1));
        b.list_append(l, pair);
        // probe
        let l2 = b.array_get(arr.clone(), Atom::Int(1));
        let total = b.decl_var(Atom::Int(0));
        b.list_foreach(l2, |bb, pv| {
            let v = bb.field_get(pv, sid, 1);
            let c = bb.read_var(total);
            let s = bb.add(c, v);
            bb.assign(total, s);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::List);

        let q = apply(&p);
        assert!(!has_node(&q, |e| matches!(e, Expr::ListNew { .. })));
        assert!(!has_node(&q, |e| matches!(e, Expr::ListAppend { .. })));
        assert!(
            has_node(&q, |e| matches!(e, Expr::While { .. })),
            "intrusive traversal"
        );
        // Pair gained a next field.
        let pair_def = q.structs.get(sid);
        assert_eq!(&*pair_def.fields.last().unwrap().name, "next");
        // The rebuilt construction keeps its pool count.
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::StructNew { pool: 4, .. }
        )));
        let violations = dblab_ir::level::validate(&q);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
