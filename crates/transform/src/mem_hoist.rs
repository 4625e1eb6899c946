//! Memory-allocation hoisting: the lowering from ScaLite to C.Scala
//! (Appendix D.1).
//!
//! Record construction (`StructNew`) becomes explicit memory management:
//! one memory pool per record type, created up front and sized from the
//! pool counts the allocation sites carry (worst case for records, the
//! map's expected case for a hash table's pairs), so that no `malloc`
//! remains on the critical path. Sites without a usable estimate carry
//! the default capacity, and such a pool doubles on overflow (the
//! fallback policy App. D.1 discusses).

use std::collections::HashMap;

use dblab_ir::expr::{Atom, Expr, Sym};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
use dblab_ir::types::StructId;
use dblab_ir::{IrBuilder, Level, Program, Type};

#[derive(Default)]
struct MemHoist {
    pools: HashMap<StructId, Atom>,
    hints: HashMap<StructId, u64>,
}

/// Hoist all record allocations into pre-sized pools; the result is a
/// C.Scala program.
pub fn apply(p: &Program) -> Program {
    let mut rule = MemHoist::default();
    p.body.for_each_stmt(&mut |st| {
        if let Expr::StructNew { sid, pool, .. } = &st.expr {
            // Several sites may allocate the same record type; pools must
            // cover their sum.
            *rule.hints.entry(*sid).or_insert(0) += pool;
        }
    });
    run_rule(p, &mut rule, Level::CScala)
}

impl Rule for MemHoist {
    fn name(&self) -> &'static str {
        "memory-allocation-hoisting"
    }

    fn prepare(&mut self, _p: &Program, b: &mut IrBuilder) {
        // Topological concerns from the appendix (pools referencing other
        // pools) do not arise here because pools are untyped byte arenas at
        // the C level; we simply emit one pool per record type up front.
        let mut sids: Vec<(StructId, u64)> = self.hints.iter().map(|(s, h)| (*s, *h)).collect();
        sids.sort_by_key(|(s, _)| *s);
        for (sid, hint) in sids {
            let pool = b.pool_new(Type::Record(sid), Atom::Int(hint.min(1 << 28) as i64));
            self.pools.insert(sid, pool);
        }
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, _sym: Sym, _ty: &Type, e: &Expr) -> Option<Atom> {
        if let Expr::StructNew { sid, args, .. } = e {
            let pool = self.pools.get(sid).expect("pool for record type").clone();
            let p = rw.b.pool_alloc(pool);
            for (i, a) in args.iter().enumerate() {
                let v = rw.atom(a);
                rw.b.field_set(p.clone(), *sid, i, v);
            }
            return Some(p);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::{FieldDef, StructDef};

    #[test]
    fn struct_news_become_pool_allocs() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![FieldDef {
                name: "x".into(),
                ty: Type::Int,
            }],
        });
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, i| {
            let r = bb.struct_new_pooled(sid, vec![i], 10);
            let x = bb.field_get(r, sid, 0);
            bb.printf("%d\n", vec![x]);
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let q = apply(&p);
        let text = dblab_ir::printer::print_program(&q);
        assert!(text.contains("new Pool"), "{text}");
        assert!(text.contains(".alloc"), "{text}");
        assert!(!text.contains("new #"), "no StructNew left: {text}");
        assert_eq!(q.level, Level::CScala);
        // The pool is created before the loop.
        assert!(matches!(q.body.stmts[0].expr, Expr::PoolNew { .. }));
    }

    #[test]
    fn pool_sizes_accumulate_across_sites() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![FieldDef {
                name: "x".into(),
                ty: Type::Int,
            }],
        });
        for hint in [100u64, 200] {
            let r = b.struct_new_pooled(sid, vec![Atom::Int(1)], hint);
            let x = b.field_get(r, sid, 0);
            b.printf("%d\n", vec![x]);
        }
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let q = apply(&p);
        match &q.body.stmts[0].expr {
            Expr::PoolNew { cap, .. } => assert_eq!(*cap, Atom::Int(300)),
            other => panic!("expected pool, got {other:?}"),
        }
    }
}
