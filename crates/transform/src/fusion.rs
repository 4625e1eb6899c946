//! Pipelining for QMonad: shortcut fusion (§5.1, Figures 5 and 6).
//!
//! Every QMonad combinator is encoded in producer/consumer form — `build`
//! takes the downstream continuation `k`, `foreach` drives the upstream —
//! and the lowering *inlines* these encodings into one another, which is
//! exactly the `build(f1).foreach(f2) ⇝ f1(f2)` rewrite of Figure 5. In
//! Rust the continuations are closures over the IR builder, so "inlining"
//! happens by construction and the intermediate lists never exist.
//!
//! Combinators without a fused encoding (`sortBy`, `take`) lower through
//! their QPlan translation, reusing the machinery the plan front-end
//! already has — the paper's point that a new front-end "benefits from all
//! transformations that apply to [the lower levels] for free" (§4.5/§4.6).
//!
//! A `fold` (and the aggregates of a `groupBy`) lowers through the plan's
//! aggregation: a multi-aggregate `fold` becomes the plan's
//! `aggregate_global`, one loop that updates every accumulator per row.
//! So this front-end never hands the stack sibling loops over one source,
//! and the stack has no horizontal fusion pass (the paper's §7.3) to merge
//! them.

use dblab_catalog::Schema;
use dblab_frontend::qmonad::QMonad;
use dblab_ir::expr::PrimOp;
use dblab_ir::{Atom, Expr, Level, Program};

use crate::config::StackConfig;
use crate::pipeline::{row_format, Lowering};
use crate::scalar::{lower_expr, ColRef, RowEnv};

/// Lower a QMonad query to ScaLite\[Map, List\], printing result rows.
pub fn lower_qmonad(q: &QMonad, schema: &Schema, cfg: &StackConfig) -> Program {
    let mut lw = Lowering::new(schema, cfg);
    for t in q.tables() {
        lw.load(&t);
    }
    lw.b.prim(PrimOp::TimerStart, vec![]);

    let out_cols = q.to_qplan().output_cols(schema);
    let fmt = row_format(&out_cols);
    produce(&mut lw, q, &mut |lw, env| {
        let args = out_cols
            .iter()
            .map(|(n, _)| env.lookup(n).atom.clone())
            .collect();
        lw.b.emit_unit(Expr::Printf {
            fmt: fmt.as_str().into(),
            args,
        });
    });

    lw.b.prim(PrimOp::TimerStop, vec![]);
    lw.b.prim(PrimOp::PrintRusage, vec![]);
    lw.b.finish(Atom::Unit, Level::MapList)
}

/// The fused producer of a QMonad expression: `build { k => … }` with `k`
/// already inlined (Figure 6's encoding, specialised at compile time).
fn produce(lw: &mut Lowering<'_>, q: &QMonad, k: &mut dyn FnMut(&mut Lowering<'_>, &RowEnv)) {
    match q {
        // Source, filter and map have direct build/foreach encodings; the
        // consumer is spliced straight into the loop body.
        QMonad::Source { .. } | QMonad::Filter { .. } | QMonad::Map { .. } => match q {
            QMonad::Source { table } => {
                let plan = dblab_frontend::qplan::QPlan::scan(table);
                lw.produce(&plan, k);
            }
            QMonad::Filter { child, pred } => {
                produce(lw, child, &mut |lw, env| {
                    let p = lower_expr(&mut lw.b, env, &lw.params, pred);
                    lw.if_then(p, |lw| k(lw, env));
                });
            }
            QMonad::Map { child, cols } => {
                produce(lw, child, &mut |lw, env| {
                    let new_cols = cols
                        .iter()
                        .map(|(n, e)| ColRef {
                            name: n.clone(),
                            atom: lower_expr(&mut lw.b, env, &lw.params, e),
                        })
                        .collect();
                    k(lw, &RowEnv::new(new_cols));
                });
            }
            _ => unreachable!(),
        },
        // Joins, grouping, sorting and limits reuse the plan lowering —
        // by the expressibility principle their QPlan translation is
        // semantically identical, and the resulting IR is the same
        // push-mode code shortcut fusion would produce (§5.1).
        other => {
            let plan = other.to_qplan();
            lw.produce(&plan, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_frontend::expr::*;

    fn schema() -> Schema {
        let mut s = dblab_tpch::tpch_schema();
        for t in &mut s.tables {
            t.stats.row_count = 100;
            t.stats.int_max = vec![100; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        s
    }

    #[test]
    fn filter_count_fuses_into_one_loop() {
        // R.filter(p).count — shortcut fusion must produce a single loop
        // with no intermediate list (the paper's central §5.1 claim).
        let q = QMonad::source("nation")
            .filter(col("n_regionkey").eq(lit_i(1)))
            .count();
        let cfg = StackConfig::level2();
        let p = lower_qmonad(&q, &schema(), &cfg);
        let text = dblab_ir::printer::print_program(&p);
        assert!(!text.contains("new List"), "no materialization: {text}");
        assert!(!text.contains("MultiMap"), "{text}");
        let loops = count_loops_top(&p);
        assert_eq!(loops, 1, "{text}");
    }

    #[test]
    fn multi_aggregate_fold_lowers_to_one_loop() {
        // Three accumulators, one pass over lineitem: the lowering is
        // already horizontally fused.
        use dblab_frontend::qplan::AggFunc;
        let q = QMonad::source("lineitem").fold(vec![
            ("n", AggFunc::Count),
            ("qty", AggFunc::Sum(col("l_quantity"))),
            ("price", AggFunc::Sum(col("l_extendedprice"))),
        ]);
        let p = lower_qmonad(&q, &schema(), &StackConfig::level2());
        let text = dblab_ir::printer::print_program(&p);
        assert_eq!(count_loops_top(&p), 1, "{text}");
    }

    #[test]
    fn join_reuses_lower_level_machinery() {
        let q = QMonad::source("nation")
            .hash_join(
                QMonad::source("region"),
                vec![col("n_regionkey")],
                vec![col("r_regionkey")],
            )
            .count();
        let cfg = StackConfig::level2();
        let p = lower_qmonad(&q, &schema(), &cfg);
        let text = dblab_ir::printer::print_program(&p);
        assert!(text.contains("MultiMap"), "{text}");
        assert!(dblab_ir::level::validate(&p).is_empty());
    }

    fn count_loops_top(p: &Program) -> usize {
        p.body
            .stmts
            .iter()
            .filter(|st| matches!(st.expr, Expr::ForRange { .. }))
            .count()
    }
}
