//! The compilation driver: assembles the configured DSL stack from the
//! [`crate::pass`] registry and runs it top to bottom, optimizing to
//! fixpoint at each level and recording an instrumented snapshot per stage
//! (the paper's progressive-lowering methodology, §2; the per-level
//! optimization sets are the Table 3 experiment axis).
//!
//! The pipeline is **data-driven**: which passes run is decided by each
//! pass's `applies(cfg)` predicate, the order by the registry, and the
//! level contracts by each pass's declaration — there is no per-pass
//! control flow here. Debug/test builds additionally validate the program
//! against its entitled dialect window after every pass (see
//! [`crate::pass`] for the window semantics).

use std::time::{Duration, Instant};

use dblab_catalog::Schema;
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::QueryProgram;
use dblab_ir::level::validate_window;
use dblab_ir::opt::optimize;
use dblab_ir::{Level, Program};

use crate::config::StackConfig;
use crate::memo;
use crate::pass::{self, Frontend, MonadLowering, Pass, PassCtx, PassKind, PlanLowering};

/// One stage of the compilation, for inspection, benches and tests.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    pub name: String,
    pub kind: PassKind,
    /// Program level when the stage started / after it finished: equal for
    /// optimizations, one (or more, on partial stacks) apart for lowerings.
    pub level_before: Level,
    pub level: Level,
    /// Statement count (incl. nested blocks) before / after the stage.
    pub size_before: usize,
    pub size: usize,
    /// Wall-clock time of the rewrite plus its fixpoint re-optimization
    /// (zero for a pass stage of a cached compile).
    pub time: Duration,
    /// The part of `time` spent in the post-rewrite [`optimize`] fixpoint
    /// (zero for a cached compile).
    pub fixpoint: Duration,
}

impl StageSnapshot {
    /// Net IR growth (positive) or shrinkage (negative) of the stage.
    pub fn size_delta(&self) -> i64 {
        self.size as i64 - self.size_before as i64
    }

    /// Did this stage move the program to a lower level?
    pub fn lowered(&self) -> bool {
        self.level != self.level_before
    }
}

/// A compiled query: the final IR program plus instrumented stage metadata.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub program: Program,
    pub stages: Vec<StageSnapshot>,
    /// Pure compiler time (the DBLAB half of Figure 9).
    pub gen_time: Duration,
    pub config: StackConfig,
    /// Whether the passes were served from the compile cache
    /// ([`crate::memo`]). Stage 0 is then this compile's own front-end
    /// lowering; the pass stages keep the sizes and levels of the compile
    /// that filled the entry, with zero `time` and `fixpoint`.
    pub cached: bool,
}

impl CompiledQuery {
    /// The stage metadata recorded after the named pass (the snapshots
    /// store only metadata; use [`compile_with_snapshots`] to retain full
    /// programs for level-by-level differential testing).
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Total wall-clock across recorded stages (excludes driver overhead,
    /// so slightly below [`CompiledQuery::gen_time`]).
    pub fn stage_time_total(&self) -> Duration {
        self.stages.iter().map(|s| s.time).sum()
    }

    /// A human-readable per-pass trace: wall time, IR-size delta and level
    /// transition per stage. Consumed by `--show-ir`-style example output
    /// and the compile-time benches.
    pub fn stage_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26}{:>10}{:>10}{:>8}{:>7}  {}\n",
            "stage", "time", "fixpoint", "stmts", "Δ", "level"
        ));
        for s in &self.stages {
            let transition = if s.lowered() {
                format!("{} -> {}", s.level_before, s.level)
            } else {
                s.level.to_string()
            };
            out.push_str(&format!(
                "{:<26}{:>8.2}ms{:>8.2}ms{:>8}{:>+7}  {}\n",
                s.name,
                s.time.as_secs_f64() * 1e3,
                s.fixpoint.as_secs_f64() * 1e3,
                s.size,
                s.size_delta(),
                transition,
            ));
        }
        out.push_str(&format!(
            "{:<26}{:>8.2}ms{}\n",
            "total (gen)",
            self.gen_time.as_secs_f64() * 1e3,
            if self.cached { "  (cache hit)" } else { "" }
        ));
        out
    }
}

/// Compile a QPlan program through the configured stack.
pub fn compile(prog: &QueryProgram, schema: &Schema, cfg: &StackConfig) -> CompiledQuery {
    let (cq, _) = compile_frontend(&PlanLowering(prog), schema, cfg, false);
    cq
}

/// Compile, optionally retaining the full IR program after every stage
/// (used by the differential tests and the `--show-ir` example flag). A
/// compile that keeps its programs neither reads nor fills the compile
/// cache: a hit has no per-stage programs to return.
pub fn compile_with_snapshots(
    prog: &QueryProgram,
    schema: &Schema,
    cfg: &StackConfig,
    keep_programs: bool,
) -> (CompiledQuery, Vec<(String, Program)>) {
    compile_frontend(&PlanLowering(prog), schema, cfg, keep_programs)
}

/// Compile a QMonad query through the configured stack (the alternative
/// front-end of §4.5; everything below pipelining is shared).
pub fn compile_qmonad(q: &QMonad, schema: &Schema, cfg: &StackConfig) -> CompiledQuery {
    compile_frontend(&MonadLowering(q), schema, cfg, false).0
}

/// The generic driver: any front-end, then the registry-assembled stack
/// in baseline (registry) order.
pub fn compile_frontend(
    fe: &dyn Frontend,
    schema: &Schema,
    cfg: &StackConfig,
    keep: bool,
) -> (CompiledQuery, Vec<(String, Program)>) {
    let registry = pass::registry();
    let selected = pass::check_pipeline(&registry, cfg)
        .unwrap_or_else(|e| panic!("config `{}` selects an ill-formed stack: {e}", cfg.name));
    run_pipeline(fe, schema, cfg, &selected, keep)
}

/// Compile a QPlan program through an **explicit schedule**: a permutation
/// of the selected passes, validated against the pass-commutation DAG
/// ([`crate::schedule::Scheduler`]) before anything runs. Every per-stage
/// contract check (level transitions, dialect-window validation in
/// debug/test builds) applies exactly as in registry order.
pub fn compile_ordered(
    prog: &QueryProgram,
    schema: &Schema,
    cfg: &StackConfig,
    order: &[&str],
) -> Result<CompiledQuery, String> {
    let sched = crate::schedule::Scheduler::from_registry(cfg)?;
    compile_scheduled(&sched, prog, schema, order)
}

/// [`compile_ordered`] through an already-built
/// [`crate::schedule::Scheduler`] (its configuration and its passes
/// decide the selection), so a sweep over every order builds the DAG
/// once per configuration.
pub fn compile_scheduled(
    sched: &crate::schedule::Scheduler,
    prog: &QueryProgram,
    schema: &Schema,
    order: &[&str],
) -> Result<CompiledQuery, String> {
    sched.validate_order(order)?;
    let ordered: Vec<&dyn Pass> = order
        .iter()
        .map(|n| sched.pass_by_name(n).expect("validated"))
        .collect();
    let fe = PlanLowering(prog);
    Ok(run_pipeline(&fe, schema, sched.config(), &ordered, false).0)
}

/// A compile whose schedule was picked by recorded cost (see
/// [`crate::schedule::cost`]): the stack output plus the provenance of
/// the scheduling decision, for serving-layer telemetry.
#[derive(Debug, Clone)]
pub struct CostScored {
    pub cq: CompiledQuery,
    /// The schedule the compile actually ran.
    pub order: Vec<&'static str>,
    /// Whether that schedule differs from the baseline (registry) order.
    pub non_baseline: bool,
    /// `true` when the pick was an exploration (candidate not yet
    /// measured), `false` when the model judged it cheapest.
    pub explored: bool,
}

/// Compile through the **cheapest recorded schedule**: ask the scheduler
/// for a cost-scored order (explore unmeasured candidates first, then
/// exploit the lowest recorded warm-compile latency), run it through the
/// contract-checked driver, and feed the measured generation time back
/// into the cost model — each compile both uses and trains the model.
pub fn compile_cost_scored(
    sched: &crate::schedule::Scheduler,
    prog: &QueryProgram,
    schema: &Schema,
    seed: u64,
    candidates: usize,
) -> Result<CostScored, String> {
    let choice = sched.cost_scored_order(seed, candidates);
    let cq = compile_scheduled(sched, prog, schema, &choice.order)?;
    crate::schedule::cost::record(
        sched.config().name,
        &choice.order,
        cq.gen_time.as_secs_f64() * 1e3,
    );
    Ok(CostScored {
        cq,
        order: choice.order,
        non_baseline: choice.non_baseline,
        explored: choice.explored,
    })
}

/// Shared driver body: front-end, then the given passes in the given
/// order, with the dialect ceiling tracking which vocabulary each
/// lowering discharges (ceiling advancement depends only on which
/// lowerings have run — it is schedule-order-stable).
///
/// Unless `keep` asks for the per-stage programs, the passes go through
/// the compile cache ([`crate::memo`]): one lookup keyed on the lowered
/// program, the pass order, the configuration and the schema, and one
/// insert once every stage has passed its contract checks.
fn run_pipeline(
    fe: &dyn Frontend,
    schema: &Schema,
    cfg: &StackConfig,
    passes: &[&dyn Pass],
    keep: bool,
) -> (CompiledQuery, Vec<(String, Program)>) {
    let ctx = PassCtx { schema, cfg };
    // Post-pass dialect validation is a debug/test-build safety net; the
    // release compiler keeps the paper's generation-time profile.
    let validate = cfg!(debug_assertions);

    let start = Instant::now();
    let raw = fe.lower(&ctx);
    let raw_size = raw.body.size();
    let t = Instant::now();
    let mut p = optimize(raw);
    let fixpoint = t.elapsed();
    debug_assert_eq!(p.level, fe.target());
    if validate {
        let violations = validate_window(&p, fe.target(), p.level);
        assert!(
            violations.is_empty(),
            "front-end {} violated {}: {}",
            fe.name(),
            fe.target(),
            violations[0]
        );
    }
    let front = StageSnapshot {
        name: fe.name().to_string(),
        kind: PassKind::FrontendLowering,
        level_before: fe.target(),
        level: p.level,
        size_before: raw_size,
        size: p.body.size(),
        time: start.elapsed(),
        fixpoint,
    };
    let key = (!keep).then(|| memo::key(&p, passes, cfg, schema));
    if let Some(mut cq) = key.and_then(memo::lookup) {
        cq.stages[0] = front;
        for s in &mut cq.stages[1..] {
            s.time = Duration::ZERO;
            s.fixpoint = Duration::ZERO;
        }
        cq.config = cfg.clone();
        cq.cached = true;
        cq.gen_time = start.elapsed();
        return (cq, Vec::new());
    }
    let mut stages = vec![front];
    let mut programs = Vec::new();
    if keep {
        programs.push((fe.name().to_string(), p.clone()));
    }

    let mut ceiling = Level::MapList;
    for ps in passes {
        let ceiling_after = pass::advance_ceiling(ceiling, *ps);
        let size = stages.last().expect("front-end stage").size;
        let (q, snap) = pass::apply_one(*ps, &p, size, &ctx, ceiling_after, validate)
            .unwrap_or_else(|e| panic!("stack contract broken: {e}"));
        ceiling = ceiling_after;
        if keep {
            programs.push((snap.name.clone(), q.clone()));
        }
        stages.push(snap);
        p = q;
    }

    let mut cq = CompiledQuery {
        program: p,
        stages,
        gen_time: Duration::ZERO,
        config: cfg.clone(),
        cached: false,
    };
    if let Some(key) = key {
        memo::insert(key, &cq);
    }
    cq.gen_time = start.elapsed();
    (cq, programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_frontend::expr::*;
    use dblab_frontend::qplan::{AggFunc, JoinKind, QPlan};

    fn schema() -> Schema {
        let mut s = dblab_tpch::tpch_schema();
        for t in &mut s.tables {
            t.stats.row_count = 100;
            t.stats.int_max = vec![100; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        s
    }

    fn join_count_query() -> QueryProgram {
        QueryProgram::new(
            QPlan::scan("customer")
                .select(col("c_mktsegment").eq(lit_s("BUILDING")))
                .hash_join(
                    QPlan::scan("orders"),
                    JoinKind::Inner,
                    vec![col("c_custkey")],
                    vec![col("o_custkey")],
                )
                .agg(vec![], vec![("n", AggFunc::Count)]),
        )
    }

    #[test]
    fn level2_stays_at_maplist() {
        let cq = compile(&join_count_query(), &schema(), &StackConfig::level2());
        assert_eq!(cq.program.level, Level::MapList);
        assert!(cq.stage("hash-table-specialization").is_none());
    }

    #[test]
    fn level4_reaches_cscala_through_list_level() {
        let cq = compile(&join_count_query(), &schema(), &StackConfig::level4());
        assert_eq!(cq.program.level, Level::CScala);
        assert!(cq.stage("hash-table-specialization").is_some());
        assert!(cq.stage("list-specialization").is_none());
    }

    #[test]
    fn level5_runs_every_stage_in_order() {
        let cq = compile(&join_count_query(), &schema(), &StackConfig::level5());
        let names: Vec<&str> = cq.stages.iter().map(|s| s.name.as_str()).collect();
        // index inference replaces the join's hash table, but aggregation
        // tables still flow through specialization.
        assert!(names.contains(&"pipelining"));
        assert!(names.contains(&"memory-hoisting"));
        assert_eq!(cq.program.level, Level::CScala);
        // Levels are monotonically non-increasing across stages.
        let mut last = Level::MapList;
        for s in &cq.stages {
            assert!(s.level >= last, "level went back up at {}", s.name);
            last = s.level;
        }
    }

    #[test]
    fn all_queries_compile_at_all_configs() {
        let schema = schema();
        for cfg in StackConfig::table3() {
            for (name, prog) in dblab_tpch::queries::all() {
                let cq = compile(&prog, &schema, &cfg);
                assert!(
                    cq.program.body.size() > 10,
                    "{name}@{}: trivial program",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn stages_are_instrumented() {
        let cq = compile(&join_count_query(), &schema(), &StackConfig::level5());
        // Every stage records a level transition consistent with its
        // neighbours and a before/after size pair.
        for w in cq.stages.windows(2) {
            assert_eq!(w[1].level_before, w[0].level, "{} trace gap", w[1].name);
        }
        let spec = cq.stage("hash-table-specialization").expect("stage");
        assert!(spec.lowered());
        assert_eq!(spec.level_before, Level::MapList);
        assert_eq!(spec.level, Level::List);
        assert_ne!(spec.size, 0);
        // The report renders one line per stage plus header and total.
        let report = cq.stage_report();
        assert_eq!(report.lines().count(), cq.stages.len() + 2);
        assert!(report.contains("memory-hoisting"));
        // Stage times are populated and bounded by the whole compilation,
        // also when the passes come from the compile cache.
        assert!(cq.stage_time_total() <= cq.gen_time);
        let warm = compile(&join_count_query(), &schema(), &StackConfig::level5());
        assert!(warm.cached);
        assert!(warm.stage_time_total() <= warm.gen_time);
    }

    #[test]
    fn ordered_compile_matches_baseline_on_a_permuted_schedule() {
        let schema = schema();
        let cfg = StackConfig::level5();
        let q = join_count_query();
        let baseline = compile(&q, &schema, &cfg);
        let sched = crate::schedule::Scheduler::from_registry(&cfg).expect("dag");
        // A genuinely permuted schedule: the first valid order that
        // differs from the baseline.
        let order = sched
            .orders()
            .into_iter()
            .find(|o| *o != sched.baseline())
            .expect("level-5 DAG admits non-baseline orders");
        let cq = compile_ordered(&q, &schema, &cfg, &order).expect("valid schedule");
        // Stage trace follows the requested order; final IR agrees with
        // the baseline (all valid orders are commuting permutations).
        let stage_names: Vec<&str> = cq.stages[1..].iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stage_names, order);
        assert_eq!(
            dblab_ir::hash::program_hash(&cq.program),
            dblab_ir::hash::program_hash(&baseline.program),
        );
    }

    #[test]
    fn cost_scored_compile_trains_the_model_and_converges() {
        let schema = schema();
        // Unique config name: the cost model is process-wide and keyed by
        // it, and other tests in this binary compile at level-5.
        let cfg = StackConfig {
            name: "cost-scored-stack-unit",
            ..StackConfig::level5()
        };
        let q = join_count_query();
        let sched = crate::schedule::Scheduler::from_registry(&cfg).expect("dag");
        let baseline = compile(&q, &schema, &cfg);
        let pool = sched.candidate_orders(11, 3);

        // One compile per candidate (exploration), then one more
        // (exploitation): every compile's result matches the baseline IR
        // — scheduling is a performance decision, never a semantic one.
        let mut picked_non_baseline = false;
        for i in 0..=pool.len() {
            let cs = compile_cost_scored(&sched, &q, &schema, 11, 3).expect("valid");
            assert_eq!(
                dblab_ir::hash::program_hash(&cs.cq.program),
                dblab_ir::hash::program_hash(&baseline.program),
                "cost-scored compile {i} diverged"
            );
            assert_eq!(cs.explored, i < pool.len(), "compile {i}");
            picked_non_baseline |= cs.non_baseline;
            // The compile recorded itself: the model has i+1 or pool.len()
            // orders for this config.
            assert_eq!(
                crate::schedule::cost::recorded_orders(cfg.name),
                (i + 1).min(pool.len())
            );
        }
        assert!(
            picked_non_baseline,
            "exploration must have tried a non-baseline order"
        );
    }

    #[test]
    fn ordered_compile_rejects_invalid_schedules() {
        let schema = schema();
        let cfg = StackConfig::level5();
        let q = join_count_query();
        let err = compile_ordered(&q, &schema, &cfg, &["field-removal"]).unwrap_err();
        assert!(err.contains("passes"), "{err}");
        let mut bad = crate::schedule::Scheduler::from_registry(&cfg)
            .unwrap()
            .baseline();
        bad.reverse();
        assert!(compile_ordered(&q, &schema, &cfg, &bad).is_err());
    }

    /// `order` with `pass` moved to just before `before`.
    fn moved_before(order: &[&'static str], pass: &str, before: &str) -> Vec<&'static str> {
        let mut order = order.to_vec();
        let p = order.remove(order.iter().position(|n| *n == pass).unwrap());
        let at = order.iter().position(|n| *n == before).unwrap();
        order.insert(at, p);
        order
    }

    /// field-removal before string-dictionaries: level-wise legal (the
    /// pass floats), but it violates the *declared* edge — swapped,
    /// string-dictionaries indexes struct layouts field-removal already
    /// pruned. The driver refuses to run it rather than crash or
    /// miscompile.
    #[test]
    fn dag_violating_schedules_are_rejected_not_executed() {
        let cfg = StackConfig::level5();
        let sched = crate::schedule::Scheduler::from_registry(&cfg).expect("dag");
        let order = moved_before(&sched.baseline(), "field-removal", "string-dictionaries");
        let q = dblab_tpch::queries::query(1);
        let err = compile_ordered(&q, &schema(), &cfg, &order).unwrap_err();
        assert!(
            err.contains("edge string-dictionaries -> field-removal"),
            "declared-edge violation must be named: {err}"
        );
    }

    #[test]
    fn qmonad_frontend_flows_through_the_same_registry() {
        use dblab_frontend::qmonad::QMonad;
        let q = QMonad::source("nation").count();
        let cq = compile_qmonad(&q, &schema(), &StackConfig::level5());
        assert_eq!(cq.program.level, Level::CScala);
        assert_eq!(cq.stages[0].kind, PassKind::FrontendLowering);
        assert!(cq.stage("memory-hoisting").is_some());
    }
}
