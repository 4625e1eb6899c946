//! The pass-commutation DAG and its schedules.
//!
//! Pass *membership* is data ([`Pass::applies`]). This module makes pass
//! *order* data too: the linear registry becomes a declared dependency
//! DAG, and any topological order of that DAG is a valid compilation
//! schedule for the contract-checked driver ([`crate::stack`]).
//!
//! Two kinds of edges order the DAG:
//!
//! * **Level edges** are derived mechanically from each pass's declared
//!   [`Level`](dblab_ir::Level) contract: lowerings are ordered by their
//!   source level (transformation cohesion gives at most one lowering per
//!   level, so this is a total order on the lowerings), and a non-floating pass
//!   must sit inside the window where the program *is* at its source
//!   level — after the lowering producing that level, before the lowering
//!   consuming it.
//! * **Declared edges** ([`Pass::after`] / [`Pass::before`]) are semantic
//!   claims two passes do not commute. They are the only hand-written
//!   ordering information left in the stack.
//!
//! Everything the DAG leaves unordered is thereby **declared commuting**,
//! and the claim is checked whole: every valid order
//! ([`Scheduler::orders`], all of them — the registry's DAGs admit at
//! most eight) must compile each TPC-H query to the baseline's
//! `program_hash` (`tests/stack_invariants.rs`). An order that diverges
//! is reported with the pass pairs it inverts, so a forgotten `after`
//! edge is named by machinery rather than by a miscompiled query.

use std::collections::HashMap;

use crate::config::StackConfig;
use crate::pass::{self, Pass, PassKind};

/// The dependency DAG over the passes a configuration selects, plus the
/// machinery to enumerate and validate schedules over it.
pub struct Scheduler {
    /// Selected passes, in registry (baseline) order.
    passes: Vec<Box<dyn Pass>>,
    names: Vec<&'static str>,
    cfg: StackConfig,
    /// `(from, to)`: the pass at `from` runs before the one at `to`
    /// (indices into `names`).
    edges: Vec<(usize, usize)>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let edges: Vec<(&str, &str)> = (self.edges.iter())
            .map(|&(a, b)| (self.names[a], self.names[b]))
            .collect();
        f.debug_struct("Scheduler")
            .field("names", &self.names)
            .field("edges", &edges)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Build the DAG for the passes `cfg` selects from [`pass::registry`].
    pub fn from_registry(cfg: &StackConfig) -> Result<Scheduler, String> {
        Scheduler::from_passes(pass::registry(), cfg)
    }

    /// Build the DAG over an explicit pass list (tests inject rogue or
    /// mis-declared passes through this seam). The list's order is the
    /// baseline schedule; passes whose `applies(cfg)` is false are
    /// dropped first, exactly like the driver does.
    ///
    /// Soundness checks performed here:
    /// * declared `after`/`before` names must exist in the pass list
    ///   (selected or not) — a typo is an error, not a silent no-edge;
    /// * no self-edges;
    /// * the combined edge set must be acyclic (a declared edge that
    ///   contradicts the level structure surfaces as a cycle);
    /// * the baseline order must itself be a valid schedule.
    pub fn from_passes(all: Vec<Box<dyn Pass>>, cfg: &StackConfig) -> Result<Scheduler, String> {
        let known: Vec<&'static str> = all.iter().map(|p| p.name()).collect();
        let passes: Vec<Box<dyn Pass>> = all.into_iter().filter(|p| p.applies(cfg)).collect();
        let names: Vec<&'static str> = passes.iter().map(|p| p.name()).collect();
        let index: HashMap<&'static str, usize> =
            names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        if index.len() != names.len() {
            return Err("duplicate pass names in the registry".into());
        }

        let mut edges: Vec<(usize, usize)> = Vec::new();
        let add = |from: usize, to: usize, edges: &mut Vec<(usize, usize)>| {
            if !edges.contains(&(from, to)) {
                edges.push((from, to));
            }
        };

        // Level edges. Lowerings are totally ordered by source level.
        let lowerings: Vec<usize> = (0..passes.len())
            .filter(|&i| passes[i].kind() == PassKind::Lowering)
            .collect();
        for &a in &lowerings {
            for &b in &lowerings {
                if passes[a].source() < passes[b].source() {
                    add(a, b, &mut edges);
                }
            }
        }
        // A non-floating, non-lowering pass at level X runs while the
        // program is at X: after the lowering producing X, before any
        // lowering leaving X or below.
        for i in 0..passes.len() {
            let p = &passes[i];
            if p.floats() || p.kind() == PassKind::Lowering {
                continue;
            }
            let x = p.source();
            for &l in &lowerings {
                if passes[l].target() <= x {
                    add(l, i, &mut edges);
                }
                if passes[l].source() >= x {
                    add(i, l, &mut edges);
                }
            }
        }

        // Declared edges.
        for i in 0..passes.len() {
            for (declared, after) in [(passes[i].after(), true), (passes[i].before(), false)] {
                for &n in declared {
                    match index.get(n) {
                        Some(&j) if after => add(j, i, &mut edges),
                        Some(&j) => add(i, j, &mut edges),
                        None if known.contains(&n) => {} // disabled by cfg: vacuous
                        None => {
                            return Err(format!(
                                "pass {} declares `{}` an unknown pass `{n}`",
                                names[i],
                                if after { "after" } else { "before" }
                            ))
                        }
                    }
                }
            }
        }
        if let Some(&(a, _)) = edges.iter().find(|(a, b)| a == b) {
            return Err(format!("pass {} declares an edge to itself", names[a]));
        }

        // Cycle detection: a pass that reaches itself lies on a cycle,
        // and so does every pass it reaches that reaches it back.
        let n = passes.len();
        let reach: Vec<Vec<bool>> = (0..n)
            .map(|s| {
                let mut row = vec![false; n];
                let mut stack = vec![s];
                while let Some(u) = stack.pop() {
                    for &(_, v) in edges.iter().filter(|(a, _)| *a == u) {
                        if !row[v] {
                            row[v] = true;
                            stack.push(v);
                        }
                    }
                }
                row
            })
            .collect();
        if let Some(s) = (0..n).find(|&s| reach[s][s]) {
            let cycle: Vec<&str> = (0..n)
                .filter(|&v| reach[s][v] && reach[v][s])
                .map(|v| names[v])
                .collect();
            return Err(format!(
                "pass dependency cycle through {{{}}} — the declared edges \
                 contradict each other or the level structure",
                cycle.join(", ")
            ));
        }

        let sched = Scheduler {
            passes,
            names,
            cfg: cfg.clone(),
            edges,
        };
        sched.validate_order(&sched.baseline()).map_err(|e| {
            format!("the baseline (registry) order is itself not a valid schedule: {e}")
        })?;
        Ok(sched)
    }

    /// Selected pass names, baseline (registry) order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// The configuration this DAG was built for.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// The baseline schedule: registry order restricted to the selection.
    pub fn baseline(&self) -> Vec<&'static str> {
        self.names.clone()
    }

    pub(crate) fn pass_by_name(&self, name: &str) -> Option<&dyn Pass> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.passes[i].as_ref())
    }

    /// Every valid schedule (topological order of the DAG), the baseline
    /// first: a depth-first walk that places, at each step, each pass
    /// whose predecessors are all placed, trying them in baseline order.
    /// The registry's DAGs admit between one and eight.
    pub fn orders(&self) -> Vec<Vec<&'static str>> {
        fn walk(
            s: &Scheduler,
            waiting: &mut [usize],
            order: &mut Vec<usize>,
            out: &mut Vec<Vec<&'static str>>,
        ) {
            if order.len() == s.names.len() {
                out.push(order.iter().map(|&i| s.names[i]).collect());
                return;
            }
            for v in 0..s.names.len() {
                if waiting[v] != 0 || order.contains(&v) {
                    continue;
                }
                let succ = s.edges.iter().filter(|(a, _)| *a == v);
                succ.clone().for_each(|&(_, b)| waiting[b] -= 1);
                order.push(v);
                walk(s, waiting, order, out);
                order.pop();
                succ.for_each(|&(_, b)| waiting[b] += 1);
            }
        }
        // `waiting[v]`: predecessors of `v` not yet placed.
        let mut waiting = vec![0; self.names.len()];
        for &(_, b) in &self.edges {
            waiting[b] += 1;
        }
        let mut out = Vec::new();
        walk(self, &mut waiting, &mut Vec::new(), &mut out);
        out
    }

    /// Is `order` a valid schedule? Checks that it is a permutation of
    /// the selection, respects every DAG edge, and — independently — that
    /// the level simulation succeeds (every non-floating pass meets the
    /// program at its declared source level).
    pub fn validate_order(&self, order: &[&str]) -> Result<(), String> {
        let n = self.names.len();
        if order.len() != n {
            return Err(format!(
                "schedule has {} passes, the selection has {n}",
                order.len()
            ));
        }
        let mut position = vec![usize::MAX; n];
        for (pos, name) in order.iter().enumerate() {
            let i = self
                .names
                .iter()
                .position(|x| x == name)
                .ok_or_else(|| format!("schedule names unselected pass `{name}`"))?;
            if position[i] != usize::MAX {
                return Err(format!("schedule repeats pass `{name}`"));
            }
            position[i] = pos;
        }
        if let Some(&(a, b)) = self.edges.iter().find(|&&(a, b)| position[a] > position[b]) {
            return Err(format!(
                "schedule violates edge {} -> {}",
                self.names[a], self.names[b]
            ));
        }
        // The level simulation is the ground truth; level edges should
        // make a failure here unreachable.
        let ordered: Vec<&dyn Pass> = order
            .iter()
            .map(|n| self.pass_by_name(n).expect("validated above"))
            .collect();
        pass::check_levels(&ordered)
    }
}

// ---------------------------------------------------------------------
// Cost-scored schedule selection
// ---------------------------------------------------------------------

/// Recorded compile latency per (configuration, schedule).
///
/// Every valid schedule runs the same passes, so a per-pass cost model
/// cannot rank them — what differs between orders is how large the IR is
/// when each pass meets it. That is only visible in *measured
/// whole-schedule latency*, so that is what this model records: the
/// [`cost`] table maps `(config name, order)` to an EWMA of observed
/// generation time.
pub mod cost {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// Observed compile cost of one (config, order) pair.
    #[derive(Debug, Clone, Copy)]
    pub struct OrderCost {
        /// How many compiles have been recorded.
        pub runs: u64,
        /// Exponentially weighted moving average of generation time (ms) —
        /// the score schedules are ranked by. Warm compiles dominate it
        /// quickly, which is the point: steady-state latency is what a
        /// serving engine keeps paying.
        pub ewma_ms: f64,
        /// The most recent observation (ms).
        pub last_ms: f64,
    }

    /// Weight of the newest observation in the EWMA.
    const ALPHA: f64 = 0.5;

    type Model = HashMap<(String, Vec<String>), OrderCost>;

    static MODEL: OnceLock<Mutex<Model>> = OnceLock::new();

    fn model() -> &'static Mutex<Model> {
        MODEL.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn key(cfg: &str, order: &[&str]) -> (String, Vec<String>) {
        (
            cfg.to_string(),
            order.iter().map(|s| s.to_string()).collect(),
        )
    }

    /// Record one measured compile of `order` under `cfg`.
    pub fn record(cfg: &str, order: &[&str], gen_ms: f64) {
        let mut m = model().lock().unwrap();
        // A first observation starts the average at itself.
        let c = m.entry(key(cfg, order)).or_insert(OrderCost {
            runs: 0,
            ewma_ms: gen_ms,
            last_ms: gen_ms,
        });
        c.runs += 1;
        c.ewma_ms = (1.0 - ALPHA) * c.ewma_ms + ALPHA * gen_ms;
        c.last_ms = gen_ms;
    }

    /// The recorded cost of `order` under `cfg`, if any compile of that
    /// pair has been measured.
    pub fn score(cfg: &str, order: &[&str]) -> Option<OrderCost> {
        model().lock().unwrap().get(&key(cfg, order)).copied()
    }

    /// Number of distinct orders recorded for `cfg`.
    pub fn recorded_orders(cfg: &str) -> usize {
        model()
            .lock()
            .unwrap()
            .keys()
            .filter(|(c, _)| c == cfg)
            .count()
    }

    /// Forget every recorded measurement (tests and cold-start benches).
    pub fn clear() {
        model().lock().unwrap().clear();
    }
}

/// The schedule [`Scheduler::cost_scored_order`] settled on, and why.
#[derive(Debug, Clone)]
pub struct ScheduleChoice {
    /// The schedule to compile with (always valid for this DAG).
    pub order: Vec<&'static str>,
    /// Whether the pick differs from the baseline (registry) order.
    pub non_baseline: bool,
    /// `true` while the model is still measuring unscored candidates (the
    /// pick is an exploration, not a cost judgment).
    pub explored: bool,
    /// The recorded EWMA (ms) that justified an exploitation pick; `None`
    /// during exploration.
    pub expected_ms: Option<f64>,
}

impl Scheduler {
    /// The candidate schedules cost scoring ranks: the baseline first,
    /// then up to `candidates - 1` of the other valid orders, taken from
    /// [`Scheduler::orders`] rotated by `seed` (so one serving process
    /// keeps scoring the same pool and the [`cost`] model converges
    /// instead of chasing fresh orders forever).
    pub fn candidate_orders(&self, seed: u64, candidates: usize) -> Vec<Vec<&'static str>> {
        let mut orders = self.orders();
        let others = &mut orders[1..];
        if !others.is_empty() {
            others.rotate_left((seed % others.len() as u64) as usize);
        }
        orders.truncate(candidates.max(1));
        orders
    }

    /// Pick a schedule by recorded warm-compile latency: measure every
    /// candidate once (in candidate order, so a cold process starts at
    /// the baseline), then keep picking the candidate with the lowest
    /// recorded EWMA. Feed measurements back via [`cost::record`] — the
    /// driver's [`crate::stack::compile_cost_scored`] does both halves.
    pub fn cost_scored_order(&self, seed: u64, candidates: usize) -> ScheduleChoice {
        let cfg = self.cfg.name;
        let pool = self.candidate_orders(seed, candidates);
        for order in &pool {
            if cost::score(cfg, order).is_none() {
                return ScheduleChoice {
                    non_baseline: *order != self.baseline(),
                    order: order.clone(),
                    explored: true,
                    expected_ms: None,
                };
            }
        }
        let (order, best) = pool
            .into_iter()
            .map(|o| {
                let c = cost::score(cfg, &o).expect("all candidates scored");
                (o, c.ewma_ms)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("candidate pool is never empty");
        ScheduleChoice {
            non_baseline: order != self.baseline(),
            order,
            explored: false,
            expected_ms: Some(best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassCtx;
    use dblab_ir::Level;

    fn level5() -> StackConfig {
        StackConfig::level5()
    }

    /// A pass that rewrites nothing, for DAGs whose shape is the point.
    struct Synthetic(&'static str, &'static [&'static str]);

    impl Pass for Synthetic {
        fn name(&self) -> &'static str {
            self.0
        }
        fn kind(&self) -> PassKind {
            PassKind::Optimization
        }
        fn source(&self) -> Level {
            Level::MapList
        }
        fn target(&self) -> Level {
            Level::MapList
        }
        fn after(&self) -> &'static [&'static str] {
            self.1
        }
        fn run(&self, p: &dblab_ir::Program, _ctx: &PassCtx) -> dblab_ir::Program {
            p.clone()
        }
    }

    /// Five passes with one declared edge (`b` after `a`): 5! / 2 = 60
    /// valid orders.
    fn synthetic() -> Scheduler {
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(Synthetic("a", &[])),
            Box::new(Synthetic("b", &["a"])),
            Box::new(Synthetic("c", &[])),
            Box::new(Synthetic("d", &[])),
            Box::new(Synthetic("e", &[])),
        ];
        Scheduler::from_passes(passes, &level5()).expect("valid DAG")
    }

    #[test]
    fn dag_builds_and_baseline_validates() {
        let s = Scheduler::from_registry(&level5()).expect("valid DAG");
        assert_eq!(s.names().len(), 6);
        s.validate_order(&s.baseline()).expect("baseline valid");
        // The three lowerings are totally ordered by level edges: every
        // valid order runs them in level order.
        let lowerings = [
            "hash-table-specialization",
            "list-specialization",
            "memory-hoisting",
        ];
        for o in s.orders() {
            let at: Vec<usize> = (lowerings.iter())
                .map(|l| o.iter().position(|n| n == l).unwrap())
                .collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "{o:?}");
        }
    }

    #[test]
    fn orders_are_every_topological_order_baseline_first() {
        let s = synthetic();
        let orders = s.orders();
        assert_eq!(orders.len(), 60, "5! / 2");
        assert_eq!(orders[0], s.baseline());
        for (i, o) in orders.iter().enumerate() {
            s.validate_order(o).expect("enumerated order valid");
            assert!(!orders[..i].contains(o), "{o:?} repeats");
        }
        let s = Scheduler::from_registry(&level5()).expect("valid DAG");
        assert_eq!(s.orders().len(), 8);
        assert_eq!(s.orders()[0], s.baseline());
    }

    #[test]
    fn candidates_are_the_baseline_then_other_orders_rotated_by_the_seed() {
        let s = synthetic();
        let orders = s.orders();
        let picks = |seed: u64, k: usize| -> Vec<usize> {
            (s.candidate_orders(seed, k).iter())
                .map(|o| orders.iter().position(|x| x == o).unwrap())
                .collect()
        };
        assert_eq!(picks(2, 4), [0, 3, 4, 5]);
        // The seed wraps around the 59 non-baseline orders.
        assert_eq!(picks(2 + 59, 4), [0, 3, 4, 5]);
        assert_eq!(picks(58, 3), [0, 59, 1]);
        assert_eq!(s.candidate_orders(7, 0), [s.baseline()]);
        assert_eq!(s.candidate_orders(7, 100).len(), 60);
        // The registry's level-5 DAG fills a four-candidate pool with four
        // distinct valid orders whatever the seed.
        let s = Scheduler::from_registry(&level5()).expect("valid DAG");
        for seed in 0..8 {
            let pool = s.candidate_orders(seed, 4);
            assert_eq!(pool.len(), 4);
            for (i, o) in pool.iter().enumerate() {
                s.validate_order(o).expect("candidate valid");
                assert!(!pool[..i].contains(o), "seed {seed}: {o:?} repeats");
            }
        }
    }

    #[test]
    fn invalid_orders_are_rejected() {
        let s = Scheduler::from_registry(&level5()).expect("valid DAG");
        let mut order = s.baseline();
        // list-specialization before hash-table-specialization: level edge.
        let ih = order
            .iter()
            .position(|n| *n == "hash-table-specialization")
            .unwrap();
        let il = order
            .iter()
            .position(|n| *n == "list-specialization")
            .unwrap();
        order.swap(ih, il);
        let err = s.validate_order(&order).unwrap_err();
        assert!(err.contains("edge") || err.contains("expects"), "{err}");
        // Truncated and duplicated schedules are rejected too.
        assert!(s.validate_order(&order[1..]).is_err());
        let mut dup = s.baseline();
        dup[0] = dup[1];
        assert!(s.validate_order(&dup).is_err());
    }

    #[test]
    fn unknown_declared_edge_is_an_error() {
        struct Typo;
        impl Pass for Typo {
            fn name(&self) -> &'static str {
                "typo"
            }
            fn kind(&self) -> PassKind {
                PassKind::Optimization
            }
            fn source(&self) -> Level {
                Level::MapList
            }
            fn target(&self) -> Level {
                Level::MapList
            }
            fn after(&self) -> &'static [&'static str] {
                &["field-removall"] // typo
            }
            fn run(&self, p: &dblab_ir::Program, _ctx: &PassCtx) -> dblab_ir::Program {
                p.clone()
            }
        }
        let mut passes = pass::registry();
        passes.push(Box::new(Typo));
        let err = Scheduler::from_passes(passes, &level5()).unwrap_err();
        assert!(err.contains("unknown pass"), "{err}");
    }

    #[test]
    fn contradictory_edges_surface_as_a_cycle() {
        struct WantsLate;
        impl Pass for WantsLate {
            fn name(&self) -> &'static str {
                "wants-late"
            }
            fn kind(&self) -> PassKind {
                PassKind::Optimization
            }
            fn source(&self) -> Level {
                Level::MapList
            }
            fn target(&self) -> Level {
                Level::MapList
            }
            // Non-floating at MapList (level edges force it before the
            // first lowering) yet declared after memory-hoisting.
            fn after(&self) -> &'static [&'static str] {
                &["memory-hoisting"]
            }
            fn run(&self, p: &dblab_ir::Program, _ctx: &PassCtx) -> dblab_ir::Program {
                p.clone()
            }
        }
        let mut passes = pass::registry();
        passes.push(Box::new(WantsLate));
        let err = Scheduler::from_passes(passes, &level5()).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn edges_to_config_disabled_passes_are_vacuous() {
        // level-2 disables every lowering; declared edges that reference
        // them must drop out rather than error.
        let s = Scheduler::from_registry(&StackConfig::level2()).expect("valid DAG");
        assert!(s.names().contains(&"field-removal"));
        assert!(!s.names().contains(&"memory-hoisting"));
    }

    #[test]
    fn cost_model_records_and_averages() {
        // A config name unique to this test: the model is process-wide.
        let cfg = "cost-model-unit";
        let order = ["a", "b", "c"];
        assert!(cost::score(cfg, &order).is_none());
        cost::record(cfg, &order, 10.0);
        let c = cost::score(cfg, &order).expect("recorded");
        assert_eq!(c.runs, 1);
        assert_eq!(c.ewma_ms, 10.0);
        cost::record(cfg, &order, 2.0);
        let c = cost::score(cfg, &order).expect("recorded");
        assert_eq!(c.runs, 2);
        assert!(c.ewma_ms < 10.0 && c.ewma_ms > 2.0, "EWMA moved: {c:?}");
        assert_eq!(c.last_ms, 2.0);
        assert_eq!(cost::recorded_orders(cfg), 1);
        // A different order under the same config is a separate entry.
        cost::record(cfg, &["c", "b", "a"], 5.0);
        assert_eq!(cost::recorded_orders(cfg), 2);
    }

    #[test]
    fn cost_scoring_explores_then_picks_the_cheapest() {
        // Unique config name: the cost model is keyed by it, and other
        // tests in this binary share the process-wide table.
        let cfg = StackConfig {
            name: "cost-scored-unit",
            ..StackConfig::level5()
        };
        let s = Scheduler::from_registry(&cfg).expect("valid DAG");
        let pool = s.candidate_orders(42, 4);
        assert_eq!(pool.len(), 4, "level-5 DAG fills the candidate pool");
        assert_eq!(pool[0], s.baseline(), "baseline is always a candidate");

        // Exploration: candidates are measured in pool order, baseline
        // first; every exploration pick is unscored at pick time.
        for (i, expect) in pool.iter().enumerate() {
            let choice = s.cost_scored_order(42, 4);
            assert!(choice.explored, "candidate {i} is an exploration");
            assert_eq!(&choice.order, expect);
            assert_eq!(choice.non_baseline, i != 0);
            assert_eq!(choice.expected_ms, None);
            // Pretend candidate i took (i == 2 ? 1ms : 10+i ms): the third
            // candidate is the cheapest.
            let ms = if i == 2 { 1.0 } else { 10.0 + i as f64 };
            cost::record(cfg.name, &choice.order, ms);
        }

        // Exploitation: every candidate is scored; the cheapest wins, and
        // it is a non-baseline order.
        let choice = s.cost_scored_order(42, 4);
        assert!(!choice.explored);
        assert_eq!(choice.order, pool[2]);
        assert!(choice.non_baseline);
        assert_eq!(choice.expected_ms, Some(1.0));
        // New measurements keep steering the pick: make the baseline far
        // cheaper and it takes over.
        for _ in 0..8 {
            cost::record(cfg.name, &pool[0], 0.1);
        }
        let choice = s.cost_scored_order(42, 4);
        assert_eq!(choice.order, pool[0]);
        assert!(!choice.non_baseline);
    }
}
