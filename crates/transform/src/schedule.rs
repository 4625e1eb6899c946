//! The pass-commutation DAG and schedule permutation.
//!
//! Pass *membership* is data ([`Pass::applies`]). This module makes pass
//! *order* data too: the linear registry becomes a declared dependency
//! DAG, and any topological order of that DAG is a valid compilation
//! schedule for the contract-checked driver ([`crate::stack`]).
//!
//! Two kinds of edges order the DAG:
//!
//! * **Level edges** are derived mechanically from each pass's declared
//!   [`Level`] contract: lowerings are ordered by their source level
//!   (transformation cohesion gives at most one lowering per level, so
//!   this is a total order on the lowerings), and a non-floating pass
//!   must sit inside the window where the program *is* at its source
//!   level — after the lowering producing that level, before the lowering
//!   consuming it.
//! * **Declared edges** ([`Pass::after`] / [`Pass::before`]) are semantic
//!   claims two passes do not commute. They are the only hand-written
//!   ordering information left in the stack.
//!
//! Everything the DAG leaves unordered is thereby **declared commuting**:
//! swapping an unordered adjacent pair must produce `program_hash`-equal
//! IR. That claim is checkable — [`Scheduler::verify_commutation`] runs
//! both orders of every unordered pair over a program corpus and reports
//! any pair whose outputs diverge, so a forgotten `after` edge is
//! surfaced by machinery rather than waiting for a miscompiled query.
//! (The check runs each pair after its DAG-*ancestor* prefix — one
//! well-defined context per pair; non-commutation that only appears
//! after some *unrelated* pass has rewritten the program is outside its
//! reach and is instead hunted by the schedule-differential suite, which
//! sweeps whole sampled schedules.) The schedule-differential test suite
//! and the `schedules` bench sweep sampled topological orders
//! ([`Scheduler::sample_orders`], seeded and deterministic) through the
//! full driver, where every per-stage contract check still applies.

use std::collections::HashMap;

use dblab_catalog::Schema;
use dblab_frontend::qplan::QueryProgram;
use dblab_ir::hash::program_hash;
use dblab_ir::{Level, Program};

use crate::config::StackConfig;
use crate::pass::{self, advance_ceiling, Frontend, Pass, PassCtx, PassKind, PlanLowering};

/// Why an edge exists in the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Derived from the passes' level contracts (source/target/floats).
    Level,
    /// Declared via [`Pass::after`] / [`Pass::before`].
    Declared,
}

/// One ordering constraint: the pass at `from` runs before the one at
/// `to` (indices into [`Scheduler::names`]).
#[derive(Debug, Clone, Copy)]
pub struct DagEdge {
    pub from: usize,
    pub to: usize,
    pub kind: EdgeKind,
}

/// The dependency DAG over the passes a configuration selects, plus the
/// machinery to enumerate, sample and validate schedules over it.
pub struct Scheduler {
    /// Selected passes, in registry (baseline) order.
    passes: Vec<Box<dyn Pass>>,
    names: Vec<&'static str>,
    cfg: StackConfig,
    edges: Vec<DagEdge>,
    /// `reach[u][v]`: there is a directed path `u -> v`.
    reach: Vec<Vec<bool>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("names", &self.names)
            .field("edges", &self.edge_names())
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

        let mut edges: Vec<DagEdge> = Vec::new();
        let add = |from: usize, to: usize, kind: EdgeKind, edges: &mut Vec<DagEdge>| {
            if !edges.iter().any(|e| e.from == from && e.to == to) {
                edges.push(DagEdge { from, to, kind });
            }
        };

        // Level edges. Lowerings are totally ordered by source level.
        let lowerings: Vec<usize> = (0..passes.len())
            .filter(|&i| passes[i].kind() == PassKind::Lowering)
            .collect();
        for &a in &lowerings {
            for &b in &lowerings {
                if passes[a].source() < passes[b].source() {
                    add(a, b, EdgeKind::Level, &mut edges);
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
                    add(l, i, EdgeKind::Level, &mut edges);
                }
                if passes[l].source() >= x {
                    add(i, l, EdgeKind::Level, &mut edges);
                }
            }
        }

        // Declared edges.
        for i in 0..passes.len() {
            for &n in passes[i].after() {
                match index.get(n) {
                    Some(&j) => add(j, i, EdgeKind::Declared, &mut edges),
                    None if known.contains(&n) => {} // disabled by cfg: vacuous
                    None => {
                        return Err(format!(
                            "pass {} declares `after` an unknown pass `{n}`",
                            names[i]
                        ))
                    }
                }
            }
            for &n in passes[i].before() {
                match index.get(n) {
                    Some(&j) => add(i, j, EdgeKind::Declared, &mut edges),
                    None if known.contains(&n) => {}
                    None => {
                        return Err(format!(
                            "pass {} declares `before` an unknown pass `{n}`",
                            names[i]
                        ))
                    }
                }
            }
        }
        if let Some(e) = edges.iter().find(|e| e.from == e.to) {
            return Err(format!("pass {} declares an edge to itself", names[e.from]));
        }

        let mut succ = vec![Vec::new(); passes.len()];
        for e in &edges {
            succ[e.from].push(e.to);
        }

        // Transitive closure (DFS from every node) + cycle detection.
        let n = passes.len();
        let mut reach: Vec<Vec<bool>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut row = vec![false; n];
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &v in &succ[u] {
                    if !row[v] {
                        row[v] = true;
                        stack.push(v);
                    }
                }
            }
            reach.push(row);
        }
        for (s, row) in reach.iter().enumerate() {
            if row[s] {
                let cycle: Vec<&str> = row
                    .iter()
                    .enumerate()
                    .filter(|&(v, r)| *r && reach[v][s])
                    .map(|(v, _)| names[v])
                    .collect();
                return Err(format!(
                    "pass dependency cycle through {{{}}} — the declared edges \
                     contradict each other or the level structure",
                    cycle.join(", ")
                ));
            }
        }

        let sched = Scheduler {
            passes,
            names,
            cfg: cfg.clone(),
            edges,
            reach,
        };
        let baseline = sched.baseline();
        sched.validate_order(&baseline).map_err(|e| {
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

    /// Every edge, as `(from, to, kind)` name pairs.
    pub fn edge_names(&self) -> Vec<(&'static str, &'static str, EdgeKind)> {
        self.edges
            .iter()
            .map(|e| (self.names[e.from], self.names[e.to], e.kind))
            .collect()
    }

    pub(crate) fn pass_by_name(&self, name: &str) -> Option<&dyn Pass> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.passes[i].as_ref())
    }

    /// All pairs the DAG leaves unordered — the declared-commuting pairs
    /// the soundness check holds to hash-equality. Pairs are reported in
    /// baseline order.
    pub fn commuting_pairs(&self) -> Vec<(&'static str, &'static str)> {
        let n = self.names.len();
        let mut out = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if !self.reach[a][b] && !self.reach[b][a] {
                    out.push((self.names[a], self.names[b]));
                }
            }
        }
        out
    }

    /// Exact number of valid schedules (topological orders), or `None`
    /// when the selection is too large for the bitmask DP (> 24 passes).
    pub fn order_count(&self) -> Option<u128> {
        let n = self.names.len();
        if n > 24 {
            return None;
        }
        // Predecessor masks: a node is available once all predecessors are
        // placed.
        let mut pred_mask = vec![0u32; n];
        for e in &self.edges {
            pred_mask[e.to] |= 1 << e.from;
        }
        fn count(mask: u32, n: usize, pred: &[u32], memo: &mut HashMap<u32, u128>) -> u128 {
            if mask == (1u32 << n) - 1 {
                return 1;
            }
            if let Some(&c) = memo.get(&mask) {
                return c;
            }
            let mut total = 0u128;
            for v in 0..n {
                if mask & (1 << v) == 0 && pred[v] & mask == pred[v] {
                    total += count(mask | (1 << v), n, pred, memo);
                }
            }
            memo.insert(mask, total);
            total
        }
        Some(count(0, n, &pred_mask, &mut HashMap::new()))
    }

    /// Sample up to `k` **distinct** valid schedules, deterministically
    /// from `seed` (random Kahn's algorithm + dedup, with a bounded
    /// trial budget). Returns fewer than `k` when the DAG has fewer
    /// distinct topological orders — or, on pathologically skewed DAGs,
    /// when an order's sampling probability is so small the budget
    /// misses it (random Kahn's is not uniform; for the registry-sized
    /// DAGs this crate builds, the budget saturates comfortably).
    ///
    /// Panics (loudly, instead of silently corrupting its bitmasks) on
    /// selections larger than 64 passes — far above the registry, but
    /// [`Scheduler::from_passes`] accepts arbitrary lists.
    pub fn sample_orders(&self, seed: u64, k: usize) -> Vec<Vec<&'static str>> {
        let n = self.names.len();
        assert!(
            n <= 64,
            "schedule sampling supports at most 64 passes (selection has {n})"
        );
        let mut pred_mask = vec![0u64; n];
        for e in &self.edges {
            pred_mask[e.to] |= 1 << e.from;
        }
        let mut rng = SplitMix(seed);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let mut out = Vec::new();
        let budget = k.saturating_mul(64) + 256;
        for _ in 0..budget {
            if out.len() == k {
                break;
            }
            let mut placed = 0u64;
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                let avail: Vec<usize> = (0..n)
                    .filter(|&v| placed & (1 << v) == 0 && pred_mask[v] & placed == pred_mask[v])
                    .collect();
                let v = avail[rng.below(avail.len())];
                placed |= 1 << v;
                order.push(v);
            }
            if !seen.contains(&order) {
                seen.push(order.clone());
                out.push(order.iter().map(|&i| self.names[i]).collect());
            }
        }
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
        for e in &self.edges {
            if position[e.from] > position[e.to] {
                return Err(format!(
                    "schedule violates {} edge {} -> {}",
                    match e.kind {
                        EdgeKind::Level => "level",
                        EdgeKind::Declared => "declared",
                    },
                    self.names[e.from],
                    self.names[e.to]
                ));
            }
        }
        // The level simulation is the ground truth; level edges should
        // make a failure here unreachable.
        let ordered: Vec<&dyn Pass> = order
            .iter()
            .map(|n| self.pass_by_name(n).expect("validated above"))
            .collect();
        pass::check_levels(&ordered)
    }

    /// A valid schedule in which `a` runs immediately before `b`:
    /// ancestors of either first (baseline order), then `a`, then `b`,
    /// then everything else (baseline order). Errors when the DAG orders
    /// the pair — adjacency in both directions only exists for unordered
    /// pairs.
    pub fn adjacent_order(&self, a: &str, b: &str) -> Result<Vec<&'static str>, String> {
        let ia = self
            .names
            .iter()
            .position(|n| *n == a)
            .ok_or_else(|| format!("unknown pass `{a}`"))?;
        let ib = self
            .names
            .iter()
            .position(|n| *n == b)
            .ok_or_else(|| format!("unknown pass `{b}`"))?;
        if self.reach[ia][ib] || self.reach[ib][ia] {
            return Err(format!(
                "the DAG orders `{a}` and `{b}` — they cannot be swapped"
            ));
        }
        let n = self.names.len();
        let mut order = Vec::with_capacity(n);
        for v in 0..n {
            if self.reach[v][ia] || self.reach[v][ib] {
                order.push(self.names[v]);
            }
        }
        order.push(self.names[ia]);
        order.push(self.names[ib]);
        for v in 0..n {
            if v != ia && v != ib && !(self.reach[v][ia] || self.reach[v][ib]) {
                order.push(self.names[v]);
            }
        }
        debug_assert!(self.validate_order(&order).is_ok());
        Ok(order)
    }

    /// Run the common DAG-ancestor prefix of passes `ia` and `ib` on an
    /// already-lowered program, then `a; b` and `b; a`, and compare the
    /// resulting IR by [`program_hash`]. `None` means the pair commutes on
    /// this program; `Some(description)` is a counterexample (the pair
    /// needs a declared edge).
    fn counterexample_from(
        &self,
        ia: usize,
        ib: usize,
        lowered: &Program,
        schema: &Schema,
    ) -> Result<Option<String>, String> {
        let (a, b) = (self.names[ia], self.names[ib]);
        let ctx = PassCtx {
            schema,
            cfg: &self.cfg,
        };
        let mut p = lowered.clone();
        let mut size = p.body.size();
        // Shared prefix: every ancestor of either pass, baseline order.
        let mut ceiling = Level::MapList;
        for v in 0..self.names.len() {
            if self.reach[v][ia] || self.reach[v][ib] {
                let ps = self.passes[v].as_ref();
                ceiling = advance_ceiling(ceiling, ps);
                let (q, snap) = pass::apply_one(ps, &p, size, &ctx, ceiling, true)
                    .map_err(|e| format!("prefix pass {} failed: {e}", ps.name()))?;
                (p, size) = (q, snap.size);
            }
        }
        let run_pair = |first: usize, second: usize| -> Result<u64, String> {
            let (mut q, mut qsize) = (p.clone(), size);
            let mut c = ceiling;
            for &v in &[first, second] {
                let ps = self.passes[v].as_ref();
                c = advance_ceiling(c, ps);
                let (r, snap) = pass::apply_one(ps, &q, qsize, &ctx, c, true)
                    .map_err(|e| format!("pass {} failed: {e}", ps.name()))?;
                (q, qsize) = (r, snap.size);
            }
            Ok(program_hash(&q))
        };
        let hab = run_pair(ia, ib)?;
        let hba = run_pair(ib, ia)?;
        if hab == hba {
            Ok(None)
        } else {
            Ok(Some(format!(
                "passes `{a}` and `{b}` are unordered in the DAG but do not \
                 commute: hash {hab:016x} ({a};{b}) vs {hba:016x} ({b};{a}) — \
                 declare an `after`/`before` edge"
            )))
        }
    }

    /// The DAG soundness check: every unordered pair must commute (to
    /// `program_hash` equality under adjacent swap) on every program in
    /// the corpus. Returns one description per violated (pair, program).
    ///
    /// Each pair is tested in one context — directly after its DAG
    /// ancestors. Non-commutation contingent on an unrelated pass having
    /// run first is not visible here; the schedule-differential suite
    /// covers that axis by sweeping whole sampled schedules.
    pub fn verify_commutation(
        &self,
        corpus: &[(String, QueryProgram)],
        schema: &Schema,
    ) -> Vec<String> {
        let pairs: Vec<(usize, usize)> = {
            let n = self.names.len();
            (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .filter(|&(a, b)| !self.reach[a][b] && !self.reach[b][a])
                .collect()
        };
        let mut out = Vec::new();
        for (tag, prog) in corpus {
            // One front-end lowering per program; the pair sweeps below
            // share it.
            let ctx = PassCtx {
                schema,
                cfg: &self.cfg,
            };
            let fe = PlanLowering(prog);
            let (_, _, lowered) = crate::stack::lower_frontend(&fe as &dyn Frontend, &ctx);
            for &(ia, ib) in &pairs {
                match self.counterexample_from(ia, ib, &lowered, schema) {
                    Ok(None) => {}
                    Ok(Some(msg)) => out.push(format!("[{tag}] {msg}")),
                    Err(e) => out.push(format!(
                        "[{tag}] {}/{}: {e}",
                        self.names[ia], self.names[ib]
                    )),
                }
            }
        }
        out
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
    /// then up to `candidates - 1` sampled distinct orders (seeded, so
    /// one serving process keeps scoring the same pool and the [`cost`]
    /// model converges instead of chasing fresh orders forever).
    pub fn candidate_orders(&self, seed: u64, candidates: usize) -> Vec<Vec<&'static str>> {
        let baseline = self.baseline();
        let mut out = vec![baseline.clone()];
        for o in self.sample_orders(seed, candidates.max(1)) {
            if o != baseline && out.len() < candidates.max(1) {
                out.push(o);
            }
        }
        out
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

/// Tiny deterministic generator for schedule sampling (splitmix64 —
/// self-contained so the scheduler depends on nothing outside this
/// crate).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// valid orders. The registry's level-5 DAG has 8, too few for the
    /// sampler's 25-order tests.
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
        // The three lowerings are totally ordered by level edges.
        let e = s.edge_names();
        assert!(e.iter().any(|(a, b, k)| *a == "hash-table-specialization"
            && *b == "list-specialization"
            && *k == EdgeKind::Level));
        assert!(e.iter().any(|(a, b, k)| *a == "list-specialization"
            && *b == "memory-hoisting"
            && *k == EdgeKind::Level));
    }

    #[test]
    fn sampled_orders_are_distinct_valid_and_deterministic() {
        let s = synthetic();
        let orders = s.sample_orders(0xdb1ab, 25);
        assert_eq!(orders.len(), 25, "synthetic DAG admits at least 25 orders");
        for o in &orders {
            s.validate_order(o).expect("sampled order valid");
        }
        for i in 0..orders.len() {
            for j in i + 1..orders.len() {
                assert_ne!(orders[i], orders[j], "orders are distinct");
            }
        }
        assert_eq!(orders, s.sample_orders(0xdb1ab, 25), "seeded: reproducible");
        assert_ne!(
            orders,
            s.sample_orders(0xdb1ab + 1, 25),
            "different seed, different sample"
        );
    }

    #[test]
    fn order_count_is_consistent_with_sampling() {
        let s = synthetic();
        let count = s.order_count().expect("5 passes: countable");
        assert_eq!(count, 60);
        // Sampling cannot exceed the exact count: ask for more than exist
        // and get exactly the count back.
        let all = s.sample_orders(1, count as usize + 50);
        assert_eq!(
            all.len(),
            count as usize,
            "sampling saturates at the exact count"
        );
        for o in &all {
            let (a, b) = (
                o.iter().position(|n| *n == "a"),
                o.iter().position(|n| *n == "b"),
            );
            assert!(a < b, "declared edge a -> b holds in {o:?}");
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

    #[test]
    fn adjacent_order_places_the_pair_back_to_back() {
        let s = Scheduler::from_registry(&level5()).expect("valid DAG");
        let (a, b) = *s
            .commuting_pairs()
            .first()
            .expect("level-5 DAG leaves some pairs unordered");
        let o = s.adjacent_order(a, b).expect("constructible");
        let ia = o.iter().position(|n| *n == a).unwrap();
        let ib = o.iter().position(|n| *n == b).unwrap();
        assert_eq!(ib, ia + 1, "pair adjacent in {o:?}");
        s.validate_order(&o).expect("valid");
        let o2 = s.adjacent_order(b, a).expect("swap constructible");
        s.validate_order(&o2).expect("valid swapped");
        // Ordered pairs cannot be swapped at all.
        assert!(s
            .adjacent_order("list-specialization", "hash-table-specialization")
            .is_err());
    }
}
