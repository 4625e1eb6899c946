//! What the four workloads share: their names and sizes, the seeded
//! statement pools with their oracle results, and sample bookkeeping.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dblab_catalog::dates;
use dblab_frontend::qplan::QueryProgram;
use dblab_runtime::{Database, Value};

use crate::env::OutDir;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyJit,
    SteadyNative,
    ColdPrepare,
    CompileGcc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyJit,
        Workload::SteadyNative,
        Workload::ColdPrepare,
        Workload::CompileGcc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyJit => "steady_jit",
            Workload::SteadyNative => "steady_native",
            Workload::ColdPrepare => "cold_prepare",
            Workload::CompileGcc => "compile_gcc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TPC-H scale factor. The steady and compile workloads scan enough
    /// rows that loading and execution dominate the wire; `cold_prepare`
    /// keeps the data small so compilation dominates. Smoke runs shrink
    /// everything.
    pub fn sf(self, smoke: bool) -> f64 {
        match self {
            _ if smoke => 0.002,
            Workload::ColdPrepare => 0.002,
            _ => 0.01,
        }
    }

    /// How often set-up is repeated (its median is reported, and tier-up
    /// times are pooled over the repetitions). The native set-up waits
    /// for six gcc builds each time, so it repeats less.
    pub fn setup_reps(self, smoke: bool) -> usize {
        match self {
            _ if smoke => 1,
            Workload::SteadyNative => 2,
            _ => 3,
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: OutDir,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Per-statement rows, sample counts and window lengths for the
    /// result file.
    pub detail: Json,
    pub spans: Vec<Span>,
}

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The pass memo and the build cache are process-global; whatever must
/// compile cold clears both first.
pub fn clear_caches() {
    dblab_transform::memo::clear();
    dblab_codegen::build_cache::clear();
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time one call in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// Scan-dominated or join-dominated: the two classes the in-query
/// per-layer metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Scan,
    Join,
}

impl Class {
    pub fn of(query: usize) -> Class {
        match query {
            1 | 6 | 14 => Class::Scan,
            _ => Class::Join,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Scan => "scan",
            Class::Join => "join",
        }
    }
}

/// One statement of a serving pool: the wire spec, the program behind
/// it, its candidate bindings (one empty binding for a plain statement)
/// and the oracle's rows for each.
pub struct Stmt {
    pub query: usize,
    pub spec: String,
    pub prog: QueryProgram,
    pub bindings: Vec<Vec<Value>>,
    pub oracles: Vec<String>,
}

impl Stmt {
    pub fn class(&self) -> Class {
        Class::of(self.query)
    }
}

const BINDINGS_PER_TEMPLATE: usize = 8;

/// Seeded positional bindings for the three parameterized templates, in
/// declaration order. Every draw stays inside the generated data's date
/// range so no binding selects an empty (divide-by-zero) result.
fn draw_binding(query: usize, rng: &mut Rng) -> Vec<Value> {
    let date =
        |y: usize, m: usize, d: usize| Value::Int(dates::encode(y as i32, m as i32, d as i32));
    match query {
        1 => vec![date(1998, 8 + rng.below(3), 1 + rng.below(28))],
        6 => {
            let y = 1993 + rng.below(5);
            vec![
                date(y, 1, 1),
                date(y + 1, 1, 1),
                Value::Double(0.02 + 0.01 * rng.below(8) as f64),
                Value::Double(24.0 + rng.below(2) as f64),
            ]
        }
        14 => {
            let (y, m) = (1993 + rng.below(5), 1 + rng.below(11));
            vec![date(y, m, 1), date(y, m + 1, 1)]
        }
        other => unreachable!("Q{other} has no parameterized template"),
    }
}

/// Build a pool: `templates` are executed with seeded bindings over the
/// `tpch:N?` spelling, `plain` as `tpch:N`. Computes every oracle.
pub fn pool(templates: &[usize], plain: &[usize], db: &Database, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 0xb1d);
    let mut stmts = Vec::new();
    for &q in templates {
        let prog = dblab_tpch::queries::template(q).expect("template exists");
        let bindings: Vec<Vec<Value>> = (0..BINDINGS_PER_TEMPLATE)
            .map(|_| draw_binding(q, &mut rng))
            .collect();
        let oracles = bindings
            .iter()
            .map(|b| {
                let named: HashMap<Arc<str>, Value> = prog
                    .params
                    .iter()
                    .zip(b)
                    .map(|(decl, v)| (decl.name.clone(), v.clone()))
                    .collect();
                dblab_engine::execute_program_bound(&prog, db, &named).to_text()
            })
            .collect();
        stmts.push(Stmt {
            query: q,
            spec: format!("tpch:{q}?"),
            prog,
            bindings,
            oracles,
        });
    }
    for &q in plain {
        let prog = dblab_tpch::queries::query(q);
        let oracle = dblab_engine::execute_program(&prog, db).to_text();
        stmts.push(Stmt {
            query: q,
            spec: format!("tpch:{q}"),
            prog,
            bindings: vec![Vec::new()],
            oracles: vec![oracle],
        });
    }
    stmts
}

/// Samples keyed by statement (or query) index, reduced first to one
/// median per key so that every statement weighs the same however often
/// the seeded draw picked it.
#[derive(Debug, Default, Clone)]
pub struct PerKey(BTreeMap<usize, Vec<f64>>);

impl PerKey {
    pub fn push(&mut self, key: usize, v: f64) {
        self.0.entry(key).or_default().push(v);
    }

    pub fn extend(&mut self, other: &PerKey) {
        for (k, v) in &other.0 {
            self.0.entry(*k).or_default().extend(v);
        }
    }

    pub fn medians(&self) -> Vec<f64> {
        self.0.values().map(|v| stats::median(v)).collect()
    }

    pub fn median_of(&self, key: usize) -> f64 {
        self.0.get(&key).map_or(0.0, |v| stats::median(v))
    }

    pub fn geomean(&self) -> f64 {
        stats::geomean(&self.medians())
    }

    /// What `self`'s medians leave unexplained once the `parts`' medians
    /// are taken away, averaged over keys by sample count. Medians only
    /// add up among like requests, so the subtraction happens per key.
    pub fn residual(&self, parts: &[PerKey]) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for (key, samples) in &self.0 {
            let explained: f64 = parts.iter().map(|p| p.median_of(*key)).sum();
            sum += (stats::median(samples) - explained) * samples.len() as f64;
            n += samples.len();
        }
        sum / n.max(1) as f64
    }

    /// Mean of the per-key medians.
    pub fn mean(&self) -> f64 {
        let m = self.medians();
        if m.is_empty() {
            0.0
        } else {
            m.iter().sum::<f64>() / m.len() as f64
        }
    }
}

/// What a workload measured, raw, before it is put at reference speed.
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    /// Speed factor while set-up ran (also scales `compile_ms` on the
    /// steady workloads, whose tier-ups happen during set-up).
    pub setup_factor: f64,
    /// Speed factor over the timed window.
    pub factor: f64,
    pub latencies_ms: &'a [f64],
    pub correct: u64,
    pub window_s: f64,
    pub peak_rss_mb: f64,
    /// Geometric means over statements, and which factor scales the first.
    pub compile_ms: f64,
    pub compile_factor: f64,
    pub query_ms: f64,
    pub run_wall_ms: f64,
}

impl EndToEnd<'_> {
    /// Set every end-to-end metric — timings scaled to reference speed
    /// (see [`crate::speed`]) — and return the raw values, the factors
    /// and the tail for the record. The 95th percentile is recorded but
    /// is not a bounded metric: on this box it is a meter of the VM's
    /// stalls (its ratio to the median moves by 10–20 % between runs of
    /// unchanged code), and a bound on it could only reject at random.
    pub fn report(&self, m: &mut Metrics, opts: &Opts) -> Json {
        let sorted = stats::sorted(self.latencies_ms);
        // A traced run replays work between requests and reports no tail.
        if !opts.trace && !stats::tail_supported(sorted.len(), 95.0) {
            eprintln!(
                "warning: {} yielded {} samples; p95 needs 200 to have ten beyond it",
                opts.workload.name(),
                sorted.len()
            );
        }
        let (p50, p95) = (stats::median(&sorted), stats::percentile(&sorted, 95.0));
        let rps = self.correct as f64 / self.window_s;
        let setup_s = stats::median(self.setup_s);
        m.set("setup_s", setup_s / self.setup_factor);
        m.set("req_p50_ms", p50 / self.factor);
        m.set("throughput_rps", rps * self.factor);
        m.set("peak_rss_mb", self.peak_rss_mb);
        m.set("compile_geomean_ms", self.compile_ms / self.compile_factor);
        m.set("query_geomean_ms", self.query_ms / self.factor);
        m.set("run_wall_geomean_ms", self.run_wall_ms / self.factor);
        Json::obj()
            .with("samples", sorted.len())
            .with("window_s", self.window_s)
            .with("speed_factor", self.factor)
            .with("setup_speed_factor", self.setup_factor)
            .with("req_p95_ms", p95 / self.factor)
            .with("raw_setup_s_each", self.setup_s)
            .with("raw_req_p50_ms", p50)
            .with("raw_req_p95_ms", p95)
            .with("raw_throughput_rps", rps)
            .with("raw_compile_geomean_ms", self.compile_ms)
            .with("raw_query_geomean_ms", self.query_ms)
            .with("raw_run_wall_geomean_ms", self.run_wall_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_follow_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 0xb1d);
            (0..8)
                .map(|_| format!("{:?}", draw_binding(6, &mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn per_key_weighs_statements_equally() {
        let mut p = PerKey::default();
        for _ in 0..9 {
            p.push(0, 1.0);
        }
        p.push(1, 100.0);
        assert!((p.geomean() - 10.0).abs() < 1e-9);
        assert_eq!(p.mean(), 50.5);
    }

    #[test]
    fn residual_subtracts_within_each_key() {
        // Two unlike statements: 10 = 7 + 3 and 100 = 60 + 40, exactly.
        let (mut total, mut a, mut b) = (PerKey::default(), PerKey::default(), PerKey::default());
        for (key, t, x, y) in [(0, 10.0, 7.0, 3.0), (1, 100.0, 60.0, 40.0)] {
            for _ in 0..3 {
                total.push(key, t);
                a.push(key, x);
                b.push(key, y);
            }
        }
        assert_eq!(total.residual(&[a.clone(), b.clone()]), 0.0);
        // Leave a part out and its share shows, weighted by samples.
        assert_eq!(total.residual(&[a]), (3.0 + 40.0) / 2.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
