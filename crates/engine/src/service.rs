//! # The tiered query-serving engine
//!
//! Everything below this module compiles *one query, once*. A production
//! engine serves the same prepared queries for hours, and its two latency
//! numbers pull in opposite directions: **first-result latency** (how
//! long until the first rows of a freshly prepared query) and
//! **steady-state latency** (what every later execution pays). A native
//! `gcc -O3` build wins the second and loses the first by two orders of
//! magnitude; the in-process closure jit is the mirror image.
//!
//! [`QueryEngine`] refuses to choose. [`QueryEngine::prepare`] lowers the
//! query through the memoized DSL stack, compiles the lowered program to
//! jit closures on the spot (it costs what starting an interpreter would)
//! and returns a [`PreparedQuery`] serving from the jit — executable
//! immediately (**tier 0**). The handle keeps that lowered program: the
//! query is lowered exactly once. In the background, a worker pool builds
//! the same program through a native backend, reusing the source-level
//! build cache and its on-disk index ([`dblab_codegen::build_cache`]),
//! then **atomically hot-swaps** the executable under the handle (**tier
//! 1**) — at most once per handle. Executions racing the swap
//! see either tier, never a torn state: the active executable lives
//! behind an `RwLock` and every run clones an `Arc<dyn Executable>` out
//! under the read lock, so a swap never invalidates an in-flight run.
//!
//! When no native toolchain is present the engine degrades gracefully:
//! queries stay on the jit permanently, one warning is emitted per engine
//! (and surfaced on every handle's [`PreparedQuery::report`]), and
//! nothing errors. The IR interpreter serves no traffic; it is the
//! reference executor [`PreparedQuery::execute_pinned`] builds on demand
//! from the same lowered program. The schema (and so every statistic a
//! pass reads) is fixed for the engine's life.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dblab_catalog::Schema;
use dblab_codegen::{
    backend, Backend, CompiledArtifact, Compiler, Executable, InterpBackend, JitBackend, RunOutput,
};
use dblab_frontend::qplan::{ParamDecl, QueryProgram};
use dblab_runtime::snapshot::{self, SnapshotStats};
use dblab_runtime::{json, Value};
use dblab_transform::{CompiledQuery, StackConfig};

/// Which executable backs a run. Traffic is served by the jit (built in
/// `prepare`) until the native build hot-swaps in; the interpreter is
/// only ever reached through [`PreparedQuery::execute_pinned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The IR interpreter: the reference executor, built on first pinned
    /// use, never serving.
    Interp,
    /// The in-process closure JIT: compiled inside `prepare`, no
    /// toolchain, no fork+exec.
    Jit,
    /// A natively compiled binary (hot-swapped in by the worker pool).
    Native,
}

impl Tier {
    /// Every tier, lowest first — the shape of [`ServeStats::ladder`].
    pub const LADDER: [Tier; 3] = [Tier::Interp, Tier::Jit, Tier::Native];

    /// Position in the ladder.
    pub fn rank(self) -> usize {
        match self {
            Tier::Interp => 0,
            Tier::Jit => 1,
            Tier::Native => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Jit => "jit",
            Tier::Native => "native",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the engine picks the tier-1 backend.
#[derive(Debug, Clone, Default)]
pub enum NativeChoice {
    /// `gcc` when it is on PATH; degraded (jit only) otherwise.
    #[default]
    Auto,
    /// A specific registry backend by name.
    Backend(String),
    /// No native tier: the jit is the ceiling, exactly as when `Auto`
    /// finds no toolchain — this variant just asks for it explicitly.
    Disabled,
}

/// Engine construction knobs. `Default` is a sensible serving setup:
/// five-level stack, auto-detected native backend, two tier-up workers,
/// no disk persistence.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// The DSL-stack configuration every prepared query compiles under.
    pub config: StackConfig,
    /// Where emitted sources, binaries and the on-disk cache index live.
    pub gen_dir: PathBuf,
    /// Native tier-up worker threads (none are started without a native
    /// backend).
    pub workers: usize,
    /// Tier-1 backend selection.
    pub native: NativeChoice,
    /// Load/extend the on-disk build-cache index under
    /// [`EngineOptions::gen_dir`], so warm starts survive restarts.
    pub persist_cache: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            config: StackConfig::level5(),
            gen_dir: std::env::temp_dir().join("dblab_serve_gen"),
            workers: 2,
            native: NativeChoice::Auto,
            persist_cache: false,
        }
    }
}

/// Latency tally for one tier of one prepared query.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub runs: u64,
    pub total_ms: f64,
    pub best_ms: f64,
}

impl Default for LatencySummary {
    fn default() -> LatencySummary {
        LatencySummary {
            runs: 0,
            total_ms: 0.0,
            best_ms: f64::INFINITY,
        }
    }
}

impl LatencySummary {
    fn record(&mut self, ms: f64) {
        self.runs += 1;
        self.total_ms += ms;
        if ms < self.best_ms {
            self.best_ms = ms;
        }
    }

    pub fn mean_ms(&self) -> f64 {
        if self.runs == 0 {
            f64::NAN
        } else {
            self.total_ms / self.runs as f64
        }
    }

    /// Fold another tally in (engine-wide ladder aggregation).
    pub fn merge(&mut self, other: &LatencySummary) {
        self.runs += other.runs;
        self.total_ms += other.total_ms;
        if other.best_ms < self.best_ms {
            self.best_ms = other.best_ms;
        }
    }
}

/// Everything the background compile decided and measured, recorded at
/// swap time.
#[derive(Debug, Clone)]
pub struct TierUpReport {
    /// Which backend built tier 1.
    pub backend: &'static str,
    /// Toolchain time (ms); zero when the build cache (memory or disk)
    /// already had the artifact.
    pub build_ms: f64,
    /// Whether the artifact came from the source-level build cache.
    pub build_cached: bool,
    /// Wall time from `prepare` returning to the swap landing (ms) — how
    /// long the jit actually served.
    pub elapsed_ms: f64,
}

/// One rung of a prepared query's tier ladder: the tier's name, how many
/// swaps landed it, the prepare→tier-ready swap latency, and the latency
/// tally of every execution it served.
#[derive(Debug, Clone, Copy)]
pub struct TierStats {
    pub tier: Tier,
    /// Executable swaps that landed this tier: 0 or 1, native only; the
    /// jit is installed by `prepare` itself.
    pub swaps: u64,
    /// Wall time from `prepare` returning to this tier being ready to
    /// serve (ms); `None` while the tier hasn't landed. The jit reports
    /// `0.0` — it *is* the prepare; interp never lands.
    pub swap_ms: Option<f64>,
    pub lat: LatencySummary,
}

impl TierStats {
    /// `{"tier": …, "swaps": …, "swap_ms": …, "runs": …, …}` — the
    /// latency tally flattened in.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("tier", self.tier.name())
            .int("swaps", self.swaps)
            .num("swap_ms", self.swap_ms.unwrap_or(f64::NAN))
            .int("runs", self.lat.runs)
            .num("mean_ms", self.lat.mean_ms())
            .num("best_ms", self.lat.best_ms)
            .build()
    }
}

/// A point-in-time view of a prepared query's serving state. A plain
/// serializable struct: [`ServeStats::to_json`] renders it for the
/// network server's `stats` frame.
#[derive(Debug, Clone)]
pub struct ServeStats {
    pub tier: Tier,
    pub swaps: u64,
    /// Latency of the very first execution (whatever tier served it).
    pub first_result_ms: Option<f64>,
    /// Per-tier serving state, lowest tier first ([`Tier::LADDER`] order).
    pub ladder: [TierStats; 3],
    /// Executions abandoned because their per-request deadline elapsed.
    pub timeouts: u64,
    pub tier_up: Option<TierUpReport>,
    /// Set when the native tier can never arrive (no toolchain) or its
    /// compile failed; the query stays on the jit.
    pub pinned: Option<String>,
}

impl ServeStats {
    /// The ladder rung for one tier.
    pub fn tier_stats(&self, t: Tier) -> &TierStats {
        &self.ladder[t.rank()]
    }
}

impl TierUpReport {
    /// The swap provenance as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("backend", self.backend)
            .num("build_ms", self.build_ms)
            .bool("build_cached", self.build_cached)
            .num("elapsed_ms", self.elapsed_ms)
            .build()
    }
}

impl ServeStats {
    /// The one stats renderer: the server's `stats` frame embeds exactly
    /// this object, so dashboards parse one shape.
    /// Per-tier state lives in the `ladder` array — adding a tier adds a
    /// rung, not a field.
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new()
            .str("tier", self.tier.name())
            .int("swaps", self.swaps)
            .num("first_result_ms", self.first_result_ms.unwrap_or(f64::NAN))
            .int("timeouts", self.timeouts)
            .raw(
                "ladder",
                &json::array(self.ladder.iter().map(|t| t.to_json())),
            );
        if let Some(up) = &self.tier_up {
            o = o.raw("tier_up", &up.to_json());
        }
        if let Some(reason) = &self.pinned {
            o = o.str("pinned", reason);
        }
        o.build()
    }
}

/// An engine-wide stats snapshot: the resolved native tier, the tier-up
/// queue, and every live prepared query's [`ServeStats`] (dropped handles
/// fall out on their own — the registry holds weak references).
#[derive(Debug, Clone)]
pub struct EngineStats {
    pub native_backend: Option<&'static str>,
    pub degraded: Option<String>,
    /// Tier-up jobs not yet picked up by a worker.
    pub pending_tier_ups: usize,
    /// Tier-0 (prepare-time: lowering + jit) compiles this engine has
    /// run. With prepared templates this stays flat while distinct
    /// parameter bindings grow (`tests/param_serving.rs` pins it).
    pub tier0_compiles: u64,
    /// Native tier-up builds that landed (one per handle at most).
    pub tierups_built: u64,
    /// Engine-wide tier ladder: per tier, total swaps and the merged
    /// latency tally across every live prepared query.
    pub ladder: [TierStats; 3],
    /// `(name, stats)` for every live prepared query, in prepare order.
    pub queries: Vec<(String, ServeStats)>,
    /// The resident-snapshot store's account of every data directory this
    /// engine's in-process tiers executed against: whole-directory loads
    /// (1 per directory in steady state), executes answered by the
    /// resident snapshot after validation alone, tables parsed again
    /// because their file changed, time spent parsing, and the bytes
    /// held. All zero until an in-process tier first executes — the
    /// native tier never loads a snapshot. The store is process-wide, so
    /// these count per directory, not per engine: a second engine on a
    /// directory an earlier one loaded starts from that one's numbers.
    pub snapshot_loads: u64,
    pub snapshot_hits: u64,
    pub snapshot_tables_reloaded: u64,
    pub snapshot_load_ms_total: f64,
    pub snapshot_resident_bytes: u64,
}

impl EngineStats {
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("native_backend", self.native_backend.unwrap_or("none"))
            .bool("degraded", self.degraded.is_some())
            .int("pending_tier_ups", self.pending_tier_ups as u64)
            .int("tier0_compiles", self.tier0_compiles)
            .int("tierups_built", self.tierups_built)
            .raw(
                "ladder",
                &json::array(self.ladder.iter().map(|t| t.to_json())),
            )
            .raw(
                "queries",
                &json::array(self.queries.iter().map(|(name, s)| {
                    json::Obj::new()
                        .str("name", name)
                        .raw("stats", &s.to_json())
                        .build()
                })),
            )
            .int("snapshot_loads", self.snapshot_loads)
            .int("snapshot_hits", self.snapshot_hits)
            .int("snapshot_tables_reloaded", self.snapshot_tables_reloaded)
            .num("snapshot_load_ms_total", self.snapshot_load_ms_total)
            .int("snapshot_resident_bytes", self.snapshot_resident_bytes)
            .build()
    }
}

/// One execution's result, tagged with the tier that served it.
#[derive(Debug)]
pub struct ServedRun {
    pub tier: Tier,
    pub output: RunOutput,
}

/// Why an execution did not produce rows. The variant matters to servers:
/// a [`ExecError::Timeout`] is the request's fault (its budget ran out —
/// the worker is fine and the native binary was killed / the jit
/// interrupted), everything else is the execution's.
#[derive(Debug)]
pub enum ExecError {
    /// The per-request deadline elapsed; the run was abandoned, not hung.
    Timeout {
        /// The budget that ran out.
        budget: Duration,
        /// The tier that was executing when it did.
        tier: Tier,
    },
    /// The execution itself failed (IO, missing data directory, a broken
    /// binary).
    Exec(io::Error),
    /// An override does not bind its declaration (another type, a
    /// non-finite number, one too many): the request's fault; nothing ran.
    Binding(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Timeout { budget, tier } => write!(
                f,
                "query exceeded its {:.0}ms deadline on tier {tier}",
                budget.as_secs_f64() * 1e3
            ),
            ExecError::Exec(e) => write!(f, "execution failed: {e}"),
            ExecError::Binding(e) => write!(f, "bad binding: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

struct Active {
    exe: Arc<dyn Executable>,
    tier: Tier,
}

#[derive(Default)]
struct Meta {
    /// Set when the (single) native swap lands.
    tier_up: Option<TierUpReport>,
    /// Why the native tier will never arrive, when it won't.
    pinned: Option<String>,
}

struct PreparedInner {
    /// The engine's compile state: schema, configuration, gen dir and the
    /// shared data-dir list.
    shared: Arc<EngineShared>,
    name: String,
    /// Filesystem stem every artifact of this handle builds under:
    /// `{name}_{program_hash:08x}`. The hash disambiguates — two distinct
    /// programs prepared under one display name (or two server specs that
    /// sanitize to the same string) must never share a `gen_dir` output
    /// path, or one's binary silently serves the other's rows.
    artifact_stem: String,
    /// The program's parameter declarations, in wire order.
    params: Vec<ParamDecl>,
    /// The program `prepare` lowered: the native tier-up and the reference
    /// interpreter build from a clone of it, and `report` prints its stage
    /// trace.
    cq: CompiledQuery,
    prepared_at: Instant,
    /// Tier-0 compile cost paid inside `prepare` (ms).
    prepare_ms: f64,
    active: RwLock<Active>,
    meta: Mutex<Meta>,
    cvar: Condvar,
    timeouts: AtomicU64,
    first_result_ms: Mutex<Option<f64>>,
    /// Latency tally per ladder rank.
    lats: [Mutex<LatencySummary>; 3],
    /// Every tier's executable, per ladder rank, once it exists — so
    /// benches can execute a specific tier
    /// ([`PreparedQuery::execute_pinned`]) while traffic serves from the
    /// active one. The interp slot fills on first pinned use.
    tier_exes: Mutex<[Option<Arc<dyn Executable>>; 3]>,
}

/// A handle to one prepared query. Cheap to clone; every clone shares the
/// same hot-swapped executable, so N threads can execute concurrently
/// while the tier-up swaps underneath them.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

impl PreparedQuery {
    /// Execute against a `.tbl` data directory on whatever tier is
    /// currently active. Never blocks on the background compile.
    pub fn execute(&self, data_dir: &Path) -> io::Result<ServedRun> {
        self.execute_bound(data_dir, &[], None)
            .map_err(|e| match e {
                // Unreachable without a deadline; keep the io::Result
                // signature every existing caller has.
                ExecError::Timeout { budget, .. } => dblab_codegen::timeout_error(budget),
                ExecError::Exec(io) => io,
                ExecError::Binding(e) => io::Error::new(io::ErrorKind::InvalidInput, e),
            })
    }

    /// [`PreparedQuery::execute`] with positional bindings for the
    /// program's declared parameters and a per-request execution budget.
    ///
    /// `overrides[i]` binds the `i`-th declaration, declarations past the
    /// end of `overrides` keep their defaults. Every execution passes the
    /// *full* declared vector down (defaults filled in), whichever tier
    /// serves — one compiled template, any binding. Overrides are coerced
    /// to the declared type; more overrides than declarations is an error,
    /// not a silent drop.
    ///
    /// When the budget elapses the run is *abandoned*, not awaited: the
    /// native tier's query process is killed, the jit interrupts at its
    /// next loop back-edge, and the caller gets [`ExecError::Timeout`] — a
    /// typed error, never a hung worker. Timed out runs count in
    /// [`ServeStats::timeouts`] and leave the latency tallies untouched (a
    /// killed run has no honest latency).
    pub fn execute_bound(
        &self,
        data_dir: &Path,
        overrides: &[Value],
        deadline: Option<Duration>,
    ) -> Result<ServedRun, ExecError> {
        let bound = self.bind(overrides)?;
        let (exe, tier) = {
            let act = self.inner.active.read().unwrap();
            (Arc::clone(&act.exe), act.tier)
        };
        self.run_on(&exe, tier, data_dir, &bound, deadline)
    }

    /// Execute on one *specific* tier, bypassing the active-tier
    /// selection — how a bench measures rungs side by side. `Tier::Interp`
    /// is the reference interpreter, built on first use from the program
    /// `prepare` lowered and kept; `None` when any other tier never landed
    /// on this handle. Runs are recorded in the same per-tier latency
    /// tallies as served traffic.
    pub fn execute_pinned(
        &self,
        tier: Tier,
        data_dir: &Path,
        overrides: &[Value],
        deadline: Option<Duration>,
    ) -> Option<Result<ServedRun, ExecError>> {
        let landed = self.inner.tier_exes.lock().unwrap()[tier.rank()].clone();
        let exe = match (landed, tier) {
            (Some(exe), _) => exe,
            (None, Tier::Interp) => match self.reference_interp() {
                Ok(exe) => exe,
                Err(e) => return Some(Err(ExecError::Exec(e))),
            },
            (None, _) => return None,
        };
        let bound = match self.bind(overrides) {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        Some(self.run_on(&exe, tier, data_dir, &bound, deadline))
    }

    /// Build the reference interpreter and keep it in the interp slot (a
    /// racing builder's copy wins; both are the same program).
    fn reference_interp(&self) -> io::Result<Arc<dyn Executable>> {
        let inner = &self.inner;
        let (cq, name) = (inner.cq.clone(), format!("{}_interp", inner.artifact_stem));
        let exe = Arc::from(build(&inner.shared, cq, Box::new(InterpBackend), &name)?.exe);
        let mut exes = inner.tier_exes.lock().unwrap();
        Ok(Arc::clone(exes[Tier::Interp.rank()].get_or_insert(exe)))
    }

    /// Full positional parameter vector: overrides by position, declared
    /// defaults elsewhere; more overrides than declarations is an error.
    fn bind(&self, overrides: &[Value]) -> Result<Vec<Value>, ExecError> {
        let decls = &self.inner.params;
        if overrides.len() > decls.len() {
            return Err(ExecError::Binding(format!(
                "{} parameter(s) bound but `{}` declares {}",
                overrides.len(),
                self.inner.name,
                decls.len()
            )));
        }
        let mut bound = Vec::with_capacity(decls.len());
        for (i, decl) in decls.iter().enumerate() {
            let v = match overrides.get(i) {
                Some(v) => coerce_param(decl, v).map_err(ExecError::Binding)?,
                None => crate::eval::lit_value(&decl.default),
            };
            bound.push(v);
        }
        Ok(bound)
    }

    fn run_on(
        &self,
        exe: &Arc<dyn Executable>,
        tier: Tier,
        data_dir: &Path,
        bound: &[Value],
        deadline: Option<Duration>,
    ) -> Result<ServedRun, ExecError> {
        // The in-process tiers read `data_dir` through the resident
        // snapshot store; remember it so the engine's stats can say what
        // the store did for it. The native tier takes neither lock.
        if tier != Tier::Native {
            let data_dirs = &self.inner.shared.data_dirs;
            let known = |dirs: &Vec<PathBuf>| dirs.iter().any(|d| d == data_dir);
            if !known(&data_dirs.read().unwrap()) {
                let mut dirs = data_dirs.write().unwrap();
                if !known(&dirs) {
                    dirs.push(data_dir.to_path_buf());
                }
            }
        }
        let t0 = Instant::now();
        let output = exe.run_bound(data_dir, bound, deadline).map_err(|e| {
            if e.kind() == io::ErrorKind::TimedOut {
                self.inner.timeouts.fetch_add(1, Ordering::AcqRel);
                ExecError::Timeout {
                    budget: deadline.unwrap_or_default(),
                    tier,
                }
            } else {
                ExecError::Exec(e)
            }
        })?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        {
            let mut first = self.inner.first_result_ms.lock().unwrap();
            if first.is_none() {
                *first = Some(ms);
            }
        }
        self.inner.lats[tier.rank()].lock().unwrap().record(ms);
        Ok(ServedRun { tier, output })
    }

    /// The display name this query was prepared under.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The filesystem stem artifacts build under: the display name plus
    /// the lowered program's stable hash (collision-proofed — distinct
    /// programs sharing a display name get distinct stems).
    pub fn artifact_stem(&self) -> &str {
        &self.inner.artifact_stem
    }

    /// The program's declared parameters, in wire (positional) order.
    pub fn params(&self) -> &[ParamDecl] {
        &self.inner.params
    }

    /// The currently active tier.
    pub fn tier(&self) -> Tier {
        self.inner.active.read().unwrap().tier
    }

    /// Tier-0 compile cost paid inside `prepare` (ms).
    pub fn prepare_ms(&self) -> f64 {
        self.inner.prepare_ms
    }

    /// Block until a tier at least this high is active, the native tier
    /// is known dead (pinned to the jit: no toolchain, or a failed build),
    /// or the timeout elapses. Returns `true` iff a tier of that rank or
    /// above landed — immediately for the jit and below, which `prepare`
    /// installs.
    pub fn wait_for_tier(&self, tier: Tier, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut meta = self.inner.meta.lock().unwrap();
        loop {
            if tier != Tier::Native || meta.tier_up.is_some() {
                return true;
            }
            if meta.pinned.is_some() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.inner.cvar.wait_timeout(meta, deadline - now).unwrap();
            meta = guard;
        }
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        let meta = self.inner.meta.lock().unwrap();
        // A handle swaps to native at most once: the report is the swap.
        let native_ms = meta.tier_up.as_ref().map(|up| up.elapsed_ms);
        let native_swaps = u64::from(native_ms.is_some());
        let ladder = std::array::from_fn(|rank| {
            let tier = Tier::LADDER[rank];
            let (swaps, swap_ms) = match tier {
                Tier::Interp => (0, None),
                Tier::Jit => (0, Some(0.0)),
                Tier::Native => (native_swaps, native_ms),
            };
            TierStats {
                tier,
                swaps,
                swap_ms,
                lat: *self.inner.lats[rank].lock().unwrap(),
            }
        });
        ServeStats {
            tier: self.tier(),
            swaps: native_swaps,
            first_result_ms: *self.inner.first_result_ms.lock().unwrap(),
            ladder,
            timeouts: self.inner.timeouts.load(Ordering::Acquire),
            tier_up: meta.tier_up.clone(),
            pinned: meta.pinned.clone(),
        }
    }

    /// The tier-0 stage trace plus a serving line: which tier is active,
    /// swap provenance, or — when the engine is degraded — the one
    /// warning that replaces per-query errors.
    pub fn report(&self) -> String {
        let mut out = self.inner.cq.stage_report();
        let stats = self.stats();
        match (&stats.tier_up, &stats.pinned) {
            (Some(up), _) => out.push_str(&format!(
                "serving: tier native via {} (swapped in after {:.1}ms; \
                 build {:.1}ms{})\n",
                up.backend,
                up.elapsed_ms,
                up.build_ms,
                if up.build_cached { ", cached" } else { "" },
            )),
            (None, Some(reason)) => out.push_str(&format!(
                "serving: tier {} permanently ({reason})\n",
                stats.tier
            )),
            (None, None) => out.push_str(&format!(
                "serving: tier {} (native compile pending)\n",
                stats.tier
            )),
        }
        out
    }
}

/// Coerce one override to its declaration's type (the generated code read
/// a typed slot at compile time; a binding of another numeric width is a
/// client convenience, not an error — but bool/string mismatches are, and
/// so is a NaN or infinite number, which no ordered comparison admits).
fn coerce_param(decl: &ParamDecl, v: &Value) -> Result<Value, String> {
    use dblab_catalog::ColType;
    let numeric = matches!(v, Value::Int(_) | Value::Long(_) | Value::Double(_));
    if numeric && !v.as_f64().is_finite() {
        return Err(format!(
            "parameter `{}` bound {v:?}, which is not a finite number",
            decl.name
        ));
    }
    match decl.default.ty() {
        ColType::Int if numeric => Ok(Value::Int(v.as_f64() as i32)),
        ColType::Long if numeric => Ok(Value::Long(v.as_f64() as i64)),
        ColType::Double if numeric => Ok(Value::Double(v.as_f64())),
        ColType::Bool if matches!(v, Value::Bool(_)) => Ok(v.clone()),
        want => Err(format!(
            "parameter `{}` declared {want:?}, bound {v:?}",
            decl.name
        )),
    }
}

/// One queued native build.
struct Job {
    prepared: Weak<PreparedInner>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The weak-ref registry of every handle an engine prepared, plus its
/// amortized-prune watermark. Dead entries are dropped whenever the list
/// reaches the watermark (then the watermark doubles from the surviving
/// length), so a server churning through prepare/drop cycles holds O(live)
/// entries instead of growing without bound until someone calls `stats`.
struct Registry {
    entries: Vec<(String, Weak<PreparedInner>)>,
    prune_at: usize,
}

impl Registry {
    const MIN_PRUNE_AT: usize = 16;

    fn push(&mut self, name: String, weak: Weak<PreparedInner>) {
        if self.entries.len() >= self.prune_at {
            self.prune();
        }
        self.entries.push((name, weak));
    }

    fn prune(&mut self) {
        self.entries.retain(|(_, weak)| weak.strong_count() > 0);
        self.prune_at = (self.entries.len() * 2).max(Self::MIN_PRUNE_AT);
    }
}

struct EngineShared {
    /// The schema queries compile under, fixed for the engine's life.
    schema: Schema,
    cfg: StackConfig,
    gen_dir: PathBuf,
    /// Resolved tier-1 backend registry name; `None` = degraded/disabled.
    native: Option<&'static str>,
    /// Why `native` is `None`, when it is.
    degraded: Option<String>,
    warned: AtomicBool,
    /// Per-engine artifact sequence: keeps concurrent tier-up builds of
    /// the *same* prepared program on distinct output paths.
    build_seq: AtomicU64,
    queue: Mutex<QueueState>,
    cvar: Condvar,
    /// Every handle this engine prepared, weakly: [`QueryEngine::stats`]
    /// aggregates the live ones; pushes prune dead entries amortized.
    prepared: Mutex<Registry>,
    /// Tier-0 compiles run by `prepare*` (never moves per-execution).
    tier0_compiles: AtomicU64,
    /// Native builds that swapped in.
    tierups_built: AtomicU64,
    /// Every data directory an in-process tier of this engine executed
    /// against (each handle appends on first sight).
    data_dirs: RwLock<Vec<PathBuf>>,
}

impl EngineShared {
    /// Emit the engine-level degradation/failure warning exactly once.
    fn warn_once(&self, msg: &str) {
        if !self.warned.swap(true, Ordering::AcqRel) {
            eprintln!("QueryEngine: {msg}");
        }
    }
}

/// The long-lived serving engine. See the module docs for the lifecycle;
/// the quickstart shape:
///
/// ```no_run
/// # use dblab_engine::service::{QueryEngine, Tier};
/// # let schema = dblab_catalog::Schema::default();
/// # let prog = dblab_frontend::qplan::QueryProgram::new(
/// #     dblab_frontend::qplan::QPlan::scan("nation"));
/// # let data = std::path::Path::new("/data");
/// let engine = QueryEngine::new(&schema).expect("engine");
/// let q = engine.prepare(&prog).expect("prepare");
/// let first = q.execute(data).expect("the jit serves immediately");
/// q.wait_for_tier(Tier::Native, std::time::Duration::from_secs(60));
/// let fast = q.execute(data).expect("tier 1 after the hot swap");
/// ```
pub struct QueryEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// An engine with [`EngineOptions::default`].
    pub fn new(schema: &Schema) -> io::Result<QueryEngine> {
        QueryEngine::with_options(schema, EngineOptions::default())
    }

    /// Build an engine: resolve the native backend (degrading gracefully
    /// when no toolchain is present), optionally attach the on-disk
    /// build-cache index, and start the worker pool.
    pub fn with_options(schema: &Schema, opts: EngineOptions) -> io::Result<QueryEngine> {
        std::fs::create_dir_all(&opts.gen_dir)?;
        if opts.persist_cache {
            let loaded = dblab_codegen::build_cache::enable_persistence(&opts.gen_dir)?;
            if loaded > 0 {
                eprintln!(
                    "QueryEngine: warm start — {loaded} artifact(s) restored from {}",
                    opts.gen_dir.display()
                );
            }
        }
        let (native, degraded) = resolve_native(&opts.native);
        let shared = Arc::new(EngineShared {
            schema: schema.clone(),
            cfg: opts.config,
            gen_dir: opts.gen_dir,
            native,
            degraded,
            warned: AtomicBool::new(false),
            build_seq: AtomicU64::new(0),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cvar: Condvar::new(),
            prepared: Mutex::new(Registry {
                entries: Vec::new(),
                prune_at: Registry::MIN_PRUNE_AT,
            }),
            tier0_compiles: AtomicU64::new(0),
            tierups_built: AtomicU64::new(0),
            data_dirs: RwLock::default(),
        });
        let worker_count = if shared.native.is_some() {
            opts.workers.max(1)
        } else {
            0
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dblab-tierup-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn tier-up worker")
            })
            .collect();
        Ok(QueryEngine { shared, workers })
    }

    /// Prepare a query for serving: lower it and compile it to jit
    /// closures synchronously (tier 0 — the handle executes immediately)
    /// and enqueue the native tier-up for the worker pool. Never errors on
    /// a missing toolchain; the handle just stays on the jit. A program
    /// the jit refuses is this call's error.
    pub fn prepare(&self, prog: &QueryProgram) -> io::Result<PreparedQuery> {
        let name = self.auto_name(prog);
        self.prepare_named(prog, &name)
    }

    /// [`QueryEngine::prepare`] with an explicit artifact-name stem
    /// (benches and tests name handles after the query).
    pub fn prepare_named(&self, prog: &QueryProgram, name: &str) -> io::Result<PreparedQuery> {
        let s = &self.shared;
        let t0 = Instant::now();
        let cq = dblab_transform::compile(prog, &s.schema, &s.cfg);
        // The on-disk stem carries the lowered program's stable hash:
        // distinct programs prepared under one display name (or colliding
        // sanitized server specs) land on distinct artifact paths.
        let artifact_stem = format!(
            "{name}_{:08x}",
            dblab_ir::hash::program_hash(&cq.program) as u32
        );
        // The jit artifact hands the lowered program back: the handle keeps
        // it, so the tier-up and the reference interpreter never lower again.
        let art = build(s, cq, Box::new(JitBackend), &format!("{artifact_stem}_jit"))?;
        let jit: Arc<dyn Executable> = Arc::from(art.exe);
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
        s.tier0_compiles.fetch_add(1, Ordering::Relaxed);

        // `degraded` says why there is no native backend, when there is
        // none: every handle is then pinned to the jit.
        let pinned = s.degraded.clone();
        if let Some(reason) = &pinned {
            s.warn_once(&format!("{reason} — the jit tier is the ceiling"));
        }
        let inner = Arc::new(PreparedInner {
            shared: Arc::clone(s),
            name: name.to_string(),
            artifact_stem,
            params: prog.params.clone(),
            cq: art.stack,
            prepared_at: Instant::now(),
            prepare_ms,
            active: RwLock::new(Active {
                exe: Arc::clone(&jit),
                tier: Tier::Jit,
            }),
            meta: Mutex::new(Meta {
                pinned,
                ..Meta::default()
            }),
            cvar: Condvar::new(),
            timeouts: AtomicU64::new(0),
            first_result_ms: Mutex::new(None),
            lats: Default::default(),
            tier_exes: Mutex::new([None, Some(jit), None]),
        });
        s.prepared
            .lock()
            .unwrap()
            .push(name.to_string(), Arc::downgrade(&inner));

        if s.native.is_some() {
            s.queue.lock().unwrap().jobs.push_back(Job {
                prepared: Arc::downgrade(&inner),
            });
            s.cvar.notify_all();
        }
        Ok(PreparedQuery { inner })
    }

    /// The resolved tier-1 backend, `None` when the engine is degraded or
    /// native was disabled.
    pub fn native_backend(&self) -> Option<&'static str> {
        self.shared.native
    }

    /// Why the native tier is unavailable, when it is.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.shared.degraded.as_deref()
    }

    /// Tier-up jobs not yet picked up by a worker.
    pub fn pending_jobs(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// An engine-wide snapshot: native-tier resolution, tier-up queue
    /// depth, and per-query [`ServeStats`] for every live handle. Plain
    /// data — render it with [`EngineStats::to_json`] (the server's
    /// `stats` frame does exactly that) or consume the fields directly.
    pub fn stats(&self) -> EngineStats {
        let mut prepared = self.shared.prepared.lock().unwrap();
        // Prune dropped handles while snapshotting the live ones.
        prepared.prune();
        let queries: Vec<(String, ServeStats)> = prepared
            .entries
            .iter()
            .filter_map(|(name, weak)| {
                weak.upgrade()
                    .map(|inner| (name.clone(), PreparedQuery { inner }.stats()))
            })
            .collect();
        // Engine-wide ladder: per tier, swap totals and the merged
        // latency tally across every live handle (swap_ms is per-handle,
        // so the aggregate reports none).
        let ladder = std::array::from_fn(|rank| {
            let mut agg = TierStats {
                tier: Tier::LADDER[rank],
                swaps: 0,
                swap_ms: None,
                lat: LatencySummary::default(),
            };
            for (_, s) in &queries {
                agg.swaps += s.ladder[rank].swaps;
                agg.lat.merge(&s.ladder[rank].lat);
            }
            agg
        });
        let mut resident = SnapshotStats::default();
        {
            // `data_dirs` holds the spellings the callers used; the store
            // keys on the canonical path, so count each directory once.
            let mut dirs: Vec<PathBuf> = self
                .shared
                .data_dirs
                .read()
                .unwrap()
                .iter()
                .filter_map(|d| d.canonicalize().ok())
                .collect();
            dirs.sort();
            dirs.dedup();
            for dir in &dirs {
                resident += snapshot::stats(&self.shared.schema, dir);
            }
        }
        EngineStats {
            native_backend: self.shared.native,
            degraded: self.shared.degraded.clone(),
            pending_tier_ups: self.shared.queue.lock().unwrap().jobs.len(),
            tier0_compiles: self.shared.tier0_compiles.load(Ordering::Relaxed),
            tierups_built: self.shared.tierups_built.load(Ordering::Relaxed),
            ladder,
            queries,
            snapshot_loads: resident.loads,
            snapshot_hits: resident.hits,
            snapshot_tables_reloaded: resident.tables_reloaded,
            snapshot_load_ms_total: resident.load_ms_total,
            snapshot_resident_bytes: resident.resident_bytes,
        }
    }

    /// Raw weak-ref registry length, dead entries included — what the
    /// amortized prune keeps bounded (tests assert on it).
    pub fn registry_len(&self) -> usize {
        self.shared.prepared.lock().unwrap().entries.len()
    }

    /// Stable display/artifact name from program text + configuration
    /// (the lowered-program hash and backend name are appended per
    /// handle/tier). Hashed with the process-independent FNV the build
    /// cache uses — `DefaultHasher` is seeded per process, which would
    /// give persisted artifacts a different name every restart. Only
    /// names files — artifact *reuse* is keyed on emitted-source hashes
    /// in the build cache, not on this stem.
    fn auto_name(&self, prog: &QueryProgram) -> String {
        let text = format!("{prog:?}\x1f{}", self.shared.cfg.name);
        format!("serve_{:016x}", dblab_ir::hash::str_hash(&text))
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.cvar.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Resolve the tier-1 backend: the chosen native toolchain (`gcc` for
/// `Auto`), or `None` with a reason.
fn resolve_native(choice: &NativeChoice) -> (Option<&'static str>, Option<String>) {
    let name = match choice {
        NativeChoice::Disabled => {
            return (None, Some("native tier disabled by configuration".into()))
        }
        NativeChoice::Auto => "gcc",
        NativeChoice::Backend(name) => name,
    };
    match backend(name) {
        Some(b) if b.available() => (Some(b.name()), None),
        Some(b) => (
            None,
            Some(format!(
                "backend `{}` unavailable (requires {})",
                b.name(),
                b.requirement()
            )),
        ),
        None => (None, Some(format!("unknown backend `{name}`"))),
    }
}

fn worker_loop(shared: &Arc<EngineShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cvar.wait(q).unwrap();
            }
        };
        // The handle may have been dropped while the job sat in the
        // queue; compiling for nobody helps nobody.
        let Some(inner) = job.prepared.upgrade() else {
            continue;
        };
        // A panicking pass or emitter is one query's failed build, not a
        // lost worker: the handle is pinned to the jit exactly as for an
        // `Err`, so `wait_for_tier` returns instead of waiting on a dead
        // thread.
        let built = catch_unwind(AssertUnwindSafe(|| tier_up(shared, &inner)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))));
        if let Err(e) = built {
            let msg = format!("native tier-up for `{}` failed: {e}", inner.name);
            shared.warn_once(&msg);
            inner.meta.lock().unwrap().pinned = Some(msg);
            inner.cvar.notify_all();
        }
    }
}

/// The text of a caught panic payload (`panic!` carries a `&str` or a
/// `String`; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Build an already-lowered program on one backend: the jit in `prepare`,
/// the native tier-up, the reference interpreter on demand.
fn build(
    shared: &EngineShared,
    cq: CompiledQuery,
    backend: Box<dyn Backend>,
    name: &str,
) -> io::Result<CompiledArtifact> {
    Compiler::new(&shared.schema)
        .config(&shared.cfg)
        .backend(backend)
        .out_dir(&shared.gen_dir)
        .build_staged(cq, name)
}

/// One background compile: the program `prepare` lowered, built natively
/// through the (possibly disk-backed) build cache, then the atomic swap.
fn tier_up(shared: &EngineShared, inner: &Arc<PreparedInner>) -> Result<(), String> {
    let bname = shared
        .native
        .expect("tier-up only enqueued with a native backend");
    // The artifact name carries a per-engine sequence number: two
    // handles prepared for the same program share a deterministic stem,
    // and two workers building them concurrently must never hand the
    // toolchain the same `-o` path (a torn binary would be hot-swapped
    // in). Reuse still happens where it is safe — the build cache keys
    // on emitted source, not on this file name.
    let seq = shared.build_seq.fetch_add(1, Ordering::Relaxed);
    let art = build(
        shared,
        inner.cq.clone(),
        backend(bname).expect("resolved at construction"),
        &format!("{}_{seq}_{bname}", inner.artifact_stem),
    )
    .map_err(|e| e.to_string())?;
    let report = TierUpReport {
        backend: art.backend,
        build_ms: art.exe.build_time().as_secs_f64() * 1e3,
        build_cached: art.build_cached,
        elapsed_ms: inner.prepared_at.elapsed().as_secs_f64() * 1e3,
    };
    // The swap: writers are rare (one per tier-up), readers clone the Arc
    // out in O(1) — an in-flight jit run keeps its executable alive
    // through its own Arc and simply finishes on the old tier.
    let exe: Arc<dyn Executable> = Arc::from(art.exe);
    *inner.active.write().unwrap() = Active {
        exe: Arc::clone(&exe),
        tier: Tier::Native,
    };
    inner.tier_exes.lock().unwrap()[Tier::Native.rank()] = Some(exe);
    shared.tierups_built.fetch_add(1, Ordering::Relaxed);
    inner.meta.lock().unwrap().tier_up = Some(report);
    inner.cvar.notify_all();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_catalog::{ColType, TableDef};
    use dblab_frontend::expr::*;
    use dblab_frontend::qplan::{AggFunc, QPlan};
    use dblab_runtime::{Database, Table, Value};

    fn schema(table: &str) -> Schema {
        let mut s = Schema::new(vec![TableDef::new(
            table,
            vec![("k", ColType::Int), ("v", ColType::Int)],
        )
        .with_primary_key(&["k"])]);
        let def = s.table_mut(table);
        def.stats.row_count = 16;
        def.stats.int_max = vec![16; 2];
        def.stats.distinct = vec![16; 2];
        s
    }

    fn data(schema: &Schema, table: &str, tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dblab_service_{tag}"));
        let mut t = Table::empty(schema.table(table));
        for i in 0..16 {
            t.push_row(vec![Value::Int(i), Value::Int(i % 4)]);
        }
        let db = Database {
            schema: schema.clone(),
            tables: vec![t],
            dir: dir.clone(),
        };
        db.write_all().expect("write .tbl");
        dir
    }

    fn sum_query(table: &str) -> QueryProgram {
        QueryProgram::new(QPlan::scan(table).select(col("v").gt(lit_i(0))).agg(
            vec![],
            vec![("n", AggFunc::Count), ("s", AggFunc::Sum(col("v")))],
        ))
    }

    /// Both ways of having no native tier — asking for none, naming a
    /// backend that does not exist — are the same engine: `prepare`
    /// installs the jit, queues nothing, and pins the handle there.
    #[test]
    fn jit_ceiling_engines_serve_the_jit_from_prepare() {
        for (tag, native, why) in [
            ("disabled", NativeChoice::Disabled, "disabled"),
            (
                "unknown",
                NativeChoice::Backend("cranelift".into()),
                "cranelift",
            ),
        ] {
            let table = format!("svc_{tag}");
            let schema = schema(&table);
            let dir = data(&schema, &table, tag);
            let engine = QueryEngine::with_options(
                &schema,
                EngineOptions {
                    native,
                    workers: 1,
                    ..EngineOptions::default()
                },
            )
            .expect("engine");
            assert_eq!(engine.native_backend(), None);
            let q = engine.prepare(&sum_query(&table)).expect("prepare");
            assert_eq!(engine.pending_jobs(), 0, "nothing left to build");
            assert_eq!(q.tier(), Tier::Jit);
            let run = q.execute(&dir).expect("the jit serves");
            assert_eq!(run.tier, Tier::Jit);
            assert_eq!(run.output.stdout.trim(), "12|24");
            // Waiting returns at once: the jit is there, native never comes.
            assert!(q.wait_for_tier(Tier::Jit, Duration::ZERO));
            assert!(!q.wait_for_tier(Tier::Native, Duration::from_secs(5)));
            let stats = q.stats();
            assert_eq!((stats.swaps, stats.tier_stats(Tier::Jit).swaps), (0, 0));
            assert_eq!(stats.tier_stats(Tier::Jit).swap_ms, Some(0.0));
            assert!(stats.first_result_ms.is_some());
            assert!(stats.pinned.expect("pinned").contains(why));
            assert!(q.report().contains("tier jit permanently"));

            // The reference interpreter answers only when pinned; a tier
            // that never landed does not answer at all.
            let reference = q
                .execute_pinned(Tier::Interp, &dir, &[], None)
                .expect("built on demand")
                .expect("interp runs");
            assert_eq!(reference.tier, Tier::Interp);
            assert_eq!(reference.output.stdout.trim(), "12|24");
            assert!(q.execute_pinned(Tier::Native, &dir, &[], None).is_none());
            assert_eq!(q.execute(&dir).expect("still the jit").tier, Tier::Jit);
        }
    }

    #[test]
    fn expired_deadline_surfaces_as_typed_timeout() {
        let schema = schema("svc_deadline");
        let dir = data(&schema, "svc_deadline", "deadline");
        let engine = QueryEngine::with_options(
            &schema,
            EngineOptions {
                native: NativeChoice::Disabled,
                ..EngineOptions::default()
            },
        )
        .expect("engine");
        let q = engine.prepare(&sum_query("svc_deadline")).expect("prepare");

        // An already-expired budget: the jit's loop back-edge fuel check
        // fires before any row lands — typed error, no partial output.
        match q.execute_bound(&dir, &[], Some(Duration::ZERO)) {
            Err(ExecError::Timeout { tier, .. }) => assert_eq!(tier, Tier::Jit),
            other => panic!("expected timeout, got {other:?}"),
        }
        let stats = q.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(
            stats.tier_stats(Tier::Jit).lat.runs,
            0,
            "abandoned runs record no latency"
        );

        // The same handle still serves full rows once given room.
        let run = q
            .execute_bound(&dir, &[], Some(Duration::from_secs(60)))
            .expect("generous budget");
        assert_eq!(run.tier, Tier::Jit);
        assert_eq!(run.output.stdout.trim(), "12|24");
        assert_eq!(q.stats().timeouts, 1);
    }

    #[test]
    fn engine_stats_snapshot_is_plain_data_and_serializes() {
        let schema = schema("svc_stats");
        let dir = data(&schema, "svc_stats", "stats");
        let engine = QueryEngine::with_options(
            &schema,
            EngineOptions {
                native: NativeChoice::Disabled,
                ..EngineOptions::default()
            },
        )
        .expect("engine");
        let q = engine
            .prepare_named(&sum_query("svc_stats"), "stats_probe")
            .expect("prepare");
        q.execute(&dir).expect("serve");

        let snap = engine.stats();
        assert_eq!(snap.native_backend, None);
        assert!(snap.degraded.is_some());
        assert_eq!((snap.tier0_compiles, snap.pending_tier_ups), (1, 0));
        assert_eq!(snap.queries.len(), 1);
        assert_eq!(snap.queries[0].0, "stats_probe");
        assert_eq!(snap.queries[0].1.tier_stats(Tier::Jit).lat.runs, 1);
        assert_eq!(snap.ladder[Tier::Jit.rank()].lat.runs, 1);

        let blob = snap.to_json();
        assert!(blob.contains("\"native_backend\": \"none\""));
        assert!(blob.contains("\"name\": \"stats_probe\""));
        assert!(blob.contains("\"tier\": \"jit\""));
        assert!(blob.contains("\"timeouts\": 0"));
        assert!(blob.contains("\"pinned\""));
        assert!(blob.contains("\"ladder\""));

        // Dropped handles fall out of the next snapshot.
        drop(q);
        assert!(engine.stats().queries.is_empty());
    }

    /// With the pool stopped, the queue shows what `prepare` asked for:
    /// one native build per handle and nothing else.
    #[test]
    fn each_prepare_queues_exactly_one_native_job() {
        if !backend("gcc").expect("registered").available() {
            eprintln!("(skipping: gcc not present)");
            return;
        }
        let schema = schema("svc_queue");
        let mut engine = QueryEngine::with_options(
            &schema,
            EngineOptions {
                gen_dir: std::env::temp_dir().join("dblab_service_queue_gen"),
                ..EngineOptions::default()
            },
        )
        .expect("engine");
        engine.shared.queue.lock().unwrap().shutdown = true;
        engine.shared.cvar.notify_all();
        for w in engine.workers.drain(..) {
            w.join().expect("worker");
        }
        let prog = sum_query("svc_queue");
        let a = engine.prepare_named(&prog, "queue_a").expect("prepare");
        assert_eq!(engine.pending_jobs(), 1);
        let b = engine.prepare_named(&prog, "queue_b").expect("prepare");
        assert_eq!(engine.pending_jobs(), 2);
        assert_eq!((a.tier(), b.tier()), (Tier::Jit, Tier::Jit));
    }

    #[test]
    fn prepare_serves_immediately_and_tiers_up_in_the_background() {
        let gcc = backend("gcc").expect("registered");
        if !gcc.available() {
            eprintln!("(skipping: gcc not present)");
            return;
        }
        let schema = schema("svc_tierup");
        let dir = data(&schema, "svc_tierup", "tierup");
        let engine = QueryEngine::with_options(
            &schema,
            EngineOptions {
                gen_dir: std::env::temp_dir().join("dblab_service_tierup_gen"),
                ..EngineOptions::default()
            },
        )
        .expect("engine");
        let q = engine.prepare(&sum_query("svc_tierup")).expect("prepare");

        // The jit answers without waiting for gcc: `prepare` built it, so
        // the first result is the jit's by construction, not by a race.
        assert_eq!(q.tier(), Tier::Jit);
        let first = q.execute(&dir).expect("immediate");
        assert_eq!(first.tier, Tier::Jit);
        assert_eq!(first.output.stdout.trim(), "12|24");

        assert!(
            q.wait_for_tier(Tier::Native, Duration::from_secs(120)),
            "tier-up must land: {:?}",
            q.stats().pinned
        );
        let after = q.execute(&dir).expect("post-swap");
        assert_eq!(after.tier, Tier::Native);
        assert_eq!(after.output.stdout.trim(), "12|24");

        let stats = q.stats();
        let up = stats.tier_up.as_ref().expect("report recorded");
        assert_eq!(up.backend, "gcc");
        assert!(up.elapsed_ms >= 0.0);
        assert_eq!(stats.tier_stats(Tier::Native).swaps, 1);
        assert_eq!(stats.tier_stats(Tier::Jit).lat.runs, 1);
        assert_eq!(stats.tier_stats(Tier::Interp).lat.runs, 0);
        assert!(stats.tier_stats(Tier::Native).lat.runs >= 1);
        assert_eq!(engine.stats().tierups_built, 1);
        assert!(q.report().contains("tier native via gcc"));
    }

    /// A native build that fails (here: the gen dir became a regular file,
    /// so gcc has nowhere to write) pins the handle to the jit: waiting
    /// for native returns `false` at once, the stats name the failure,
    /// and every execute keeps answering from the jit.
    #[test]
    fn a_failed_native_build_pins_the_handle_to_the_jit() {
        if !backend("gcc").expect("registered").available() {
            eprintln!("(skipping: gcc not present)");
            return;
        }
        let schema = schema("svc_badgen");
        let dir = data(&schema, "svc_badgen", "badgen");
        let gen_dir = std::env::temp_dir().join("dblab_service_badgen_gen");
        let _ = std::fs::remove_dir_all(&gen_dir);
        let _ = std::fs::remove_file(&gen_dir);
        let engine = QueryEngine::with_options(
            &schema,
            EngineOptions {
                gen_dir: gen_dir.clone(),
                workers: 1,
                ..EngineOptions::default()
            },
        )
        .expect("engine");
        std::fs::remove_dir_all(&gen_dir).expect("remove gen dir");
        std::fs::write(&gen_dir, b"not a directory").expect("gen dir as a file");

        let q = engine
            .prepare_named(&sum_query("svc_badgen"), "badgen")
            .expect("the jit needs no gen dir");
        let t0 = Instant::now();
        assert!(!q.wait_for_tier(Tier::Native, Duration::from_secs(60)));
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "a failed build must end the wait, not the timeout"
        );
        let pinned = q.stats().pinned.expect("pinned after the failure");
        assert!(
            pinned.contains("native tier-up for `badgen` failed"),
            "{pinned}"
        );
        for _ in 0..3 {
            let run = q.execute(&dir).expect("the jit still serves");
            assert_eq!(run.tier, Tier::Jit);
            assert_eq!(run.output.stdout.trim(), "12|24");
        }
        assert_eq!(engine.stats().tierups_built, 0);
        let _ = std::fs::remove_file(&gen_dir);
    }
}
