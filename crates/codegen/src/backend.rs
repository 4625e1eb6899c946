//! The backend seam: one compile/execute API over gcc, the closure JIT
//! and the interpreter.
//!
//! The paper's argument is that a query compiler should be a stack of
//! small, swappable stages — this module extends that principle below the
//! C.Scala dialect. A [`Backend`] turns a fully-lowered IR program into an
//! [`Executable`]; the [`Compiler`] facade runs the configured DSL stack
//! and hands the result to whichever backend the caller selected. Three
//! backends ship in the [`backends`] registry:
//!
//! * [`CBackend`] — the paper's path: unparse to C, build with `gcc -O3`;
//! * [`crate::jit::JitBackend`] — the same C.Scala dialect compiled to a
//!   tree of pre-resolved closures, in-process, in microseconds;
//! * [`InterpBackend`] — `dblab-interp` wrapped as a zero-build in-process
//!   executable ("each DSL is executable", §4).
//!
//! `emit` stays a pure `Program → String` function on every backend so
//! sources can be inspected, diffed and cached without building anything;
//! `build` receives the program alongside the source because in-process
//! backends execute the IR directly rather than re-parsing text.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dblab_catalog::Schema;
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::QueryProgram;
use dblab_ir::expr::Expr;
use dblab_ir::{Program, Type};
use dblab_runtime::{image, snapshot, Snapshot, Value};
use dblab_transform::stack::CompiledQuery;
use dblab_transform::StackConfig;

/// Result of one run of a compiled query (any backend).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Result rows (stdout).
    pub stdout: String,
    /// In-query time: the generated timer's (`QUERY_TIME_MS`) for gcc
    /// binaries and for jit programs that run their timer; otherwise the
    /// whole evaluation after the snapshot resolve (the interpreter, and a
    /// jit program without timer instrumentation).
    pub query_ms: f64,
    /// Peak resident set size, KiB, as a gcc binary reports it for itself
    /// (`PEAK_RSS_KB`, from `getrusage`). 0 for the in-process backends:
    /// the serving process's lifetime high-water mark is not the query's.
    pub peak_rss_kb: u64,
    /// Whole-run wall time: resolving the data (the snapshot, or a gcc
    /// binary's data image) and, for a binary, its process.
    pub wall: Duration,
}

/// A built query, ready to run against a `.tbl` data directory. The
/// native backend resolves the directory's data image
/// ([`dblab_runtime::image::resolve`]) — written once per data version —
/// and hands the image to the query process; the in-process backends
/// resolve it through the resident snapshot store
/// ([`dblab_runtime::snapshot::resident`]) — parsed once per directory.
/// Both re-validate by file fingerprint on every run.
///
/// `Send + Sync` is part of the contract: the bench harness builds
/// executables on worker threads and runs them wherever timing is least
/// noisy (every shipped impl is a path + metadata, or an IR program —
/// thread-portable by construction).
pub trait Executable: Send + Sync {
    /// Execute against `data_dir` and capture result rows + metrics. The
    /// `idx`-th `LoadParam` in the program reads `params[idx]`: native
    /// backends pass the canonical text form (see [`format_param`]) as
    /// `argv[2..]`, the in-process backends bind the values directly. Once
    /// `deadline` elapses the run is abandoned — the native backends kill
    /// the query process, the in-process ones interrupt at loop
    /// back-edges — and an [`io::ErrorKind::TimedOut`] error comes back
    /// instead of a hung thread.
    fn run_bound(
        &self,
        data_dir: &Path,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> io::Result<RunOutput>;
    /// [`Executable::run_bound`] with no parameters and no deadline.
    fn run(&self, data_dir: &Path) -> io::Result<RunOutput> {
        self.run_bound(data_dir, &[], None)
    }
    /// Wall time the toolchain spent building (the gcc half of
    /// Figure 9; zero for in-process backends).
    fn build_time(&self) -> Duration;
    /// The produced binary on disk, if any.
    fn artifact(&self) -> Option<&Path>;
}

/// The error every deadline overrun surfaces as (matched upstream by
/// `ErrorKind::TimedOut`).
pub fn timeout_error(budget: Duration) -> io::Error {
    let ms = budget.as_secs_f64() * 1e3;
    let msg = format!("query exceeded its {ms:.0}ms execution deadline");
    io::Error::new(io::ErrorKind::TimedOut, msg)
}

/// Everything a backend needs to build: the emitted source, where to put
/// artifacts, and the program itself (for in-process backends).
pub struct BuildInput<'a> {
    pub program: &'a Program,
    pub schema: &'a Schema,
    pub source: &'a str,
    pub dir: &'a Path,
    pub name: &'a str,
}

/// A code-generation + execution strategy for fully-lowered programs.
/// `Send + Sync` so one backend instance can serve concurrent builds
/// (`build` is `&self`; the shipped backends are stateless).
pub trait Backend: Send + Sync {
    /// Registry name (`"gcc"`, `"jit"`, `"interp"`).
    fn name(&self) -> &'static str;
    /// Pure unparse: C.Scala program → source text. Never touches the
    /// filesystem or a toolchain.
    fn emit(&self, p: &Program, schema: &Schema) -> String;
    /// Build an [`Executable`] from the emitted source.
    fn build(&self, input: BuildInput<'_>) -> io::Result<Box<dyn Executable>>;
    /// Whether the required toolchain is present on this machine.
    fn available(&self) -> bool {
        true
    }
    /// What `available()` probes for, for skip messages.
    fn requirement(&self) -> &'static str {
        "nothing"
    }
    /// Whether `build` output may be reused for byte-identical source
    /// (see [`crate::build_cache`]). In-process backends that never invoke
    /// a toolchain opt out — there is nothing to skip.
    fn cacheable(&self) -> bool {
        true
    }
}

/// Canonical command-line text for one query-parameter value, identical
/// for every native backend: decimal integers, Rust's shortest
/// round-tripping `{}` for doubles (which C's `atof`/`strtod` parses back
/// to the same bits), `0`/`1` for bools. One binding therefore maps to one
/// argv vector, whichever backend serves it.
pub fn format_param(v: &Value) -> String {
    match v {
        Value::Null => "0".to_string(),
        Value::Bool(b) => (if *b { "1" } else { "0" }).to_string(),
        Value::Int(i) => i.to_string(),
        Value::Long(l) => l.to_string(),
        Value::Double(d) => d.to_string(),
        Value::Str(s) => s.to_string(),
    }
}

/// Spawn a generated binary with `dir` as `argv[1]` and `params` as
/// `argv[2..]` (canonical text form — see [`format_param`]) and parse the
/// instrumentation lines (`QUERY_TIME_MS`, `PEAK_RSS_KB`) from stderr.
///
/// Output is piped and drained by two reader threads, so a full pipe never
/// wedges the wait. Without a deadline the caller blocks in `wait`. With
/// one it blocks until stdout's end of file or the budget, whichever comes
/// first: the end of file is the child exiting, which is then reaped
/// within what is left of the budget. Once the budget is spent the child
/// is killed and [`io::ErrorKind::TimedOut`] reported. On every exit the
/// child is reaped and both readers are joined — a failed or timed-out
/// query leaks neither a process nor a thread.
pub fn run_binary(
    binary: &Path,
    dir: &Path,
    params: &[Value],
    deadline: Option<Duration>,
) -> io::Result<RunOutput> {
    fn drain(mut pipe: impl Read + Send + 'static) -> (JoinHandle<()>, mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let _ = pipe.read_to_end(&mut buf);
            let _ = tx.send(buf);
        });
        (reader, rx)
    }
    let t0 = Instant::now();
    let mut child = Command::new(binary)
        .arg(dir)
        .args(params.iter().map(format_param))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let (out_reader, out) = drain(child.stdout.take().expect("piped stdout"));
    let (err_reader, err) = drain(child.stderr.take().expect("piped stderr"));
    let mut stdout = None;
    // `Ok(None)`: the budget ran out while the child was still running.
    let waited = match deadline {
        None => child.wait().map(Some),
        Some(budget) => match out.recv_timeout(budget.saturating_sub(t0.elapsed())) {
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            eof => {
                stdout = eof.ok();
                reap(&mut child, t0 + budget)
            }
        },
    };
    if !matches!(waited, Ok(Some(_))) {
        let _ = child.kill();
        let _ = child.wait();
    }
    let wall = t0.elapsed();
    let stdout = stdout.or_else(|| out.recv().ok()).unwrap_or_default();
    let stderr = String::from_utf8_lossy(&err.recv().unwrap_or_default()).into_owned();
    let _ = (out_reader.join(), err_reader.join());
    let Some(status) = waited? else {
        return Err(timeout_error(deadline.unwrap_or_default()));
    };
    if !status.success() {
        let msg = format!("query binary {} failed: {stderr}", binary.display());
        return Err(io::Error::other(msg));
    }
    let mut run = RunOutput {
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
        query_ms: f64::NAN,
        peak_rss_kb: 0,
        wall,
    };
    for line in stderr.lines() {
        if let Some(v) = line.strip_prefix("QUERY_TIME_MS: ") {
            run.query_ms = v.trim().parse().unwrap_or(f64::NAN);
        } else if let Some(v) = line.strip_prefix("PEAK_RSS_KB: ") {
            run.peak_rss_kb = v.trim().parse().unwrap_or(0);
        }
    }
    Ok(run)
}

/// Reap a child that closed its stdout — it is exiting, and is gone
/// microseconds later — by `end`; `Ok(None)` if it still runs then.
fn reap(child: &mut Child, end: Instant) -> io::Result<Option<ExitStatus>> {
    let mut pause = Duration::from_micros(20);
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        std::thread::sleep(pause.min(left));
        pause = (pause * 2).min(Duration::from_millis(1));
    }
}

/// Split one result text into `|`-separated rows and sort them into a
/// canonical order: field-wise, numerics by value, everything else
/// lexicographic. Both sides of a comparison go through the same
/// normalization, so *row order* never decides conformance — morsel
/// partition merges relink hash chains in a thread-dependent order, and
/// an unordered aggregate legitimately prints its groups differently at
/// `threads = 1` and `threads = 4`.
fn normalized_rows(s: &str) -> Vec<Vec<&str>> {
    let mut rows: Vec<Vec<&str>> = s.lines().map(|l| l.split('|').collect()).collect();
    rows.sort_by(|x, y| {
        for (u, v) in x.iter().zip(y.iter()) {
            let ord = match (u.parse::<f64>(), v.parse::<f64>()) {
                // Value order, not text order: "9.5" sorts before "10.2",
                // and it is monotone — rows further apart than the print
                // rounding can never swap sides between two outputs.
                (Ok(a), Ok(b)) => a.total_cmp(&b),
                _ => u.cmp(v),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        x.len().cmp(&y.len())
    });
    rows
}

/// Normalized result comparison shared by the differential tests, the
/// backend-conformance suite and `tpch_showdown`'s oracle check: rows
/// sorted into a canonical order (see [`normalized_rows`]), then
/// field-wise with a small numeric tolerance (C prints through `%.4f`,
/// Rust through `{:.4}`; rounding can differ in the last digit, and a NaN
/// is `-nan` in one and `NaN` in the other).
///
/// Two rows whose sort keys differ only *within* the tolerance may pair
/// up either way after sorting — both pairings pass, so the sort's
/// instability on near-ties is harmless.
pub fn same_normalized(a: &str, b: &str) -> bool {
    let ra = normalized_rows(a);
    let rb = normalized_rows(b);
    if ra.len() != rb.len() {
        return false;
    }
    for (fx, fy) in ra.iter().zip(&rb) {
        if fx.len() != fy.len() {
            return false;
        }
        for (u, v) in fx.iter().zip(fy) {
            if u == v {
                continue;
            }
            match (u.parse::<f64>(), v.parse::<f64>()) {
                (Ok(a), Ok(b)) if (a - b).abs() <= 0.02_f64.max(a.abs() * 1e-6) => {}
                (Ok(a), Ok(b)) if a.is_nan() && b.is_nan() => {}
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod normalize_tests {
    use super::same_normalized;

    #[test]
    fn row_order_is_irrelevant() {
        // A partition merge may emit groups in any order; the shuffled
        // text must still conform.
        let oracle = "A|1|10.5000\nB|2|20.2500\nC|3|30.1250\n";
        let shuffled = "C|3|30.1250\nA|1|10.5000\nB|2|20.2500\n";
        assert!(same_normalized(oracle, shuffled));
        assert!(same_normalized(shuffled, oracle));
    }

    #[test]
    fn last_digit_rounding_is_tolerated_but_values_are_not() {
        assert!(same_normalized("x|10.5001\n", "x|10.4999\n"));
        assert!(!same_normalized("x|10.5\n", "x|11.5\n"));
        assert!(same_normalized("NaN\n", "-nan\n"));
        assert!(!same_normalized("NaN\n", "0.0000\n"));
    }

    #[test]
    fn row_multiplicity_and_content_still_count() {
        // Sorting must not turn the comparison into a set comparison.
        assert!(!same_normalized("A|1\nA|1\n", "A|1\n"));
        assert!(!same_normalized("A|1\nB|2\n", "A|1\nB|3\n"));
        assert!(!same_normalized("A|1\n", "A|1|2\n"));
    }

    #[test]
    fn numeric_fields_sort_by_value_not_text() {
        // "9.5" < "10.2" numerically but not lexicographically; both
        // orders must normalize to the same row sequence.
        assert!(same_normalized("9.5|a\n10.2|b\n", "10.2|b\n9.5|a\n"));
    }
}

// ---------------------------------------------------------------------
// C / gcc
// ---------------------------------------------------------------------

/// The paper's backend: C source, `gcc -O3`.
pub struct CBackend;

/// A toolchain-built binary on disk (fresh from gcc, or revived by the
/// build cache with a zero `build_time`) and the parts of the data image
/// its program reads.
pub(crate) struct NativeExecutable {
    binary: PathBuf,
    build_time: Duration,
    image: image::Request,
}

impl NativeExecutable {
    pub(crate) fn new(binary: PathBuf, build_time: Duration, input: &BuildInput) -> Self {
        let image = crate::tables::image_request(input.program, input.schema);
        NativeExecutable {
            binary,
            build_time,
            image,
        }
    }
}

impl Executable for NativeExecutable {
    /// Resolves `data_dir`'s image beside the binary (`<gen dir>/image`),
    /// writing what its program reads on the first run per data version,
    /// then runs the binary over it. The deadline covers the binary, not
    /// the image, as the in-process backends' covers evaluation, not the
    /// snapshot.
    fn run_bound(
        &self,
        data_dir: &Path,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> io::Result<RunOutput> {
        let t0 = Instant::now();
        let image = image::resolve(&self.image, data_dir, &self.binary.with_file_name("image"))?;
        let mut run = run_binary(&self.binary, &image, params, deadline)?;
        run.wall = t0.elapsed();
        Ok(run)
    }
    fn build_time(&self) -> Duration {
        self.build_time
    }
    fn artifact(&self) -> Option<&Path> {
        Some(&self.binary)
    }
}

impl Backend for CBackend {
    fn name(&self) -> &'static str {
        "gcc"
    }
    fn emit(&self, p: &Program, schema: &Schema) -> String {
        crate::emit::emit(p, schema)
    }
    fn build(&self, input: BuildInput<'_>) -> io::Result<Box<dyn Executable>> {
        let compiled = crate::cc::compile_c(input.source, input.dir, input.name)?;
        let exe = NativeExecutable::new(compiled.binary, compiled.cc_time, &input);
        Ok(Box::new(exe))
    }
    fn available(&self) -> bool {
        static PRESENT: OnceLock<bool> = OnceLock::new();
        *PRESENT.get_or_init(|| {
            Command::new("gcc")
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
        })
    }
    fn requirement(&self) -> &'static str {
        "gcc on PATH"
    }
}

// ---------------------------------------------------------------------
// Interpreter (in-process, zero build)
// ---------------------------------------------------------------------

/// `dblab-interp` as a backend: no toolchain, no artifact — the final IR
/// program itself is the executable.
pub struct InterpBackend;

/// What an in-process executable evaluates: the two in-process backends
/// differ in nothing else.
pub(crate) enum Evaluator {
    Interp(Program),
    Jit(crate::jit::JitProgram),
}

/// The interpreter's or the jit's executable: resolves the resident
/// snapshot, then evaluates over it on the calling thread.
pub(crate) struct InProcessExecutable {
    eval: Evaluator,
    data: ResidentData,
    build: Duration,
}

impl InProcessExecutable {
    pub(crate) fn new(eval: Evaluator, input: &BuildInput, build: Duration) -> Self {
        let data = ResidentData::new(input.program, input.schema);
        Self { eval, data, build }
    }
}

/// What an in-process executable knows about the data it runs over: the
/// schema the directory is parsed under, the indexes its program loads,
/// and the parameter slots a run must bind.
struct ResidentData {
    schema: Schema,
    /// The table of every `LoadTable` statement.
    tables: Vec<std::sync::Arc<str>>,
    /// `(table, column, unique)` per `LoadIndex*` statement.
    indexes: Vec<(std::sync::Arc<str>, usize, bool)>,
    /// `(idx, declared type)` per `LoadParam` statement.
    params: Vec<(usize, Type)>,
}

impl ResidentData {
    fn new(p: &Program, schema: &Schema) -> ResidentData {
        let (mut tables, mut indexes, mut params) = (Vec::new(), Vec::new(), Vec::new());
        p.body.for_each_stmt(&mut |st| match &st.expr {
            Expr::LoadTable { table, .. } => tables.push(table.clone()),
            Expr::LoadIndexUnique { table, field } => indexes.push((table.clone(), *field, true)),
            Expr::LoadIndexStarts { table, field } | Expr::LoadIndexItems { table, field } => {
                indexes.push((table.clone(), *field, false))
            }
            Expr::LoadParam { idx } => params.push((*idx, st.ty.clone())),
            _ => {}
        });
        ResidentData {
            schema: schema.clone(),
            tables,
            indexes,
            params,
        }
    }

    /// Every parameter slot has a binding its declared type takes (numbers
    /// widen to `Double`), so neither evaluator meets one that does not.
    fn check_params(&self, params: &[Value]) -> io::Result<()> {
        for (idx, ty) in &self.params {
            let binding = params.get(*idx);
            let takes = matches!(
                (ty, binding),
                (Type::Int | Type::Long, Some(Value::Int(_) | Value::Long(_)))
                    | (
                        Type::Double,
                        Some(Value::Int(_) | Value::Long(_) | Value::Double(_))
                    )
                    | (Type::Bool, Some(Value::Bool(_)))
                    | (Type::String, Some(Value::Str(_)))
            );
            if !takes {
                let got = binding.map_or("unbound".to_string(), |v| format!("bound to {v:?}"));
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("query parameter {idx} (`{ty}`) is {got}"),
                ));
            }
        }
        Ok(())
    }

    /// The resident snapshot of `data_dir`, with every index the program
    /// loads already built and every table it loads within what a row
    /// handle can address — so data the executors refuse (it is outside
    /// input) is this call's typed error, not a panic mid-query.
    fn resolve(&self, data_dir: &Path) -> io::Result<std::sync::Arc<Snapshot>> {
        let db = snapshot::resident(&self.schema, data_dir)?;
        for table in &self.tables {
            let rows = db.table(table).len();
            if u32::try_from(rows).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{table}.tbl has {rows} rows; row handles index rows with 32 bits"),
                ));
            }
        }
        for (table, col, unique) in &self.indexes {
            let t = db.table(table);
            if *unique {
                t.index_unique(*col)?;
            } else {
                t.csr(*col)?;
            }
        }
        Ok(db)
    }
}

impl Executable for InProcessExecutable {
    fn run_bound(
        &self,
        data_dir: &Path,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> io::Result<RunOutput> {
        let t0 = Instant::now();
        self.data.check_params(params)?;
        let db = self.data.resolve(data_dir)?;
        let tq = Instant::now();
        // Evaluation interrupts itself at loop back-edges once the absolute
        // deadline passes — the budget covers query evaluation, not
        // resolving the snapshot above (native binaries exclude loading
        // from their in-query timer the same way).
        let at = deadline.map(|d| tq + d);
        let evaluated = match &self.eval {
            Evaluator::Interp(p) => dblab_interp::run_bound(p, &db, params, at).map(|s| (s, None)),
            Evaluator::Jit(jp) => jp.run_bound(&db, params, at),
        };
        let (stdout, timer_ms) = evaluated.map_err(|dblab_interp::Interrupted| {
            timeout_error(deadline.expect("interrupt implies a deadline"))
        })?;
        Ok(RunOutput {
            stdout,
            query_ms: timer_ms.unwrap_or_else(|| tq.elapsed().as_secs_f64() * 1e3),
            peak_rss_kb: 0,
            wall: t0.elapsed(),
        })
    }
    fn build_time(&self) -> Duration {
        self.build
    }
    fn artifact(&self) -> Option<&Path> {
        None
    }
}

impl Backend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }
    fn emit(&self, p: &Program, _schema: &Schema) -> String {
        dblab_ir::printer::print_program(p)
    }
    fn build(&self, input: BuildInput<'_>) -> io::Result<Box<dyn Executable>> {
        let eval = Evaluator::Interp(input.program.clone());
        let exe = InProcessExecutable::new(eval, &input, Duration::ZERO);
        Ok(Box::new(exe))
    }
    fn requirement(&self) -> &'static str {
        "nothing (in-process)"
    }
    fn cacheable(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// All registered backends, in presentation order. This is the seam later
/// backends (cranelift, …) plug into.
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(CBackend),
        Box::new(crate::jit::JitBackend),
        Box::new(InterpBackend),
    ]
}

/// Backends whose toolchain is present on this machine.
pub fn available_backends() -> Vec<Box<dyn Backend>> {
    backends().into_iter().filter(|b| b.available()).collect()
}

/// Look a backend up by registry name (aliases: `c`/`gcc`,
/// `interpreter`/`interp`). Derived from [`backends`], so a backend added
/// to the registry is automatically resolvable here.
pub fn backend(name: &str) -> Option<Box<dyn Backend>> {
    let canonical = match name {
        "c" => "gcc",
        "interpreter" => "interp",
        other => other,
    };
    backends().into_iter().find(|b| b.name() == canonical)
}

// ---------------------------------------------------------------------
// The Compiler facade
// ---------------------------------------------------------------------

/// A fully compiled query: the instrumented stack output (stage trace,
/// generation time), the emitted source, and the built executable.
pub struct CompiledArtifact {
    /// Which backend built this.
    pub backend: &'static str,
    /// The DSL-stack output: final program + per-pass stage trace.
    pub stack: CompiledQuery,
    /// The emitted source text (C, or pretty-printed IR).
    pub source: String,
    /// The runnable artifact.
    pub exe: Box<dyn Executable>,
    /// Whether `exe` came from the source-level build cache (the backend's
    /// toolchain did not run for this compile; `exe.build_time()` is zero).
    pub build_cached: bool,
}

impl CompiledArtifact {
    /// Convenience: run against a data directory.
    pub fn run(&self, data_dir: &Path) -> io::Result<RunOutput> {
        self.exe.run(data_dir)
    }
}

/// The one compile/execute entry point: configure a stack, pick a backend,
/// compile queries.
///
/// ```no_run
/// # use dblab_codegen::{Compiler, JitBackend};
/// # let schema = dblab_catalog::Schema::default();
/// # let prog = dblab_frontend::qplan::QueryProgram::new(
/// #     dblab_frontend::qplan::QPlan::scan("nation"));
/// let artifact = Compiler::new(&schema)
///     .config(&dblab_transform::StackConfig::level5())
///     .backend(Box::new(JitBackend))
///     .compile(&prog)
///     .expect("build");
/// let out = artifact.run(std::path::Path::new("/data")).expect("run");
/// ```
pub struct Compiler<'s> {
    schema: &'s Schema,
    cfg: StackConfig,
    backend: Box<dyn Backend>,
    dir: PathBuf,
}

impl<'s> Compiler<'s> {
    /// Defaults: five-level stack, C/gcc backend, artifacts under the
    /// system temp directory.
    pub fn new(schema: &'s Schema) -> Compiler<'s> {
        Compiler {
            schema,
            cfg: StackConfig::level5(),
            backend: Box::new(CBackend),
            dir: std::env::temp_dir().join("dblab_gen"),
        }
    }

    /// Select the stack configuration (Table 3 axis).
    pub fn config(mut self, cfg: &StackConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Select the backend (gcc / jit / interp / yours).
    pub fn backend(mut self, b: Box<dyn Backend>) -> Self {
        self.backend = b;
        self
    }

    /// Where sources and binaries go.
    pub fn out_dir(mut self, dir: &Path) -> Self {
        self.dir = dir.to_path_buf();
        self
    }

    /// Compile a QPlan program end to end, deriving a stable artifact name
    /// from the program, configuration and backend.
    pub fn compile(&self, prog: &QueryProgram) -> io::Result<CompiledArtifact> {
        let cq = dblab_transform::compile(prog, self.schema, &self.cfg);
        let name = self.auto_name(&cq);
        self.build_staged(cq, &name)
    }

    /// Compile a QPlan program with an explicit artifact name (benches and
    /// tests name artifacts after the query and configuration).
    pub fn compile_named(&self, prog: &QueryProgram, name: &str) -> io::Result<CompiledArtifact> {
        let cq = dblab_transform::compile(prog, self.schema, &self.cfg);
        self.build_staged(cq, name)
    }

    /// Compile a QMonad query through the same stack (§4.5 front-end).
    pub fn compile_qmonad(&self, q: &QMonad, name: &str) -> io::Result<CompiledArtifact> {
        let cq = dblab_transform::stack::compile_qmonad(q, self.schema, &self.cfg);
        self.build_staged(cq, name)
    }

    /// Emit + build an already-lowered stack output. The seam for callers
    /// that ran the stack themselves (e.g. to retain per-stage snapshots).
    pub fn build_staged(&self, cq: CompiledQuery, name: &str) -> io::Result<CompiledArtifact> {
        if !self.backend.available() {
            return Err(io::Error::other(format!(
                "backend `{}` unavailable (requires {})",
                self.backend.name(),
                self.backend.requirement()
            )));
        }
        let source = self.backend.emit(&cq.program, self.schema);
        let (exe, build_cached) = crate::build_cache::build_with_cache(
            self.backend.as_ref(),
            BuildInput {
                program: &cq.program,
                schema: self.schema,
                source: &source,
                dir: &self.dir,
                name,
            },
        )?;
        Ok(CompiledArtifact {
            backend: self.backend.name(),
            stack: cq,
            source,
            exe,
            build_cached,
        })
    }

    /// Stable artifact name derived from the lowered program text plus the
    /// configuration and backend — distinct programs get distinct
    /// artifacts, identical compiles reuse the same name. Hashed with the
    /// same process-independent FNV the build cache uses, so names stay
    /// valid across runs (`DefaultHasher` is seeded per process and would
    /// strand every persisted artifact).
    fn auto_name(&self, cq: &CompiledQuery) -> String {
        let text = format!(
            "{}\x1f{}\x1f{}",
            self.cfg.name,
            self.backend.name(),
            dblab_ir::printer::print_program(&cq.program)
        );
        format!("q_{:016x}", dblab_ir::hash::str_hash(&text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_three_backends_with_unique_names() {
        let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["gcc", "jit", "interp"]);
        for n in &names {
            assert!(backend(n).is_some(), "{n} resolves");
        }
        for gone in ["cranelift", "rustc", "rust"] {
            assert!(backend(gone).is_none(), "{gone} must not resolve");
        }
    }

    #[test]
    fn interp_backend_is_always_available() {
        assert!(InterpBackend.available());
    }

    /// The facade end to end on the zero-toolchain backend: compile with an
    /// auto-derived artifact name, run against a written `.tbl` directory.
    #[test]
    fn facade_compiles_and_runs_through_the_interp_backend() {
        use dblab_catalog::{ColType, TableDef};
        use dblab_frontend::qplan::{AggFunc, QPlan, QueryProgram};
        use dblab_runtime::{Database, Table};

        let mut schema = dblab_catalog::Schema::new(vec![TableDef::new(
            "t",
            vec![("t_id", ColType::Int), ("t_v", ColType::Int)],
        )]);
        let def = schema.table_mut("t");
        def.stats.row_count = 3;
        def.stats.int_max = vec![10; 2];
        def.stats.distinct = vec![3; 2];
        let dir = std::env::temp_dir().join("dblab_facade_test");
        let mut t = Table::empty(schema.table("t"));
        for (id, v) in [(1, 5), (2, 6), (3, 7)] {
            t.push_row(vec![Value::Int(id), Value::Int(v)]);
        }
        let db = Database {
            schema: schema.clone(),
            tables: vec![t],
            dir: dir.clone(),
        };
        db.write_all().expect("write .tbl");

        let prog = QueryProgram::new(QPlan::scan("t").agg(vec![], vec![("n", AggFunc::Count)]));
        let art = Compiler::new(&schema)
            .config(&StackConfig::level2())
            .backend(Box::new(InterpBackend))
            .compile(&prog)
            .expect("interp build");
        assert_eq!(art.backend, "interp");
        assert!(!art.stack.stages.is_empty(), "stage trace present");
        assert!(art.exe.artifact().is_none(), "in-process: no binary");
        assert_eq!(art.exe.build_time(), Duration::ZERO);
        let out = art.run(&dir).expect("run");
        assert_eq!(out.stdout.trim(), "3");

        // Same program + config + backend -> same derived artifact name.
        let cq1 = dblab_transform::compile(&prog, &schema, &StackConfig::level2());
        let compiler = Compiler::new(&schema).config(&StackConfig::level2());
        assert_eq!(compiler.auto_name(&cq1), compiler.auto_name(&cq1));
    }

    /// A `#!/bin/sh` stand-in for a generated binary, so the child-process
    /// runner is tested without gcc. Its directory doubles as the data
    /// directory it runs on (`$1`).
    fn script(name: &str, body: &str) -> (PathBuf, PathBuf) {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("dblab_runner_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("query");
        std::fs::write(&bin, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).unwrap();
        (bin, dir)
    }

    #[test]
    fn runner_returns_rows_instrumentation_and_passes_params() {
        let body = r#"echo "$1|$2|$3"; echo 'QUERY_TIME_MS: 1.5' >&2; echo 'PEAK_RSS_KB: 42' >&2"#;
        let (bin, dir) = script("args", body);
        let params = [Value::Int(7), Value::Str("x y".into())];
        let out = run_binary(&bin, &dir, &params, None).unwrap();
        assert_eq!(out.stdout, format!("{}|7|x y\n", dir.display()));
        assert_eq!((out.query_ms, out.peak_rss_kb), (1.5, 42));
    }

    #[test]
    fn runner_drains_large_output_on_both_pipes() {
        // stderr first: a runner reading stdout to EOF before touching
        // stderr would wedge once the stderr pipe fills.
        let body = "yes e | head -c 200000 >&2; yes o | head -c 200000";
        let (bin, dir) = script("large", body);
        for deadline in [None, Some(Duration::from_secs(60))] {
            let out = run_binary(&bin, &dir, &[], deadline).unwrap();
            assert_eq!(out.stdout.len(), 200_000);
        }
    }

    #[test]
    fn runner_kills_and_reaps_an_overrun() {
        let (bin, dir) = script("sleep", r#"echo $$ > "$1/pid"; exec sleep 5"#);
        let t0 = Instant::now();
        let err = run_binary(&bin, &dir, &[], Some(Duration::from_millis(50))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let pid = std::fs::read_to_string(dir.join("pid")).unwrap();
        assert!(!Path::new(&format!("/proc/{}", pid.trim())).exists());
    }

    #[test]
    fn runner_reports_a_failing_binary_with_its_stderr() {
        let (bin, dir) = script("fail", "echo boom >&2; exit 3");
        let err = run_binary(&bin, &dir, &[], None).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }
}
