//! The latency-under-load harness: N concurrent clients replaying a
//! zipfian mix of TPC-H templates against a live `dblab-server`.
//!
//! By default the harness stands up an in-process server (any free
//! loopback port) and tears it down gracefully at the end; `--addr
//! host:port` aims it at an external one instead. Every client prepares
//! the selected templates once, then issues `--requests` executes drawn
//! from a zipf(s=1) distribution over them — the head query is hot, the
//! tail cold, which is what makes background tier-up visible: hot
//! queries swap to native early while the harness is still running, so
//! the per-tier latency split quantifies tier-up interference (what the
//! same request cost before vs after the hot swap).
//!
//! Every returned row set is checked against the Volcano oracle; every
//! shed (`busy`) and `timeout` frame is counted — those are the server
//! keeping its admission-control promise, not failures. What *is* a
//! failure: a wrong result, or a hung connection (no response within
//! the client read timeout). Either exits non-zero.
//!
//! Since the reactor rewrite the harness also proves the *anatomy*
//! claim: with every connection multiplexed onto `--io-threads` reactor
//! threads, the server's thread count and its per-connection fd cost
//! must stay flat as `--clients` grows. When the server runs in-process
//! on a procfs system, the harness snapshots `/proc/self/status`
//! (`Threads:`) and `/proc/self/fd` before the server starts and again
//! at peak connection count (every client connected and prepared,
//! parked on a barrier), and exits non-zero if the deltas exceed the
//! reactor anatomy — a reader-thread-per-connection regression fails
//! the run even when every row agrees.
//!
//! ```text
//! cargo run --release -p dblab-bench --bin loadgen -- \
//!     --sf 0.01 --queries 1,3,6 --clients 512 --requests 50 \
//!     --server-workers 4 --io-threads 2 --queue-cap 4096 --json load.json
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dblab_bench::{data_dir, emit_json, json, latency_obj, Args};
use dblab_codegen::same_normalized;
use dblab_engine::service::{EngineOptions, NativeChoice};
use dblab_server::{tpch_resolver, Client, ClientError, ErrorCode, Server, ServerOptions};
use dblab_tpch::rng::Rng64;
use dblab_transform::StackConfig;

/// One successful execution, as seen by a client.
struct Sample {
    query: usize,
    wall_ms: f64,
    /// Wire code of the tier that served (`protocol::TIER_*`).
    tier: u8,
    /// This client's first-ever request (the cold, tier-0 path).
    first: bool,
    correct: bool,
}

/// Shared failure tallies (successes travel back as [`Sample`]s).
#[derive(Default)]
struct Tally {
    shed: AtomicU64,
    timeouts: AtomicU64,
    hung: AtomicU64,
    server_errors: AtomicU64,
    transport_errors: AtomicU64,
}

/// Zipf(s=1) sampler over `n` templates: rank `i` gets weight `1/(i+1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        for i in 1..n {
            cdf[i] += cdf[i - 1];
        }
        let total = *cdf.last().expect("at least one query");
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn client_loop(
    id: usize,
    addr: std::net::SocketAddr,
    read_timeout: Duration,
    args: &Args,
    oracles: &[String],
    tally: &Tally,
    connected: &Barrier,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut c = match Client::connect_timeout(addr, Some(read_timeout)) {
        Ok(c) => c,
        Err(_) => {
            tally.transport_errors.fetch_add(1, Ordering::AcqRel);
            connected.wait();
            return samples;
        }
    };
    // Prepare every template up front (the server dedupes across
    // sessions — N clients still cost one compile per template).
    let mut stmts = Vec::with_capacity(args.queries.len());
    for &q in &args.queries {
        match c.prepare(&format!("tpch:{q}")) {
            Ok(id) => stmts.push(id),
            Err(e) => {
                count_failure(&e, tally);
                connected.wait();
                return samples;
            }
        }
    }
    // Hold here until every client is connected and prepared: the far
    // side of this barrier is the process's peak connection count, which
    // the main thread snapshots for the thread/fd flatness check. Every
    // return path above also waits, so a failed client can't wedge it.
    connected.wait();
    let zipf = Zipf::new(args.queries.len());
    let mut rng = Rng64::seed_from_u64(args.seed ^ (0x10ad_0000 + id as u64));
    for req in 0..args.requests {
        let qi = zipf.sample(&mut rng);
        let t0 = Instant::now();
        match c.execute(stmts[qi]) {
            Ok(reply) => samples.push(Sample {
                query: args.queries[qi],
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                tier: reply.tier,
                first: req == 0,
                correct: same_normalized(&oracles[qi], &reply.rows),
            }),
            Err(e) => {
                count_failure(&e, tally);
                if matches!(&e, ClientError::Io(_)) {
                    return samples; // transport is gone; stop this client
                }
            }
        }
    }
    let _ = c.close();
    samples
}

/// The process's thread count (`Threads:` in `/proc/self/status`), or
/// `None` off-procfs — the flatness checks quietly skip there.
fn proc_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The process's open-descriptor count (entries in `/proc/self/fd`).
fn proc_fds() -> Option<u64> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count() as u64)
}

fn count_failure(e: &ClientError, tally: &Tally) {
    match e {
        ClientError::Server { code, .. } => match code {
            ErrorCode::Busy => tally.shed.fetch_add(1, Ordering::AcqRel),
            ErrorCode::Timeout => tally.timeouts.fetch_add(1, Ordering::AcqRel),
            _ => tally.server_errors.fetch_add(1, Ordering::AcqRel),
        },
        ClientError::Io(_) if e.is_hang() => tally.hung.fetch_add(1, Ordering::AcqRel),
        ClientError::Io(_) => tally.transport_errors.fetch_add(1, Ordering::AcqRel),
    };
}

/// `--param-mix N`: replay the parameterized Q6 template with `N`
/// distinct literal bindings through both wire paths (spec-embedded
/// bindings and explicit per-execute parameter sections), oracle-check
/// every row set, then assert cache transparency: the engine must
/// report exactly **one** tier-0 compile and at most **one** tier-up
/// for the whole run, no matter how many literals went by.
fn run_param_mix(args: &Args) -> ! {
    use dblab_runtime::Value;
    use std::collections::HashMap;
    use std::sync::Arc as StdArc;

    let n = args.param_mix.max(8);
    let (db, data) = data_dir(args.sf);
    let schema = db.schema.clone();

    let template = dblab_tpch::queries::template(6).expect("q6 template");
    let bindings: Vec<(f64, f64)> = (0..n)
        .map(|k| (0.02 + 0.01 * (k % 8) as f64, 20.0 + k as f64))
        .collect();
    let oracles: Vec<String> = bindings
        .iter()
        .map(|&(disc, qty)| {
            let mut b: HashMap<StdArc<str>, Value> = HashMap::new();
            b.insert("discount".into(), Value::Double(disc));
            b.insert("quantity".into(), Value::Double(qty));
            dblab_engine::execute_program_bound(&template, &db, &b).to_text()
        })
        .collect();

    let mut config = StackConfig::level5();
    config.threads = args.threads;
    let native = match args.backend.as_str() {
        "auto" | "interp" => NativeChoice::Auto,
        other => NativeChoice::Backend(other.to_string()),
    };
    let server = Server::start(
        &schema,
        &data,
        tpch_resolver(),
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: args.server_workers,
            queue_cap: args.queue_cap,
            deadline: Duration::from_millis(args.deadline_ms),
            engine: EngineOptions {
                config,
                gen_dir: std::env::temp_dir().join("dblab_loadgen_gen"),
                workers: args.build_jobs,
                native,
                persist_cache: args.persist_cache,
                ..EngineOptions::default()
            },
            prepared_cap: 64,
            io_threads: args.io_threads,
            ..ServerOptions::default()
        },
    )
    .expect("start in-process server");

    println!(
        "# loadgen --param-mix — Q6 template, {n} distinct bindings (SF {})",
        args.sf
    );
    let mut c =
        Client::connect_timeout(server.addr(), Some(Duration::from_secs(120))).expect("connect");
    let mut incorrect = 0usize;
    let mut native_served = 0usize;
    let mut jit_served = 0usize;

    // Path 1: every binding as its own spec-embedded statement. All of
    // them share one cache entry (the `tpch:6?` template).
    for (i, &(disc, qty)) in bindings.iter().enumerate() {
        let spec = format!("tpch:6?discount={disc}&quantity={qty}");
        let stmt = c.prepare(&spec).expect("prepare spec-bound statement");
        let reply = c.execute(stmt).expect("execute spec-bound statement");
        native_served += reply.native() as usize;
        jit_served += (reply.tier == dblab_server::protocol::TIER_JIT) as usize;
        if !same_normalized(&oracles[i], &reply.rows) {
            eprintln!("binding {i} ({spec}): rows diverge from oracle");
            incorrect += 1;
        }
    }

    // Path 2: one bare template statement, bindings shipped per-execute
    // as wire parameter sections.
    let defaults: Vec<Value> = template
        .params
        .iter()
        .map(|d| dblab_engine::eval::lit_value(&d.default))
        .collect();
    let disc_at = template
        .params
        .iter()
        .position(|d| &*d.name == "discount")
        .expect("q6 template declares `discount`");
    let qty_at = template
        .params
        .iter()
        .position(|d| &*d.name == "quantity")
        .expect("q6 template declares `quantity`");
    let stmt = c.prepare("tpch:6?").expect("prepare bare template");
    for (i, &(disc, qty)) in bindings.iter().enumerate() {
        let mut ps = defaults.clone();
        ps[disc_at] = Value::Double(disc);
        ps[qty_at] = Value::Double(qty);
        let reply = c.execute_params(stmt, &ps).expect("execute with params");
        native_served += reply.native() as usize;
        jit_served += (reply.tier == dblab_server::protocol::TIER_JIT) as usize;
        if !same_normalized(&oracles[i], &reply.rows) {
            eprintln!("wire binding {i}: rows diverge from oracle");
            incorrect += 1;
        }
    }
    let _ = c.close();

    let stats = server.engine().stats();
    let (compiles, tierups, jit_builds) =
        (stats.tier0_compiles, stats.tierups_built, stats.jit_builds);
    server.shutdown();

    println!(
        "# {} executions ({} native-tier, {} jit-tier, {} incorrect): \
         {} tier-0 compile(s), {} tier-up(s), {} jit build(s)",
        2 * n,
        native_served,
        jit_served,
        incorrect,
        compiles,
        tierups,
        jit_builds
    );
    emit_json(
        args,
        &json::Obj::new()
            .str("bench", "loadgen-param-mix")
            .int("schema_version", 1)
            .num("sf", args.sf)
            .int("distinct_bindings", n as u64)
            .int("executed", 2 * n as u64)
            .int("native_served", native_served as u64)
            .int("jit_served", jit_served as u64)
            .int("incorrect", incorrect as u64)
            .int("tier0_compiles", compiles)
            .int("tierups_built", tierups)
            .int("jit_builds", jit_builds)
            .bool("all_agree", incorrect == 0)
            .build(),
    );

    if incorrect > 0 {
        eprintln!("RESULT DIVERGENCE: {incorrect} binding(s) disagreed with the oracle");
        std::process::exit(1);
    }
    // Jit builds are counted separately (`jit_builds`): the middle rung
    // costs one in-process compile per template, never per binding, and
    // must not dilute the tier-up transparency check.
    if compiles != 1 || tierups > 1 || jit_builds > 1 {
        eprintln!(
            "CACHE NOT TRANSPARENT: {n} distinct bindings cost {compiles} tier-0 compiles, \
             {tierups} tier-ups and {jit_builds} jit builds (want exactly 1, <=1, <=1)"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args = Args::parse();
    if args.param_mix > 0 {
        run_param_mix(&args);
    }
    let (db, data) = data_dir(args.sf);
    let schema = db.schema.clone();

    let oracles: Vec<String> = args
        .queries
        .iter()
        .map(|&q| dblab_engine::execute_program(&dblab_tpch::queries::query(q), &db).to_text())
        .collect();

    // In-process server unless --addr points at a live one.
    let deadline = Duration::from_millis(args.deadline_ms);
    // Thread/fd baseline, snapshotted before the server exists so the
    // peak-load delta isolates what serving N sockets costs the process.
    let (t_pre, fd_pre) = (proc_threads(), proc_fds());
    let server = if args.addr.is_none() {
        let mut config = StackConfig::level5();
        config.threads = args.threads;
        let native = match args.backend.as_str() {
            "auto" | "interp" => NativeChoice::Auto,
            other => NativeChoice::Backend(other.to_string()),
        };
        Some(
            Server::start(
                &schema,
                &data,
                tpch_resolver(),
                ServerOptions {
                    addr: "127.0.0.1:0".to_string(),
                    workers: args.server_workers,
                    queue_cap: args.queue_cap,
                    deadline,
                    engine: EngineOptions {
                        config,
                        gen_dir: std::env::temp_dir().join("dblab_loadgen_gen"),
                        workers: args.build_jobs,
                        native,
                        persist_cache: args.persist_cache,
                        ..EngineOptions::default()
                    },
                    prepared_cap: 64,
                    io_threads: args.io_threads,
                    ..ServerOptions::default()
                },
            )
            .expect("start in-process server"),
        )
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&server, &args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => a.parse().expect("--addr host:port"),
        (None, None) => unreachable!(),
    };
    // A hung connection is "no answer for the whole deadline plus slack".
    let read_timeout = deadline + Duration::from_secs(60);

    println!(
        "# loadgen — {} clients x {} requests, zipf over {:?} (SF {}, {} server workers, {} io threads, queue cap {}, deadline {:?})",
        args.clients, args.requests, args.queries, args.sf, args.server_workers, args.io_threads, args.queue_cap, deadline
    );

    let tally = Arc::new(Tally::default());
    let connected = Barrier::new(args.clients + 1);
    let wall0 = Instant::now();
    let mut peak = (None, None);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|id| {
                let (tally, connected) = (Arc::clone(&tally), &connected);
                let (args, oracles) = (&args, &oracles);
                s.spawn(move || {
                    client_loop(id, addr, read_timeout, args, oracles, &tally, connected)
                })
            })
            .collect();
        // Peak connection count: every client is connected and prepared,
        // parked on the barrier. One thread and two fds per client are
        // the *harness's* (the blocking client dups its stream); beyond
        // that, every thread and fd is what the server chose to spend —
        // and the reactor's whole point is one fd per connection and a
        // thread count that never moves.
        connected.wait();
        peak = (proc_threads(), proc_fds());
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    let (t_peak, fd_peak) = peak;

    // Flatness verdicts — only when the server ran in-process (an
    // external server's threads are invisible here) and procfs exists.
    let mut threads_flat = true;
    let mut fd_flat = true;
    let mut anatomy_json = None;
    if let (true, Some(t0), Some(t1), Some(f0), Some(f1)) =
        (server.is_some(), t_pre, t_peak, fd_pre, fd_peak)
    {
        let clients = args.clients as u64;
        // The server's own threads at peak: the total, minus the
        // baseline, minus the one thread per client the harness spawned.
        let server_threads = t1.saturating_sub(t0).saturating_sub(clients);
        // The reactor anatomy: one acceptor + the io threads + the
        // request workers, plus the engine's build pool and the morsel
        // pools the workers fan out to, plus slack for short-lived
        // helpers. Generous in constants, deliberately independent of
        // `clients` — a reader thread per connection blows through it
        // at any realistic client count.
        let threads_limit = 1
            + (args.io_threads + args.server_workers + args.build_jobs) as u64
            + (args.server_workers * args.threads) as u64
            + 16;
        threads_flat = server_threads <= threads_limit;
        // Rounded reader-threads-per-connection estimate: 0 when flat,
        // ~1 under the old thread-per-connection design.
        let per_conn = server_threads
            .saturating_sub(threads_limit)
            .div_ceil(clients.max(1));
        // Descriptors: two per client are the harness's own (the
        // blocking client dups its stream), one per accepted connection
        // is the server's, plus slack for the listener, the reactors'
        // epoll/waker fds, data files and the build cache.
        let fds_added = f1.saturating_sub(f0);
        let fds_limit = 3 * clients + 64 + 3 * args.build_jobs as u64;
        fd_flat = fds_added <= fds_limit;
        println!(
            "# server anatomy at peak ({clients} conns): {server_threads} server threads (limit {threads_limit}, flat={threads_flat}), {fds_added} fds added (limit {fds_limit}, flat={fd_flat})"
        );
        anatomy_json = Some(
            json::Obj::new()
                .int("server_threads", server_threads)
                .int("server_threads_limit", threads_limit)
                .bool("server_threads_flat", threads_flat)
                .int("per_conn_reader_threads", per_conn)
                .int("fds_added", fds_added)
                .int("fds_limit", fds_limit)
                .bool("fd_ceiling_flat", fd_flat)
                .build(),
        );
    }

    // Pull the server's own view before shutdown.
    let server_stats = Client::connect_timeout(addr, Some(Duration::from_secs(30)))
        .ok()
        .and_then(|mut c| c.stats().ok());
    let report = server.map(|s| s.shutdown());

    // Slice the latency populations.
    let mut all: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
    let mut first: Vec<f64> = samples
        .iter()
        .filter(|s| s.first)
        .map(|s| s.wall_ms)
        .collect();
    let mut steady: Vec<f64> = samples
        .iter()
        .filter(|s| !s.first)
        .map(|s| s.wall_ms)
        .collect();
    // Three tier populations — the jit rung gets its own latency
    // distribution, not a share of the interpreter's.
    let by_tier = |code: u8| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.tier == code)
            .map(|s| s.wall_ms)
            .collect()
    };
    let mut interp = by_tier(dblab_server::protocol::TIER_INTERP);
    let mut jit = by_tier(dblab_server::protocol::TIER_JIT);
    let mut native = by_tier(dblab_server::protocol::TIER_NATIVE);
    let incorrect = samples.iter().filter(|s| !s.correct).count();
    let ok = samples.len();
    let shed = tally.shed.load(Ordering::Acquire);
    let timeouts = tally.timeouts.load(Ordering::Acquire);
    let hung = tally.hung.load(Ordering::Acquire);
    let server_errors = tally.server_errors.load(Ordering::Acquire);
    let transport_errors = tally.transport_errors.load(Ordering::Acquire);

    let per_query = json::array(args.queries.iter().map(|&q| {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.query == q)
            .map(|s| s.wall_ms)
            .collect();
        let served = |code: u8| {
            samples
                .iter()
                .filter(|s| s.query == q && s.tier == code)
                .count() as u64
        };
        json::Obj::new()
            .int("query", q as u64)
            .int("interp_served", served(dblab_server::protocol::TIER_INTERP))
            .int("jit_served", served(dblab_server::protocol::TIER_JIT))
            .int("native_served", served(dblab_server::protocol::TIER_NATIVE))
            .raw("latency", &latency_obj(&mut lat))
            .build()
    }));

    println!(
        "# {} ok ({} incorrect), {} shed, {} timeouts, {} hung, {} server errors, {} transport errors in {:.0}ms",
        ok, incorrect, shed, timeouts, hung, server_errors, transport_errors, wall_ms
    );
    {
        let p50 = |v: &[f64]| {
            if v.is_empty() {
                return "-".to_string();
            }
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            format!("{:.2}ms", dblab_bench::percentile(&s, 0.5))
        };
        println!(
            "# tier latency p50: interp {} / jit {} / native {}",
            p50(&interp),
            p50(&jit),
            p50(&native)
        );
    }

    let totals = json::Obj::new()
        .int("ok", ok as u64)
        .int("incorrect", incorrect as u64)
        .int("shed", shed)
        .int("timeouts", timeouts)
        .int("hung_connections", hung)
        .int("server_errors", server_errors)
        .int("transport_errors", transport_errors)
        .build();
    let latency = json::Obj::new()
        .raw("all", &latency_obj(&mut all))
        .raw("first_result", &latency_obj(&mut first))
        .raw("steady", &latency_obj(&mut steady))
        .raw("interp_tier", &latency_obj(&mut interp))
        .raw("jit_tier", &latency_obj(&mut jit))
        .raw("native_tier", &latency_obj(&mut native))
        .build();
    let mut blob = json::Obj::new()
        .str("bench", "loadgen")
        .int("schema_version", 1)
        .num("sf", args.sf)
        .int("clients", args.clients as u64)
        .int("requests_per_client", args.requests as u64)
        .int("server_workers", args.server_workers as u64)
        .int("io_threads", args.io_threads as u64)
        .int("queue_cap", args.queue_cap as u64)
        .num("deadline_ms", args.deadline_ms as f64)
        .num("wall_ms", wall_ms)
        .bool("all_agree", incorrect == 0)
        .raw("totals", &totals)
        .raw("latency_ms", &latency)
        .raw("per_query", &per_query);
    if let Some(stats) = &server_stats {
        blob = blob.raw("server_stats", stats);
    }
    if let Some(anatomy) = &anatomy_json {
        blob = blob.raw("thread_anatomy", anatomy);
    }
    if let Some(r) = &report {
        blob = blob.raw(
            "shutdown",
            &json::Obj::new()
                .int("connections", r.connections)
                .int("executed", r.executed)
                .int("shed", r.shed)
                .int("timeouts", r.timeouts)
                .int("write_overflows", r.write_overflows)
                .int("chunked_results", r.chunked_results)
                .int("drained_in_flight", r.drained_in_flight as u64)
                .build(),
        );
    }
    emit_json(&args, &blob.build());

    if incorrect > 0 {
        eprintln!("RESULT DIVERGENCE: {incorrect} response(s) disagreed with the oracle");
        std::process::exit(1);
    }
    if hung > 0 {
        eprintln!("HUNG CONNECTIONS: {hung} request(s) got no response within {read_timeout:?}");
        std::process::exit(1);
    }
    if !threads_flat || !fd_flat {
        eprintln!(
            "ANATOMY REGRESSION: the server's thread or fd cost grew with the client count \
             (see the thread_anatomy block) — the reactor is supposed to pin both"
        );
        std::process::exit(1);
    }
}
