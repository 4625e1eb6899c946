//! The two steady-state serving workloads: a closed loop of clients
//! executing prepared statements against an in-process server whose
//! every statement already serves from the target tier.
//!
//! `steady_jit` and `steady_native` drive the same server/engine path,
//! but nearly all of a jit request is in-process work (parse the `.tbl`
//! files, materialize them for the jit, run closures) while nearly all
//! of a native request is fork+exec and the generated C loader.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dblab_codegen::{backend, same_normalized, Compiler, Executable};
use dblab_engine::service::{EngineOptions, NativeChoice, PreparedQuery, Tier};
use dblab_runtime::Database;
use dblab_server::protocol::{TIER_JIT, TIER_NATIVE};
use dblab_server::{tpch_resolver, Client, ExecReply, Server, ServerOptions};
use dblab_transform::StackConfig;

use crate::env::{self, Data};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::speed::Speed;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workload::{
    clear_caches, ms_since, pool, timed, Class, EndToEnd, Opts, Outcome, PerKey, Res, Stmt,
    Workload,
};

/// Closed-loop callers; the box has two cores and the protocol is
/// session-stateful, so each client waits for its reply.
const CLIENTS: usize = 2;
const TIER_WAIT: Duration = Duration::from_secs(120);

struct Target {
    tier: Tier,
    wire: u8,
    native: NativeChoice,
    templates: &'static [usize],
    plain: &'static [usize],
    /// Extra tier-up measurements after set-up (fresh server each).
    tier_up_probes: usize,
}

fn target(w: Workload) -> Target {
    match w {
        Workload::SteadyJit => Target {
            tier: Tier::Jit,
            wire: TIER_JIT,
            native: jit_ceiling(),
            templates: &[1, 6, 14],
            plain: &[3, 12],
            tier_up_probes: 16,
        },
        _ => Target {
            tier: Tier::Native,
            wire: TIER_NATIVE,
            native: NativeChoice::default(),
            templates: &[],
            plain: &[1, 3, 5, 6, 10, 12],
            tier_up_probes: 0,
        },
    }
}

/// The toolchain-less deployment: a native rung that can never arrive
/// (not `Disabled`, which would switch the jit tier off too).
pub fn jit_ceiling() -> NativeChoice {
    NativeChoice::Backend("unavailable".to_string())
}

/// Engine options every serving workload shares: one tier-up worker, a
/// private generated-code directory, no disk persistence.
pub fn engine_options(native: NativeChoice, gen_dir: &Path) -> EngineOptions {
    EngineOptions {
        gen_dir: gen_dir.to_path_buf(),
        workers: 1,
        native,
        persist_cache: false,
        ..EngineOptions::default()
    }
}

/// Block until every live statement of the engine serves from a tier of
/// at least `rank`; the harness-side clock of "PREPARE sent → tier up".
pub fn wait_all_at(server: &Server, rank: usize) -> bool {
    let give_up = Instant::now() + TIER_WAIT;
    loop {
        let stats = server.engine().stats();
        if stats.queries.iter().all(|(_, s)| s.tier.rank() >= rank) {
            return true;
        }
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

struct Ready {
    data: Data,
    pool: Vec<Stmt>,
    oracle_ms: f64,
    server: Server,
    /// One connected session per client with its statement ids.
    sessions: Vec<(Client, Vec<u32>)>,
    /// PREPARE sent → jit / target tier serving, per statement (ms).
    jit_swap: Vec<f64>,
    target_swap: Vec<f64>,
}

fn execute(c: &mut Client, id: u32, stmt: &Stmt, binding: usize) -> Res<ExecReply> {
    let b = &stmt.bindings[binding];
    Ok(if b.is_empty() {
        c.execute(id)?
    } else {
        c.execute_params(id, b)?
    })
}

/// A server behind cleared caches with every statement of the pool
/// prepared on one session, one at a time, each timed from `PREPARE`
/// sent until the engine reports the jit and then the target tier.
struct TieredUp {
    server: Server,
    session: (Client, Vec<u32>),
    jit_swap: Vec<f64>,
    target_swap: Vec<f64>,
}

fn tier_up(
    opts: &Opts,
    t: &Target,
    data: &Data,
    pool: &[Stmt],
    speed: &mut Speed,
) -> Res<TieredUp> {
    // Compilation caches are process-global; every repetition must pay
    // what the first one paid.
    clear_caches();
    let gen_dir = opts.out.fresh(opts.workload.name())?;
    let server = Server::start(
        &data.db.schema,
        &data.dir,
        tpch_resolver(),
        ServerOptions {
            engine: engine_options(t.native.clone(), &gen_dir),
            ..ServerOptions::default()
        },
    )?;
    if t.tier == Tier::Native && server.engine().native_backend() != Some("gcc") {
        return Err("steady_native needs gcc; refusing to measure a degraded engine".into());
    }
    let mut c = Client::connect_timeout(server.addr(), Some(TIER_WAIT))?;
    let (mut ids, mut jit_swap, mut target_swap) = (Vec::new(), Vec::new(), Vec::new());
    for stmt in pool {
        let t0 = Instant::now();
        ids.push(c.prepare(&stmt.spec)?);
        if !wait_all_at(&server, Tier::Jit.rank()) {
            return Err(format!("{} never reached the jit tier", stmt.spec).into());
        }
        jit_swap.push(ms_since(t0));
        if !wait_all_at(&server, t.tier.rank()) {
            return Err(format!("{} never reached tier {}", stmt.spec, t.tier).into());
        }
        target_swap.push(ms_since(t0));
        speed.sample();
    }
    Ok(TieredUp {
        server,
        session: (c, ids),
        jit_swap,
        target_swap,
    })
}

fn set_up(opts: &Opts, t: &Target, speed: &mut Speed) -> Res<Ready> {
    let data = env::data(&opts.out, opts.workload.sf(opts.smoke))?;
    let (pool, oracle_ms) = timed(|| pool(t.templates, t.plain, &data.db, opts.seed));
    let TieredUp {
        server,
        session,
        jit_swap,
        target_swap,
    } = tier_up(opts, t, &data, &pool, speed)?;
    let mut sessions = vec![session];
    for _ in 1..CLIENTS {
        let mut c = Client::connect_timeout(server.addr(), Some(TIER_WAIT))?;
        let ids = pool
            .iter()
            .map(|s| c.prepare(&s.spec))
            .collect::<Result<Vec<_>, _>>()?;
        sessions.push((c, ids));
    }
    // Warm every session and confirm the target tier answers correctly
    // before the clock starts.
    for (c, ids) in &mut sessions {
        for (stmt, &id) in pool.iter().zip(ids.iter()) {
            let reply = execute(c, id, stmt, 0)?;
            speed.sample();
            if reply.tier != t.wire || !same_normalized(&stmt.oracles[0], &reply.rows) {
                return Err(format!(
                    "{} warm-up answered from tier {} or disagreed with the oracle",
                    stmt.spec,
                    reply.tier_name()
                )
                .into());
            }
        }
    }
    Ok(Ready {
        data,
        pool,
        oracle_ms,
        server,
        sessions,
        jit_swap,
        target_swap,
    })
}

/// What a traced request replays one layer further in each time.
struct Replay {
    handles: Vec<PreparedQuery>,
    exes: Vec<Arc<dyn Executable>>,
}

fn replay_handles(ready: &Ready, t: &Target, gen_dir: &Path) -> Res<Replay> {
    let schema = &ready.data.db.schema;
    let backend_name = if t.tier == Tier::Native { "gcc" } else { "jit" };
    let (mut handles, mut exes) = (Vec::new(), Vec::new());
    for (i, stmt) in ready.pool.iter().enumerate() {
        let h = ready
            .server
            .engine()
            .prepare_named(&stmt.prog, &format!("replay_{i}"))?;
        if !h.wait_for_tier(t.tier, TIER_WAIT) {
            return Err(format!("replay handle for {} never tiered up", stmt.spec).into());
        }
        handles.push(h);
        let art = Compiler::new(schema)
            .config(&StackConfig::level5())
            .backend(backend(backend_name).ok_or("backend missing from the registry")?)
            .out_dir(gen_dir)
            .compile_named(&stmt.prog, &format!("replay_exe_{i}"))?;
        exes.push(Arc::from(art.exe));
    }
    Ok(Replay { handles, exes })
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Client round trips of untraced / traced requests (ms).
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    by_stmt_ms: PerKey,
    by_stmt_query_ms: PerKey,
    reply_bytes: u64,
    /// Traced replays: engine call, executable call, in-query timer by
    /// class, `.tbl` parse.
    engine_ms: Vec<f64>,
    query_ms: [Vec<f64>; 2],
    load_ms: Vec<f64>,
    exe_load_ms: Vec<f64>,
    /// Per statement: traced round trips, and the five self times that
    /// should add up to them (server, engine, load in the executable,
    /// in-query, `.tbl` parse).
    traced_by_stmt: PerKey,
    parts_by_stmt: [PerKey; 5],
    /// Calibration kernel runs, one after every answered request.
    speed: Speed,
    spans: Vec<Span>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.plain_ms.extend(o.plain_ms);
        self.traced_ms.extend(o.traced_ms);
        self.by_stmt_ms.extend(&o.by_stmt_ms);
        self.by_stmt_query_ms.extend(&o.by_stmt_query_ms);
        self.reply_bytes += o.reply_bytes;
        self.engine_ms.extend(o.engine_ms);
        for (mine, theirs) in self.query_ms.iter_mut().zip(o.query_ms) {
            mine.extend(theirs);
        }
        self.load_ms.extend(o.load_ms);
        self.exe_load_ms.extend(o.exe_load_ms);
        self.traced_by_stmt.extend(&o.traced_by_stmt);
        for (mine, theirs) in self.parts_by_stmt.iter_mut().zip(&o.parts_by_stmt) {
            mine.extend(theirs);
        }
        self.speed.absorb(o.speed);
        self.spans.extend(o.spans);
    }
}

struct Loop<'a> {
    pool: &'a [Stmt],
    data: &'a Data,
    wire: u8,
    deadline: Instant,
    /// Requests starting after this instant are traced (never, when the
    /// run is untraced). The head of a traced window runs untraced so
    /// the run can state its own tracing overhead.
    trace_from: Option<Instant>,
    replay: Option<&'a Replay>,
    epoch: Instant,
}

fn client_loop(lp: &Loop, lane: u64, c: &mut Client, ids: &[u32], seed: u64) -> Tally {
    let mut rng = Rng::new(seed, lane + 1);
    let mut tracer = Tracer::new(lp.epoch, lane);
    let mut tally = Tally::default();
    let mut request = lane << 32;
    while Instant::now() < lp.deadline {
        let s = rng.below(lp.pool.len());
        let stmt = &lp.pool[s];
        let b = rng.below(stmt.bindings.len());
        let tracing = lp.trace_from.is_some_and(|t| Instant::now() >= t);
        request += 1;
        tally.attempted += 1;

        let t0 = Instant::now();
        let reply = execute(c, ids[s], stmt, b);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        let ok = match &reply {
            Ok(r) => r.tier == lp.wire && same_normalized(&stmt.oracles[b], &r.rows),
            Err(e) => {
                eprintln!("request failed: {e}");
                false
            }
        };
        if !ok {
            tally.failed += 1;
            continue;
        }
        let reply = reply.expect("checked above");
        tally.by_stmt_ms.push(s, ms);
        tally.by_stmt_query_ms.push(s, reply.query_ms);
        tally.reply_bytes += reply.rows.len() as u64;
        tally.speed.sample();
        if !tracing {
            tally.plain_ms.push(ms);
            continue;
        }
        tally.traced_ms.push(ms);
        let server_span = tracer.record("server", request, None, t0, t1);
        let replay = lp.replay.expect("traced runs carry replay handles");
        let binding = &stmt.bindings[b];
        let dir = &lp.data.dir;
        let (_, engine_span, engine_ms) = tracer.span("engine", request, Some(server_span), || {
            replay.handles[s].execute_bound(dir, binding, None)
        });
        tally.engine_ms.push(engine_ms);
        let (out, codegen_span, exe_ms) =
            tracer.span("codegen", request, Some(engine_span), || {
                replay.exes[s].run_bound(dir, binding, None)
            });
        let Ok(out) = out else { continue };
        tally.query_ms[stmt.class() as usize].push(out.query_ms);
        let mut load_ms = 0.0;
        if lp.wire == TIER_JIT {
            // Only the in-process tiers load through the runtime crate;
            // a native binary parses `.tbl` in its own process.
            (_, _, load_ms) = tracer.span("runtime", request, Some(codegen_span), || {
                Database::read_all(&lp.data.db.schema, dir)
            });
            tally.load_ms.push(load_ms);
        }
        let exe_load_ms = exe_ms - out.query_ms - load_ms;
        tally.exe_load_ms.push(exe_load_ms);
        tally.traced_by_stmt.push(s, ms);
        let parts = [
            ms - engine_ms,
            engine_ms - exe_ms,
            exe_load_ms,
            out.query_ms,
            load_ms,
        ];
        for (by_stmt, part) in tally.parts_by_stmt.iter_mut().zip(parts) {
            by_stmt.push(s, part);
        }
    }
    tally.spans = tracer.spans;
    tally
}

pub fn run(opts: &Opts) -> Res<Outcome> {
    let t = target(opts.workload);
    let mut setup_s = Vec::new();
    let mut setup_speed = Speed::default();
    let mut ready = None;
    // Tier-up times of every repetition, keyed by statement.
    let (mut jit_swap, mut target_swap) = (PerKey::default(), PerKey::default());
    for _ in 0..opts.workload.setup_reps(opts.smoke) {
        // The previous repetition's server shuts down before the next
        // one starts (drop joins its threads).
        drop(ready.take());
        let (r, ms) = timed(|| set_up(opts, &t, &mut setup_speed));
        let r = r?;
        setup_s.push(ms / 1e3);
        for (i, (&j, &t)) in r.jit_swap.iter().zip(&r.target_swap).enumerate() {
            jit_swap.push(i, j);
            target_swap.push(i, t);
        }
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up repetition");
    // A jit tier-up is milliseconds and its timing mostly thread wake-ups:
    // a handful of samples per statement is too few for a steady median,
    // and more cost next to nothing. (A native one is a gcc build; the
    // set-up repetitions are all it gets.)
    for _ in 0..t.tier_up_probes {
        let probe = tier_up(opts, &t, &ready.data, &ready.pool, &mut setup_speed)?;
        for (i, (&j, &t)) in probe.jit_swap.iter().zip(&probe.target_swap).enumerate() {
            jit_swap.push(i, j);
            target_swap.push(i, t);
        }
    }

    let mut m = Metrics::default();
    let replay = if opts.trace {
        let gen_dir = opts.out.fresh("replay")?;
        Some(replay_handles(&ready, &t, &gen_dir)?)
    } else {
        None
    };
    let rtt_floor = if opts.trace {
        let c = &mut ready.sessions[0].0;
        let rtts: Vec<f64> = (0..200).map(|_| timed(|| c.stats()).1).collect();
        stats::median(&rtts)
    } else {
        0.0
    };

    let sessions = std::mem::take(&mut ready.sessions);
    let start = Instant::now();
    let lp = Loop {
        pool: &ready.pool,
        data: &ready.data,
        wire: t.wire,
        deadline: start + Duration::from_secs_f64(opts.seconds),
        trace_from: opts
            .trace
            .then(|| start + Duration::from_secs_f64(opts.seconds / 3.0)),
        replay: replay.as_ref(),
        epoch: start,
    };
    let barrier = Barrier::new(sessions.len());
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(lane, (mut c, ids))| {
                let (lp, barrier) = (&lp, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let tally = client_loop(lp, lane as u64, &mut c, &ids, opts.seed);
                    let _ = c.close();
                    tally
                })
            })
            .collect();
        for w in workers {
            tally.merge(w.join().expect("client thread panicked"));
        }
    });
    let window_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = env::peak_rss_mb();
    drop(replay);
    let report = ready.server.shutdown();

    let correct = tally.attempted - tally.failed;
    let mut all_ms = tally.plain_ms.clone();
    all_ms.extend(&tally.traced_ms);
    let end_to_end = EndToEnd {
        setup_s: &setup_s,
        setup_factor: setup_speed.factor(),
        factor: tally.speed.factor(),
        latencies_ms: &all_ms,
        correct,
        window_s,
        peak_rss_mb,
        compile_ms: target_swap.geomean(),
        compile_factor: setup_speed.factor(),
        query_ms: tally.by_stmt_query_ms.geomean(),
        run_wall_ms: tally.by_stmt_ms.geomean(),
    }
    .report(&mut m, opts);

    if opts.trace {
        let tier = t.tier.name();
        let own = trace::self_ms_by_name(&tally.spans);
        let med = |name: &str| own.get(name).map_or(0.0, |v| stats::median(v));
        let query = |c: Class| stats::median(&tally.query_ms[c as usize]);
        let exe_load = stats::median(&tally.exe_load_ms);
        let load = stats::median(&tally.load_ms);
        m.set(&format!("server.self_ms.{tier}"), med("server"));
        m.set(&format!("engine.self_ms.{tier}"), med("engine"));
        m.set(
            &format!("engine.execute_ms.{tier}"),
            stats::median(&tally.engine_ms),
        );
        let load_name = if t.tier == Tier::Native {
            "codegen.native_spawn_load_ms"
        } else {
            "codegen.jit_load_ms"
        };
        m.set(load_name, exe_load);
        for c in [Class::Scan, Class::Join] {
            m.set(&format!("codegen.{tier}_query_ms.{}", c.name()), query(c));
        }
        if t.tier == Tier::Jit {
            m.set("runtime.load_ms", load);
            m.set(
                "runtime.load_mb_s",
                ready.data.tbl_bytes as f64 / 1e6 / (load / 1e3),
            );
        }
        m.set("engine.jit_swap_ms", stats::median(&jit_swap.medians()));
        if t.tier == Tier::Native {
            m.set(
                "engine.native_swap_ms",
                stats::median(&target_swap.medians()),
            );
        }
        m.set("engine.oracle_ms", ready.oracle_ms);
        m.set("server.rtt_floor_ms", rtt_floor);
        m.set(
            "server.result_kb",
            tally.reply_bytes as f64 / 1e3 / correct.max(1) as f64,
        );
        m.set("server.shed", report.shed as f64);
        m.set("server.timeouts", report.timeouts as f64);
        m.set("server.exec_errors", report.exec_errors as f64);
        m.set("server.write_overflows", report.write_overflows as f64);
        m.set("tpch.dbgen_s", ready.data.dbgen_s);
        let (plain, traced) = (
            stats::median(&tally.plain_ms),
            stats::median(&tally.traced_ms),
        );
        m.set("trace.speed_factor", tally.speed.factor());
        m.set("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
        m.set(
            "trace.unattributed_ms",
            tally.traced_by_stmt.residual(&tally.parts_by_stmt),
        );
    }

    let statements = ready
        .pool
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .with("spec", s.spec.as_str())
                .with("bindings", s.bindings.len())
                .with("tier_up_ms", target_swap.median_of(i))
                .with("round_trip_p50_ms", tally.by_stmt_ms.median_of(i))
                .with("query_p50_ms", tally.by_stmt_query_ms.median_of(i))
        })
        .collect::<Vec<_>>();
    let detail = Json::obj()
        .with("clients", CLIENTS)
        .with("tier", t.tier.name())
        .with("traced_samples", tally.traced_ms.len())
        .with("end_to_end", end_to_end)
        .with("statements", statements);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        detail,
        spans: tally.spans,
    })
}
