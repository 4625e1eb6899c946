//! `cold_prepare`: one client prepares a statement the process has never
//! compiled and executes it once — all 22 TPC-H queries in seeded order,
//! round after round, every round behind cleared caches and a fresh
//! server. One request is `PREPARE` sent → first `RESULT` received.
//!
//! The data is tiny, so front-end lowering, the transformation passes,
//! the interp/jit builds and the first execution on whichever rung wins
//! the race are most of the time — everything the steady workloads never
//! touch after set-up.

use std::path::Path;
use std::time::{Duration, Instant};

use dblab_codegen::{backend, same_normalized, Compiler};
use dblab_engine::service::Tier;
use dblab_runtime::Database;
use dblab_server::protocol::{TIER_INTERP, TIER_JIT};
use dblab_server::{tpch_resolver, Client, Server, ServerOptions, ShutdownReport};
use dblab_transform::memo::{self, StatsScope};
use dblab_transform::{compile_cost_scored, Scheduler, StackConfig};

use crate::env::{self, Data};
use crate::json::Json;
use crate::layers::qmonad_queries;
use crate::metrics::{Metrics, PASSES};
use crate::rng::Rng;
use crate::serve::{engine_options, jit_ceiling};
use crate::speed::Speed;
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use crate::workload::{
    clear_caches, ms_since, pool, timed, EndToEnd, Opts, Outcome, PerKey, Res, Stmt,
};

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    prepare_ms: PerKey,
    execute_ms: PerKey,
    query_ms: PerKey,
    interp_first: u64,
    reply_bytes: u64,
    /// Calibration kernel runs, one after every answered request.
    speed: Speed,
    shed: u64,
    timeouts: u64,
    exec_errors: u64,
    write_overflows: u64,
    // Traced replays, keyed by query.
    engine_prepare_ms: Vec<f64>,
    engine_execute_ms: Vec<f64>,
    gen_cold_ms: PerKey,
    gen_warm_ms: PerKey,
    cost_scored_ms: PerKey,
    pass_ms: Vec<PerKey>,
    qmonad_ms: PerKey,
    memo_hits: u64,
    memo_lookups: u64,
    ir_stmts: Vec<Option<usize>>,
    interp_build_ms: Vec<f64>,
    jit_build_ms: Vec<f64>,
    interp_query_ms: PerKey,
    load_ms: Vec<f64>,
}

impl Tally {
    fn count(&mut self, r: &ShutdownReport) {
        self.shed += r.shed;
        self.timeouts += r.timeouts;
        self.exec_errors += r.exec_errors;
        self.write_overflows += r.write_overflows;
    }
}

struct Round<'a> {
    opts: &'a Opts,
    data: &'a Data,
    pool: &'a [Stmt],
    cfg: StackConfig,
    sched: Scheduler,
}

impl Round<'_> {
    /// One round: cleared caches, fresh server, 22 cold requests.
    /// `trace_from` as in the steady workloads.
    fn run(
        &self,
        rng: &mut Rng,
        tally: &mut Tally,
        tracer: &mut Tracer,
        trace_from: Option<Instant>,
    ) -> Res<()> {
        clear_caches();
        let gen_dir = self.opts.out.fresh("cold")?;
        let server = Server::start(
            &self.data.db.schema,
            &self.data.dir,
            tpch_resolver(),
            ServerOptions {
                engine: engine_options(jit_ceiling(), &gen_dir),
                ..ServerOptions::default()
            },
        )?;
        let mut c = Client::connect_timeout(server.addr(), Some(Duration::from_secs(60)))?;
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        rng.shuffle(&mut order);
        let tracing = trace_from.is_some_and(|t| Instant::now() >= t);
        for &i in &order {
            let stmt = &self.pool[i];
            let request = tally.attempted;
            tally.attempted += 1;
            let t0 = Instant::now();
            let id = c.prepare(&stmt.spec);
            let t_mid = Instant::now();
            let reply = id.and_then(|id| c.execute(id));
            let t1 = Instant::now();
            let reply = match reply {
                Ok(r)
                    if matches!(r.tier, TIER_INTERP | TIER_JIT)
                        && same_normalized(&stmt.oracles[0], &r.rows) =>
                {
                    r
                }
                Ok(r) => {
                    eprintln!("{}: wrong rows or tier {}", stmt.spec, r.tier_name());
                    tally.failed += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("{}: {e}", stmt.spec);
                    tally.failed += 1;
                    continue;
                }
            };
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            tally.prepare_ms.push(i, (t_mid - t0).as_secs_f64() * 1e3);
            tally.execute_ms.push(i, (t1 - t_mid).as_secs_f64() * 1e3);
            tally.query_ms.push(i, reply.query_ms);
            tally.interp_first += (reply.tier == TIER_INTERP) as u64;
            tally.reply_bytes += reply.rows.len() as u64;
            tally.speed.sample();
            if !tracing {
                tally.plain_ms.push(ms);
                continue;
            }
            tally.traced_ms.push(ms);
            let root = tracer.record("request", request, None, t0, t1);
            let prepare = tracer.record("server.prepare", request, Some(root), t0, t_mid);
            let execute = tracer.record("server.execute", request, Some(root), t_mid, t1);
            let at = Replayed {
                request,
                prepare,
                execute,
                gen_dir: &gen_dir,
            };
            self.replay(&server, stmt, i, &at, tally, tracer)?;
        }
        if tracing {
            // The second front-end, once per round.
            for (k, q) in qmonad_queries().iter().enumerate() {
                memo::clear();
                let cq = dblab_transform::stack::compile_qmonad(q, &self.data.db.schema, &self.cfg);
                tally
                    .qmonad_ms
                    .push(k, cq.stages[0].time.as_secs_f64() * 1e3);
            }
        }
        let _ = c.close();
        tally.count(&server.shutdown());
        Ok(())
    }

    /// Replay one request's work a layer further in each time, every
    /// compile behind freshly cleared caches as the request's own was.
    fn replay(
        &self,
        server: &Server,
        stmt: &Stmt,
        i: usize,
        at: &Replayed,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Res<()> {
        let schema = &self.data.db.schema;
        let dir = &self.data.dir;
        let Replayed {
            request,
            prepare,
            execute,
            gen_dir,
        } = *at;
        let name = format!("replay_{request}");

        clear_caches();
        let (handle, engine_prepare, ms) =
            tracer.span("engine.prepare", request, Some(prepare), || {
                server.engine().prepare_named(&stmt.prog, &name)
            });
        let handle = handle?;
        tally.engine_prepare_ms.push(ms);

        clear_caches();
        let (cq, _, ms) = tracer.span("transform", request, Some(engine_prepare), || {
            dblab_transform::compile(&stmt.prog, schema, &self.cfg)
        });
        tally.gen_cold_ms.push(i, ms);
        for (p, name) in PASSES.iter().enumerate() {
            if let Some(stage) = cq.stage(name) {
                tally.pass_ms[p].push(i, stage.time.as_secs_f64() * 1e3);
            }
        }
        tally.ir_stmts[i] = cq.stages.last().map(|s| s.size);

        let scope = StatsScope::new();
        let (_, ms) = timed(|| {
            let _in_scope = scope.enter();
            dblab_transform::compile(&stmt.prog, schema, &self.cfg)
        });
        tally.gen_warm_ms.push(i, ms);
        let warm = scope.stats();
        tally.memo_hits += warm.hits;
        tally.memo_lookups += warm.hits + warm.misses;

        memo::clear();
        let (scored, ms) =
            timed(|| compile_cost_scored(&self.sched, &stmt.prog, schema, self.opts.seed, 4));
        scored?;
        tally.cost_scored_ms.push(i, ms);

        let compiler = |b: &str| {
            Compiler::new(schema)
                .config(&self.cfg)
                .backend(backend(b).expect("registry backend"))
                .out_dir(gen_dir)
        };
        let (interp, _, ms) = tracer.span(
            "codegen.interp_build",
            request,
            Some(engine_prepare),
            || compiler("interp").build_staged(cq.clone(), &format!("{name}_interp")),
        );
        tally.interp_build_ms.push(ms);
        let (jit, ms) = timed(|| compiler("jit").build_staged(cq.clone(), &format!("{name}_jit")));
        jit?;
        tally.jit_build_ms.push(ms);

        let (run, engine_execute, ms) =
            tracer.span("engine.execute", request, Some(execute), || {
                handle.execute_pinned(Tier::Interp, dir, &[], None)
            });
        if !matches!(run, Some(Ok(_))) {
            return Err(format!("{}: pinned interp replay failed", stmt.spec).into());
        }
        tally.engine_execute_ms.push(ms);
        let (out, codegen_run, _) =
            tracer.span("codegen.run", request, Some(engine_execute), || {
                interp.and_then(|art| art.exe.run(dir))
            });
        tally.interp_query_ms.push(i, out?.query_ms);
        let (_, _, ms) = tracer.span("runtime", request, Some(codegen_run), || {
            Database::read_all(schema, dir)
        });
        tally.load_ms.push(ms);
        Ok(())
    }
}

/// Where one traced request's replays hang in the span tree.
#[derive(Clone, Copy)]
struct Replayed<'a> {
    request: u64,
    prepare: SpanId,
    execute: SpanId,
    gen_dir: &'a Path,
}

pub fn run(opts: &Opts) -> Res<Outcome> {
    let cfg = StackConfig::level5();
    let sched = Scheduler::from_registry(&cfg)?;
    let all_queries: Vec<usize> = (1..=22).collect();
    let mut setup_s = Vec::new();
    let mut setup_speed = Speed::default();
    let mut state = None;
    for _ in 0..opts.workload.setup_reps(opts.smoke) {
        let t0 = Instant::now();
        clear_caches();
        let data = env::data(&opts.out, opts.workload.sf(opts.smoke))?;
        let (pool, oracle_ms) = timed(|| pool(&[], &all_queries, &data.db, opts.seed));
        // One unmeasured round: first-touch costs (page cache, lazy
        // statics, the gcc probe) are not what a later round pays.
        let round = Round {
            opts,
            data: &data,
            pool: &pool,
            cfg: cfg.clone(),
            sched: Scheduler::from_registry(&cfg)?,
        };
        let mut warm = Tally::default();
        round.run(
            &mut Rng::new(opts.seed, 0),
            &mut warm,
            &mut Tracer::new(t0, 0),
            None,
        )?;
        if warm.failed > 0 {
            return Err("cold_prepare warm-up round failed".into());
        }
        setup_s.push(ms_since(t0) / 1e3);
        setup_speed.absorb(warm.speed);
        state = Some((data, pool, oracle_ms));
    }
    let (data, pool, oracle_ms) = state.expect("at least one set-up repetition");

    let round = Round {
        opts,
        data: &data,
        pool: &pool,
        cfg,
        sched,
    };
    let mut tally = Tally {
        pass_ms: vec![PerKey::default(); PASSES.len()],
        ir_stmts: vec![None; pool.len()],
        ..Tally::default()
    };
    let mut rng = Rng::new(opts.seed, 1);
    let start = Instant::now();
    let mut tracer = Tracer::new(start, 0);
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let trace_from = opts
        .trace
        .then(|| start + Duration::from_secs_f64(opts.seconds / 3.0));
    let mut rounds = 0usize;
    // Whole rounds only, so every query weighs the same in the mix.
    while Instant::now() < deadline {
        round.run(&mut rng, &mut tally, &mut tracer, trace_from)?;
        rounds += 1;
    }
    let window_s = start.elapsed().as_secs_f64();

    let mut m = Metrics::default();
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
        peak_rss_mb: env::peak_rss_mb(),
        compile_ms: tally.prepare_ms.geomean(),
        compile_factor: tally.speed.factor(),
        query_ms: tally.query_ms.geomean(),
        run_wall_ms: tally.execute_ms.geomean(),
    }
    .report(&mut m, opts);

    if opts.trace {
        let own = trace::self_ms_by_name(&tracer.spans);
        let med = |name: &str| own.get(name).map_or(0.0, |v| stats::median(v));
        m.set("engine.prepare_ms", stats::median(&tally.engine_prepare_ms));
        m.set(
            "engine.first_interp_share",
            tally.interp_first as f64 / correct.max(1) as f64,
        );
        m.set(
            "engine.execute_ms.interp",
            stats::median(&tally.engine_execute_ms),
        );
        m.set("engine.oracle_ms", oracle_ms);
        m.set("server.prepare_self_ms", med("server.prepare"));
        m.set(
            "server.result_kb",
            tally.reply_bytes as f64 / 1e3 / correct.max(1) as f64,
        );
        m.set("server.shed", tally.shed as f64);
        m.set("server.timeouts", tally.timeouts as f64);
        m.set("server.exec_errors", tally.exec_errors as f64);
        m.set("server.write_overflows", tally.write_overflows as f64);
        m.set("transform.gen_cold_ms", tally.gen_cold_ms.mean());
        m.set("transform.gen_warm_ms", tally.gen_warm_ms.mean());
        m.set("transform.cost_scored_ms", tally.cost_scored_ms.mean());
        m.set(
            "transform.memo_hit_rate",
            tally.memo_hits as f64 / tally.memo_lookups.max(1) as f64,
        );
        m.set(
            "transform.ir_stmts",
            tally.ir_stmts.iter().flatten().sum::<usize>() as f64,
        );
        for (p, name) in PASSES.iter().enumerate() {
            m.set(
                &format!("transform.pass_ms.{name}"),
                tally.pass_ms[p].mean(),
            );
        }
        m.set(
            "transform.pass_ms.pipelining-qmonad",
            tally.qmonad_ms.mean(),
        );
        m.set(
            "codegen.interp_build_ms",
            stats::median(&tally.interp_build_ms),
        );
        m.set("codegen.jit_build_ms", stats::median(&tally.jit_build_ms));
        m.set("interp.query_ms", tally.interp_query_ms.geomean());
        let load = stats::median(&tally.load_ms);
        m.set("runtime.load_ms", load);
        m.set(
            "runtime.load_mb_s",
            data.tbl_bytes as f64 / 1e6 / (load / 1e3),
        );
        m.set("tpch.dbgen_s", data.dbgen_s);
        let (plain, traced) = (
            stats::median(&tally.plain_ms),
            stats::median(&tally.traced_ms),
        );
        m.set("trace.speed_factor", tally.speed.factor());
        m.set("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
        let attributed: f64 = own
            .iter()
            .filter(|(name, _)| **name != "request")
            .map(|(_, v)| stats::median(v))
            .sum();
        m.set("trace.unattributed_ms", traced - attributed);
    }

    let queries = pool
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .with("spec", s.spec.as_str())
                .with("prepare_p50_ms", tally.prepare_ms.median_of(i))
                .with("first_execute_p50_ms", tally.execute_ms.median_of(i))
                .with("query_p50_ms", tally.query_ms.median_of(i))
        })
        .collect::<Vec<_>>();
    let detail = Json::obj()
        .with("clients", 1usize)
        .with("rounds", rounds)
        .with("traced_samples", tally.traced_ms.len())
        .with("end_to_end", end_to_end)
        .with("queries", queries);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        detail,
        spans: tracer.spans,
    })
}
