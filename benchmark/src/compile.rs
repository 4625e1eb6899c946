//! `compile_gcc`: the paper's own workload (Table 3, Figures 8–9)
//! through the library facade, no server. Behind cleared caches every
//! TPC-H query goes `QueryProgram` → level-5 stack → C → gcc, serially
//! and in seeded order; then the binaries run against the data, pass
//! after pass over a seeded shuffle, until the window closes. One
//! request is one run of a generated binary (spawn + load + query +
//! print).
//!
//! Emitter, runtime-prelude and pass changes that alter the generated C
//! show here and on no serving workload.

use std::time::{Duration, Instant};

use dblab_codegen::{backend, same_normalized, CompiledArtifact, Compiler};
use dblab_transform::{memo, StackConfig};

use crate::env::{self, Data};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::speed::Speed;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{
    clear_caches, ms_since, pool, timed, Class, EndToEnd, Opts, Outcome, PerKey, Res, Stmt,
};

/// Every binary runs at least this often, however short the window.
const MIN_PASSES: usize = 3;
/// The rustc emitter is kept on a short leash: enough queries to put a
/// number on the ROADMAP's keep-or-drop decision, no more.
const RUSTC_QUERIES: [usize; 3] = [1, 3, 6];

fn queries(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![1, 3, 6, 12, 14]
    } else {
        (1..=22).collect()
    }
}

fn compiler<'s>(data: &'s Data, name: &str, gen_dir: &std::path::Path) -> Res<Compiler<'s>> {
    let b = backend(name).filter(|b| b.available());
    Ok(Compiler::new(&data.db.schema)
        .config(&StackConfig::level5())
        .backend(b.ok_or_else(|| format!("compile_gcc needs the `{name}` toolchain"))?)
        .out_dir(gen_dir))
}

pub fn run(opts: &Opts) -> Res<Outcome> {
    let mut setup_s = Vec::new();
    // Calibration kernel runs: around each set-up step, after each
    // compile, after each binary run.
    let (mut setup_speed, mut compile_speed, mut run_speed) =
        (Speed::default(), Speed::default(), Speed::default());
    let mut state = None;
    for _ in 0..opts.workload.setup_reps(opts.smoke) {
        let t0 = Instant::now();
        let data = env::data(&opts.out, opts.workload.sf(opts.smoke))?;
        setup_speed.sample();
        let (pool, oracle_ms) = timed(|| pool(&[], &queries(opts.smoke), &data.db, opts.seed));
        setup_speed.sample();
        setup_s.push(ms_since(t0) / 1e3);
        state = Some((data, pool, oracle_ms));
    }
    let (data, pool, oracle_ms): (Data, Vec<Stmt>, f64) =
        state.expect("at least one set-up repetition");
    let schema = &data.db.schema;
    let gen_dir = opts.out.fresh("compile")?;
    let gcc = compiler(&data, "gcc", &gen_dir)?;

    let mut m = Metrics::default();
    let mut rng = Rng::new(opts.seed, 0);
    let mut tracer = Tracer::new(Instant::now(), 0);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Phase A: compile everything once, cold.
    clear_caches();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut compile_ms = PerKey::default();
    let mut arts: Vec<Option<CompiledArtifact>> = pool.iter().map(|_| None).collect();
    let mut compile_spans = vec![None; pool.len()];
    for &i in &order {
        attempted += 1;
        let t0 = Instant::now();
        let art = gcc.compile_named(&pool[i].prog, &format!("q{}", pool[i].query));
        let t1 = Instant::now();
        compile_speed.sample();
        match art {
            Ok(art) => {
                compile_ms.push(i, (t1 - t0).as_secs_f64() * 1e3);
                if opts.trace {
                    compile_spans[i] = Some(tracer.record("compile", i as u64, None, t0, t1));
                }
                arts[i] = Some(art);
            }
            Err(e) => {
                eprintln!("{}: {e}", pool[i].spec);
                failed += 1;
            }
        }
    }
    let compile_s = start.elapsed().as_secs_f64();

    // Phase B: run the binaries until the window closes.
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let run_start = Instant::now();
    let (mut wall_ms, mut query_ms) = (PerKey::default(), PerKey::default());
    let mut spawn_load_ms = Vec::new();
    let mut class_query_ms: [Vec<f64>; 2] = Default::default();
    let mut latencies = Vec::new();
    let mut peak_rss_kb = 0u64;
    let mut passes = 0usize;
    let mut correct_runs = 0u64;
    while passes < MIN_PASSES || Instant::now() < deadline {
        rng.shuffle(&mut order);
        for &i in &order {
            let Some(art) = &arts[i] else { continue };
            attempted += 1;
            let (out, ms) = timed(|| art.run(&data.dir));
            run_speed.sample();
            match out {
                Ok(out) if same_normalized(&pool[i].oracles[0], &out.stdout) => {
                    correct_runs += 1;
                    latencies.push(ms);
                    wall_ms.push(i, ms);
                    query_ms.push(i, out.query_ms);
                    spawn_load_ms.push(ms - out.query_ms);
                    class_query_ms[Class::of(pool[i].query) as usize].push(out.query_ms);
                    peak_rss_kb = peak_rss_kb.max(out.peak_rss_kb);
                }
                Ok(_) => {
                    eprintln!("{}: rows differ from the oracle", pool[i].spec);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: {e}", pool[i].spec);
                    failed += 1;
                }
            }
        }
        passes += 1;
    }
    let run_s = run_start.elapsed().as_secs_f64();

    let end_to_end = EndToEnd {
        setup_s: &setup_s,
        setup_factor: setup_speed.factor(),
        factor: run_speed.factor(),
        latencies_ms: &latencies,
        correct: correct_runs,
        window_s: run_s,
        peak_rss_mb: peak_rss_kb as f64 / 1024.0,
        compile_ms: compile_ms.geomean(),
        compile_factor: compile_speed.factor(),
        query_ms: query_ms.geomean(),
        run_wall_ms: wall_ms.geomean(),
    }
    .report(&mut m, opts);

    if opts.trace {
        // Replay each compile one layer in: the stack alone, the emitter
        // alone; the toolchain's share is the executable's own record.
        let gcc_backend = backend("gcc").expect("registry backend");
        let (mut gen_cold, mut emit_ms, mut emit_kb, mut gcc_ms) = (vec![], vec![], vec![], vec![]);
        let mut ir_stmts = 0usize;
        for (i, stmt) in pool.iter().enumerate() {
            let Some(art) = &arts[i] else { continue };
            let parent = compile_spans[i];
            memo::clear();
            let (cq, _, ms) = tracer.span("transform", i as u64, parent, || {
                dblab_transform::compile(&stmt.prog, schema, &StackConfig::level5())
            });
            gen_cold.push(ms);
            ir_stmts += cq.stages.last().map_or(0, |s| s.size);
            let (source, _, ms) = tracer.span("codegen.emit", i as u64, parent, || {
                gcc_backend.emit(&cq.program, schema)
            });
            emit_ms.push(ms);
            emit_kb.push(source.len() as f64 / 1e3);
            gcc_ms.push(art.exe.build_time().as_secs_f64() * 1e3);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.set("transform.gen_cold_ms", mean(&gen_cold));
        m.set("transform.ir_stmts", ir_stmts as f64);
        m.set("codegen.emit_c_ms", mean(&emit_ms));
        m.set("codegen.emit_c_kb", emit_kb.iter().sum());
        m.set("codegen.gcc_build_ms", mean(&gcc_ms));
        m.set(
            "codegen.native_spawn_load_ms",
            stats::median(&spawn_load_ms),
        );
        for c in [Class::Scan, Class::Join] {
            m.set(
                &format!("codegen.native_query_ms.{}", c.name()),
                stats::median(&class_query_ms[c as usize]),
            );
        }
        // Two rustc -O builds cost more than a whole smoke run may.
        if let (false, Ok(rustc)) = (opts.smoke, compiler(&data, "rustc", &gen_dir)) {
            let (mut build_ms, mut run_ms) = (Vec::new(), Vec::new());
            for stmt in pool.iter().filter(|s| RUSTC_QUERIES.contains(&s.query)) {
                let art = rustc.compile_named(&stmt.prog, &format!("rs_q{}", stmt.query))?;
                build_ms.push(art.exe.build_time().as_secs_f64() * 1e3);
                let runs = (0..MIN_PASSES)
                    .map(|_| art.run(&data.dir).map(|o| o.query_ms))
                    .collect::<Result<Vec<_>, _>>()?;
                run_ms.push(stats::median(&runs));
            }
            m.set("codegen.rustc_build_ms", mean(&build_ms));
            m.set("codegen.rustc_query_ms", stats::geomean(&run_ms));
        }
        m.set("engine.oracle_ms", oracle_ms);
        m.set("tpch.dbgen_s", data.dbgen_s);
        m.set("trace.speed_factor", run_speed.factor());
        // What the facade adds on top of stack + emitter + toolchain:
        // each compile's self time less the toolchain's share of it.
        let own = trace::self_times(&tracer.spans);
        let facade: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == "compile")
            .filter_map(|s| {
                let art = arts[s.request as usize].as_ref()?;
                Some(own[&s.id] - art.exe.build_time().as_secs_f64() * 1e3)
            })
            .collect();
        m.set("trace.unattributed_ms", stats::median(&facade));
    }

    let rows = pool
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .with("query", s.query)
                .with("compile_ms", compile_ms.median_of(i))
                .with("query_p50_ms", query_ms.median_of(i))
                .with("run_wall_p50_ms", wall_ms.median_of(i))
        })
        .collect::<Vec<_>>();
    let detail = Json::obj()
        .with("compile_s", compile_s)
        .with("passes", passes)
        .with("compile_speed_factor", compile_speed.factor())
        .with("end_to_end", end_to_end)
        .with("queries", rows);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        detail,
        spans: tracer.spans,
    })
}
