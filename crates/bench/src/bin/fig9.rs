//! Regenerates the paper's **Figure 9**: compilation time per query,
//! split into DBLAB program optimization / code generation vs backend
//! build time ("the compilation time is divided almost equally between
//! DBLAB/LB and CLang") — with a per-backend axis (gcc, jit, interp)
//! and, since the memoized pipeline landed, a **cold vs warm** axis:
//!
//! * independent per-query builds fan out across `--build-jobs` workers
//!   (`Backend::build` is `&self` and every cache is `Sync`);
//! * after the cold sweep, the whole suite is recompiled at the same
//!   configuration — the compile cache serves each query's passes with
//!   one hit and the source-level build cache skips gcc entirely;
//! * cold/warm wall-clock and both caches' hit rates land in the JSON
//!   blob (`--json out.json`, or a `JSON:` stdout line; `schema_version`
//!   3).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dblab_bench::{emit_json, gen_dir, json, Args};
use dblab_codegen::{available_backends, build_cache, Compiler};
use dblab_transform::{memo, StackConfig};

/// One query's compile measurements (one sweep).
struct Row {
    query: usize,
    gen: f64,
    /// Per-backend (build seconds, cache hit) in `backends()` order; None
    /// when the build failed.
    builds: Vec<Option<(f64, bool)>>,
    stages: Vec<(String, Duration)>,
    /// Whether the compile cache served this query's passes.
    cached: bool,
}

/// Compile + build every query across the thread pool; rows come back in
/// input order regardless of which worker ran what.
fn sweep(
    queries: &[usize],
    schema: &dblab_catalog::Schema,
    cfg: &StackConfig,
    backend_names: &[&'static str],
    out: &std::path::Path,
    threads: usize,
    label: &str,
) -> Vec<Row> {
    let rows: Mutex<Vec<Option<Row>>> = Mutex::new((0..queries.len()).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(queries.len()).max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let q = queries[i];
                let prog = dblab_tpch::queries::query(q);
                // Lower through the DSL stack once; only the build step
                // differs per backend (build_staged is the seam for this).
                let cq = dblab_transform::compile(&prog, schema, cfg);
                let mut builds = Vec::with_capacity(backend_names.len());
                for bname in backend_names {
                    let compiler = Compiler::new(schema)
                        .config(cfg)
                        .backend(dblab_codegen::backend(bname).expect("registered"))
                        .out_dir(out);
                    let name = format!("f9_q{q}_{bname}");
                    match compiler.build_staged(cq.clone(), &name) {
                        Ok(art) => builds
                            .push(Some((art.exe.build_time().as_secs_f64(), art.build_cached))),
                        Err(e) => {
                            eprintln!("Q{q} [{bname}] ({label}): {e}");
                            builds.push(None);
                        }
                    }
                }
                let row = Row {
                    query: q,
                    gen: cq.gen_time.as_secs_f64(),
                    builds,
                    stages: cq
                        .stages
                        .iter()
                        .map(|st| (st.name.clone(), st.time))
                        .collect(),
                    cached: cq.cached,
                };
                rows.lock().unwrap()[i] = Some(row);
            });
        }
    });
    rows.into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every query swept"))
        .collect()
}

fn print_table(rows: &[Row], backend_names: &[&'static str]) {
    print!("{:<6}{:>14}", "query", "DBLAB gen");
    for b in backend_names {
        print!("{:>12}", b);
    }
    println!();
    for r in rows {
        print!("Q{:<5}{:>14.3}", r.query, r.gen);
        for b in &r.builds {
            match b {
                Some((t, cached)) => {
                    if *cached {
                        print!("{:>12}", format!("{t:.3}*"));
                    } else {
                        print!("{t:>12.3}");
                    }
                }
                None => print!("{:>12}", "ERR"),
            }
        }
        println!();
    }
}

fn means(rows: &[Row], backend_names: &[&'static str]) -> (f64, Vec<f64>) {
    let n = rows.len().max(1) as f64;
    let gen = rows.iter().map(|r| r.gen).sum::<f64>() / n;
    let builds = (0..backend_names.len())
        .map(|bi| {
            rows.iter()
                .filter_map(|r| r.builds[bi].map(|(t, _)| t))
                .sum::<f64>()
                / n
        })
        .collect();
    (gen, builds)
}

fn main() {
    let args = Args::parse();
    // Compiling needs the statistics only; no query runs, so no data is
    // written.
    let schema = dblab_tpch::generate(args.sf, &std::env::temp_dir()).schema;
    let out = gen_dir();
    let cfg = StackConfig::level5();
    let backend_names: Vec<&'static str> = available_backends().iter().map(|b| b.name()).collect();

    // `--persist-cache`: attach the on-disk artifact index next to the
    // gen dir. The cold sweep below still clears the in-memory table (a
    // cold measurement stays cold) but every build it does is *recorded*,
    // and the restart phase at the end reloads the index to measure what
    // a fresh process would inherit.
    if args.persist_cache {
        let loaded = build_cache::enable_persistence(&out).expect("attach disk index");
        eprintln!(
            "(disk cache attached at {}; {loaded} artifact(s) on record)",
            out.display()
        );
    }

    // Cold sweep from a genuinely empty pipeline (this process may have
    // warmed the global caches before main in principle; make it explicit).
    memo::clear();
    build_cache::clear();
    let memo0 = memo::stats();
    let bc0 = build_cache::stats();
    let t_cold = Instant::now();
    let cold = sweep(
        &args.queries,
        &schema,
        &cfg,
        &backend_names,
        &out,
        args.build_jobs,
        "cold",
    );
    let cold_wall = t_cold.elapsed();
    let memo_cold = memo::stats().since(&memo0);
    let bc_cold = build_cache::stats().since(&bc0);

    println!(
        "# Figure 9 — compilation time (s) per query, five-level stack \
         (cold, {} build jobs; * = build-cache hit)",
        args.build_jobs
    );
    print_table(&cold, &backend_names);
    let (gen_mean, build_means) = means(&cold, &backend_names);
    print!("# mean: generation {gen_mean:.3}s");
    for (bi, b) in backend_names.iter().enumerate() {
        print!(", {} {:.3}s", b, build_means[bi]);
    }
    if let Some(gi) = backend_names.iter().position(|b| *b == "gcc") {
        let gcc = build_means[gi];
        if gcc > 0.0 {
            print!(
                " (gen/gcc split {:.0}%/{:.0}%)",
                100.0 * gen_mean / (gen_mean + gcc),
                100.0 * gcc / (gen_mean + gcc)
            );
        }
    }
    println!();

    // Warm sweep: identical queries, identical configuration — the cache
    // layers should do essentially all of the work.
    let memo1 = memo::stats();
    let bc1 = build_cache::stats();
    let t_warm = Instant::now();
    let warm = sweep(
        &args.queries,
        &schema,
        &cfg,
        &backend_names,
        &out,
        args.build_jobs,
        "warm",
    );
    let warm_wall = t_warm.elapsed();
    let memo_warm = memo::stats().since(&memo1);
    let bc_warm = build_cache::stats().since(&bc1);

    println!("\n# warm recompile (same queries, same config)");
    print_table(&warm, &backend_names);
    println!(
        "# wall: cold {:.3}s -> warm {:.3}s ({:.1}x); compile-cache {}/{} query hits \
         ({:.0}%), build-cache {}/{} hits ({:.0}%)",
        cold_wall.as_secs_f64(),
        warm_wall.as_secs_f64(),
        cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9),
        memo_warm.hits,
        memo_warm.hits + memo_warm.misses,
        100.0 * memo_warm.hit_rate(),
        bc_warm.hits,
        bc_warm.hits + bc_warm.misses,
        100.0 * bc_warm.hit_rate(),
    );

    // Restart phase (`--persist-cache`): drop every in-memory cache the
    // way a process exit would, reload the disk index, and recompile —
    // the compile cache is gone (generation is cold again) but the toolchain
    // half is served from artifacts a "previous process" built.
    let restart = if args.persist_cache {
        memo::clear();
        build_cache::clear();
        let loaded = build_cache::enable_persistence(&out).expect("reload disk index");
        let disk0 = build_cache::disk_stats();
        let bc2 = build_cache::stats();
        let t_restart = Instant::now();
        let rows = sweep(
            &args.queries,
            &schema,
            &cfg,
            &backend_names,
            &out,
            args.build_jobs,
            "restart",
        );
        let wall = t_restart.elapsed();
        let bc_restart = build_cache::stats().since(&bc2);
        let disk_restart = build_cache::disk_stats().since(&disk0);
        println!("\n# simulated restart (caches dropped, disk index reloaded: {loaded} artifacts)");
        print_table(&rows, &backend_names);
        println!(
            "# wall: {:.3}s; build-cache {}/{} hits, {} served from disk ({:.0}% disk-hit rate)",
            wall.as_secs_f64(),
            bc_restart.hits,
            bc_restart.hits + bc_restart.misses,
            disk_restart.hits,
            100.0 * disk_restart.hits as f64
                / ((bc_restart.hits + bc_restart.misses).max(1)) as f64,
        );
        Some((loaded, wall, bc_restart, disk_restart))
    } else {
        None
    };

    // Per-pass generation-time breakdown (cold numbers — warm stages are
    // all ~hash+lookup).
    let mut stage_totals: Vec<(String, Duration, u32)> = Vec::new();
    for r in &cold {
        for (name, time) in &r.stages {
            match stage_totals.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, t, k)) => {
                    *t += *time;
                    *k += 1;
                }
                None => stage_totals.push((name.clone(), *time, 1)),
            }
        }
    }
    if !cold.is_empty() {
        println!(
            "\n# generation-time breakdown per pass (mean over {} queries, cold)",
            cold.len()
        );
        println!("{:<28}{:>12}{:>9}", "pass", "mean (ms)", "share");
        let total: f64 = stage_totals.iter().map(|(_, t, _)| t.as_secs_f64()).sum();
        for (name, t, runs) in &stage_totals {
            println!(
                "{:<28}{:>12.3}{:>8.1}%",
                name,
                t.as_secs_f64() * 1e3 / f64::from(*runs),
                100.0 * t.as_secs_f64() / total.max(1e-12)
            );
        }
    }

    // Machine-readable blob: per-query cold/warm + cache hit rates.
    let per_query = json::array(cold.iter().zip(&warm).map(|(c, w)| {
        let mut o = json::Obj::new()
            .int("query", c.query as u64)
            .num("cold_gen_s", c.gen)
            .num("warm_gen_s", w.gen)
            .bool("warm_cached", w.cached);
        for (bi, b) in backend_names.iter().enumerate() {
            if let Some((t, _)) = c.builds[bi] {
                o = o.num(&format!("cold_build_{b}_s"), t);
            }
            if let Some((t, cached)) = w.builds[bi] {
                o = o
                    .num(&format!("warm_build_{b}_s"), t)
                    .bool(&format!("warm_build_{b}_cached"), cached);
            }
        }
        o.build()
    }));
    let mut blob = json::Obj::new()
        .str("bench", "fig9")
        .int("schema_version", 3)
        .num("sf", args.sf)
        .int("build_jobs", args.build_jobs as u64)
        .str("config", cfg.name)
        .num("cold_wall_s", cold_wall.as_secs_f64())
        .num("warm_wall_s", warm_wall.as_secs_f64());
    if let Some((loaded, wall, bc_restart, disk_restart)) = &restart {
        blob = blob.raw(
            "disk_cache",
            &json::Obj::new()
                .int("loaded", *loaded as u64)
                .num("restart_wall_s", wall.as_secs_f64())
                .int("restart_hits", bc_restart.hits)
                .int("restart_lookups", bc_restart.hits + bc_restart.misses)
                .int("restart_disk_hits", disk_restart.hits)
                .num(
                    "restart_disk_hit_rate",
                    disk_restart.hits as f64
                        / ((bc_restart.hits + bc_restart.misses).max(1)) as f64,
                )
                .build(),
        );
    }
    let blob = blob
        // One lookup per query compile (CI greps this key's name).
        .raw(
            "pass_cache",
            &json::Obj::new()
                .int("cold_hits", memo_cold.hits)
                .int("cold_misses", memo_cold.misses)
                .int("warm_hits", memo_warm.hits)
                .int("warm_misses", memo_warm.misses)
                .num("warm_hit_rate", memo_warm.hit_rate())
                .build(),
        )
        .raw(
            "build_cache",
            &json::Obj::new()
                .int("cold_hits", bc_cold.hits)
                .int("cold_misses", bc_cold.misses)
                .int("warm_hits", bc_warm.hits)
                .int("warm_misses", bc_warm.misses)
                .num("warm_hit_rate", bc_warm.hit_rate())
                .build(),
        )
        .raw("queries", &per_query)
        .build();
    emit_json(&args, &blob);
}
