//! A miniature Table 3 with a backend axis: pick a few TPC-H queries and
//! race every stack configuration (plus the LegoBase baseline) through
//! gcc, then race the full five-level stack across every available
//! backend (gcc vs jit vs interp) — verifying each run's *full result
//! text* against the Volcano oracle along the way (normalized field-wise
//! comparison, same as `tests/differential.rs`).
//!
//! Since the memoized pipeline landed, the showdown separates *building*
//! from *timing*: every (configuration, backend, query) artifact is built
//! first, fanned out across worker threads — the compile cache serves a
//! (configuration, query) pair's passes once per backend and
//! byte-identical emitted source skips gcc via the build cache — and
//! only then are the queries
//! run serially, so the timings stay noise-free. Cache hit rates land in
//! a final `JSON:` line.
//!
//! ```text
//! cargo run --release --example tpch_showdown            # Q1 Q3 Q6 Q14 at SF 0.02
//! cargo run --release --example tpch_showdown -- 0.05 1 6 19
//! ```
//!
//! `--iterations N` sets the timed repetitions per cell (default 3; the
//! table shows the median, the JSON carries median + min);
//! `--build-jobs N` sizes the build fan-out.

use std::sync::Mutex;
use std::time::Instant;

use dblab::codegen::{backend, build_cache, same_normalized, CompiledArtifact, Compiler};
use dblab::transform::{memo, StackConfig};
use dblab_bench::{json, timings, Timings};

/// Pull `--flag N` out of the positional argv, returning the default
/// when absent.
fn take_flag(argv: &mut Vec<String>, flag: &str, default: usize) -> usize {
    match argv.iter().position(|a| a == flag) {
        Some(i) if i + 1 < argv.len() => {
            let v = argv[i + 1]
                .parse()
                .unwrap_or_else(|_| panic!("{flag} <int>"));
            argv.drain(i..=i + 1);
            v
        }
        Some(_) => panic!("{flag} <int>"),
        None => default,
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `--persist-cache`: attach the on-disk artifact index so a rerun of
    // the same showdown skips gcc entirely (the JSON reports how
    // much of the build phase a previous process paid for).
    let persist_cache = argv.iter().any(|a| a == "--persist-cache");
    argv.retain(|a| a != "--persist-cache");
    let iterations = take_flag(&mut argv, "--iterations", 3).max(1);
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);
    let threads = take_flag(&mut argv, "--build-jobs", default_jobs).max(1);
    let sf: f64 = argv.first().and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let queries: Vec<usize> = if argv.len() > 1 {
        argv[1..]
            .iter()
            .map(|s| s.parse().expect("query no"))
            .collect()
    } else {
        vec![1, 3, 6, 14]
    };

    let dir = std::env::temp_dir().join(format!("dblab_showdown_{sf}"));
    let db = dblab::tpch::generate(sf, &dir);
    db.write_all().expect("write data");
    let schema = db.schema.clone();
    let gen = std::env::temp_dir().join("dblab_showdown_gen");
    if persist_cache {
        let loaded = build_cache::enable_persistence(&gen).expect("attach disk index");
        eprintln!("(disk cache attached: {loaded} artifact(s) restored from a previous run)");
    }

    // The two axes: Table 3's configurations (through gcc), then the
    // five-level stack through every registered backend.
    let mut rows: Vec<(String, StackConfig, &'static str)> = Vec::new();
    let have_gcc = backend("gcc").expect("registered").available();
    if have_gcc {
        let mut configs = vec![StackConfig::legobase()];
        configs.extend(StackConfig::table3());
        for cfg in &configs {
            rows.push((cfg.name.to_string(), cfg.clone(), "gcc"));
        }
    } else {
        eprintln!("(skipping the Table 3 axis: gcc not present)");
    }
    for b in ["jit", "interp"] {
        rows.push((format!("DBLAB/LB 5 x {b}"), StackConfig::level5(), b));
    }

    // Build phase: every (row, query) artifact, fanned out across the
    // thread pool. Jobs land in a fixed slot each, so the later timing
    // loop sees them in presentation order.
    let jobs: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..queries.len()).map(move |q| (r, q)))
        .collect();
    let built: Mutex<Vec<Option<CompiledArtifact>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let memo0 = memo::stats();
    let bc0 = build_cache::stats();
    let disk0 = build_cache::disk_stats();
    let t_build = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(jobs.len()).max(1) {
            s.spawn(|| loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let (ri, qi) = jobs[j];
                let (label, cfg, bname) = &rows[ri];
                let q = queries[qi];
                let prog = dblab::tpch::queries::query(q);
                let name = format!("sd_q{q}_{}_{bname}", cfg.name.replace([' ', '/'], "_"));
                match Compiler::new(&schema)
                    .config(cfg)
                    .backend(backend(bname).expect("registered"))
                    .out_dir(&gen)
                    .compile_named(&prog, &name)
                {
                    Ok(art) => built.lock().unwrap()[j] = Some(art),
                    Err(e) => eprintln!("Q{q} under {label}: {e}"),
                }
            });
        }
    });
    let build_wall = t_build.elapsed();
    let memo_d = memo::stats().since(&memo0);
    let bc_d = build_cache::stats().since(&bc0);
    let disk_d = build_cache::disk_stats().since(&disk0);
    let built = built.into_inner().unwrap();
    println!(
        "(built {} artifacts in {:.2}s on {threads} build jobs; compile-cache {}/{} query hits, \
         build-cache {}/{} hits{})\n",
        built.iter().filter(|a| a.is_some()).count(),
        build_wall.as_secs_f64(),
        memo_d.hits,
        memo_d.hits + memo_d.misses,
        bc_d.hits,
        bc_d.hits + bc_d.misses,
        if persist_cache {
            format!(", {} served from the disk index", disk_d.hits)
        } else {
            String::new()
        },
    );

    // Timing phase: serial, oracle-checked.
    let oracles: Vec<String> = queries
        .iter()
        .map(|&q| dblab::engine::execute_program(&dblab::tpch::queries::query(q), &db).to_text())
        .collect();
    print!("{:<26}", format!("SF {sf}"));
    for q in &queries {
        print!("{:>10}", format!("Q{q} (ms)"));
    }
    println!();
    let mut cells: Vec<Vec<Option<Timings>>> = Vec::with_capacity(rows.len());
    for (ri, (label, _, _)) in rows.iter().enumerate() {
        print!("{label:<26}");
        let mut row_cells = Vec::with_capacity(queries.len());
        for (qi, &q) in queries.iter().enumerate() {
            let slot = ri * queries.len() + qi;
            // Run failures degrade the cell to NaN (like build failures)
            // instead of aborting the remaining grid; result *mismatches*
            // still assert — wrong answers are never just a bad cell.
            let t = built[slot].as_ref().and_then(|art| {
                let mut samples = Vec::with_capacity(iterations);
                let mut last = None;
                for _ in 0..iterations {
                    match art.run(&dir) {
                        Ok(r) => {
                            samples.push(r.query_ms);
                            last = Some(r);
                        }
                        Err(e) => {
                            eprintln!("Q{q} under {label}: run failed: {e}");
                            return None;
                        }
                    }
                }
                let r = last.expect("ran");
                assert!(
                    same_normalized(&oracles[qi], &r.stdout),
                    "Q{q} result mismatch under {label}:\noracle:\n{}\ngot:\n{}",
                    oracles[qi],
                    r.stdout
                );
                Some(timings(&mut samples))
            });
            print!("{:>10.2}", t.map(|t| t.median_ms).unwrap_or(f64::NAN));
            row_cells.push(t);
        }
        cells.push(row_cells);
        println!();
    }
    println!(
        "\n(median of {iterations} run(s), lower is better; every run's result \
         text is checked against the oracle)"
    );

    let timings_json = json::array(rows.iter().enumerate().map(|(ri, (label, _, bname))| {
        json::Obj::new()
            .str("config", label)
            .str("backend", bname)
            .raw(
                "queries",
                &json::array(queries.iter().enumerate().map(|(qi, &q)| {
                    let mut o = json::Obj::new().int("query", q as u64);
                    if let Some(t) = cells[ri][qi] {
                        o = o.num("median_ms", t.median_ms).num("min_ms", t.min_ms);
                    }
                    o.build()
                })),
            )
            .build()
    }));
    let blob = json::Obj::new()
        .str("bench", "tpch_showdown")
        .int("schema_version", 3)
        .num("sf", sf)
        .int("build_jobs", threads as u64)
        .int("iterations", iterations as u64)
        .num("build_wall_s", build_wall.as_secs_f64())
        .raw("timings", &timings_json)
        .raw(
            "pass_cache",
            &json::Obj::new()
                .int("hits", memo_d.hits)
                .int("misses", memo_d.misses)
                .num("hit_rate", memo_d.hit_rate())
                .build(),
        )
        .raw(
            "build_cache",
            &json::Obj::new()
                .int("hits", bc_d.hits)
                .int("misses", bc_d.misses)
                .num("hit_rate", bc_d.hit_rate())
                .build(),
        )
        .raw(
            "disk_cache",
            &json::Obj::new()
                .bool("enabled", persist_cache)
                .int("hits", disk_d.hits)
                .num(
                    "hit_rate",
                    disk_d.hits as f64 / ((bc_d.hits + bc_d.misses).max(1)) as f64,
                )
                .build(),
        )
        .build();
    println!("JSON: {blob}");
}
