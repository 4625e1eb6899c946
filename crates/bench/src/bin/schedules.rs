//! The schedule-permutation sweep — the paper's Table 3 axis,
//! generalized from *which* optimizations run to *in what order*.
//!
//! The pass registry's linear order became a declared dependency DAG
//! (`dblab_transform::schedule`); this binary sweeps the baseline
//! schedule plus `--orderings K` seeded-sampled topological orders over
//! the query set, and measures per ordering:
//!
//! * final IR size (summed over queries),
//! * cold and warm generation time, with **honest per-ordering
//!   compile-cache hit rates**, one lookup per query (each ordering's
//!   sweep runs under its own `memo::StatsScope`, so concurrent sweeps on
//!   `--threads` workers do not pollute one another's tallies),
//! * query time through `--backend` (interp by default: zero-toolchain),
//! * whether every ordering's results agree with the in-process Volcano
//!   oracle (any disagreement makes the process exit non-zero — CI runs
//!   this as a smoke test).
//!
//! The compile cache keys on the pass order, so every ordering fills its
//! own entries and only its warm pass hits.

use std::sync::Mutex;
use std::time::Instant;

use dblab_bench::{best_of, data_dir, emit_json, gen_dir, json, Args};
use dblab_codegen::{backend, build_cache, same_normalized, Compiler};
use dblab_transform::schedule::{EdgeKind, Scheduler};
use dblab_transform::stack::compile_scheduled;
use dblab_transform::{memo, StackConfig};

/// One ordering's measurements across the query set.
struct Row {
    idx: usize,
    order: Vec<&'static str>,
    /// Summed final-IR statement count.
    ir_size: usize,
    cold_gen_s: f64,
    warm_gen_s: f64,
    cold: memo::CacheStats,
    warm: memo::CacheStats,
    query_ms: f64,
    /// Queries whose results diverged from the oracle (empty = agree).
    disagreements: Vec<usize>,
    /// Compile/build errors, if any.
    errors: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn sweep_one(
    idx: usize,
    order: &[&'static str],
    queries: &[usize],
    oracles: &[String],
    schema: &dblab_catalog::Schema,
    sched: &Scheduler,
    bname: &str,
    runs: usize,
    data: &std::path::Path,
    out: &std::path::Path,
) -> Row {
    let make_compiler = || {
        // `bname` was resolved (and availability-checked) by main.
        let b = backend(bname).expect("resolved backend");
        Compiler::new(schema)
            .config(sched.config())
            .backend(b)
            .out_dir(out)
    };
    let mut row = Row {
        idx,
        order: order.to_vec(),
        ir_size: 0,
        cold_gen_s: 0.0,
        warm_gen_s: 0.0,
        cold: memo::CacheStats { hits: 0, misses: 0 },
        warm: memo::CacheStats { hits: 0, misses: 0 },
        query_ms: 0.0,
        disagreements: Vec::new(),
        errors: Vec::new(),
    };

    // Cold pass: compile under this ordering's own stats scope, then
    // build + run + oracle-check.
    let scope = memo::StatsScope::new();
    {
        let _g = scope.enter();
        for (qi, &q) in queries.iter().enumerate() {
            let prog = dblab_tpch::queries::query(q);
            let t0 = Instant::now();
            let cq = match compile_scheduled(sched, &prog, schema, order, false) {
                Ok((cq, _)) => cq,
                Err(e) => {
                    row.errors.push(format!("Q{q}: schedule rejected: {e}"));
                    continue;
                }
            };
            row.cold_gen_s += t0.elapsed().as_secs_f64();
            row.ir_size += cq.program.body.size();
            let name = format!("sched_o{idx}_q{q}");
            match make_compiler().build_staged(cq, &name) {
                Ok(art) => match best_of(art.exe.as_ref(), data, runs) {
                    Ok(run) => {
                        row.query_ms += run.query_ms;
                        if !same_normalized(&oracles[qi], &run.stdout) {
                            row.disagreements.push(q);
                        }
                    }
                    Err(e) => row.errors.push(format!("Q{q}: run failed: {e}")),
                },
                Err(e) => row.errors.push(format!("Q{q}: build failed: {e}")),
            }
        }
    }
    row.cold = scope.stats();

    // Warm pass: identical compiles — the compile cache should serve
    // every query of this ordering now.
    let scope = memo::StatsScope::new();
    {
        let _g = scope.enter();
        for &q in queries {
            let prog = dblab_tpch::queries::query(q);
            let t0 = Instant::now();
            if compile_scheduled(sched, &prog, schema, order, false).is_ok() {
                row.warm_gen_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    row.warm = scope.stats();
    row
}

fn main() {
    let args = Args::parse();
    let (db, data) = data_dir(args.sf);
    let schema = db.schema.clone();
    let out = gen_dir();
    let cfg = StackConfig::level5();

    // Resolve the query-time backend up front so results are never
    // silently attributed to a toolchain that did not run.
    let effective_backend: &'static str = {
        let b =
            backend(&args.backend).unwrap_or_else(|| panic!("unknown backend `{}`", args.backend));
        if b.available() {
            b.name()
        } else {
            eprintln!(
                "(backend `{}` unavailable — requires {}; measuring query time \
                 through `interp` instead)",
                b.name(),
                b.requirement()
            );
            "interp"
        }
    };

    let sched = Scheduler::from_registry(&cfg).expect("level-5 DAG builds");
    let (level_edges, declared_edges): (Vec<_>, Vec<_>) = sched
        .edge_names()
        .into_iter()
        .partition(|(_, _, k)| *k == EdgeKind::Level);
    println!(
        "# schedule sweep — {} passes, {} level edges, {} declared edges, \
         {} commuting pairs, {} valid schedules",
        sched.names().len(),
        level_edges.len(),
        declared_edges.len(),
        sched.commuting_pairs().len(),
        sched
            .order_count()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "?".into()),
    );

    // Baseline first, then distinct sampled permutations.
    let baseline = sched.baseline();
    let mut orders: Vec<Vec<&'static str>> = vec![baseline.clone()];
    for o in sched.sample_orders(args.seed, args.orderings.saturating_mul(2)) {
        if orders.len() >= args.orderings {
            break;
        }
        if !orders.contains(&o) {
            orders.push(o);
        }
    }
    if orders.len() < args.orderings {
        eprintln!(
            "(DAG admits only {} distinct schedules; sweeping those)",
            orders.len()
        );
    }
    for o in &orders {
        sched.validate_order(o).expect("sampled schedule valid");
    }

    // In-process Volcano oracle, once per query.
    let oracles: Vec<String> = args
        .queries
        .iter()
        .map(|&q| dblab_engine::execute_program(&dblab_tpch::queries::query(q), &db).to_text())
        .collect();

    memo::clear();
    build_cache::clear();

    // Fan orderings across workers; each sweep tallies into its own
    // scope, so per-ordering hit rates stay honest under concurrency.
    let t_all = Instant::now();
    let rows: Mutex<Vec<Option<Row>>> = Mutex::new((0..orders.len()).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..args.build_jobs.min(orders.len()).max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= orders.len() {
                    break;
                }
                let row = sweep_one(
                    i,
                    &orders[i],
                    &args.queries,
                    &oracles,
                    &schema,
                    &sched,
                    effective_backend,
                    args.runs,
                    &data,
                    &out,
                );
                rows.lock().unwrap()[i] = Some(row);
            });
        }
    });
    let wall = t_all.elapsed();
    let rows: Vec<Row> = rows
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every ordering swept"))
        .collect();

    // Human-readable table: per-ordering deltas vs the baseline row.
    let base = &rows[0];
    println!(
        "# {} orderings x {} queries (sf {}, backend {}, {} workers, seed {})",
        rows.len(),
        args.queries.len(),
        args.sf,
        effective_backend,
        args.build_jobs,
        args.seed,
    );
    println!(
        "{:<5}{:>9}{:>7}{:>13}{:>13}{:>10}{:>12}{:>8}  schedule (´ = moved vs baseline)",
        "ord", "IR stmts", "ΔIR", "cold gen ms", "warm gen ms", "warm hit", "query ms", "agree",
    );
    for r in &rows {
        let moved: Vec<String> = r
            .order
            .iter()
            .zip(&base.order)
            .map(|(a, b)| {
                if a == b {
                    a.to_string()
                } else {
                    format!("{a}´")
                }
            })
            .collect();
        println!(
            "{:<5}{:>9}{:>+7}{:>13.2}{:>13.2}{:>9.0}%{:>12.2}{:>8}  {}",
            r.idx,
            r.ir_size,
            r.ir_size as i64 - base.ir_size as i64,
            r.cold_gen_s * 1e3,
            r.warm_gen_s * 1e3,
            100.0 * r.warm.hit_rate(),
            r.query_ms,
            if r.disagreements.is_empty() && r.errors.is_empty() {
                "yes"
            } else {
                "NO"
            },
            moved.join(" "),
        );
        for e in &r.errors {
            eprintln!("  ordering {}: {e}", r.idx);
        }
        if !r.disagreements.is_empty() {
            eprintln!(
                "  ordering {} disagrees with the oracle on {:?}",
                r.idx, r.disagreements
            );
        }
    }
    let global = memo::stats();
    println!(
        "# wall {:.2}s; process-wide compile cache: {} hits / {} misses",
        wall.as_secs_f64(),
        global.hits,
        global.misses,
    );

    let all_agree = rows
        .iter()
        .all(|r| r.disagreements.is_empty() && r.errors.is_empty());
    let per_ordering = json::array(rows.iter().map(|r| {
        json::Obj::new()
            .int("ordering", r.idx as u64)
            .raw(
                "schedule",
                &json::array(r.order.iter().map(|n| format!("\"{}\"", json::escape(n)))),
            )
            .int("ir_size", r.ir_size as u64)
            .num("cold_gen_s", r.cold_gen_s)
            .num("warm_gen_s", r.warm_gen_s)
            .int("cold_hits", r.cold.hits)
            .int("cold_misses", r.cold.misses)
            .num("cold_hit_rate", r.cold.hit_rate())
            .int("warm_hits", r.warm.hits)
            .int("warm_misses", r.warm.misses)
            .num("warm_hit_rate", r.warm.hit_rate())
            .num("query_ms", r.query_ms)
            .bool("agree", r.disagreements.is_empty() && r.errors.is_empty())
            .build()
    }));
    let blob = json::Obj::new()
        .str("bench", "schedules")
        .num("sf", args.sf)
        .int("seed", args.seed)
        .str("backend", effective_backend)
        .str("backend_requested", &args.backend)
        .str("config", cfg.name)
        .int("passes", sched.names().len() as u64)
        .int("level_edges", level_edges.len() as u64)
        .int("declared_edges", declared_edges.len() as u64)
        .int("commuting_pairs", sched.commuting_pairs().len() as u64)
        .raw(
            "valid_schedules",
            &sched
                .order_count()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".into()),
        )
        .bool("all_agree", all_agree)
        .num("wall_s", wall.as_secs_f64())
        .raw("orderings", &per_ordering)
        .build();
    emit_json(&args, &blob);
    if !all_agree {
        std::process::exit(1);
    }
}
