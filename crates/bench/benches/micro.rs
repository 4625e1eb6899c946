//! Micro-benchmarks for the substrate pieces whose cost gaps the paper's
//! optimizations exploit: string comparison vs. dictionary codes, ANF
//! construction with hash-consing, the per-backend unparsers, and the
//! compiler passes themselves — with the per-pass wall-time breakdown the
//! instrumented pass manager records.
//!
//! Framework-free (`harness = false`): a warmup round, then the best of
//! `RUNS` timed repetitions, printed as a plain table.
//!
//! ```text
//! cargo bench -p dblab-bench
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use dblab_runtime::StringDict;

const RUNS: usize = 7;

/// Best-of-`RUNS` wall time of `f`, with one untimed warmup.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed());
    }
    println!("{:<36}{:>12.1} µs", name, best.as_secs_f64() * 1e6);
}

fn string_dictionary() {
    println!("\n## string dictionaries (paper §5.3)");
    let values: Vec<String> = (0..1000)
        .map(|i| format!("VALUE NUMBER {:05}", i % 50))
        .collect();
    let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
    let dict = StringDict::build(refs.iter().copied(), true);
    let codes: Vec<i32> = refs.iter().map(|s| dict.code(s)).collect();
    let needle = "VALUE NUMBER 00025";
    let needle_code = dict.code(needle);

    bench("strcmp-filter", || {
        refs.iter().filter(|s| **s == needle).count()
    });
    bench("dictionary-code-filter", || {
        codes.iter().filter(|c| **c == needle_code).count()
    });
}

fn anf_builder() {
    println!("\n## ANF construction (hash-consing CSE)");
    use dblab_ir::{Atom, IrBuilder, Level};
    bench("anf-build-cse-1k", || {
        let mut bld = IrBuilder::new();
        let v = bld.decl_var(Atom::Int(1));
        let x = bld.read_var(v);
        for i in 0..1000 {
            // Half of these are duplicates that CSE collapses.
            let k = Atom::Int(i % 500);
            let s = bld.add(x.clone(), k);
            let _ = bld.mul(s, Atom::Int(2));
        }
        bld.finish(Atom::Unit, Level::ScaLite)
    });
}

fn compiler_passes() {
    println!("\n## whole-stack compilation (cold = compile cache cleared per run, warm = cached)");
    let mut schema = dblab_tpch::tpch_schema();
    for t in &mut schema.tables {
        t.stats.row_count = 1000;
        t.stats.int_max = vec![1000; t.columns.len()];
        t.stats.distinct = vec![50; t.columns.len()];
    }
    let q6 = dblab_tpch::queries::q6();
    let q3 = dblab_tpch::queries::q3();
    for (name, prog) in [("q6", &q6), ("q3", &q3)] {
        for cfg in [
            dblab_transform::StackConfig::level2(),
            dblab_transform::StackConfig::level5(),
        ] {
            bench(&format!("compile-{name}-L{}-cold", cfg.levels), || {
                dblab_transform::memo::clear();
                dblab_transform::compile(prog, &schema, &cfg)
                    .program
                    .body
                    .size()
            });
            // Same compile against a warm compile cache — what a repeat
            // compile of one query actually pays.
            bench(&format!("compile-{name}-L{}-warm", cfg.levels), || {
                let cq = dblab_transform::compile(prog, &schema, &cfg);
                assert!(cq.cached, "warm compile must hit the compile cache");
                cq.program.body.size()
            });
        }
    }

    // The unparse half of the backend seam: the same lowered program
    // stringified by each native emitter (pure Program -> String, no
    // toolchain).
    println!("\n## backend emit (Q3, five-level stack)");
    let cfg5 = dblab_transform::StackConfig::level5();
    let lowered = dblab_transform::compile(&q3, &schema, &cfg5).program;
    for b in dblab_codegen::backends() {
        bench(&format!("emit-{}", b.name()), || {
            b.emit(&lowered, &schema).len()
        });
    }

    // Where the compile time goes: best-of-RUNS per pass, from the pass
    // manager's stage instrumentation.
    println!("\n## per-pass compile-time breakdown (Q3, five-level stack)");
    let cfg = dblab_transform::StackConfig::level5();
    let mut best: Vec<(String, Duration)> = Vec::new();
    for _ in 0..RUNS {
        // Cold per run: a cache hit reports no pass time.
        dblab_transform::memo::clear();
        let cq = dblab_transform::compile(&q3, &schema, &cfg);
        for s in &cq.stages {
            match best.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t = (*t).min(s.time),
                None => best.push((s.name.clone(), s.time)),
            }
        }
    }
    for (name, t) in &best {
        println!("{:<36}{:>12.1} µs", name, t.as_secs_f64() * 1e6);
    }
}

fn main() {
    println!("# dblab micro-benchmarks (best of {RUNS})");
    string_dictionary();
    anf_builder();
    compiler_passes();
}
