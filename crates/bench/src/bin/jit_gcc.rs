//! In-query time of the 22 TPC-H queries on the jit and on gcc, one
//! process, level 5.
//!
//! ```text
//! cargo run --release -p dblab-bench --bin jit_gcc -- \
//!     [--sf 0.01] [--runs 7] [--queries 5,7,9] [--threads 1]
//! ```
//!
//! Both backends build every query first; then each of `--runs` rounds
//! runs every query once on the jit and once on gcc, so the two backends
//! see the same machine state. The first round's output of every query
//! is compared with the Volcano oracle's. Prints each query's best
//! in-query time per backend, their ratio, gcc's median whole-run wall
//! time over the rounds after the first (resolving the data image,
//! spawn, reading the image and the query: what a caller of the binary
//! waits for once the image exists), gcc's first-run wall (which also
//! writes whatever parts of the image that query reads and no earlier
//! query wrote — parsing `.tbl` text happens there, once per data
//! version, and nowhere else) and the geomeans, then the one-off image
//! write on its own line; exits non-zero if any backend's result
//! disagrees with the oracle.

use dblab_bench::{data_dir, gen_dir, Args};
use dblab_codegen::{backend, same_normalized, Compiler};
use dblab_transform::StackConfig;

fn main() {
    let args = Args::parse();
    let (db, data) = data_dir(args.sf);
    let mut cfg = StackConfig::level5();
    cfg.threads = args.threads;
    let built: Vec<_> = (args.queries.iter())
        .map(|&q| {
            ["jit", "gcc"].map(|b| {
                (Compiler::new(&db.schema).config(&cfg).out_dir(&gen_dir()))
                    .backend(backend(b).expect("registered backend"))
                    .compile_named(
                        &dblab_tpch::queries::query(q),
                        &format!("jg_q{q}_t{}", cfg.threads),
                    )
                    .unwrap_or_else(|e| panic!("Q{q} on {b}: {e}"))
            })
        })
        .collect();
    let oracles: Vec<String> = (args.queries.iter())
        .map(|&q| dblab_engine::execute_program(&dblab_tpch::queries::query(q), &db).to_text())
        .collect();
    let mut wrong = Vec::new();
    let mut best = vec![[f64::INFINITY; 2]; built.len()];
    let mut gcc_walls = vec![Vec::new(); built.len()];
    for round in 0..args.runs.max(1) {
        for ((((arts, best), walls), oracle), q) in (built.iter().zip(&mut best))
            .zip(&mut gcc_walls)
            .zip(&oracles)
            .zip(&args.queries)
        {
            for ((art, ms), b) in arts.iter().zip(best.iter_mut()).zip(["jit", "gcc"]) {
                let out = art.exe.run(&data).expect("run");
                if round == 0 && !same_normalized(oracle, &out.stdout) {
                    wrong.push(format!("Q{q} on {b}"));
                }
                *ms = ms.min(out.query_ms);
                if b == "gcc" {
                    walls.push(out.wall.as_secs_f64() * 1e3);
                }
            }
        }
    }
    // (first run, median of the later runs), the first alone when it is
    // the only one.
    let walls: Vec<(f64, f64)> = (gcc_walls.iter_mut())
        .map(|w| {
            let first = w[0];
            let warm = if w.len() > 1 { &mut w[1..] } else { &mut w[..] };
            warm.sort_by(f64::total_cmp);
            (first, warm[warm.len() / 2])
        })
        .collect();
    println!(
        "# in-query ms, SF {}, threads {}, best of {}; gcc wall: median whole run \
         after the first; gcc 1st: the first run, writing its image parts",
        args.sf, cfg.threads, args.runs
    );
    println!(
        "{:<6}{:>10}{:>10}{:>8}{:>10}{:>10}",
        "query", "jit", "gcc", "jit/gcc", "gcc wall", "gcc 1st"
    );
    let mut logs = [0.0; 4];
    for ((&q, [jit, gcc]), (first, wall)) in args.queries.iter().zip(&best).zip(&walls) {
        println!(
            "Q{q:<5}{jit:>10.3}{gcc:>10.3}{:>8.2}{wall:>10.3}{first:>10.3}",
            jit / gcc
        );
        logs[0] += jit.ln();
        logs[1] += gcc.ln();
        logs[2] += wall.ln();
        logs[3] += first.ln();
    }
    let [jit, gcc, wall, first] = logs.map(|l| (l / best.len() as f64).exp());
    println!(
        "{:<6}{jit:>10.3}{gcc:>10.3}{:>8.2}{wall:>10.3}{first:>10.3}",
        "geo",
        jit / gcc
    );
    let write: f64 = walls.iter().map(|(first, wall)| first - wall).sum();
    println!("# image write (first runs minus warm walls, summed): {write:.1} ms");
    if !wrong.is_empty() {
        eprintln!("results disagree with the oracle: {}", wrong.join(", "));
        std::process::exit(1);
    }
}
