//! Regenerates the paper's **Figure 8**: peak memory consumption of the
//! generated C programs (full five-level stack), one bar per TPC-H query.
//! Measured with `getrusage(RUSAGE_SELF).ru_maxrss` inside the generated
//! binary (the paper used Valgrind plus a custom profiler). The binary
//! reads its columns from the data image, so its RSS is the columns its
//! query reads plus execution; parsing the `.tbl` text happens once, in
//! the process that writes the image, and is not in this number.

use dblab_bench::{data_dir, gen_dir, Args};
use dblab_codegen::Compiler;
use dblab_transform::StackConfig;

fn main() {
    let args = Args::parse();
    let (db, data) = data_dir(args.sf);
    let schema = db.schema.clone();
    let out = gen_dir();
    let cfg = StackConfig::level5();

    println!(
        "# Figure 8 — peak memory (MB) of generated C, SF {}",
        args.sf
    );
    let input_mb = total_input_mb(&data);
    println!("# total .tbl input: {input_mb:.1} MB");
    println!("{:<6}{:>12}{:>14}", "query", "peak MB", "peak/input");
    for &q in &args.queries {
        let prog = dblab_tpch::queries::query(q);
        let name = format!("f8_q{q}");
        let r = Compiler::new(&schema)
            .config(&cfg)
            .out_dir(&out)
            .compile_named(&prog, &name)
            .and_then(|art| art.run(&data));
        match r {
            Ok(run) => {
                let mb = run.peak_rss_kb as f64 / 1024.0;
                println!("Q{q:<5}{:>12.1}{:>13.2}x", mb, mb / input_mb);
            }
            Err(e) => println!("Q{q:<5}  ERROR: {e}"),
        }
    }
}

fn total_input_mb(dir: &std::path::Path) -> f64 {
    let mut bytes = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.path().extension().map(|x| x == "tbl").unwrap_or(false) {
                bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    bytes as f64 / (1024.0 * 1024.0)
}
