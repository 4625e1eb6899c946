//! Cold compile time of the 22 TPC-H queries: the compile cache is cleared
//! before every compile, so each one runs the front-end and every pass.
//!
//! ```text
//! cargo run --release -p dblab-bench --bin compile_cold -- \
//!     [--config NAME] [--reps N]
//! ```
//!
//! `--config` names one of [`dblab_bench::table3_configs`] by its `name`
//! (default `DBLAB/LB 5`); the compiles run at one thread against SF 0.01
//! statistics, and no data is written. Prints each query's median compile
//! time over `--reps` compiles (default 15), their geomean, and the share
//! of all compile time spent in the post-pass `optimize` fixpoint (the
//! stage snapshots' `fixpoint`).

use std::time::Duration;

use dblab_transform::{compile, memo};

fn main() {
    let (mut name, mut reps) = ("DBLAB/LB 5".to_string(), 15usize);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let value = pair
            .get(1)
            .unwrap_or_else(|| panic!("{} needs a value", pair[0]));
        match pair[0].as_str() {
            "--config" => name = value.clone(),
            "--reps" => reps = value.parse::<usize>().expect("--reps <int>").max(1),
            other => panic!("unknown flag {other}"),
        }
    }
    let configs = dblab_bench::table3_configs();
    let cfg = configs.iter().find(|c| c.name == name).unwrap_or_else(|| {
        let names: Vec<_> = configs.iter().map(|c| c.name).collect();
        panic!("unknown config {name:?}; one of {names:?}")
    });
    let schema = dblab_tpch::generate(0.01, &std::env::temp_dir()).schema;
    println!("# cold compile, {}, median of {reps}", cfg.name);
    let (mut total, mut fixpoint, mut log_sum) = (Duration::ZERO, Duration::ZERO, 0.0);
    let queries = dblab_tpch::queries::all();
    for (query, prog) in &queries {
        let mut ms: Vec<f64> = (0..reps)
            .map(|_| {
                memo::clear();
                let cq = compile(prog, &schema, cfg);
                assert!(!cq.cached, "{query}: compile cache was not cleared");
                total += cq.gen_time;
                fixpoint += cq.stages.iter().map(|s| s.fixpoint).sum::<Duration>();
                cq.gen_time.as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        log_sum += median.ln();
        println!("{query:<6}{median:>9.3} ms");
    }
    println!("geomean{:>8.3} ms", (log_sum / queries.len() as f64).exp());
    println!(
        "fixpoint share {:.1} %",
        100.0 * fixpoint.as_secs_f64() / total.as_secs_f64()
    );
}
