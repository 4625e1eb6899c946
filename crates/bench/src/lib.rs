//! # dblab-bench — the evaluation harness
//!
//! One binary per artifact of the paper's evaluation (§7):
//!
//! | binary | regenerates | paper artifact |
//! |--------|-------------|----------------|
//! | `table3` | query times across {LegoBase, 2..5 levels, compliant} | Table 3 |
//! | `fig8` | peak memory of the generated C per query | Figure 8 |
//! | `fig9` | compile-time split (DBLAB generation vs gcc) | Figure 9 |
//! | `table4` | lines of code per transformation | Table 4 |
//!
//! Shared helpers live here: data-directory management (generated once per
//! scale factor and cached), the config row order, and flag parsing.

use std::path::{Path, PathBuf};

use dblab_frontend::expr::{col, date, lit_d, lit_s};
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::{AggFunc, SortDir};
use dblab_runtime::Database;
use dblab_transform::StackConfig;

/// Default scale factor for benchmarks (laptop-scale substitute for the
/// paper's SF8; see EXPERIMENTS.md).
pub const DEFAULT_SF: f64 = 0.1;

/// Generate (or reuse) the `.tbl` data directory for a scale factor.
pub fn data_dir(sf: f64) -> (Database, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dblab_tpch_sf{sf}"));
    let marker = dir.join("lineitem.tbl");
    let db = dblab_tpch::generate(sf, &dir);
    if !marker.exists() {
        eprintln!("generating TPC-H data at SF {sf} into {}", dir.display());
        db.write_all().expect("write .tbl files");
    }
    (db, dir)
}

/// Where generated C and binaries go.
pub fn gen_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dblab_gen");
    std::fs::create_dir_all(&dir).expect("create gen dir");
    dir
}

/// The Table 3 row order: LegoBase baseline first, then the incremental
/// stacks, then the compliant configuration.
pub fn table3_configs() -> Vec<StackConfig> {
    let mut v = vec![StackConfig::legobase()];
    v.extend(StackConfig::table3());
    v
}

/// The QMonad session of `examples/qmonad_analytics.rs`, which `ir_digest`
/// fingerprints beside the 22 TPC-H queries.
pub fn qmonad_queries() -> [(&'static str, QMonad); 3] {
    let building_revenue = QMonad::source("customer")
        .filter(col("c_mktsegment").eq(lit_s("BUILDING")))
        .hash_join(
            QMonad::source("orders"),
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        )
        .map(vec![("price", col("o_totalprice"))])
        .sum(col("price"));
    let cheap_1994_lines = QMonad::source("lineitem")
        .filter(
            col("l_shipdate")
                .ge(date(1994, 1, 1))
                .and(col("l_shipdate").lt(date(1995, 1, 1)))
                .and(col("l_discount").gt(lit_d(0.05))),
        )
        .count();
    let revenue_by_nation = QMonad::source("customer")
        .hash_join(
            QMonad::source("nation"),
            vec![col("c_nationkey")],
            vec![col("n_nationkey")],
        )
        .group_by(
            vec![("nation", col("n_name"))],
            vec![("balance", AggFunc::Sum(col("c_acctbal")))],
        )
        .sort_by(vec![(col("balance"), SortDir::Desc)])
        .take(5);
    [
        ("building_revenue", building_revenue),
        ("cheap_1994_lines", cheap_1994_lines),
        ("revenue_by_nation", revenue_by_nation),
    ]
}

/// `--sf`, `--runs`, `--queries 1,6,14`, `--json out.json` flags shared
/// by the binaries, plus `fig9`'s `--persist-cache` switch that attaches
/// the on-disk build-cache index.
pub struct Args {
    pub sf: f64,
    pub runs: usize,
    pub queries: Vec<usize>,
    /// Worker threads for the per-query *build* fan-out (each
    /// `CompiledQuery` is independent and `Backend::build` is `&self`).
    /// `--build-jobs`, default `min(cores, 8)`.
    pub build_jobs: usize,
    /// Where to write the machine-readable results blob, if anywhere.
    pub json: Option<PathBuf>,
    /// Attach the on-disk build-cache index next to the gen dir
    /// ([`dblab_codegen::build_cache::enable_persistence`]) so artifacts
    /// survive process restarts; benches report disk-hit rates.
    pub persist_cache: bool,
}

impl Args {
    pub fn parse() -> Args {
        let mut sf = DEFAULT_SF;
        let mut runs = 3;
        let mut queries: Vec<usize> = (1..=22).collect();
        let mut build_jobs = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        let mut json = None;
        let mut persist_cache = false;
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--sf" => {
                    sf = argv[i + 1].parse().expect("--sf <float>");
                    i += 2;
                }
                "--runs" => {
                    runs = argv[i + 1].parse().expect("--runs <int>");
                    i += 2;
                }
                "--queries" => {
                    queries = argv[i + 1]
                        .split(',')
                        .map(|s| s.trim().parse().expect("query number"))
                        .collect();
                    i += 2;
                }
                "--build-jobs" => {
                    build_jobs = argv[i + 1].parse().expect("--build-jobs <int>");
                    i += 2;
                }
                "--json" => {
                    json = Some(PathBuf::from(&argv[i + 1]));
                    i += 2;
                }
                "--persist-cache" => {
                    persist_cache = true;
                    i += 1;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        Args {
            sf,
            runs,
            queries,
            build_jobs: build_jobs.max(1),
            json,
            persist_cache,
        }
    }
}

/// The shared JSON string builder, re-exported from its home in
/// `dblab-runtime` (it moved down so the serving engine's stats renderer
/// and the network server's `stats` frame emit the same format the
/// benches do).
pub use dblab_runtime::json;

/// Write (or print) a bench's JSON blob: to `--json PATH` when given,
/// otherwise to stdout behind a greppable marker line.
pub fn emit_json(args: &Args, blob: &str) {
    match &args.json {
        Some(path) => {
            std::fs::write(path, blob).expect("write --json file");
            eprintln!("(json results written to {})", path.display());
        }
        None => println!("JSON: {blob}"),
    }
}

/// Run one built query `runs` times (any backend); report the best
/// in-query time (steady state, like the paper).
pub fn best_of(
    exe: &dyn dblab_codegen::Executable,
    data: &Path,
    runs: usize,
) -> std::io::Result<dblab_codegen::RunOutput> {
    let mut best: Option<dblab_codegen::RunOutput> = None;
    for _ in 0..runs.max(1) {
        let out = exe.run(data)?;
        if best
            .as_ref()
            .map(|b| out.query_ms < b.query_ms)
            .unwrap_or(true)
        {
            best = Some(out);
        }
    }
    Ok(best.expect("at least one run"))
}

/// Median + min over a set of timed repetitions. The median is robust to
/// a one-off hiccup; the min is the paper-style steady-state number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timings {
    pub median_ms: f64,
    pub min_ms: f64,
}

/// Fold raw millisecond samples into [`Timings`] (sorts in place; the
/// even-count median averages the middle pair).
pub fn timings(samples: &mut [f64]) -> Timings {
    assert!(!samples.is_empty(), "timings over zero samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = samples.len();
    let median_ms = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    Timings {
        median_ms,
        min_ms: samples[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_min_fold() {
        let t = timings(&mut [5.0, 1.0, 3.0]);
        assert_eq!(t.median_ms, 3.0);
        assert_eq!(t.min_ms, 1.0);
        let t = timings(&mut [4.0, 2.0, 8.0, 6.0]);
        assert_eq!(t.median_ms, 5.0);
        assert_eq!(t.min_ms, 2.0);
    }

    #[test]
    fn config_rows_match_table3() {
        let rows = table3_configs();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].name, "LegoBase");
        assert_eq!(rows[5].name, "TPC-H Compliant");
    }
}
