//! Fingerprints what the compiler produces, for checking that a change to
//! the transformation stack leaves its output alone.
//!
//! Compiles the 22 TPC-H queries and the three QMonad queries of
//! `examples/qmonad_analytics.rs` at every Table 3 configuration (LegoBase
//! baseline, levels 2–5, TPC-H compliant) × threads 1, 2 and 4, and prints
//! one line per program:
//!
//! ```text
//! <config>\t<threads>\t<query>\t<program_hash>\t<FNV-1a of the emitted C>
//! ```
//!
//! `--sf` picks the scale factor whose statistics the compiler sees (no
//! data is written). Run it on two checkouts and `diff` the outputs:
//!
//! ```text
//! cargo run --release -p dblab-bench --bin ir_digest -- --sf 0.002 > digest.txt
//! ```

use dblab_bench::{table3_configs, Args};
use dblab_frontend::expr::{col, date, lit_d, lit_s};
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::{AggFunc, SortDir};
use dblab_ir::hash::{program_hash, str_hash};
use dblab_transform::stack::compile_qmonad;
use dblab_transform::{compile, CompiledQuery};

fn main() {
    let args = Args::parse();
    let schema = dblab_tpch::generate(args.sf, &std::env::temp_dir()).schema;
    let monads = qmonad_queries();
    for base in table3_configs() {
        for threads in [1, 2, 4] {
            let cfg = dblab_transform::StackConfig {
                threads,
                ..base.clone()
            };
            let print = |query: &str, cq: CompiledQuery| {
                let c = dblab_codegen::emit(&cq.program, &schema);
                println!(
                    "{}\t{threads}\t{query}\t{:016x}\t{:016x}",
                    cfg.name,
                    program_hash(&cq.program),
                    str_hash(&c)
                );
            };
            for (name, prog) in dblab_tpch::queries::all() {
                print(&name, compile(&prog, &schema, &cfg));
            }
            for (name, q) in &monads {
                print(name, compile_qmonad(q, &schema, &cfg));
            }
        }
    }
}

/// The QMonad session of `examples/qmonad_analytics.rs`.
fn qmonad_queries() -> [(&'static str, QMonad); 3] {
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
