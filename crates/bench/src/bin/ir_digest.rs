//! Fingerprints what the compiler produces, for checking that a change to
//! the transformation stack leaves its output alone.
//!
//! Compiles the 22 TPC-H queries and the three QMonad queries of
//! `examples/qmonad_analytics.rs` at every Table 3 configuration (LegoBase
//! baseline, levels 2–5, TPC-H compliant) and prints one line per program:
//!
//! ```text
//! <config>\t<query>\t<program_hash>\t<FNV-1a of the emitted C>
//! ```
//!
//! `--sf` picks the scale factor whose statistics the compiler sees (no
//! data is written). Run it on two checkouts and `diff` the outputs:
//!
//! ```text
//! cargo run --release -p dblab-bench --bin ir_digest -- --sf 0.002 > digest.txt
//! ```

use dblab_bench::{qmonad_queries, table3_configs, Args};
use dblab_ir::hash::{program_hash, str_hash};
use dblab_transform::stack::compile_qmonad;
use dblab_transform::{compile, CompiledQuery};

fn main() {
    let args = Args::parse();
    let schema = dblab_tpch::generate(args.sf, &std::env::temp_dir()).schema;
    let monads = qmonad_queries();
    for cfg in table3_configs() {
        let print = |query: &str, cq: CompiledQuery| {
            let c = dblab_codegen::emit(&cq.program, &schema);
            println!(
                "{}\t{query}\t{:016x}\t{:016x}",
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
