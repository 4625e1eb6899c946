//! A cold compile is a pure function of (query, schema, configuration):
//! two compiles with the compile cache cleared in between give one
//! `program_hash`, so the compile and build caches key the same program
//! the same way in every process.
//!
//! Clearing the compile cache is process-wide and tests in one binary run in
//! parallel, so this suite is a binary of its own with a single test.

use dblab::ir::hash::program_hash;
use dblab::transform::{memo, StackConfig};

/// Q16, Q17 and Q19 once gave two or three hashes over four cold
/// compiles, when facts a rewrite carried beside the IR landed in
/// hash-map order.
#[test]
fn two_cold_compiles_of_every_level5_query_hash_equal() {
    let db = dblab::tpch::generate(0.002, &std::env::temp_dir().join("dblab_det_ir"));
    for q in 1..=22 {
        let prog = dblab::tpch::queries::query(q);
        let mut hashes = [0u64; 2];
        for h in &mut hashes {
            memo::clear();
            *h = program_hash(
                &dblab::transform::compile(&prog, &db.schema, &StackConfig::level5()).program,
            );
        }
        assert_eq!(hashes[0], hashes[1], "Q{q}: two cold compiles hash apart");
    }
}
