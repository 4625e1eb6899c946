//! The per-stage differential suite (ROADMAP item, DESIGN.md §7): the
//! paper's "each DSL is executable" claim, mechanized. For every TPC-H
//! query compiled through the full five-level stack,
//! `compile_with_snapshots` retains the complete IR program after *every*
//! stage, and each snapshot — not just the final program — is executed by
//! `dblab-interp` and checked against the Volcano oracle.
//!
//! This is what localizes a miscompile to a single pass: if the
//! stage-`k` snapshot agrees with the oracle and the stage-`k+1` snapshot
//! does not, the bug is in exactly one transformation. It is also the
//! semantic backstop for the per-pass IR cache: a memoized stage output
//! is the same `Program` value a fresh run would produce, so it flows
//! through this suite like any other.

use std::path::PathBuf;

use dblab::codegen::same_normalized;
use dblab::engine;
use dblab::tpch;
use dblab::transform::stack::compile_with_snapshots;
use dblab::transform::StackConfig;

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_stage_diff_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

#[test]
fn every_stage_snapshot_matches_the_oracle_for_all_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let schema = db.schema.clone();
    let cfg = StackConfig::level5();
    let mut failures = Vec::new();
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let (cq, programs) = compile_with_snapshots(&prog, &schema, &cfg, true);
        assert_eq!(
            programs.len(),
            cq.stages.len(),
            "Q{n}: one retained program per recorded stage"
        );
        for (stage, p) in &programs {
            let got = dblab::interp::run(p, &snap);
            if !same_normalized(&oracle, &got) {
                failures.push(format!(
                    "Q{n} diverges at stage `{stage}` (level {}):\noracle:\n{}\ngot:\n{}",
                    p.level,
                    oracle.lines().take(4).collect::<Vec<_>>().join("\n"),
                    got.lines().take(4).collect::<Vec<_>>().join("\n"),
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The same stage-by-stage walk on the partial (compliant) stack — the
/// configuration benches actually publish numbers for.
#[test]
fn compliant_stack_snapshots_match_the_oracle_on_the_showdown_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let schema = db.schema.clone();
    let cfg = StackConfig::compliant();
    for n in [1, 3, 6, 14] {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let (_, programs) = compile_with_snapshots(&prog, &schema, &cfg, true);
        for (stage, p) in &programs {
            let got = dblab::interp::run(p, &snap);
            assert!(
                same_normalized(&oracle, &got),
                "Q{n} @ {} diverges at stage `{stage}`",
                cfg.name
            );
        }
    }
}
