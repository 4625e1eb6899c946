//! The per-stage differential suite (ROADMAP item, DESIGN.md §7): the
//! paper's "each DSL is executable" claim, mechanized. For every TPC-H
//! query compiled through the full five-level stack,
//! `compile_with_snapshots` retains the complete IR program after *every*
//! stage, and each snapshot — not just the final program — is executed by
//! both in-process executors, `dblab-interp` and the jit, and checked
//! against the Volcano oracle.
//!
//! This is what localizes a miscompile to a single pass: if the
//! stage-`k` snapshot agrees with the oracle and the stage-`k+1` snapshot
//! does not, the bug is in exactly one transformation. Snapshot compiles
//! bypass the compile cache, so every stage here is a fresh run.

use dblab::codegen::{jit, same_normalized};
use dblab::engine;
use dblab::ir::Program;
use dblab::runtime::{Database, Snapshot};
use dblab::tpch;
use dblab::transform::stack::compile_with_snapshots;
use dblab::transform::StackConfig;

/// SF 0.002, in memory: every executor here reads the snapshot.
fn setup() -> Database {
    tpch::generate(0.002, &std::env::temp_dir().join("dblab_stage_diff_data"))
}

/// An in-process executor: what it prints for a program.
type Executor = (&'static str, fn(&Program, &Snapshot) -> String);

fn interp(p: &Program, snap: &Snapshot) -> String {
    dblab::interp::run(p, snap)
}

/// A snapshot the jit refuses to compile diverges with the refusal, which
/// names the statement.
fn jit(p: &Program, snap: &Snapshot) -> String {
    match jit::compile(p) {
        Ok(jp) => jp.run_bound(snap, &[], None).expect("no deadline").0,
        Err(e) => format!("jit refused: {e}"),
    }
}

const INTERP: &[Executor] = &[("interp", interp)];
const JIT: &[Executor] = &[("jit", jit)];
const BOTH: &[Executor] = &[("interp", interp), ("jit", jit)];

/// Every retained stage snapshot of `queries` under `cfg`, run by each of
/// `executors` and compared with the oracle. Panics listing every
/// divergence; else says how many snapshots agreed.
fn walk(cfg: &StackConfig, queries: &[usize], executors: &[Executor]) {
    let db = setup();
    let snap = Snapshot::from(db.clone());
    let (mut failures, mut snapshots) = (Vec::new(), 0);
    for &n in queries {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let (cq, programs) = compile_with_snapshots(&prog, &db.schema, cfg, true);
        assert_eq!(
            programs.len(),
            cq.stages.len(),
            "Q{n}: one retained program per recorded stage"
        );
        snapshots += programs.len();
        for (stage, p) in &programs {
            for (name, run) in executors {
                let got = run(p, &snap);
                if !same_normalized(&oracle, &got) {
                    failures.push(format!(
                        "Q{n} on {name} diverges at stage `{stage}` (level {}):\n\
                         oracle:\n{}\ngot:\n{}",
                        p.level,
                        oracle.lines().take(4).collect::<Vec<_>>().join("\n"),
                        got.lines().take(4).collect::<Vec<_>>().join("\n"),
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}: {failures:#?}", cfg.name);
    let names: Vec<_> = executors.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "{}: {snapshots} snapshots agree with the oracle on {names:?}",
        cfg.name
    );
}

fn all_queries() -> Vec<usize> {
    (1..=22).collect()
}

/// The level-5 walk on the interpreter; the jit's is the next test, so
/// the two run side by side.
#[test]
fn every_stage_snapshot_matches_the_oracle_for_all_queries() {
    walk(&StackConfig::level5(), &all_queries(), INTERP);
}

#[test]
fn every_stage_snapshot_matches_the_oracle_on_the_jit() {
    walk(&StackConfig::level5(), &all_queries(), JIT);
}

/// The same stage-by-stage walk on the partial (compliant) stack — the
/// configuration benches actually publish numbers for.
#[test]
fn compliant_stack_snapshots_match_the_oracle_on_the_showdown_queries() {
    walk(&StackConfig::compliant(), &[1, 3, 6, 14], BOTH);
}
