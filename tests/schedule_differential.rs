//! The schedule-differential suite: the pass-commutation DAG's claim —
//! *any* topological order of the declared dependency DAG compiles every
//! query correctly — tested end to end against the Volcano oracle.
//!
//! `tests/stack_invariants.rs` holds every valid order to the baseline's
//! `program_hash`; this suite executes what the orders compile. Every
//! valid ordering (`Scheduler::orders`, exhaustive) is compiled through
//! the contract-checked driver (which still validates the dialect window
//! after every pass in test builds), and each distinct final program is
//! executed by `dblab-interp` and compared with the oracle. A diverging
//! ordering is reported with the pass pairs it runs the other way round
//! from the baseline.

use std::collections::HashMap;
use std::path::PathBuf;

use dblab::codegen::same_normalized;
use dblab::engine;
use dblab::tpch;
use dblab::transform::schedule::Scheduler;
use dblab::transform::stack::compile_scheduled;
use dblab::transform::StackConfig;

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_sched_diff_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// Every valid schedule of the DAG, the baseline first, each one
/// accepted by the driver's validation.
fn orderings(sched: &Scheduler) -> Vec<Vec<&'static str>> {
    let orders = sched.orders();
    assert_eq!(orders[0], sched.baseline(), "the baseline comes first");
    for o in &orders {
        sched.validate_order(o).expect("schedule valid");
    }
    orders
}

/// The pass pairs `order` runs the other way round from the baseline.
fn inverted_pairs(sched: &Scheduler, order: &[&str]) -> String {
    let baseline = sched.baseline();
    let at = |name: &str| order.iter().position(|n| *n == name).unwrap();
    let mut inverted = Vec::new();
    for (i, a) in baseline.iter().enumerate() {
        for b in &baseline[i + 1..] {
            if at(a) > at(b) {
                inverted.push(format!("`{b}` before `{a}`"));
            }
        }
    }
    inverted.join(", ")
}

/// Compile query `n` through every order and run each distinct final
/// program against the oracle: identical IR implies identical
/// interpreter output, so each distinct program runs exactly once. One
/// line per diverging or refused order.
fn divergences(
    n: usize,
    sched: &Scheduler,
    orders: &[Vec<&'static str>],
    db: &dblab::runtime::Database,
    snap: &dblab::runtime::Snapshot,
) -> Vec<String> {
    let prog = tpch::queries::query(n);
    let oracle = engine::execute_program(&prog, db).to_text();
    let mut verified: HashMap<u64, bool> = HashMap::new();
    let mut out = Vec::new();
    for order in orders {
        let cq = match compile_scheduled(sched, &prog, &db.schema, order) {
            Ok(cq) => cq,
            Err(e) => {
                out.push(format!("Q{n}: schedule {order:?} rejected: {e}"));
                continue;
            }
        };
        // The stage trace must follow the requested schedule (stage 0 is
        // the front-end lowering).
        let trace: Vec<&str> = cq.stages[1..].iter().map(|s| s.name.as_str()).collect();
        assert_eq!(&trace, order, "Q{n}: trace order");
        let hash = dblab::ir::hash::program_hash(&cq.program);
        let agree = *verified
            .entry(hash)
            .or_insert_with(|| same_normalized(&oracle, &dblab::interp::run(&cq.program, snap)));
        if !agree {
            out.push(format!(
                "Q{n} @ {}: schedule {order:?} diverges from the oracle; it inverts {}",
                sched.config().name,
                inverted_pairs(sched, order)
            ));
        }
    }
    out
}

#[test]
fn sampled_schedules_agree_with_the_oracle_on_all_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let cfg = StackConfig::level5();
    let sched = Scheduler::from_registry(&cfg).expect("level-5 DAG builds");
    let orders = orderings(&sched);
    assert_eq!(orders.len(), 8, "level-5 DAG: {orders:?}");
    assert_eq!(orders, orderings(&sched), "enumeration is deterministic");
    let failures: Vec<String> = (1..=22)
        .flat_map(|n| divergences(n, &sched, &orders, &db, &snap))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The same walk on the TPC-H-compliant stack (the configuration the
/// benches publish numbers for) over the showdown queries — the DAG and
/// its declared edges must hold for partial stacks too.
#[test]
fn compliant_stack_schedules_agree_on_the_showdown_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let cfg = StackConfig::compliant();
    let sched = Scheduler::from_registry(&cfg).expect("compliant DAG builds");
    let orders = orderings(&sched);
    let failures: Vec<String> = [1, 3, 6, 14]
        .into_iter()
        .flat_map(|n| divergences(n, &sched, &orders, &db, &snap))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
