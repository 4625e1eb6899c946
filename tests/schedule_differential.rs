//! The schedule-differential suite: the pass-commutation DAG's claim —
//! *any* topological order of the declared dependency DAG compiles every
//! query correctly — tested end to end.
//!
//! Every valid ordering of the level-5 stack is run (the DAG admits 8;
//! the seeded sampler saturates at the exact count, so the suite is
//! deterministic and exhaustive), every ordering compiles all 22 TPC-H
//! queries through the contract-checked driver (which still validates the
//! dialect window after every pass in test builds), and each final
//! program is executed by `dblab-interp` against the Volcano oracle.
//!
//! When an ordering diverges, the failure is **shrunk** before being
//! reported: any ordering differs from the baseline by a set of inverted
//! commuting pairs, so the shrinker re-tests the query with each inverted
//! pair swapped adjacently on its own, and names the minimal offending
//! pair — turning "schedule #17 of Q9 is wrong" into "`field-removal`
//! before `list-specialization` miscompiles Q9".

use std::path::PathBuf;

use dblab::codegen::same_normalized;
use dblab::engine;
use dblab::tpch;
use dblab::transform::schedule::Scheduler;
use dblab::transform::stack::{compile_ordered, compile_scheduled};
use dblab::transform::StackConfig;

const SEED: u64 = 0xdb1a_b5ce_d001;

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_sched_diff_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// Every valid schedule of the DAG, asserted to be exactly
/// `order_count()` of them (the baseline among them).
fn orderings(sched: &Scheduler) -> Vec<Vec<&'static str>> {
    let count = sched
        .order_count()
        .expect("registry-sized DAG is countable") as usize;
    let orders = sched.sample_orders(SEED, count);
    assert_eq!(
        orders.len(),
        count,
        "the sampler must return every one of the {count} valid schedules"
    );
    assert!(orders.contains(&sched.baseline()));
    orders
}

/// Shrink a failing (query, ordering) to a minimal offending pass pair:
/// for every pair the ordering inverts relative to the baseline, re-test
/// with just that pair swapped adjacently. Returns the report.
fn shrink(
    n: usize,
    order: &[&'static str],
    sched: &Scheduler,
    schema: &dblab::catalog::Schema,
    db: &dblab::runtime::Snapshot,
    oracle: &str,
) -> String {
    let baseline = sched.baseline();
    let pos = |seq: &[&str], x: &str| seq.iter().position(|n| *n == x).unwrap();
    let prog = tpch::queries::query(n);
    for i in 0..baseline.len() {
        for j in i + 1..baseline.len() {
            let (a, b) = (baseline[i], baseline[j]);
            if pos(order, a) < pos(order, b) {
                continue; // not inverted in the failing ordering
            }
            // The pair is inverted; a valid ordering inverting *only* this
            // pair exists exactly when the DAG leaves it unordered.
            let Ok(swapped) = sched.adjacent_order(b, a) else {
                continue;
            };
            let cq = match compile_scheduled(sched, &prog, schema, &swapped, false) {
                Ok((cq, _)) => cq,
                Err(e) => {
                    return format!("Q{n}: pair `{b}` before `{a}` does not even compile: {e}")
                }
            };
            if !same_normalized(oracle, &dblab::interp::run(&cq.program, db)) {
                return format!(
                    "Q{n}: minimal offending pair — running `{b}` before `{a}` \
                     diverges from the oracle (full failing schedule: {order:?})"
                );
            }
        }
    }
    format!(
        "Q{n}: schedule {order:?} diverges from the oracle but no single \
         adjacent pair swap reproduces it (interaction of 3+ passes?)"
    )
}

#[test]
fn sampled_schedules_agree_with_the_oracle_on_all_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let schema = db.schema.clone();
    let cfg = StackConfig::level5();
    let sched = Scheduler::from_registry(&cfg).expect("level-5 DAG builds");
    let orders = orderings(&sched);
    assert_eq!(orders.len(), 8, "level-5 DAG: {orders:?}");
    assert_eq!(orders, orderings(&sched), "sampling is deterministic");
    for o in &orders {
        sched.validate_order(o).expect("schedule valid");
    }

    let mut failures = Vec::new();
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        // Distinct final programs already executed for this query:
        // identical IR implies identical interpreter output, so each
        // distinct program runs exactly once — an ordering producing
        // *novel* IR is always executed directly.
        let mut verified: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        for order in &orders {
            let cq = match compile_scheduled(&sched, &prog, &schema, order, false) {
                Ok((cq, _)) => cq,
                Err(e) => {
                    failures.push(format!("Q{n}: schedule {order:?} rejected: {e}"));
                    continue;
                }
            };
            // The stage trace must follow the requested schedule (stage 0
            // is the front-end lowering).
            let trace: Vec<&str> = cq.stages[1..].iter().map(|s| s.name.as_str()).collect();
            assert_eq!(&trace, order, "Q{n}: trace order");
            let hash = dblab::ir::hash::program_hash(&cq.program);
            let agree = *verified.entry(hash).or_insert_with(|| {
                same_normalized(&oracle, &dblab::interp::run(&cq.program, &snap))
            });
            if !agree {
                failures.push(shrink(n, order, &sched, &schema, &snap, &oracle));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The same walk on the TPC-H-compliant stack (the configuration the
/// benches publish numbers for) over the showdown queries — the DAG and
/// its declared edges must hold for partial stacks too.
#[test]
fn compliant_stack_schedules_agree_on_the_showdown_queries() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let schema = db.schema.clone();
    let cfg = StackConfig::compliant();
    let sched = Scheduler::from_registry(&cfg).expect("compliant DAG builds");
    let orders = orderings(&sched);
    for n in [1, 3, 6, 14] {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let mut verified: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        for order in &orders {
            let (cq, _) = compile_scheduled(&sched, &prog, &schema, order, false)
                .unwrap_or_else(|e| panic!("Q{n} @ {order:?}: {e}"));
            let hash = dblab::ir::hash::program_hash(&cq.program);
            let agree = *verified.entry(hash).or_insert_with(|| {
                same_normalized(&oracle, &dblab::interp::run(&cq.program, &snap))
            });
            assert!(
                agree,
                "Q{n} @ {} diverges under schedule {order:?}",
                cfg.name
            );
        }
    }
}

/// `threads > 1` adds `parallelize-scans` to the DAG with no change to
/// any call site — the scheduler picks it up from the registry, its
/// declared edges constrain every ordering, and each schedule
/// still agrees with the oracle (the interpreter executes `ParallelFor`
/// as one logical worker).
#[test]
fn threaded_schedules_pick_up_parallelize_scans_and_agree() {
    let (db, _) = setup();
    let snap = dblab::runtime::Snapshot::from(db.clone());
    let schema = db.schema.clone();
    let mut cfg = StackConfig::level5();
    cfg.threads = 4;
    let sched = Scheduler::from_registry(&cfg).expect("threaded DAG builds");
    assert!(
        sched.baseline().contains(&"parallelize-scans"),
        "threads = 4 must select the pass: {:?}",
        sched.baseline()
    );
    let orders = orderings(&sched);
    // Every ordering keeps the pass after all of its declared
    // prerequisites (validate_order enforces the DAG).
    for o in &orders {
        sched.validate_order(o).expect("schedule valid");
    }
    // Q1 (hash-table build), Q6 (scalar reductions), Q17 (multimap
    // chain concatenation): one query per privatization shape.
    for n in [1, 6, 17] {
        let prog = tpch::queries::query(n);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let mut verified: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        for order in &orders {
            let (cq, _) = compile_scheduled(&sched, &prog, &schema, order, false)
                .unwrap_or_else(|e| panic!("Q{n} @ {order:?}: {e}"));
            let hash = dblab::ir::hash::program_hash(&cq.program);
            let agree = *verified.entry(hash).or_insert_with(|| {
                same_normalized(&oracle, &dblab::interp::run(&cq.program, &snap))
            });
            assert!(agree, "Q{n} diverges under threaded schedule {order:?}");
        }
    }
}

/// `parallelize-scans`' declared edges are real dependencies, not
/// decoration: an ordering that runs it before one of its prerequisites
/// must be rejected by the driver, naming the violated edge.
#[test]
fn parallelize_scans_declared_edges_are_enforced() {
    let (db, _) = setup();
    let schema = db.schema.clone();
    let mut cfg = StackConfig::level5();
    cfg.threads = 4;
    let sched = Scheduler::from_registry(&cfg).expect("threaded DAG builds");
    // Move parallelize-scans before branch-optimization — both float at
    // C.Scala, so the swap is level-wise legal and only the declared
    // edge forbids it (swapped, the `&`-chains the privatization
    // analysis walks are still `&&` trees).
    let mut order = sched.baseline();
    let ips = order
        .iter()
        .position(|n| *n == "parallelize-scans")
        .unwrap();
    order.remove(ips);
    let ibo = order
        .iter()
        .position(|n| *n == "branch-optimization")
        .unwrap();
    order.insert(ibo, "parallelize-scans");
    let prog = tpch::queries::query(1);
    let err = compile_ordered(&prog, &schema, &cfg, &order).unwrap_err();
    assert!(
        err.contains("declared edge branch-optimization -> parallelize-scans"),
        "declared-edge violation must be named: {err}"
    );
    // And before field-removal (swapped, the privatization analysis
    // would key on record layouts field-removal is about to change).
    let mut order = sched.baseline();
    let ips = order
        .iter()
        .position(|n| *n == "parallelize-scans")
        .unwrap();
    order.remove(ips);
    let ifr = order.iter().position(|n| *n == "field-removal").unwrap();
    order.insert(ifr, "parallelize-scans");
    let err = compile_ordered(&prog, &schema, &cfg, &order).unwrap_err();
    assert!(
        err.contains("parallelize-scans"),
        "declared-edge violation must name the pass: {err}"
    );
    drop(db);
}

/// The shrinker itself is exercised against a known-bad schedule: orders
/// that violate the DAG must be rejected up front by the driver, so a
/// "failing ordering" can only ever be a valid-but-miscompiling one —
/// simulate one by checking the rejection path.
#[test]
fn dag_violating_schedules_are_rejected_not_executed() {
    let (db, _) = setup();
    let schema = db.schema.clone();
    let cfg = StackConfig::level5();
    let sched = Scheduler::from_registry(&cfg).expect("dag");
    // field-removal before string-dictionaries: level-wise legal (the
    // pass floats), but it violates the *declared* edge the calibration
    // sweep demanded — swapped, string-dictionaries indexes struct
    // layouts field-removal already pruned. The driver must refuse to
    // run it rather than crash or miscompile.
    let mut order = sched.baseline();
    let ifr = order.iter().position(|n| *n == "field-removal").unwrap();
    order.remove(ifr);
    let isd = order
        .iter()
        .position(|n| *n == "string-dictionaries")
        .unwrap();
    order.insert(isd, "field-removal");
    let prog = tpch::queries::query(1);
    let err = compile_ordered(&prog, &schema, &cfg, &order).unwrap_err();
    assert!(
        err.contains("declared edge string-dictionaries -> field-removal"),
        "declared-edge violation must be named: {err}"
    );
    drop(db);
}
