//! Concurrent-serving suite: a [`PreparedQuery`] handle is shared by N
//! executor threads while the background tier-up hot-swaps the native
//! executable underneath them. The contract under test:
//!
//! * **every** result — before, during and after the swap — matches the
//!   Volcano oracle (the swap is a performance event, never a semantic
//!   one);
//! * the swap is **observed**: the handle reports exactly one swap, the
//!   final tier is native, and the executor threads see the tier change
//!   (at least one pre-swap jit run and, once the swap lands, at least
//!   one native run);
//! * a degraded engine (no native tier) serves the same threads from the
//!   jit indefinitely, without errors.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dblab::codegen::{backend, same_normalized};
use dblab::engine::service::{EngineOptions, NativeChoice, QueryEngine, Tier};
use dblab::engine::{self};
use dblab::tpch;

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_serve_it_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

#[test]
fn threads_race_the_hot_swap_and_every_result_matches_the_oracle() {
    if !backend("gcc").expect("registered").available() {
        eprintln!("(skipping: gcc not present)");
        return;
    }
    let (db, data) = setup();
    let schema = db.schema.clone();
    let engine = QueryEngine::with_options(
        &schema,
        EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_serve_it_gen"),
            workers: 2,
            native: NativeChoice::Backend("gcc".into()),
            ..EngineOptions::default()
        },
    )
    .expect("engine");

    for q in [1usize, 6] {
        let prog = tpch::queries::query(q);
        let oracle = engine::execute_program(&prog, &db).to_text();
        let handle = engine
            .prepare_named(&prog, &format!("serve_it_q{q}"))
            .expect("prepare");
        // `prepare` built the jit: it serves first, by construction.
        assert_eq!(handle.tier(), Tier::Jit, "native can't land this fast");

        // Four executor threads hammer the handle until the swap has
        // landed AND they have each seen the native tier at least once;
        // the main thread just waits for the tier-up like a client would.
        // `gave_up` keeps the executors from spinning forever when the
        // tier-up never lands — the test must then *fail* on the
        // `swap_landed` assert below, not hang until the job timeout.
        let stop = AtomicBool::new(false);
        let gave_up = AtomicBool::new(false);
        let swapped = std::thread::scope(|s| {
            let mut executors = Vec::new();
            for _ in 0..4 {
                let handle = handle.clone();
                let (oracle, data, stop, gave_up) = (&oracle, &data, &stop, &gave_up);
                executors.push(s.spawn(move || {
                    let mut tiers = (0u32, 0u32); // (jit, native) runs
                    loop {
                        let run = handle.execute(data).expect("serve");
                        assert!(
                            same_normalized(oracle, &run.output.stdout),
                            "Q{q} diverged from the oracle on tier {} \
                             (swap #{}):\noracle:\n{oracle}\ngot:\n{}",
                            run.tier,
                            handle.stats().swaps,
                            run.output.stdout
                        );
                        match run.tier {
                            Tier::Jit => tiers.0 += 1,
                            Tier::Native => tiers.1 += 1,
                            Tier::Interp => panic!("the reference interpreter served traffic"),
                        }
                        // Keep executing until the swap landed and this
                        // thread has observed the native tier — unless
                        // the main thread gave up waiting.
                        if stop.load(Ordering::Acquire)
                            && (tiers.1 > 0 || gave_up.load(Ordering::Acquire))
                        {
                            return tiers;
                        }
                    }
                }));
            }
            let swapped = handle.wait_for_tier(Tier::Native, Duration::from_secs(300));
            if !swapped {
                gave_up.store(true, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
            let totals = executors
                .into_iter()
                .map(|t| t.join().expect("executor thread"))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            (swapped, totals)
        });
        let (swap_landed, (jit_runs, native_runs)) = swapped;
        assert!(
            swap_landed,
            "tier-up must land: {:?}",
            handle.stats().pinned
        );
        let stats = handle.stats();
        assert_eq!(
            stats.tier_stats(Tier::Native).swaps,
            1,
            "exactly one native swap"
        );
        assert_eq!(handle.tier(), Tier::Native);
        assert!(
            native_runs >= 4,
            "every thread observed the swapped-in native tier"
        );
        // gcc takes orders of magnitude longer than one jit run at this
        // scale, so the pre-swap window is reliably observed.
        assert!(
            jit_runs >= 1,
            "at least one execution was served by the jit before the swap"
        );
        let ladder_runs: u64 = Tier::LADDER
            .iter()
            .map(|&t| stats.tier_stats(t).lat.runs)
            .sum();
        assert_eq!(ladder_runs, u64::from(jit_runs + native_runs));
        assert!(stats.first_result_ms.is_some());
        assert!(stats.tier_up.as_ref().expect("tier-up report").elapsed_ms >= 0.0);
        assert_eq!(
            stats.tier_stats(Tier::Jit).swap_ms,
            Some(0.0),
            "landed in prepare"
        );
    }
}

#[test]
fn degraded_engine_serves_threads_from_the_jit_without_errors() {
    let (db, data) = setup();
    let schema = db.schema.clone();
    let engine = QueryEngine::with_options(
        &schema,
        EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_serve_it_gen_degraded"),
            native: NativeChoice::Disabled,
            ..EngineOptions::default()
        },
    )
    .expect("engine");
    assert!(engine.degraded_reason().is_some());

    let prog = tpch::queries::query(6);
    let oracle = engine::execute_program(&prog, &db).to_text();
    let handle = engine
        .prepare_named(&prog, "serve_it_degraded")
        .expect("prepare");
    assert!(
        !handle.wait_for_tier(Tier::Native, Duration::from_secs(5)),
        "pinned"
    );
    std::thread::scope(|s| {
        for _ in 0..4 {
            let handle = handle.clone();
            let (oracle, data) = (&oracle, &data);
            s.spawn(move || {
                for _ in 0..3 {
                    let run = handle.execute(data).expect("the jit serves");
                    assert_eq!(run.tier, Tier::Jit);
                    assert!(same_normalized(oracle, &run.output.stdout));
                }
            });
        }
    });
    assert_eq!(handle.stats().swaps, 0);
    assert!(handle.report().contains("tier jit permanently"));
}
