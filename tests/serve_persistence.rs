//! Cache-persistence suite: the source-level build cache must survive a
//! process restart through its on-disk index.
//!
//! A real restart cannot run inside one test process, so these tests
//! simulate its observable half: warm the cache (building real artifacts
//! and appending their index entries), then **drop every piece of
//! in-process state** (`build_cache::clear`, detach) exactly as an exit
//! would, re-attach the index like a fresh process, and assert the next
//! compile is `build_cached` with **zero build time** and a
//! **byte-identical artifact**.
//!
//! The persistence switch and the artifact table are process-global, so
//! the tests in this file serialize on one mutex.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use dblab::catalog::{ColType, Schema, TableDef};
use dblab::codegen::{backend, build_cache, Compiler};
use dblab::engine::service::{EngineOptions, NativeChoice, QueryEngine, Tier};
use dblab::frontend::expr::{col, lit_i};
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::transform::StackConfig;

/// Serializes the tests: persistence attach/detach and `clear()` act on
/// process-wide state.
static PERSIST_LOCK: Mutex<()> = Mutex::new(());

fn unique_schema(table: &str) -> Schema {
    let mut schema = Schema::new(vec![TableDef::new(
        table,
        vec![("k", ColType::Int), ("v", ColType::Int)],
    )
    .with_primary_key(&["k"])]);
    let def = schema.table_mut(table);
    def.stats.row_count = 32;
    def.stats.int_max = vec![32; 2];
    def.stats.distinct = vec![8; 2];
    schema
}

fn agg_query(table: &str) -> QueryProgram {
    QueryProgram::new(QPlan::scan(table).select(col("v").gt(lit_i(1))).agg(
        vec![],
        vec![("n", AggFunc::Count), ("s", AggFunc::Sum(col("v")))],
    ))
}

/// A fresh gen dir for one test (stale indexes from earlier runs of the
/// same test binary would taint the cold-build assertions).
fn fresh_gen_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dblab_persist_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create gen dir");
    dir
}

#[test]
fn disk_index_revives_artifacts_across_a_simulated_restart() {
    if !backend("gcc").expect("registered").available() {
        eprintln!("(skipping: gcc not present)");
        return;
    }
    let _guard = PERSIST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_gen_dir("facade");
    let schema = unique_schema("pfacade");
    let prog = agg_query("pfacade");
    let compiler = Compiler::new(&schema)
        .config(&StackConfig::level5())
        .out_dir(&dir);

    // Warm phase: attach the (empty) index, build cold, keep the bytes.
    assert_eq!(build_cache::enable_persistence(&dir).expect("attach"), 0);
    let cold = compiler.compile_named(&prog, "persist_a").expect("gcc");
    assert!(!cold.build_cached, "first build is cold");
    assert!(cold.exe.build_time() > Duration::ZERO);
    let cold_path = cold.exe.artifact().expect("binary").to_path_buf();
    let cold_bytes = std::fs::read(&cold_path).expect("artifact bytes");
    assert!(
        std::fs::read_to_string(dir.join(build_cache::INDEX_FILE))
            .expect("index written")
            .lines()
            .any(|l| l.starts_with("v2\tgcc\t")),
        "the build appended its index entry"
    );

    // "Restart": drop all in-process cache state.
    build_cache::clear();
    build_cache::disable_persistence();

    // A compile with nothing reloaded is cold again (same source, new
    // artifact name — the in-memory table is gone and the index is
    // detached, so the toolchain must run).
    let re_cold = compiler.compile_named(&prog, "persist_b").expect("gcc");
    assert!(!re_cold.build_cached, "without the index the build is cold");

    // Fresh attach, like a new process: entries are restored and the next
    // compile is served from disk — zero build time, byte-identical
    // artifact (it IS the file the first process built).
    build_cache::clear();
    let loaded = build_cache::enable_persistence(&dir).expect("re-attach");
    assert!(loaded >= 1, "index restored {loaded} artifacts");
    let disk_before = build_cache::disk_stats();
    let warm = compiler.compile_named(&prog, "persist_c").expect("gcc");
    assert!(warm.build_cached, "restored entry serves the build");
    assert_eq!(warm.exe.build_time(), Duration::ZERO);
    let warm_path = warm.exe.artifact().expect("binary");
    let warm_bytes = std::fs::read(warm_path).expect("artifact bytes");
    assert_eq!(
        cold_bytes, warm_bytes,
        "the revived artifact is byte-identical to the original build"
    );
    assert_eq!(
        build_cache::disk_stats().since(&disk_before).hits,
        1,
        "the hit is attributed to the disk index"
    );
    build_cache::disable_persistence();
}

#[test]
fn query_engine_warm_start_skips_the_toolchain() {
    if !backend("gcc").expect("registered").available() {
        eprintln!("(skipping: gcc not present)");
        return;
    }
    let _guard = PERSIST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_gen_dir("engine");
    let schema = unique_schema("pengine");
    let prog = agg_query("pengine");
    let opts = || EngineOptions {
        gen_dir: dir.clone(),
        workers: 1,
        native: NativeChoice::Backend("gcc".into()),
        persist_cache: true,
        ..EngineOptions::default()
    };

    // First engine: cold tier-up, artifact recorded on disk.
    let cold_bytes;
    {
        let engine = QueryEngine::with_options(&schema, opts()).expect("engine");
        let q = engine
            .prepare_named(&prog, "persist_serve")
            .expect("prepare");
        assert!(
            q.wait_for_tier(Tier::Native, Duration::from_secs(300)),
            "tier-up lands"
        );
        let up = q.stats().tier_up.expect("report");
        assert!(!up.build_cached, "first tier-up pays the toolchain");
        assert!(up.build_ms > 0.0);
        let index = std::fs::read_to_string(dir.join(build_cache::INDEX_FILE))
            .expect("index written by the tier-up");
        let artifact = dir.join(
            index
                .lines()
                .find_map(|l| l.split('\t').nth(4))
                .expect("artifact path recorded"),
        );
        cold_bytes = std::fs::read(&artifact).expect("artifact bytes");
    } // engine drops: workers join

    // Simulated restart: the caches a process exit would lose.
    build_cache::clear();
    build_cache::disable_persistence();
    dblab::transform::memo::clear();

    // Second engine over the same gen dir: the tier-up must be served
    // from the disk index — build cached, zero toolchain time.
    let engine = QueryEngine::with_options(&schema, opts()).expect("warm engine");
    let disk_before = build_cache::disk_stats();
    let q = engine
        .prepare_named(&prog, "persist_serve")
        .expect("prepare");
    assert!(
        q.wait_for_tier(Tier::Native, Duration::from_secs(300)),
        "warm tier-up"
    );
    let up = q.stats().tier_up.expect("report");
    assert!(up.build_cached, "warm start skips gcc entirely");
    assert_eq!(up.build_ms, 0.0);
    let index = std::fs::read_to_string(dir.join(build_cache::INDEX_FILE)).expect("index");
    let artifact = dir.join(
        index
            .lines()
            .find_map(|l| l.split('\t').nth(4))
            .expect("artifact path recorded"),
    );
    assert_eq!(
        cold_bytes,
        std::fs::read(&artifact).expect("artifact bytes"),
        "the served artifact is byte-identical across the restart"
    );
    assert!(
        build_cache::disk_stats().since(&disk_before).hits >= 1,
        "the tier-up hit the disk index"
    );
    build_cache::disable_persistence();
}
