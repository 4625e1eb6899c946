//! Cache-transparency suite: caching must be semantically invisible.
//!
//! * cold-vs-warm compiles produce **byte-identical emitted source** and
//!   identical stage traces (modulo wall times and the `cached` flag),
//!   and emitting one program twice gives the same bytes for all 22
//!   queries;
//! * the per-query compile cache keys on exactly what the passes read —
//!   two configurations that lower to equal programs **share** an entry
//!   (over-keying guard), while any configuration, schedule or schema
//!   change **misses** (under-keying guard);
//! * a compile that keeps its per-stage programs bypasses the cache;
//! * the source-level build cache reuses artifacts for byte-identical
//!   source and reports the reuse on the compiled artifact.
//!
//! Every test builds its programs against a schema with test-unique
//! table names/statistics so its cache keys cannot collide with other
//! tests sharing the process-wide caches.

use dblab::catalog::{ColType, Schema, TableDef};
use dblab::codegen::{backend, build_cache, Compiler};
use dblab::frontend::expr::{col, lit_i};
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::transform::memo::{CacheStats, StatsScope};
use dblab::transform::stack::{compile_ordered, compile_with_snapshots};
use dblab::transform::{Scheduler, StackConfig};

/// A schema unique to one test: the table name seeds every LoadTable
/// node, so program hashes never collide across tests.
fn unique_schema(table: &str) -> Schema {
    let mut schema = Schema::new(vec![TableDef::new(
        table,
        vec![
            ("k", ColType::Int),
            ("v", ColType::Int),
            ("w", ColType::Double),
        ],
    )
    .with_primary_key(&["k"])]);
    let def = schema.table_mut(table);
    def.stats.row_count = 64;
    def.stats.int_max = vec![64; 3];
    def.stats.distinct = vec![16; 3];
    schema
}

fn agg_query(table: &str) -> QueryProgram {
    QueryProgram::new(QPlan::scan(table).select(col("v").gt(lit_i(3))).agg(
        vec![],
        vec![("n", AggFunc::Count), ("s", AggFunc::Sum(col("v")))],
    ))
}

/// Run `f` and return this thread's compile-cache traffic during it
/// (scoped, so tests compiling on other threads do not leak in).
fn traffic<T>(f: impl FnOnce() -> T) -> (T, CacheStats) {
    let scope = StatsScope::new();
    let out = {
        let _in_scope = scope.enter();
        f()
    };
    (out, scope.stats())
}

const ONE_HIT: CacheStats = CacheStats { hits: 1, misses: 0 };
const ONE_MISS: CacheStats = CacheStats { hits: 0, misses: 1 };
const NO_LOOKUP: CacheStats = CacheStats { hits: 0, misses: 0 };

#[test]
fn warm_compile_emits_byte_identical_source_and_trace() {
    let schema = unique_schema("ctwarm");
    let prog = agg_query("ctwarm");
    let cfg = StackConfig::level5();
    let gcc = backend("gcc").expect("registered");

    let (cold, cold_traffic) = traffic(|| dblab::transform::compile(&prog, &schema, &cfg));
    let (warm, warm_traffic) = traffic(|| dblab::transform::compile(&prog, &schema, &cfg));

    // Byte-identical emitted source (emit is pure — no toolchain needed).
    assert_eq!(
        gcc.emit(&cold.program, &schema),
        gcc.emit(&warm.program, &schema),
        "cold and warm compiles must emit byte-identical source"
    );
    // Identical traces modulo timings and hit flags.
    assert_eq!(cold.stages.len(), warm.stages.len());
    for (c, w) in cold.stages.iter().zip(&warm.stages) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.kind, w.kind);
        assert_eq!(c.level_before, w.level_before);
        assert_eq!(c.level, w.level);
        assert_eq!(c.size_before, w.size_before);
        assert_eq!(c.size, w.size);
    }
    // The cold compile filled the cache with one miss; the warm one is
    // exactly one hit.
    assert_eq!(cold_traffic, ONE_MISS);
    assert!(!cold.cached);
    assert_eq!(warm_traffic, ONE_HIT);
    assert!(warm.cached);
    // The report surfaces the hit once, on its total line.
    assert_eq!(warm.stage_report().matches("(cache hit)").count(), 1);
    assert!(!cold.stage_report().contains("cache hit"));
}

/// Emission is a pure function of the IR. The build cache and its disk
/// index key on the emitted source's hash, so a query whose C changes
/// from one emit to the next never hits across processes (Q16/Q17/Q19
/// did, while the emitter walked a hash map of dictionary columns).
#[test]
fn all_level5_queries_emit_byte_identical_c_twice() {
    let db = dblab::tpch::generate(0.002, &std::env::temp_dir().join("dblab_ct_emit"));
    let gcc = backend("gcc").expect("registered");
    for q in 1..=22 {
        let prog = dblab::tpch::queries::query(q);
        let cq = dblab::transform::compile(&prog, &db.schema, &StackConfig::level5());
        assert!(
            gcc.emit(&cq.program, &db.schema) == gcc.emit(&cq.program, &db.schema),
            "Q{q}: two emits of one program differ"
        );
    }
}

#[test]
fn equal_lowerings_share_an_entry_and_program_changing_inputs_miss() {
    use dblab::ir::hash::program_hash;
    let schema = unique_schema("ctflip");
    let prog = agg_query("ctflip");
    let level4 = StackConfig::level4();
    let (first, t) = traffic(|| dblab::transform::compile(&prog, &schema, &level4));
    assert_eq!(t, ONE_MISS);

    // Over-keying guard: `legobase()` differs from `level4()` only in its
    // name, so it is served from level 4's entry, under its own name.
    let (lb, t) = traffic(|| dblab::transform::compile(&prog, &schema, &StackConfig::legobase()));
    assert_eq!(t, ONE_HIT, "legobase() after level4() must hit");
    assert!(lb.cached);
    assert_eq!(lb.config.name, StackConfig::legobase().name);
    assert_eq!(program_hash(&lb.program), program_hash(&first.program));

    // Under-keying guard: flipping a bit that changes the program misses.
    let without_removal = StackConfig {
        table_field_removal: false,
        ..StackConfig::level4()
    };
    let (second, t) = traffic(|| dblab::transform::compile(&prog, &schema, &without_removal));
    assert_eq!(t, ONE_MISS, "a table_field_removal flip must miss");
    assert_ne!(
        program_hash(&first.program),
        program_hash(&second.program),
        "table_field_removal must change the lowered program"
    );

    // The pass order is keyed too: a permuted schedule misses, and (every
    // valid order commutes) still lowers to the baseline's program.
    let level5 = StackConfig::level5();
    let baseline = dblab::transform::compile(&prog, &schema, &level5);
    let sched = Scheduler::from_registry(&level5).expect("dag");
    let order = sched
        .orders()
        .into_iter()
        .find(|o| *o != sched.baseline())
        .expect("level-5 DAG admits non-baseline orders");
    let (permuted, t) =
        traffic(|| compile_ordered(&prog, &schema, &level5, &order).expect("valid"));
    assert_eq!(t, ONE_MISS, "a non-baseline order must miss");
    assert_eq!(
        program_hash(&permuted.program),
        program_hash(&baseline.program)
    );
}

#[test]
fn snapshot_compiles_bypass_the_compile_cache() {
    let schema = unique_schema("ctsnap");
    let prog = agg_query("ctsnap");
    let cfg = StackConfig::level5();
    let (_, t) = traffic(|| compile_with_snapshots(&prog, &schema, &cfg, true));
    assert_eq!(t, NO_LOOKUP, "keep_programs must not look up");
    // Nor did it fill the cache: the first plain compile misses.
    let (cq, t) = traffic(|| dblab::transform::compile(&prog, &schema, &cfg));
    assert_eq!(t, ONE_MISS);
    assert!(!cq.cached);
    let ((cq, stages), t) = traffic(|| compile_with_snapshots(&prog, &schema, &cfg, true));
    assert_eq!(t, NO_LOOKUP, "a filled entry is not read either");
    assert!(!cq.cached);
    assert_eq!(stages.len(), cq.stages.len());
}

#[test]
fn schema_statistics_are_part_of_the_key() {
    let schema = unique_schema("ctstats");
    let prog = agg_query("ctstats");
    let cfg = StackConfig::level5();
    let _ = dblab::transform::compile(&prog, &schema, &cfg);
    // Same program, same config, different cardinality statistics: pool
    // sizing and specialization decisions read them, so the compile must
    // not reuse the other schema's entry.
    let mut bigger = schema.clone();
    bigger.table_mut("ctstats").stats.row_count = 4096;
    bigger.table_mut("ctstats").stats.int_max = vec![4096; 3];
    let (recompiled, t) = traffic(|| dblab::transform::compile(&prog, &bigger, &cfg));
    assert_eq!(t, ONE_MISS, "a statistics change must miss");
    assert!(!recompiled.cached);
}

#[test]
fn build_cache_reuses_artifacts_for_identical_source() {
    let gcc = backend("gcc").expect("registered");
    if !gcc.available() {
        eprintln!("(skipping: gcc not present)");
        return;
    }
    let schema = unique_schema("ctbuild");
    let prog = agg_query("ctbuild");
    let out = std::env::temp_dir().join("dblab_ct_gen");
    let compiler = Compiler::new(&schema)
        .config(&StackConfig::level5())
        .out_dir(&out);

    let before = build_cache::stats();
    let cold = compiler.compile_named(&prog, "ct_build_a").expect("gcc");
    assert!(!cold.build_cached, "first build of unique source is cold");
    assert!(cold.exe.build_time() > std::time::Duration::ZERO);

    // Different artifact name, identical source — the toolchain must not
    // run again.
    let warm = compiler.compile_named(&prog, "ct_build_b").expect("gcc");
    assert!(
        warm.build_cached,
        "identical source must reuse the artifact"
    );
    assert_eq!(warm.exe.build_time(), std::time::Duration::ZERO);
    assert_eq!(cold.source, warm.source, "emit stays pure");
    assert_eq!(
        warm.exe.artifact().expect("cached path"),
        cold.exe.artifact().expect("built path"),
        "the hit hands back the originally built binary"
    );
    let delta = build_cache::stats().since(&before);
    assert!(delta.hits >= 1, "counter must record the reuse: {delta:?}");
    assert!(delta.misses >= 1);

    // Transparency of the reuse: both executables produce the same rows.
    let mut t = dblab::runtime::Table::empty(schema.table("ctbuild"));
    for i in 0..10 {
        t.push_row(vec![
            dblab::runtime::Value::Int(i),
            dblab::runtime::Value::Int(i % 7),
            dblab::runtime::Value::Double(i as f64),
        ]);
    }
    let dir = std::env::temp_dir().join("dblab_ct_data");
    let db = dblab::runtime::Database {
        schema: schema.clone(),
        tables: vec![t],
        dir: dir.clone(),
    };
    db.write_all().expect("write .tbl");
    let a = cold.run(&dir).expect("cold run");
    let b = warm.run(&dir).expect("warm run");
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn stale_cached_artifact_falls_back_to_a_rebuild() {
    let gcc = backend("gcc").expect("registered");
    if !gcc.available() {
        eprintln!("(skipping: gcc not present)");
        return;
    }
    let schema = unique_schema("ctstale");
    let prog = agg_query("ctstale");
    let out = std::env::temp_dir().join("dblab_ct_stale_gen");
    let compiler = Compiler::new(&schema)
        .config(&StackConfig::level5())
        .out_dir(&out);
    let cold = compiler.compile_named(&prog, "ct_stale").expect("gcc");
    assert!(!cold.build_cached);
    // Simulate an outside temp-dir cleanup: the cache entry survives but
    // the binary is gone. The next compile must neither hang (the
    // stale-entry path re-locks the cache) nor fail — it rebuilds.
    std::fs::remove_file(cold.exe.artifact().expect("binary")).expect("delete artifact");
    let rebuilt = compiler.compile_named(&prog, "ct_stale").expect("rebuild");
    assert!(!rebuilt.build_cached, "stale entry must not count as a hit");
    assert!(rebuilt.exe.artifact().expect("rebuilt binary").exists());
    // And the rebuilt artifact is cached again.
    let warm = compiler.compile_named(&prog, "ct_stale2").expect("gcc");
    assert!(warm.build_cached);
}

#[test]
fn interp_backend_stays_outside_the_build_cache() {
    let interp = backend("interp").expect("registered");
    assert!(!interp.cacheable());
    let schema = unique_schema("ctinterp");
    let prog = agg_query("ctinterp");
    let compiler = Compiler::new(&schema)
        .config(&StackConfig::level2())
        .backend(backend("interp").expect("registered"));
    let a = compiler.compile_named(&prog, "ct_i1").expect("interp");
    let b = compiler.compile_named(&prog, "ct_i2").expect("interp");
    assert!(!a.build_cached && !b.build_cached);
}
