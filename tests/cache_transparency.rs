//! Cache-transparency suite: memoization must be semantically invisible.
//!
//! * cold-vs-warm compiles produce **byte-identical emitted source** and
//!   identical stage traces (modulo wall times and the `cached` flag),
//!   and emitting one program twice gives the same bytes for all 22
//!   queries;
//! * the per-pass cache keys on exactly the inputs a pass reads — a pass
//!   whose relevant configuration bit flips must **miss** (under-keying
//!   guard), while a pass that reads no configuration must **hit** across
//!   configurations that only differ in bits it ignores (over-keying
//!   guard);
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
use dblab::transform::{memo, StackConfig};

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

#[test]
fn warm_compile_emits_byte_identical_source_and_trace() {
    let schema = unique_schema("ctwarm");
    let prog = agg_query("ctwarm");
    let cfg = StackConfig::level5();
    let gcc = backend("gcc").expect("registered");

    let cold = dblab::transform::compile(&prog, &schema, &cfg);
    let before = memo::stats();
    let warm = dblab::transform::compile(&prog, &schema, &cfg);
    let delta = memo::stats().since(&before);

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
    // Every registry pass (all but the front-end stage) was served from
    // the cache, and the process-wide counters saw those hits.
    assert_eq!(warm.cache_hits(), warm.stages.len() - 1);
    assert!(!warm.stages[0].cached, "front-end lowering is not memoized");
    assert!(
        delta.hits >= (warm.stages.len() - 1) as u64,
        "expected >= {} new hits, got {delta:?}",
        warm.stages.len() - 1
    );
    // The report surfaces the hits (satellite contract: observable, not
    // silent).
    assert!(warm.stage_report().contains("[cached]"));
    assert!(warm.stage_report().contains("stage-cache hit"));
    assert!(!cold.stage_report().contains("[cached]"));
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
fn cfg_sensitive_pass_misses_and_insensitive_pass_hits_on_relevant_flip() {
    let schema = unique_schema("ctflip");
    let prog = agg_query("ctflip");
    // Two configurations differing ONLY in table_field_removal — the one
    // bit field-removal's rewrite reads.
    let with_removal = StackConfig::level4();
    assert!(with_removal.table_field_removal);
    let without_removal = StackConfig {
        table_field_removal: false,
        ..StackConfig::level4()
    };

    let first = dblab::transform::compile(&prog, &schema, &with_removal);
    let second = dblab::transform::compile(&prog, &schema, &without_removal);

    // Over-keying guard: a pass that reads no configuration must be
    // served from the first compile's entries despite the flag diff.
    let sd = second.stage("string-dictionaries").expect("stage");
    assert!(
        sd.cached,
        "string-dictionaries keys on no cfg bits and must hit across the flip"
    );
    // Under-keying guard: the pass that reads the flipped bit must miss.
    let fr = second.stage("field-removal").expect("stage");
    assert!(
        !fr.cached,
        "field-removal keys on table_field_removal and must miss when it flips"
    );
    // And the flip is not a no-op: base-table pruning changes the program.
    assert_ne!(
        dblab::ir::hash::program_hash(&first.program),
        dblab::ir::hash::program_hash(&second.program),
        "table_field_removal must change the lowered program"
    );

    // Idempotence: recompiling the second configuration is now all hits.
    let third = dblab::transform::compile(&prog, &schema, &without_removal);
    assert!(third.stage("field-removal").expect("stage").cached);
    assert_eq!(third.cache_hits(), third.stages.len() - 1);
}

#[test]
fn schema_statistics_are_part_of_the_key() {
    let schema = unique_schema("ctstats");
    let prog = agg_query("ctstats");
    let cfg = StackConfig::level5();
    let _ = dblab::transform::compile(&prog, &schema, &cfg);
    // Same program, same config, different cardinality statistics: pool
    // sizing and specialization decisions read them, so nothing may hit
    // once the pipeline's programs diverge — and the very first pass must
    // not blindly reuse the other schema's entry.
    let mut bigger = schema.clone();
    bigger.table_mut("ctstats").stats.row_count = 4096;
    bigger.table_mut("ctstats").stats.int_max = vec![4096; 3];
    let recompiled = dblab::transform::compile(&prog, &bigger, &cfg);
    assert_eq!(
        recompiled.cache_hits(),
        0,
        "a statistics change must invalidate every stage"
    );
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
