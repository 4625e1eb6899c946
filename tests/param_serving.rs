//! Serving-path lifecycle suite: parameterized prepared queries through
//! the engine and the wire, plus the plan-cache lifecycle fixes.
//!
//! * **Cache transparency**: one prepared template serves any number of
//!   literal bindings from exactly one tier-0 compile;
//! * **Wire paths**: spec-embedded bindings (`tpch:6?discount=0.03`)
//!   and explicit per-execute parameter sections both work, agree with
//!   the oracle, and share one server cache entry; bad bindings get a
//!   typed `malformed` error;
//! * **Prepare latch**: a slow cold prepare of spec A must not block a
//!   prepare of spec B (the old global-lock head-of-line bug), while a
//!   thundering herd on the *same* spec still collapses to one resolve;
//! * **Registry hygiene**: the engine's weak-ref registry actually
//!   shrinks as handles die, and the server's prepared cache evicts
//!   cold entries past `prepared_cap`;
//! * **Artifact naming**: two distinct programs prepared under the same
//!   name get distinct artifact stems (the old collision bug).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dblab::codegen::same_normalized;
use dblab::engine::service::{EngineOptions, ExecError, NativeChoice, QueryEngine, Tier};
use dblab::engine::{self};
use dblab::frontend::expr::col;
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::runtime::Value;
use dblab::tpch;
use dblab_server::{Client, ErrorCode, QueryResolver, Server, ServerOptions};

fn setup(tag: &str) -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dblab_pserve_data_{tag}"));
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

fn jit_engine_opts(tag: &str) -> EngineOptions {
    EngineOptions {
        gen_dir: std::env::temp_dir().join(format!("dblab_pserve_gen_{tag}")),
        native: NativeChoice::Disabled,
        ..EngineOptions::default()
    }
}

fn q6_oracle(db: &dblab::runtime::Database, discount: f64, quantity: f64) -> String {
    let template = tpch::queries::template(6).expect("template");
    let mut b: HashMap<Arc<str>, Value> = HashMap::new();
    b.insert("discount".into(), Value::Double(discount));
    b.insert("quantity".into(), Value::Double(quantity));
    engine::execute_program_bound(&template, db, &b).to_text()
}

/// One prepare, many bindings: every execution is oracle-correct, the
/// bindings demonstrably take effect (different rows), and the engine
/// reports exactly one tier-0 compile and one registry entry.
#[test]
fn one_prepare_serves_many_bindings_from_one_compile() {
    let (db, data) = setup("transparent");
    let engine =
        QueryEngine::with_options(&db.schema, jit_engine_opts("transparent")).expect("engine");
    let template = tpch::queries::template(6).expect("template");
    let handle = engine
        .prepare_named(&template, "pserve_q6")
        .expect("prepare");

    let cases = [(0.03f64, 30.0f64), (0.06, 24.0), (0.07, 50.0)];
    let mut row_sets = Vec::new();
    for &(disc, qty) in &cases {
        let full: Vec<Value> = template
            .params
            .iter()
            .map(|d| match &*d.name {
                "discount" => Value::Double(disc),
                "quantity" => Value::Double(qty),
                _ => engine::eval::lit_value(&d.default),
            })
            .collect();
        let run = handle.execute_bound(&data, &full, None).expect("execute");
        assert_eq!(run.tier, Tier::Jit);
        let oracle = q6_oracle(&db, disc, qty);
        assert!(
            same_normalized(&oracle, &run.output.stdout),
            "binding ({disc}, {qty}) diverged:\noracle:\n{oracle}\ngot:\n{}",
            run.output.stdout
        );
        row_sets.push(run.output.stdout);
    }
    assert_ne!(row_sets[0], row_sets[2], "bindings must change the result");

    let stats = engine.stats();
    assert_eq!(
        stats.tier0_compiles, 1,
        "three bindings must cost exactly one tier-0 compile"
    );
    assert_eq!(engine.registry_len(), 1, "one registry entry per prepare");

    // Plain execute (no overrides) runs the declared defaults.
    let run = handle.execute(&data).expect("default execute");
    assert!(same_normalized(
        &q6_oracle(&db, 0.06, 24.0),
        &run.output.stdout
    ));
    assert_eq!(engine.stats().tier0_compiles, 1);
}

/// The wire end to end: spec-embedded bindings, explicit per-execute
/// parameter sections, binding errors, and server-side cache sharing.
#[test]
fn wire_bindings_and_param_sections_serve_from_one_cache_entry() {
    let (db, data) = setup("wire");
    let server = Server::start(
        &db.schema,
        &data,
        dblab_server::tpch_resolver(),
        ServerOptions {
            engine: jit_engine_opts("wire"),
            ..ServerOptions::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(server.addr()).expect("connect");

    // Two spec-embedded bindings of the same template.
    let s1 = c
        .prepare("tpch:6?discount=0.03&quantity=30")
        .expect("prepare");
    let s2 = c
        .prepare("tpch:6?discount=0.07&quantity=50")
        .expect("prepare");
    let r1 = c.execute(s1).expect("execute s1");
    let r2 = c.execute(s2).expect("execute s2");
    assert!(same_normalized(&q6_oracle(&db, 0.03, 30.0), &r1.rows));
    assert!(same_normalized(&q6_oracle(&db, 0.07, 50.0), &r2.rows));

    // A bare template statement + explicit wire params per execute.
    let s3 = c.prepare("tpch:6?").expect("prepare bare template");
    let template = tpch::queries::template(6).expect("template");
    let mut ps: Vec<Value> = template
        .params
        .iter()
        .map(|d| engine::eval::lit_value(&d.default))
        .collect();
    let disc_at = template
        .params
        .iter()
        .position(|d| &*d.name == "discount")
        .unwrap();
    let qty_at = template
        .params
        .iter()
        .position(|d| &*d.name == "quantity")
        .unwrap();
    ps[disc_at] = Value::Double(0.03);
    ps[qty_at] = Value::Double(30.0);
    let r3 = c.execute_params(s3, &ps).expect("execute with params");
    assert!(
        same_normalized(&r1.rows, &r3.rows),
        "wire params and spec bindings must agree"
    );
    // Bare execute of the bare template = declared defaults.
    let r4 = c.execute(s3).expect("execute defaults");
    assert!(same_normalized(&q6_oracle(&db, 0.06, 24.0), &r4.rows));

    // Binding errors are typed, not silent defaults.
    for bad in ["tpch:6?nope=1", "tpch:6?discount=banana", "tpch:6?discount"] {
        let err = c.prepare(bad).expect_err("bad binding must fail");
        assert_eq!(err.code(), Some(ErrorCode::Malformed), "{bad}: {err}");
    }
    // An explicit *empty* param section is a valid spelling of "use the
    // declared defaults".
    let r5 = c.execute_params(s3, &[]).expect("empty param section");
    assert!(same_normalized(&r4.rows, &r5.rows));

    // All statements above share ONE engine compile: the template.
    assert_eq!(
        server.engine().stats().tier0_compiles,
        1,
        "every binding spelling must share the template's single compile"
    );
    let _ = c.close();
    server.shutdown();
}

/// Q6's positional bindings: the declared defaults with `name` bound to
/// `v`.
fn q6_binding(name: &str, v: Value) -> Vec<Value> {
    let template = tpch::queries::template(6).expect("template");
    (template.params.iter())
        .map(|d| match &*d.name == name {
            true => v.clone(),
            false => engine::eval::lit_value(&d.default),
        })
        .collect()
}

/// A NaN or infinite number binds no parameter — a double one or, through
/// the numeric coercion, an int one — and says which; the handle serves
/// the next binding.
#[test]
fn non_finite_bindings_are_refused_by_execute_bound() {
    let (db, data) = setup("nonfinite");
    let engine =
        QueryEngine::with_options(&db.schema, jit_engine_opts("nonfinite")).expect("engine");
    let handle = engine
        .prepare_named(&tpch::queries::template(6).expect("template"), "pserve_nan")
        .expect("prepare");
    for (name, v) in [
        ("discount", f64::NAN),
        ("quantity", f64::INFINITY),
        ("date_lo", f64::NEG_INFINITY),
    ] {
        match handle.execute_bound(&data, &q6_binding(name, Value::Double(v)), None) {
            Err(ExecError::Binding(msg)) => assert!(msg.contains(name), "{msg}"),
            other => panic!("{name} = {v}: {other:?}"),
        }
    }
    let run = (handle.execute_bound(&data, &q6_binding("discount", Value::Double(0.03)), None))
        .expect("a finite binding still serves");
    assert!(same_normalized(
        &q6_oracle(&db, 0.03, 24.0),
        &run.output.stdout
    ));
}

/// Both wire spellings of a non-finite binding — spec text the number
/// parser takes (`nan`, `inf`) and a param section carrying NaN bits —
/// answer a typed `malformed` frame, not `internal`, and the session
/// serves its next request.
#[test]
fn non_finite_bindings_over_the_wire_answer_malformed() {
    let (db, data) = setup("wire_nonfinite");
    let server = Server::start(
        &db.schema,
        &data,
        dblab_server::tpch_resolver(),
        ServerOptions {
            engine: jit_engine_opts("wire_nonfinite"),
            ..ServerOptions::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(server.addr()).expect("connect");
    let bare = c.prepare("tpch:6?").expect("prepare");
    for spec in ["tpch:6?discount=nan", "tpch:6?quantity=inf"] {
        let stmt = c.prepare(spec).expect("the number parses");
        let err = c.execute(stmt).expect_err("a non-finite binding must fail");
        assert_eq!(err.code(), Some(ErrorCode::Malformed), "{spec}: {err}");
    }
    let nan = q6_binding("discount", Value::Double(f64::NAN));
    let err = c
        .execute_params(bare, &nan)
        .expect_err("NaN bits must fail");
    assert_eq!(err.code(), Some(ErrorCode::Malformed), "{err}");
    assert!(err.to_string().contains("discount"), "{err}");
    let rows = c.execute(bare).expect("the session still serves").rows;
    assert!(same_normalized(&q6_oracle(&db, 0.06, 24.0), &rows));
    let _ = c.close();
    server.shutdown();
}

/// The resolver for the latch tests: spec `slow` takes `delay` to
/// resolve (standing in for an expensive frontend/compile), everything
/// else resolves instantly. Counts resolutions per spec.
fn latch_resolver(delay: Duration, slow_hits: Arc<AtomicUsize>) -> QueryResolver {
    Arc::new(move |spec| match spec {
        "slow" => {
            slow_hits.fetch_add(1, Ordering::AcqRel);
            std::thread::sleep(delay);
            Some(tpch::queries::query(6))
        }
        "fast" => Some(tpch::queries::query(1)),
        _ => None,
    })
}

/// The head-of-line fix: while spec A is cold-preparing (slow), a
/// prepare of spec B completes immediately — and a concurrent herd on
/// spec A still collapses to one resolution.
#[test]
fn cold_prepare_of_one_spec_does_not_block_another() {
    let (db, data) = setup("latch");
    let slow_hits = Arc::new(AtomicUsize::new(0));
    let delay = Duration::from_secs(3);
    let server = Server::start(
        &db.schema,
        &data,
        latch_resolver(delay, Arc::clone(&slow_hits)),
        ServerOptions {
            engine: jit_engine_opts("latch"),
            ..ServerOptions::default()
        },
    )
    .expect("start server");
    let addr = server.addr();

    let t0 = Instant::now();
    let (slow_elapsed_a, slow_elapsed_b, fast_elapsed) = std::thread::scope(|s| {
        let a = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect A");
            let t = Instant::now();
            c.prepare("slow").expect("prepare slow");
            t.elapsed()
        });
        let b = s.spawn(move || {
            // Join the herd shortly after A planted the latch.
            std::thread::sleep(Duration::from_millis(300));
            let mut c = Client::connect(addr).expect("connect B");
            let t = Instant::now();
            c.prepare("slow").expect("prepare slow (herd)");
            t.elapsed()
        });
        let f = s.spawn(move || {
            // While `slow` is mid-resolve, `fast` must sail through.
            std::thread::sleep(Duration::from_millis(300));
            let mut c = Client::connect(addr).expect("connect F");
            let t = Instant::now();
            c.prepare("fast").expect("prepare fast");
            t.elapsed()
        });
        (a.join().unwrap(), b.join().unwrap(), f.join().unwrap())
    });
    let total = t0.elapsed();

    assert!(
        fast_elapsed < delay / 2,
        "fast prepare was head-of-line blocked behind the slow one: \
         {fast_elapsed:?} (slow resolve takes {delay:?})"
    );
    assert_eq!(
        slow_hits.load(Ordering::Acquire),
        1,
        "the herd on `slow` must collapse to one resolution"
    );
    assert!(slow_elapsed_a >= delay / 2, "A paid the resolve");
    assert!(
        slow_elapsed_b < delay * 2,
        "B waited on A's latch, not a fresh resolve: {slow_elapsed_b:?}"
    );
    assert!(total < delay * 2, "nothing serialized twice: {total:?}");
    server.shutdown();
}

/// A tiny unique-name program: registry-churn compiles stay cheap.
fn tiny_program() -> QueryProgram {
    QueryProgram::new(QPlan::scan("nation").agg(
        vec![],
        vec![
            ("n", AggFunc::Count),
            ("s", AggFunc::Sum(col("n_nationkey"))),
        ],
    ))
}

/// The weak-ref registry leak fix: preparing and dropping many handles
/// must not grow the registry without bound, and `stats()` prunes it to
/// exactly the live population.
#[test]
fn dead_handles_are_pruned_from_the_registry() {
    let (db, data) = setup("registry");
    let engine =
        QueryEngine::with_options(&db.schema, jit_engine_opts("registry")).expect("engine");
    let prog = tiny_program();

    let mut max_seen = 0;
    for i in 0..40 {
        let handle = engine
            .prepare_named(&prog, &format!("pserve_churn_{i}"))
            .expect("prepare");
        let _ = handle.execute(&data).expect("execute");
        max_seen = max_seen.max(engine.registry_len());
        drop(handle);
    }
    assert!(
        max_seen < 40,
        "registry grew unboundedly under churn (peak {max_seen} entries for 40 dead prepares)"
    );

    // Two live handles; a stats() snapshot prunes the dead weaks away.
    let h1 = engine
        .prepare_named(&prog, "pserve_live_1")
        .expect("prepare");
    let h2 = engine
        .prepare_named(&prog, "pserve_live_2")
        .expect("prepare");
    let stats = engine.stats();
    assert_eq!(
        engine.registry_len(),
        2,
        "stats() must prune the registry to the live population"
    );
    assert_eq!(stats.queries.len(), 2);
    drop((h1, h2));
}

/// The server-wide LRU: past `prepared_cap`, the coldest ready spec is
/// evicted — and an evicted spec re-prepares transparently.
#[test]
fn server_prepared_cache_evicts_past_the_cap() {
    let (db, data) = setup("lru");
    let server = Server::start(
        &db.schema,
        &data,
        dblab_server::tpch_resolver(),
        ServerOptions {
            engine: jit_engine_opts("lru"),
            prepared_cap: 2,
            ..ServerOptions::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(server.addr()).expect("connect");
    for q in [1usize, 6, 14, 3] {
        let stmt = c.prepare(&format!("tpch:{q}")).expect("prepare");
        let _ = c.execute(stmt).expect("execute");
    }
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("\"prepared_cached\": 2"),
        "cache must hold exactly `prepared_cap` ready entries: {stats}"
    );
    assert!(
        stats.contains("\"prepared_evicted\": 2"),
        "two of four specs must have been evicted: {stats}"
    );
    // The evicted spec still serves — one fresh compile, same rows.
    let stmt = c.prepare("tpch:1").expect("re-prepare evicted spec");
    let reply = c.execute(stmt).expect("execute");
    let oracle = engine::execute_program(&tpch::queries::query(1), &db).to_text();
    assert!(same_normalized(&oracle, &reply.rows));
    let _ = c.close();
    server.shutdown();
}

/// The artifact-collision fix: two *distinct* programs prepared under
/// the *same* name get distinct artifact stems (and both serve their own
/// correct rows).
#[test]
fn same_name_distinct_programs_get_distinct_artifacts() {
    let (db, data) = setup("stems");
    let engine = QueryEngine::with_options(&db.schema, jit_engine_opts("stems")).expect("engine");
    let h1 = engine
        .prepare_named(&tpch::queries::query(6), "collide")
        .expect("prepare q6");
    let h2 = engine
        .prepare_named(&tpch::queries::query(1), "collide")
        .expect("prepare q1");
    assert_ne!(
        h1.artifact_stem(),
        h2.artifact_stem(),
        "same explicit name + different program must not share an artifact stem"
    );
    let o6 = engine::execute_program(&tpch::queries::query(6), &db).to_text();
    let o1 = engine::execute_program(&tpch::queries::query(1), &db).to_text();
    assert!(same_normalized(
        &o6,
        &h1.execute(&data).expect("q6").output.stdout
    ));
    assert!(same_normalized(
        &o1,
        &h2.execute(&data).expect("q1").output.stdout
    ));
}
