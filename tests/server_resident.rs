//! Resident data under a live server.
//!
//! The in-process tiers parse a data directory once and re-validate it by
//! file fingerprint on every `EXECUTE`; these tests hold the server to
//! the two halves of that bargain through its own `STATS` reply:
//!
//! * *fresh*: a table rewritten under a live server is what the very next
//!   `EXECUTE` reads on the jit, at the price of re-parsing exactly that
//!   one table;
//! * *resident*: nothing else is ever parsed twice — concurrent first
//!   touches load once, steady state is all hits, and the native tier,
//!   which reads no snapshot, never causes one to be loaded.
//!
//! And one fault from below: a key column no index can be built over is
//! a typed `internal` answer naming the place, not a lost worker.
//!
//! Every test owns its data directory, so the per-directory counters the
//! engine reports are exact however the harness interleaves tests.

mod common;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dblab::codegen::same_normalized;
use dblab::engine::service::{EngineOptions, NativeChoice, QueryEngine, Tier};
use dblab::engine::{self};
use dblab::frontend::expr::col;
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::runtime::{ColData, Database};
use dblab::tpch;
use dblab_server::protocol::{TIER_JIT, TIER_NATIVE};
use dblab_server::{tpch_resolver, Client, ErrorCode, QueryResolver, Server, ServerOptions};

fn setup(tag: &str) -> (Database, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dblab_server_resident_{tag}"));
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// `nations`: one row per nation name — a string attribute, so the jit's
/// level-5 program reads it through the table's dictionary.
fn nations() -> QueryProgram {
    QueryProgram::new(
        QPlan::scan("nation").agg(vec![("n_name", col("n_name"))], vec![("n", AggFunc::Count)]),
    )
}

fn start(db: &Database, data: &Path, tag: &str, native: NativeChoice, workers: usize) -> Server {
    let tpch = tpch_resolver();
    let resolver: QueryResolver = Arc::new(move |spec| match spec {
        "nations" => Some(nations()),
        other => tpch(other),
    });
    let opts = ServerOptions {
        workers,
        engine: EngineOptions {
            gen_dir: std::env::temp_dir().join(format!("dblab_server_resident_gen_{tag}")),
            native,
            workers: 1,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    };
    Server::start(&db.schema, data, resolver, opts).expect("start server")
}

/// The engine's `snapshot_*` counters as the `STATS` reply carries them:
/// `(loads, hits, tables_reloaded)`.
fn snapshot_counters(c: &mut Client) -> (u64, u64, u64) {
    let stats = c.stats().expect("stats frame");
    let counter = |key: &str| -> u64 {
        let at = stats
            .find(&format!("\"{key}\": "))
            .unwrap_or_else(|| panic!("STATS carries no {key}: {stats}"));
        let digits = stats[at + key.len() + 4..]
            .split(|ch: char| !ch.is_ascii_digit())
            .next();
        digits.and_then(|d| d.parse().ok()).expect("a count")
    };
    for key in ["snapshot_load_ms_total", "snapshot_resident_bytes"] {
        assert!(stats.contains(key), "STATS carries no {key}: {stats}");
    }
    (
        counter("snapshot_loads"),
        counter("snapshot_hits"),
        counter("snapshot_tables_reloaded"),
    )
}

/// Rewrite `nation.tbl` with one row changed under a live server: the
/// next `EXECUTE` answers from the new file on the jit, exactly one table
/// was parsed again, and the request after that is a plain hit.
#[test]
fn a_rewritten_table_is_served_fresh_on_the_jit_tier() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (mut db, data) = setup("stale");
    let server = start(&db, &data, "stale", NativeChoice::Disabled, 2);
    let mut c =
        Client::connect_timeout(server.addr(), Some(Duration::from_secs(60))).expect("connect");
    let stmt = c.prepare("nations").expect("prepare");
    let before = engine::execute_program(&nations(), &db).to_text();
    let reply = c.execute(stmt).expect("execute");
    assert_eq!(reply.tier, TIER_JIT, "the jit serves from `PREPARE` on");
    assert!(
        same_normalized(&before, &reply.rows),
        "rows diverge before the rewrite"
    );
    let (loads, hits, reloaded) = snapshot_counters(&mut c);
    assert_eq!(loads, 1, "one directory, loaded once for the whole process");

    let nation = db
        .tables
        .iter_mut()
        .find(|t| &*t.def.name == "nation")
        .expect("nation");
    let name_col = nation.def.col_index("n_name");
    let ColData::Str(names) = &mut nation.cols[name_col] else {
        panic!("n_name is a string column")
    };
    names[7] = "LEMURIA".into();
    nation
        .write_tbl(&data.join("nation.tbl"))
        .expect("rewrite nation.tbl");
    let after = engine::execute_program(&nations(), &db).to_text();
    assert!(after.contains("LEMURIA") && !before.contains("LEMURIA"));

    let rows = c.execute(stmt).expect("execute after the rewrite").rows;
    assert!(same_normalized(&after, &rows), "stale rows:\n{rows}");
    assert_eq!(
        snapshot_counters(&mut c),
        (loads, hits, reloaded + 1),
        "exactly the rewritten table is parsed again"
    );
    let rows = c.execute(stmt).expect("steady state").rows;
    assert!(same_normalized(&after, &rows));
    assert_eq!(snapshot_counters(&mut c), (loads, hits + 1, reloaded + 1));
    c.close().expect("close");
    server.shutdown();
}

/// Eight sessions whose first `EXECUTE`s race on a directory nobody has
/// read yet: one load, seven hits, and from then on only hits.
#[test]
fn eight_clients_first_touching_a_directory_load_it_once() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup("flight");
    let server = start(&db, &data, "flight", NativeChoice::Disabled, 8);
    let expect = engine::execute_program(&tpch::queries::query(6), &db).to_text();
    let barrier = Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let mut c = Client::connect_timeout(server.addr(), Some(Duration::from_secs(60)))
                    .expect("connect");
                let stmt = c.prepare("tpch:6").expect("prepare");
                barrier.wait();
                let reply = c.execute(stmt).expect("execute");
                assert!(same_normalized(&expect, &reply.rows), "rows diverge");
                c.close().expect("close");
            });
        }
    });
    let mut c = Client::connect(server.addr()).expect("connect");
    assert_eq!(snapshot_counters(&mut c), (1, 7, 0));
    let stmt = c.prepare("tpch:6").expect("prepare");
    for _ in 0..3 {
        c.execute(stmt).expect("execute");
    }
    assert_eq!(
        snapshot_counters(&mut c),
        (1, 10, 0),
        "steady state is all hits"
    );
    c.close().expect("close");
    let stats = server.engine().stats();
    assert!(stats.snapshot_resident_bytes > 0 && stats.snapshot_load_ms_total > 0.0);
    server.shutdown();
}

/// Loading is lazy and belongs to the in-process tiers: a statement that
/// only ever executes natively leaves the store empty-handed.
#[test]
fn the_native_tier_never_loads_a_snapshot() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup("native");
    let server = start(&db, &data, "native", NativeChoice::Auto, 2);
    if server.engine().native_backend().is_none() {
        eprintln!("no native toolchain: nothing to check");
        server.shutdown();
        return;
    }
    let mut c =
        Client::connect_timeout(server.addr(), Some(Duration::from_secs(60))).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    let give_up = Instant::now() + Duration::from_secs(100);
    while server.engine().stats().queries[0].1.tier != Tier::Native {
        assert!(Instant::now() < give_up, "the native tier never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let expect = engine::execute_program(&tpch::queries::query(6), &db).to_text();
    let reply = c.execute(stmt).expect("execute");
    assert_eq!(reply.tier, TIER_NATIVE);
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    assert_eq!(snapshot_counters(&mut c), (0, 0, 0));
    assert_eq!(server.engine().stats().snapshot_resident_bytes, 0);
    c.close().expect("close");
    server.shutdown();
}

/// The store keys on the canonical directory, whatever spelling a caller
/// passes: one directory executed against under two spellings is loaded
/// once and counted once.
#[test]
fn two_spellings_of_one_directory_count_once() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup("spellings");
    let detour = data.join("..").join(data.file_name().expect("named"));
    let engine = QueryEngine::with_options(
        &db.schema,
        EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_server_resident_gen_spellings"),
            native: NativeChoice::Disabled,
            workers: 1,
            ..EngineOptions::default()
        },
    )
    .expect("engine");
    let handle = engine.prepare(&nations()).expect("prepare");
    let expect = engine::execute_program(&nations(), &db).to_text();
    for dir in [&data, &detour, &data] {
        let run = handle.execute(dir).expect("execute");
        assert!(same_normalized(&expect, &run.output.stdout), "rows diverge");
    }
    let stats = engine.stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_hits), (1, 2));
}

/// `customer.tbl` with a negative primary key: Q3 probes the unique index
/// over that column, which the snapshot refuses to build. The request
/// answers `internal` naming table, column and row — from the resolve
/// step, before any closure ran — the single worker survives, and the
/// repaired file serves oracle rows.
#[test]
fn an_unindexable_key_column_answers_internal_then_recovers() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup("badkey");
    let jit_ceiling = NativeChoice::Backend("unavailable".to_string());
    let server = start(&db, &data, "badkey", jit_ceiling, 1);
    let mut c =
        Client::connect_timeout(server.addr(), Some(Duration::from_secs(60))).expect("connect");
    let stmt = c.prepare("tpch:3").expect("prepare");

    let customer = db.table("customer");
    let mut broken = customer.clone();
    let ColData::Int(keys) = &mut broken.cols[0] else {
        panic!("c_custkey is an int column")
    };
    keys[4] = -keys[4];
    let path = data.join("customer.tbl");
    broken.write_tbl(&path).expect("break customer.tbl");
    for _ in 0..2 {
        let err = c.execute(stmt).expect_err("no index over a negative key");
        assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("customer.tbl column `c_custkey`"), "{msg}");
        assert!(
            msg.contains("negative index key") && msg.contains("row 5"),
            "{msg}"
        );
        assert!(
            !msg.contains("panicked"),
            "a typed error, not a caught panic: {msg}"
        );
    }

    customer.write_tbl(&path).expect("repair customer.tbl");
    let expect = engine::execute_program(&tpch::queries::query(3), &db).to_text();
    let reply = c.execute(stmt).expect("execute after the repair");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    c.close().expect("close");
    let report = server.shutdown();
    assert_eq!((report.executed, report.exec_errors), (1, 2), "{report:?}");
}
