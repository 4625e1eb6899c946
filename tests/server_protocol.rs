//! Wire-protocol suite: real sockets against a live [`Server`].
//!
//! * the prepare/execute/stats/close happy path returns oracle-correct
//!   rows and well-formed frames;
//! * malformed input — garbage length prefixes, unknown opcodes, runt
//!   payloads, unknown specs and statement ids — gets an explicit typed
//!   `ERROR` frame, never a hang (and only framing errors cost the
//!   connection);
//! * N concurrent clients hammering a shared server all get
//!   oracle-correct results;
//! * a saturated admission queue sheds with `busy` frames while every
//!   admitted request still answers correctly;
//! * an exhausted per-request deadline is a typed `timeout` frame, not a
//!   hung worker.
//!
//! The engine runs with the native tier disabled: the jit `prepare`
//! builds serves everything, so the suite needs no C toolchain and
//! exercises pure protocol/admission behavior. `serve_concurrency`
//! covers the tier-up path end to end.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use dblab::codegen::same_normalized;
use dblab::engine::service::{EngineOptions, NativeChoice};
use dblab::engine::{self};
use dblab::tpch;
use dblab_server::protocol::{self, OP_ERROR, OP_EXECUTE, OP_PREPARE, OP_RESULT};
use dblab_server::{tpch_resolver, Client, ClientError, ErrorCode, Server, ServerOptions};

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_server_it_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// A jit-only server (no toolchain dependency), small knobs
/// overridable per test.
fn start_server(
    db: &dblab::runtime::Database,
    data: &std::path::Path,
    patch: impl FnOnce(&mut ServerOptions),
) -> Server {
    let mut opts = ServerOptions {
        engine: EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_server_it_gen"),
            native: NativeChoice::Disabled,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    };
    patch(&mut opts);
    Server::start(&db.schema, data, tpch_resolver(), opts).expect("start server")
}

fn oracle(db: &dblab::runtime::Database, q: usize) -> String {
    engine::execute_program(&tpch::queries::query(q), db).to_text()
}

#[test]
fn happy_path_prepare_execute_stats_close() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    let expect = oracle(&db, 6);

    let mut c = Client::connect(server.addr()).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    assert_eq!(stmt, 1, "first statement id in a fresh session");
    let reply = c.execute(stmt).expect("execute");
    assert!(!reply.native(), "native tier is disabled");
    assert_eq!(reply.tier_name(), "jit", "the jit serves from PREPARE on");
    assert!(reply.query_ms >= 0.0);
    assert!(
        same_normalized(&expect, &reply.rows),
        "served rows diverge from the oracle:\noracle:\n{expect}\ngot:\n{}",
        reply.rows
    );

    let stats = c.stats().expect("stats frame");
    for key in [
        "\"server\"",
        "\"engine\"",
        "\"executed\"",
        "\"queue_cap\"",
        "\"queries\"",
        "\"snapshot_loads\"",
        "\"snapshot_resident_bytes\"",
    ] {
        assert!(stats.contains(key), "stats JSON missing {key}: {stats}");
    }
    c.close().expect("close handshake");

    let report = server.shutdown();
    assert_eq!(report.connections, 1);
    assert_eq!(report.executed, 1);
    assert_eq!(report.shed, 0);
    assert_eq!(report.timeouts, 0);
}

#[test]
fn the_same_spec_is_prepared_once_across_sessions() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    let sa = a.prepare("tpch:1").expect("prepare a");
    let sb = b.prepare("tpch:1").expect("prepare b");
    assert_eq!((sa, sb), (1, 1), "per-session ids both start at 1");
    // One shared prepared query behind both sessions: the engine-wide
    // snapshot lists exactly one entry for the spec.
    let stats = server.engine().stats();
    assert_eq!(
        stats
            .queries
            .iter()
            .filter(|(name, _)| name == "srv_tpch_1")
            .count(),
        1,
        "sessions share one prepared handle per spec: {stats:?}"
    );
    drop((a, b));
    server.shutdown();
}

#[test]
fn garbage_length_prefix_gets_an_error_frame_then_the_socket_closes() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    let mut c = Client::connect(server.addr()).expect("connect");
    // A length prefix far above MAX_FRAME: framing cannot resync.
    c.send_bytes(&u32::MAX.to_be_bytes()).expect("send garbage");
    let f = c
        .recv_raw()
        .expect("error frame")
        .expect("one frame before close");
    assert_eq!(f.opcode, OP_ERROR);
    let (code, _) = protocol::decode_error(&f.payload).expect("typed error");
    assert_eq!(code, ErrorCode::Malformed);
    assert_eq!(c.recv_raw().expect("clean close"), None, "server hung up");
    let report = server.shutdown();
    assert_eq!(report.malformed, 1);
}

#[test]
fn recoverable_malformed_requests_keep_the_connection() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    let expect = oracle(&db, 6);
    let mut c = Client::connect(server.addr()).expect("connect");

    // Unknown opcode: typed error, session lives.
    c.send_raw(0x7F, 1, b"").expect("send");
    let f = c.recv_raw().expect("frame").expect("reply");
    assert_eq!((f.opcode, f.seq), (OP_ERROR, 1));
    assert_eq!(
        protocol::decode_error(&f.payload).unwrap().0,
        ErrorCode::Malformed
    );

    // Runt execute payload (3 bytes, not a u32): typed error.
    c.send_raw(OP_EXECUTE, 2, &[1, 2, 3]).expect("send");
    let f = c.recv_raw().expect("frame").expect("reply");
    assert_eq!(
        protocol::decode_error(&f.payload).unwrap().0,
        ErrorCode::Malformed
    );

    // Empty prepare spec: typed error.
    c.send_raw(OP_PREPARE, 3, b"").expect("send");
    let f = c.recv_raw().expect("frame").expect("reply");
    assert_eq!(
        protocol::decode_error(&f.payload).unwrap().0,
        ErrorCode::Malformed
    );

    // Unknown query spec and unknown statement id: `unknown`, not a drop.
    let err = c.prepare("tpch:99").expect_err("spec out of range");
    assert_eq!(err.code(), Some(ErrorCode::Unknown));
    let err = c.execute(42).expect_err("statement never prepared");
    assert_eq!(err.code(), Some(ErrorCode::Unknown));

    // After all that abuse the session still serves correct rows.
    let stmt = c.prepare("tpch:6").expect("prepare still works");
    let reply = c.execute(stmt).expect("execute still works");
    assert!(same_normalized(&expect, &reply.rows));
    c.close().expect("close");
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_oracle_correct_results() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |o| o.workers = 4);
    let queries = [1usize, 6];
    let oracles: Vec<String> = queries.iter().map(|&q| oracle(&db, q)).collect();
    let addr = server.addr();

    std::thread::scope(|s| {
        for client_id in 0..8 {
            let (oracles, queries) = (&oracles, &queries);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let stmts: Vec<u32> = queries
                    .iter()
                    .map(|q| c.prepare(&format!("tpch:{q}")).expect("prepare"))
                    .collect();
                for round in 0..3 {
                    let qi = (client_id + round) % queries.len();
                    let reply = c.execute(stmts[qi]).expect("execute");
                    assert!(
                        same_normalized(&oracles[qi], &reply.rows),
                        "client {client_id} round {round}: Q{} diverged",
                        queries[qi]
                    );
                }
                c.close().expect("close");
            });
        }
    });
    let report = server.shutdown();
    assert_eq!(report.connections, 8);
    assert_eq!(report.executed, 8 * 3);
    assert_eq!(report.exec_errors, 0);
}

#[test]
fn a_full_admission_queue_sheds_with_busy_frames() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    // One slow worker, a one-deep queue: a burst must shed.
    let server = start_server(&db, &data, |o| {
        o.workers = 1;
        o.queue_cap = 1;
        o.debug_worker_delay = Duration::from_millis(200);
    });
    let expect = oracle(&db, 6);

    let mut c = Client::connect(server.addr()).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    // Pipeline a burst of executes without waiting for answers.
    const BURST: u32 = 6;
    for seq in 1..=BURST {
        c.send_raw(OP_EXECUTE, seq, &stmt.to_be_bytes())
            .expect("send");
    }
    // Every request answers — the shed ones immediately, the admitted
    // ones after the slow worker gets to them.
    let (mut results, mut busy) = (0u32, 0u32);
    for _ in 0..BURST {
        let f = c.recv_raw().expect("read").expect("every request answers");
        assert!((1..=BURST).contains(&f.seq), "echoed seq");
        match f.opcode {
            OP_RESULT => {
                let (_, _, rows) = protocol::decode_result(&f.payload).expect("result payload");
                assert!(
                    same_normalized(&expect, &rows),
                    "admitted result must be correct"
                );
                results += 1;
            }
            OP_ERROR => {
                let (code, msg) = protocol::decode_error(&f.payload).expect("typed error");
                assert_eq!(code, ErrorCode::Busy, "only busy errors expected: {msg}");
                assert!(msg.contains("queue full"), "self-describing shed: {msg}");
                busy += 1;
            }
            other => panic!("unexpected opcode {other:#x}"),
        }
    }
    assert_eq!(results + busy, BURST);
    assert!(results >= 1, "at least the first request is admitted");
    assert!(
        busy >= BURST - 2,
        "a 1-worker/1-slot server under a {BURST}-burst sheds most of it (shed {busy})"
    );
    assert_eq!(server.shed_count(), busy as u64);
    server.shutdown();
}

#[test]
fn an_exhausted_deadline_is_a_typed_timeout_frame() {
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    // The fault-injection delay exceeds the whole deadline, so the
    // request deterministically ages out while queued.
    let server = start_server(&db, &data, |o| {
        o.workers = 1;
        o.deadline = Duration::from_millis(10);
        o.debug_worker_delay = Duration::from_millis(80);
    });
    let mut c = Client::connect(server.addr()).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    let err = c.execute(stmt).expect_err("deadline must trip");
    assert_eq!(
        err.code(),
        Some(ErrorCode::Timeout),
        "typed timeout, got: {err}"
    );
    match &err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("deadline"), "self-describing: {message}")
        }
        other => panic!("expected a server error, got {other}"),
    }
    assert_eq!(server.timeout_count(), 1);
    // The worker survives the timeout: the next request is also answered
    // (another typed timeout under this server's 10ms budget), not hung.
    let err = c.execute(stmt).expect_err("same budget, same verdict");
    assert_eq!(err.code(), Some(ErrorCode::Timeout));
    assert_eq!(server.timeout_count(), 2);
    server.shutdown();
}
