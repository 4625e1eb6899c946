//! Adversarial serving suite: hostile clients against the reactor.
//!
//! PR 7's thread-per-connection server could hide pathological-client
//! bugs behind the kernel's blocking `read`; the reactor owns its own
//! state machines, so this suite attacks exactly those seams:
//!
//! * slow-loris clients dripping one byte per tick must not starve a
//!   well-behaved client sharing the (single!) reactor thread;
//! * connections dropped mid-frame — inside the length prefix, inside
//!   the body — leave no half-dead state behind;
//! * a stalled reader that never drains its responses is shed by the
//!   write-backpressure policy (connection doomed, `write_overflows`
//!   counted), never allowed to wedge a worker or reactor thread;
//! * ≥256 concurrent sockets with pipelined requests all get
//!   oracle-correct answers while the server's thread and fd anatomy
//!   stays flat — the reactor's whole reason to exist;
//! * results crossing the streaming threshold arrive as
//!   `RESULT_CHUNK`/`RESULT_END` sequences byte-identical to the
//!   single-frame encoding, and a client cancelling mid-stream costs
//!   the server nothing;
//! * faults below the serving path — a `.tbl` file cut mid-line, a
//!   panicking resolver, a panicking execution — answer a typed
//!   `internal` frame, cost no worker, and never wedge the drain.
//!
//! Jit-only engine (no toolchain dependency), tiny scale factor:
//! what's under test is the serving path, not the queries.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use dblab::codegen::same_normalized;
use dblab::engine::service::{EngineOptions, NativeChoice};
use dblab::engine::{self};
use dblab::frontend::expr::col;
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::tpch;
use dblab_server::protocol::{
    self, OP_EXECUTE, OP_PREPARE, OP_PREPARED, OP_RESULT, OP_RESULT_CHUNK, OP_RESULT_END,
};
use dblab_server::{tpch_resolver, Client, ErrorCode, QueryResolver, Server, ServerOptions};

fn setup() -> (dblab::runtime::Database, PathBuf) {
    setup_at("dblab_server_adv_data")
}

/// A private data directory, for the test that damages its tables.
fn setup_at(dir: &str) -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join(dir);
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// A jit-only server with a deterministic thread anatomy (no engine
/// build workers: there is no native tier), small knobs overridable per
/// test.
fn start_server(
    db: &dblab::runtime::Database,
    data: &std::path::Path,
    patch: impl FnOnce(&mut ServerOptions),
) -> Server {
    start_server_with(db, data, tpch_resolver(), patch)
}

fn start_server_with(
    db: &dblab::runtime::Database,
    data: &std::path::Path,
    resolver: QueryResolver,
    patch: impl FnOnce(&mut ServerOptions),
) -> Server {
    let mut opts = ServerOptions {
        engine: EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_server_adv_gen"),
            native: NativeChoice::Disabled,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    };
    patch(&mut opts);
    Server::start(&db.schema, data, resolver, opts).expect("start server")
}

fn oracle(db: &dblab::runtime::Database, q: usize) -> String {
    engine::execute_program(&tpch::queries::query(q), db).to_text()
}

/// `Threads:` and the fd table are process-wide, so a sibling test's
/// server starting or stopping inside the 256-socket test's measuring
/// window would be counted as that server's growth. Every other test
/// holds this shared for its whole body; the anatomy window holds it
/// exclusively. (A sibling that the harness spawns inside the window
/// still adds its one blocked test thread — the slack covers those.)
static ANATOMY: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    ANATOMY.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    ANATOMY.write().unwrap_or_else(|e| e.into_inner())
}

/// `Threads:` from `/proc/self/status`; `None` off-procfs (the anatomy
/// assertions quietly skip there).
fn proc_threads() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn proc_fds() -> Option<u64> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count() as u64)
}

/// One raw wire frame as bytes (what [`protocol::write_frame`] emits),
/// for clients that want to send it one byte at a time.
fn frame_bytes(opcode: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    protocol::write_frame(&mut buf, opcode, seq, payload).expect("encode frame");
    buf
}

/// Slow-loris clients dripping one byte per tick share a *single*
/// reactor thread with a fast client — the fast client must not be
/// starved (the old blocking design would have parked a reader thread
/// per loris; the reactor just sees slow sockets that are rarely
/// readable), and every loris still gets a correct answer once its
/// frame finally completes.
#[test]
fn slow_loris_drips_do_not_starve_fast_clients() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |o| o.io_threads = 1);
    let expect = oracle(&db, 6);
    let addr = server.addr();

    // Warm the prepared cache so the fast client's latency below is
    // pure serving path, not a first compile.
    let mut warm = Client::connect(addr).expect("connect");
    warm.prepare("tpch:6").expect("warm prepare");
    drop(warm);

    const LORISES: usize = 24;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..LORISES)
            .map(|_| {
                s.spawn(move || {
                    let mut sock = TcpStream::connect(addr).expect("loris connect");
                    sock.set_nodelay(true).ok();
                    sock.set_read_timeout(Some(Duration::from_secs(60))).ok();
                    for b in frame_bytes(OP_PREPARE, 1, b"tpch:6") {
                        sock.write_all(&[b]).expect("drip one byte");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    // The dripped frame completes eventually; the reply
                    // must be a well-formed PREPARED.
                    let mut r = std::io::BufReader::new(sock);
                    let f = protocol::read_frame(&mut r)
                        .expect("read reply")
                        .expect("a reply, not a hangup");
                    assert_eq!((f.opcode, f.seq), (OP_PREPARED, 1));
                })
            })
            .collect();

        // While every loris is mid-drip (150ms of dripping each), the
        // fast client runs a whole prepare+execute round trip on the
        // same single reactor thread.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
        let stmt = c.prepare("tpch:6").expect("prepare while lorised");
        let reply = c.execute(stmt).expect("execute while lorised");
        assert!(same_normalized(&expect, &reply.rows), "rows diverge");
        c.close().expect("close");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "fast client starved behind {LORISES} slow lorises: {:?}",
            t0.elapsed()
        );
        for h in handles {
            h.join().expect("loris thread");
        }
    });
    let report = server.shutdown();
    assert_eq!(report.connections as usize, LORISES + 2);
    assert_eq!(report.malformed, 0);
}

/// Connections that die mid-frame — inside the length prefix, inside
/// the body, or right after a garbage prefix — leave nothing behind:
/// the reactor reaps them, a fresh client is served correctly, and the
/// open-connection gauge drains to zero.
#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    let expect = oracle(&db, 6);
    let addr = server.addr();

    for i in 0..21 {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).ok();
        let wire = frame_bytes(OP_PREPARE, 7, b"tpch:6");
        match i % 3 {
            // Die inside the 4-byte length prefix.
            0 => sock.write_all(&wire[..2]).expect("partial prefix"),
            // Die inside the body, prefix fully delivered.
            1 => sock.write_all(&wire[..7]).expect("partial body"),
            // A garbage length prefix, then vanish without reading the
            // error frame the server owes us.
            _ => sock.write_all(&u32::MAX.to_be_bytes()).expect("garbage"),
        }
        drop(sock); // mid-frame disconnect
    }

    // The server is unimpressed: a fresh session serves correct rows.
    let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    let reply = c.execute(stmt).expect("execute");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    c.close().expect("close");

    // Every dead socket is reaped (the reactor sees the hangup as soon
    // as it polls); give the gauge a moment to drain.
    let t0 = Instant::now();
    while server.open_connections() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{} connection(s) never reaped",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = server.shutdown();
    assert_eq!(report.connections, 22);
    // Only the 7 garbage-prefix sockets are malformed; dying mid-frame
    // is rude but not a protocol violation.
    assert_eq!(report.malformed, 7);
}

/// A stalled reader — hundreds of pipelined executes, never draining a
/// byte of response — hits the bounded write queue: the worker waits at
/// most `write_stall`, then the connection is shed as a write overflow.
/// Workers and reactors stay live throughout; a fresh client is served
/// immediately after.
#[test]
fn a_stalled_reader_is_shed_not_wedged() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |o| {
        o.queue_cap = 4096;
        o.write_buf_cap = 2048;
        o.write_stall = Duration::from_millis(250);
        // Clamp the kernel send buffer: without this, loopback TCP
        // auto-tunes it toward 4MB and absorbs minutes' worth of
        // responses before userspace backpressure can even engage.
        o.sock_sndbuf = 16 << 10;
        // Generous deadline: a timeout would answer with a tiny frame
        // where this test needs every response at full size.
        o.deadline = Duration::from_secs(600);
    });
    let expect = oracle(&db, 6);
    let addr = server.addr();

    // Q10 rows are ~2.7KB a pop — 400 pipelined responses (~1.1MB) bury
    // the 2KB write queue, the clamped send buffer, and the peer's
    // receive buffer several times over.
    let mut stalled = Client::connect_timeout(addr, Some(Duration::from_secs(60))).expect("c");
    let stmt = stalled.prepare("tpch:10").expect("prepare");
    for seq in 1..=400u32 {
        stalled
            .send_raw(OP_EXECUTE, seq, &stmt.to_be_bytes())
            .expect("pipeline execute");
    }
    // ...and never read a single reply. The server must shed us.
    let t0 = Instant::now();
    while server.overflow_count() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "stalled reader never shed: overflow_count still 0"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // No worker is wedged behind the corpse: a well-behaved client gets
    // correct rows with time to spare.
    let t0 = Instant::now();
    let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    let reply = c.execute(stmt).expect("execute after the shed");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "workers wedged behind a stalled reader: {:?}",
        t0.elapsed()
    );
    c.close().expect("close");
    drop(stalled);

    let report = server.shutdown();
    assert!(report.write_overflows >= 1, "{report:?}");
}

/// ≥256 concurrent sockets, four pipelined executes each, one
/// single-threaded driver: every reply matches the oracle, and the
/// server's thread and fd counts stay pinned to the reactor anatomy
/// instead of scaling with the socket count.
#[test]
fn pipelined_requests_across_256_sockets_match_the_oracle() {
    // 1024 executes queued at once on two cores in a debug
    // build, so this one test gets a longer leash.
    let _watchdog = common::watchdog(3 * common::LIMIT);
    let (db, data) = setup();
    let alone = exclusive();
    let (t_pre, fd_pre) = (proc_threads(), proc_fds());
    let server = start_server(&db, &data, |o| {
        o.queue_cap = 4096;
        // 1024 pipelined requests all queue at once; the deadline must
        // cover the whole backlog on a slow CI box, or tail requests
        // age out as timeouts.
        o.deadline = Duration::from_secs(600);
    });
    let expect = oracle(&db, 6);
    let addr = server.addr();

    const SOCKETS: usize = 256;
    const PIPELINE: u32 = 4;
    let mut conns = Vec::with_capacity(SOCKETS);
    for _ in 0..SOCKETS {
        let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(120))).expect("connect");
        let stmt = c.prepare("tpch:6").expect("prepare");
        conns.push((c, stmt));
    }

    // Peak: every socket is connected and prepared. The driver itself
    // spawned no threads, so any growth beyond the fixed anatomy is the
    // server scaling with connections — the regression this test exists
    // to catch.
    if let (Some(t0), Some(t1)) = (t_pre, proc_threads()) {
        // 1 acceptor + 2 io + 4 workers + slack.
        let limit = 1 + 2 + 4 + 16;
        assert!(
            t1 - t0 <= limit,
            "server grew {} threads for {SOCKETS} sockets (limit {limit})",
            t1 - t0
        );
    }
    if let (Some(f0), Some(f1)) = (fd_pre, proc_fds()) {
        // Two fds per socket are the driver's own (the client dups its
        // stream); one per accepted connection is the server's.
        let limit = 3 * SOCKETS as u64 + 64;
        assert!(
            f1 - f0 <= limit,
            "{} fds for {SOCKETS} sockets (limit {limit})",
            f1 - f0
        );
    }
    drop(alone);

    // Pipeline every request before reading any reply.
    for (c, stmt) in &mut conns {
        for seq in 100..100 + PIPELINE {
            c.send_raw(OP_EXECUTE, seq, &stmt.to_be_bytes())
                .expect("pipeline");
        }
    }
    for (ci, (c, _)) in conns.iter_mut().enumerate() {
        for _ in 0..PIPELINE {
            let f = c
                .recv_raw()
                .expect("read reply")
                .expect("every request answers");
            assert!(
                (100..100 + PIPELINE).contains(&f.seq),
                "conn {ci}: stray seq {}",
                f.seq
            );
            assert_eq!(f.opcode, OP_RESULT, "conn {ci}: not a result");
            let (_, _, rows) = protocol::decode_result(&f.payload).expect("result payload");
            assert!(same_normalized(&expect, &rows), "conn {ci}: rows diverge");
        }
    }
    drop(conns);
    let report = server.shutdown();
    assert_eq!(report.connections as usize, SOCKETS);
    assert_eq!(report.executed, (SOCKETS as u64) * PIPELINE as u64);
    assert_eq!(report.exec_errors, 0);
}

/// A result crossing the streaming threshold arrives as a
/// `RESULT_CHUNK*` + `RESULT_END` sequence that reassembles
/// byte-identically to the single-frame encoding a default server
/// sends — checked both through the client (which hides the seam) and
/// on the raw wire (≥2 chunks, `RESULT_END` length claim exact).
#[test]
fn chunked_results_are_byte_identical_to_single_frame() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let plain = start_server(&db, &data, |_| {});
    let chunky = start_server(&db, &data, |o| {
        o.stream_threshold = 64;
        o.stream_chunk = 48;
    });
    let expect = oracle(&db, 10);

    // Through the client API the seam is invisible: identical rows.
    let mut a = Client::connect(plain.addr()).expect("connect plain");
    let mut b = Client::connect(chunky.addr()).expect("connect chunky");
    let (sa, sb) = (a.prepare("tpch:10").unwrap(), b.prepare("tpch:10").unwrap());
    let (ra, rb) = (
        a.execute(sa).expect("plain"),
        b.execute(sb).expect("chunked"),
    );
    assert_eq!(ra.rows, rb.rows, "chunking changed the bytes");
    assert!(same_normalized(&expect, &rb.rows), "rows diverge");

    // On the raw wire: the stream grammar, literally.
    b.send_raw(OP_EXECUTE, 9, &sb.to_be_bytes()).expect("send");
    let (mut chunks, mut assembled) = (0u32, Vec::new());
    let claimed = loop {
        let f = b.recv_raw().expect("read").expect("reply");
        assert_eq!(f.seq, 9, "stream frames echo the request seq");
        match f.opcode {
            OP_RESULT_CHUNK => {
                assert!(f.payload.len() <= 48, "chunk exceeds stream_chunk");
                chunks += 1;
                assembled.extend_from_slice(&f.payload);
            }
            OP_RESULT_END => break protocol::decode_result_end(&f.payload).expect("u64be total"),
            other => panic!("opcode {other:#x} inside a result stream"),
        }
    };
    assert!(chunks >= 2, "payload this size must split (got {chunks})");
    assert_eq!(claimed, assembled.len() as u64, "END length claim");
    let (_, _, rows) = protocol::decode_result(&assembled).expect("reassembled payload");
    assert!(same_normalized(&expect, &rows), "raw reassembly diverges");

    a.close().unwrap();
    b.close().unwrap();
    plain.shutdown();
    let report = chunky.shutdown();
    assert!(report.chunked_results >= 2, "{report:?}");
}

/// A client that walks away mid-stream costs the server nothing: the
/// dead connection is reaped, the remaining chunks are dropped on the
/// floor, and the next client gets a complete stream.
#[test]
fn a_mid_stream_cancel_leaves_the_server_clean() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |o| {
        o.stream_threshold = 64;
        o.stream_chunk = 16; // ~170 chunks for Q10 — plenty left to cancel
    });
    let expect = oracle(&db, 10);
    let addr = server.addr();

    let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(60))).expect("connect");
    let stmt = c.prepare("tpch:10").expect("prepare");
    c.send_raw(OP_EXECUTE, 5, &stmt.to_be_bytes())
        .expect("send");
    let f = c.recv_raw().expect("read").expect("first frame");
    assert_eq!(f.opcode, OP_RESULT_CHUNK, "stream must have started");
    drop(c); // hang up with ~169 chunks undelivered

    // The corpse is reaped and a fresh client gets the whole stream.
    let mut c = Client::connect_timeout(addr, Some(Duration::from_secs(60))).expect("connect");
    let stmt = c.prepare("tpch:10").expect("prepare");
    let reply = c.execute(stmt).expect("full stream after a cancel");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    c.close().expect("close");

    let t0 = Instant::now();
    while server.open_connections() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "cancelled connection never reaped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A `.tbl` file cut mid-line under a live server (a writer caught half
/// way, a damaged disk): the `EXECUTE` that reads it answers a typed
/// `internal` error naming the place, the worker lives, and once the
/// file is whole again the same statement serves correct rows.
#[test]
fn a_table_truncated_mid_line_answers_internal_then_recovers() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup_at("dblab_server_adv_trunc_data");
    let server = start_server(&db, &data, |o| o.workers = 1);
    let expect = oracle(&db, 6);
    let mut c = Client::connect_timeout(server.addr(), Some(Duration::from_secs(60))).expect("c");
    let stmt = c.prepare("tpch:6").expect("prepare");
    let reply = c.execute(stmt).expect("execute on whole data");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");

    let path = data.join("lineitem.tbl");
    let whole = std::fs::read(&path).expect("read lineitem.tbl");
    let line_start = whole[..whole.len() / 2]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("a newline in the first half");
    std::fs::write(&path, &whole[..line_start + 10]).expect("truncate mid-line");
    let err = c.execute(stmt).expect_err("a truncated table cannot serve");
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    assert!(err.to_string().contains("lineitem.tbl line"), "{err}");

    std::fs::write(&path, &whole).expect("restore");
    let reply = c.execute(stmt).expect("execute after the restore");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    // The failed load poisoned nothing and was cached by nobody: the
    // directory was loaded once, the overwritten file (same inode — its
    // length and mtime moved) was parsed again once it was whole, and the
    // other seven tables were never touched.
    let stats = server.engine().stats();
    assert_eq!(
        (stats.snapshot_loads, stats.snapshot_tables_reloaded),
        (1, 1),
        "{stats:?}"
    );
    c.close().expect("close");
    let report = server.shutdown();
    assert_eq!((report.executed, report.exec_errors), (2, 1), "{report:?}");
}

/// Panics below the serving path — in the resolver during `PREPARE`, in
/// the jit during `EXECUTE` (integer division by a column that
/// is 0 for some rows) — each answer one `internal` frame. The server
/// runs a *single* worker, so every later success proves that worker
/// survived; the drain at shutdown completes.
#[test]
fn panics_below_the_server_answer_internal_and_cost_no_worker() {
    let _shared = shared();
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let tpch = tpch_resolver();
    let resolver: QueryResolver = Arc::new(move |spec| match spec {
        "boom" => panic!("resolver exploded on `{spec}`"),
        "divzero" => Some(QueryProgram::new(QPlan::scan("nation").agg(
            vec![],
            vec![(
                "s",
                AggFunc::Sum(col("n_nationkey").div(col("n_regionkey"))),
            )],
        ))),
        other => tpch(other),
    });
    let server = start_server_with(&db, &data, resolver, |o| o.workers = 1);
    let expect = oracle(&db, 6);
    let mut c = Client::connect_timeout(server.addr(), Some(Duration::from_secs(60))).expect("c");

    let err = c.prepare("boom").expect_err("the resolver panics");
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    assert!(err.to_string().contains("resolver exploded"), "{err}");
    // The failed latch is gone: a retry reaches the resolver again.
    let err = c.prepare("boom").expect_err("still panics");
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");

    let stmt = c.prepare("divzero").expect("preparing is fine");
    let err = c.execute(stmt).expect_err("executing divides by zero");
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    assert!(err.to_string().contains("panicked"), "{err}");

    let stmt = c.prepare("tpch:6").expect("prepare after the panics");
    let reply = c.execute(stmt).expect("execute after the panics");
    assert!(same_normalized(&expect, &reply.rows), "rows diverge");
    c.close().expect("close");
    let report = server.shutdown();
    assert_eq!(report.executed, 1, "{report:?}");
    assert_eq!(report.exec_errors, 3, "{report:?}");
}
