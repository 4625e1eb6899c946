//! Graceful-shutdown suite. The contract:
//!
//! * every request admitted before shutdown **completes with correct
//!   results** and its response reaches the client — drain, don't drop;
//! * requests arriving *during* the drain get a typed `shutting-down`
//!   frame, and new connections are refused outright (the listener is
//!   gone before the drain begins);
//! * shutdown is a clean exit: repeated start/shutdown cycles return the
//!   process to its exact pre-start thread count — nothing is detached,
//!   nothing leaks;
//! * an idle server's accept thread sleeps in `accept` rather than
//!   polling, and shutdown still wakes it.
//!
//! The thread-parity check counts every thread in the process, so the
//! tests of this binary take [`SERIAL`] and run one at a time even under
//! the default parallel harness.

mod common;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dblab::codegen::same_normalized;
use dblab::engine::service::{EngineOptions, NativeChoice};
use dblab::engine::{self};
use dblab::tpch;
use dblab_server::protocol::{self, OP_ERROR, OP_EXECUTE, OP_RESULT};
use dblab_server::{tpch_resolver, Client, ErrorCode, Server, ServerOptions};

/// One test at a time: a sibling's server threads would show up in
/// [`thread_count`].
static SERIAL: Mutex<()> = Mutex::new(());

fn setup() -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join("dblab_server_sd_data");
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

fn start_server(
    db: &dblab::runtime::Database,
    data: &std::path::Path,
    patch: impl FnOnce(&mut ServerOptions),
) -> Server {
    let mut opts = ServerOptions {
        engine: EngineOptions {
            gen_dir: std::env::temp_dir().join("dblab_server_sd_gen"),
            native: NativeChoice::Disabled,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    };
    patch(&mut opts);
    Server::start(&db.schema, data, tpch_resolver(), opts).expect("start server")
}

/// The process's live thread count (`/proc/self/status`, Linux).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// `(tid, voluntary_ctxt_switches)` of every thread whose name starts with
/// `prefix` (`/proc/self/task/<tid>/comm`; Linux cuts names to 15 bytes).
fn voluntary_switches(prefix: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread exited between readdir and read
        };
        if !comm.starts_with(prefix) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(path.join("status")) else {
            continue;
        };
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("voluntary_ctxt_switches line")
            .trim()
            .parse()
            .expect("switch count");
        let tid = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((tid, switches));
    }
    out
}

/// An idle server's accept thread sleeps in a blocking `accept`: over
/// half a second it wakes a handful of times at most, where a 5 ms
/// polling loop would wake about a hundred.
#[test]
fn an_idle_accept_thread_stays_asleep() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    let server = start_server(&db, &data, |_| {});
    std::thread::sleep(Duration::from_millis(100));
    let before = voluntary_switches("dblab-srv-acc");
    assert!(!before.is_empty(), "the accept thread is running");
    std::thread::sleep(Duration::from_millis(500));
    let after = voluntary_switches("dblab-srv-acc");
    for (tid, n0) in &before {
        let n1 = after
            .iter()
            .find(|(t, _)| t == tid)
            .map(|&(_, n)| n)
            .expect("the accept thread is still running");
        assert!(
            n1 - n0 < 10,
            "idle accept thread {tid} woke {} times in 500 ms",
            n1 - n0
        );
    }

    // The blocked `accept` still serves and still shuts down.
    let mut c = Client::connect(server.addr()).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    c.execute(stmt).expect("execute");
    c.close().expect("close");
    assert_eq!(server.shutdown().executed, 1);
}

#[test]
fn in_flight_requests_drain_to_correct_results_and_new_work_is_refused() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    // One slow worker so a pipelined burst is still queued when shutdown
    // begins — those are the in-flight requests that must drain.
    let server = start_server(&db, &data, |o| {
        o.workers = 1;
        o.queue_cap = 16;
        o.debug_worker_delay = Duration::from_millis(300);
    });
    let addr = server.addr();
    let expect = engine::execute_program(&tpch::queries::query(6), &db).to_text();

    let mut c = Client::connect(addr).expect("connect");
    let stmt = c.prepare("tpch:6").expect("prepare");
    const IN_FLIGHT: u32 = 3;
    for seq in 1..=IN_FLIGHT {
        c.send_raw(OP_EXECUTE, seq, &stmt.to_be_bytes())
            .expect("send");
    }

    // Shut down while the burst is queued behind the slow worker.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // (a) New connections are refused: the listener died before the
    // drain began. (Loopback connect to a dead port fails fast; a slow
    // failure mode still must not *serve*.)
    match Client::connect_timeout(addr, Some(Duration::from_secs(2))) {
        Err(_) => {} // refused at connect — the common Linux behavior
        Ok(mut late) => {
            assert!(
                late.prepare("tpch:6").is_err(),
                "a connection sneaking past shutdown must not be served"
            );
        }
    }

    // (b) A request on the *existing* session during the drain gets a
    // typed shutting-down frame, not silence.
    c.send_raw(OP_EXECUTE, 99, &stmt.to_be_bytes())
        .expect("send during drain");

    // (c) Every admitted request completes with correct rows; the late
    // one is refused. Collect all four responses.
    let (mut results, mut refused) = (0u32, 0u32);
    for _ in 0..IN_FLIGHT + 1 {
        let f = c.recv_raw().expect("read").expect("every request answers");
        match f.opcode {
            OP_RESULT => {
                assert!((1..=IN_FLIGHT).contains(&f.seq), "admitted seqs only");
                let (_, _, rows) = protocol::decode_result(&f.payload).expect("result");
                assert!(
                    same_normalized(&expect, &rows),
                    "drained result must be correct"
                );
                results += 1;
            }
            OP_ERROR => {
                assert_eq!(f.seq, 99, "only the late request is refused");
                let (code, _) = protocol::decode_error(&f.payload).expect("typed");
                assert_eq!(code, ErrorCode::ShuttingDown);
                refused += 1;
            }
            other => panic!("unexpected opcode {other:#x}"),
        }
    }
    assert_eq!((results, refused), (IN_FLIGHT, 1));

    let report = shutdown.join().expect("shutdown thread");
    assert_eq!(
        report.executed, IN_FLIGHT as u64,
        "all admitted requests drained"
    );
    assert_eq!(report.rejected, 1);
    assert!(
        report.drained_in_flight >= 1,
        "shutdown began with work in flight: {report:?}"
    );
}

#[test]
fn repeated_start_shutdown_cycles_leak_no_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = common::watchdog(common::LIMIT);
    let (db, data) = setup();
    // Warm-up cycle: lazy one-time initialization (locale data, the
    // backend registry, procfs handles) must not count as a leak.
    {
        let server = start_server(&db, &data, |_| {});
        let mut c = Client::connect(server.addr()).expect("connect");
        let stmt = c.prepare("tpch:6").expect("prepare");
        c.execute(stmt).expect("execute");
        c.close().expect("close");
        server.shutdown();
    }

    let before = thread_count();
    for cycle in 0..3 {
        let server = start_server(&db, &data, |_| {});
        let mut c = Client::connect(server.addr()).expect("connect");
        let stmt = c.prepare("tpch:1").expect("prepare");
        let reply = c.execute(stmt).expect("execute");
        assert!(!reply.rows.is_empty(), "cycle {cycle} served rows");
        // Deliberately no close(): shutdown must sever and join the
        // reader even for a rude client.
        drop(c);
        let report = server.shutdown();
        assert_eq!(report.executed, 1, "cycle {cycle}");
    }
    // The severed client sockets unwind asynchronously on the client
    // side; the *server's* threads are joined synchronously, so the
    // count settles immediately. Poll briefly to absorb OS lag.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak across start/shutdown cycles: {before} before, {after} after"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // And a dropped-without-shutdown server cleans up the same way
    // (the `Drop` safety net runs the identical sequence).
    {
        let server = start_server(&db, &data, |_| {});
        let mut c = Client::connect(server.addr()).expect("connect");
        let stmt = c.prepare("tpch:6").expect("prepare");
        c.execute(stmt).expect("execute");
        drop(c);
        drop(server);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak after Drop-based shutdown: {before} before, {after} after"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
