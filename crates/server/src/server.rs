//! The concurrent TCP front end over [`QueryEngine`].
//!
//! ## Thread anatomy
//!
//! One **accept** thread owns the listener and deals freshly accepted
//! sockets round-robin onto a fixed set of **reactor** threads
//! ([`crate::reactor`]): every connection lives nonblocking on one
//! reactor for its whole life, so the server's thread count is a
//! constant — `1 + io_threads + workers` — however many clients
//! connect. Reactors parse frames and answer `prepare`/`stats` inline;
//! `execute` requests are admitted into a bounded queue and served by
//! the **request worker pool** — sized independently of the engine's
//! tier-up pool, so a compile storm can never starve query serving
//! (nor the reverse). Workers append responses to the connection's
//! backpressured write queue; the client's `seq` echo pairs them up.
//!
//! ## Admission control
//!
//! The pending queue is bounded by [`ServerOptions::queue_cap`]. A full
//! queue sheds the request *immediately* with an [`ErrorCode::Busy`]
//! frame — the client always hears back, never hangs on a socket the
//! server silently dropped. Admitted requests carry their enqueue time;
//! the per-request deadline ([`ServerOptions::deadline`]) covers queue
//! wait *plus* execution, and an overrun kills the native query process
//! (or interrupts the jit) and answers [`ErrorCode::Timeout`].
//!
//! ## Result streaming
//!
//! A result payload at most [`ServerOptions::stream_threshold`] bytes
//! goes out as the classic single `RESULT` frame. Past the threshold
//! it streams as `RESULT_CHUNK` frames of
//! [`ServerOptions::stream_chunk`] bytes, terminated by `RESULT_END` —
//! so one giant row set neither occupies one giant frame nor
//! monopolizes a connection's write queue; backpressure applies
//! between chunks.
//!
//! ## Shutdown sequence
//!
//! [`Server::shutdown`] (1) stops accepting — it sets the stop flag,
//! wakes the blocked `accept` with one loopback connection and joins the
//! accept thread, which drops the listener, so new connections are
//! refused by the OS; (2) closes admission — new
//! `execute`/`prepare` frames get [`ErrorCode::ShuttingDown`]; (3)
//! drains: every already-admitted request completes and its response is
//! queued; (4) joins the workers; (5) shuts the reactors down — each
//! flushes pending output (bounded grace), closes its sockets and
//! exits. Nothing is detached, so a process embedding a server returns
//! to its pre-start thread count.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dblab_catalog::{ColType, Schema};
use dblab_engine::service::{
    panic_message, EngineOptions, ExecError, PreparedQuery, QueryEngine, Tier,
};
use dblab_frontend::qplan::{ParamDecl, QueryProgram};
use dblab_runtime::{json, Value};

use crate::protocol::*;
use crate::reactor::{ConnHandle, FrameHandler, Reactor, ReactorConfig};

/// Maps a wire query spec to a plan. Two spellings arrive here: a plain
/// spec (`"tpch:6"` — literals baked in) and a *template* spec, marked by
/// a trailing `?` (`"tpch:6?"`), which should resolve to a program with
/// declared parameters. A resolver that has no parameterized form for a
/// base spec returns `None` for the `?` spelling; the binding text itself
/// never reaches the resolver — the server parses it against the resolved
/// template's declarations. Servers for other catalogs (and the protocol
/// tests) install their own.
pub type QueryResolver = Arc<dyn Fn(&str) -> Option<QueryProgram> + Send + Sync>;

/// The default resolver: TPC-H queries, spelled `tpch:N` or `qN`; the
/// `tpch:N?` template spelling resolves through
/// [`dblab_tpch::queries::template`] where one exists.
pub fn tpch_resolver() -> QueryResolver {
    Arc::new(|spec| {
        let (spec, templated) = match spec.strip_suffix('?') {
            Some(base) => (base, true),
            None => (spec, false),
        };
        let n: usize = spec
            .strip_prefix("tpch:")
            .or_else(|| spec.strip_prefix('q').map(|s| s.trim_start_matches(':')))?
            .parse()
            .ok()?;
        if templated {
            dblab_tpch::queries::template(n)
        } else {
            (1..=22).contains(&n).then(|| dblab_tpch::queries::query(n))
        }
    })
}

/// Server construction knobs. `Default` is a small serving setup: any
/// free loopback port, two reactor threads, four request workers, a
/// 64-deep admission queue, a 30s request deadline.
#[derive(Clone)]
pub struct ServerOptions {
    /// Bind address; port `0` picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Request worker threads (independent of `engine.workers`, the
    /// tier-up pool).
    pub workers: usize,
    /// Reactor (I/O) threads; connections are dealt round-robin across
    /// them. The count is fixed at start — it does not grow with
    /// client count.
    pub io_threads: usize,
    /// Admission-queue bound; a full queue sheds with a `busy` frame.
    pub queue_cap: usize,
    /// Per-request budget, queue wait included. Overruns abandon the
    /// execution and answer a `timeout` frame.
    pub deadline: Duration,
    /// The tiered engine every session shares.
    pub engine: EngineOptions,
    /// Server-wide prepared-cache capacity: at most this many *ready*
    /// specs stay cached; the least-recently-prepared is evicted past
    /// the cap (its handle lives on in sessions that hold it, and the
    /// engine's weak registry forgets it once they drop). `0` disables
    /// eviction.
    pub prepared_cap: usize,
    /// Result payloads above this stream as `RESULT_CHUNK` frames
    /// instead of one `RESULT` frame.
    pub stream_threshold: usize,
    /// Chunk size for streamed results.
    pub stream_chunk: usize,
    /// Per-connection write-queue bound; a peer that lets `this` many
    /// bytes of responses pile up unread is a stalled reader.
    pub write_buf_cap: usize,
    /// How long a worker waits for write-queue space before shedding
    /// the connection as a stalled reader.
    pub write_stall: Duration,
    /// Kernel send-buffer clamp per connection (`SO_SNDBUF` bytes);
    /// `0` keeps the kernel default and its auto-tuning. Clamping
    /// bounds kernel memory per connection at high connection counts
    /// and makes the write-queue backpressure the binding constraint
    /// instead of megabytes of kernel slack.
    pub sock_sndbuf: usize,
    /// Fault injection for tests: every worker sleeps this long before
    /// executing, so admission and deadline behavior can be pinned
    /// without depending on real query runtimes. Zero in production.
    pub debug_worker_delay: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_threads: 2,
            queue_cap: 64,
            deadline: Duration::from_secs(30),
            engine: EngineOptions::default(),
            prepared_cap: 64,
            stream_threshold: 256 << 10,
            stream_chunk: 64 << 10,
            write_buf_cap: 8 << 20,
            write_stall: Duration::from_secs(10),
            sock_sndbuf: 0,
            debug_worker_delay: Duration::ZERO,
        }
    }
}

/// Monotonic event counters, snapshotted into the `stats` frame and the
/// [`ShutdownReport`].
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    executed: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    malformed: AtomicU64,
    rejected: AtomicU64,
    exec_errors: AtomicU64,
    /// Results that streamed as chunks instead of one frame.
    chunked: AtomicU64,
}

/// What the server did over its lifetime, returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    pub connections: u64,
    pub executed: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub malformed: u64,
    pub rejected: u64,
    pub exec_errors: u64,
    /// Connections shed because the peer stopped draining responses.
    pub write_overflows: u64,
    /// Results streamed as `RESULT_CHUNK` sequences.
    pub chunked_results: u64,
    /// Requests still queued or running when shutdown began — all of
    /// them completed and were answered before the drain finished.
    pub drained_in_flight: usize,
}

/// One admitted execute request, queued for the worker pool.
struct ExecJob {
    handle: PreparedQuery,
    /// Positional parameter bindings for this execution (statement
    /// defaults, or the frame's explicit param section).
    params: Vec<Value>,
    seq: u32,
    conn: Arc<ConnHandle>,
    enqueued: Instant,
}

/// A cold prepare, run on the worker pool so a compile never occupies
/// a reactor thread. Bypasses the admission cap: prepares are answered
/// per-waiter, not shed.
struct PrepJob {
    key: String,
}

enum Job {
    Exec(ExecJob),
    Prep(PrepJob),
}

struct Admission {
    jobs: VecDeque<Job>,
    /// Exec jobs in `jobs` — the population `queue_cap` bounds.
    exec_pending: usize,
    /// Jobs popped but not yet answered.
    active: usize,
    /// Set once shutdown begins: nothing new is admitted, the backlog
    /// still drains.
    closed: bool,
}

/// A prepare parked on an in-flight [`PrepState::Building`] latch:
/// when the build resolves, the builder worker answers every waiter.
/// Nothing ever *blocks* on a latch — a thundering herd of N identical
/// prepares costs one compile and N queued replies.
struct PrepWaiter {
    conn: Arc<ConnHandle>,
    seq: u32,
    spec: String,
    binding_text: Option<String>,
}

/// One entry in the server-wide prepared cache. `Building` is the
/// in-flight latch: the first preparer of a spec inserts it (and
/// enqueues the compile on the worker pool); concurrent preparers of
/// the *same* spec park as waiters on the latch (the herd still
/// collapses to one compile), while preparers of *other* specs sail
/// past — a slow cold prepare never blocks the cache or a thread.
enum PrepState {
    Building {
        waiters: Vec<PrepWaiter>,
    },
    Ready {
        handle: PreparedQuery,
        /// LRU clock tick of the last prepare that hit this entry.
        last_used: u64,
    },
}

/// spec -> handle: sessions share one compiled query per spec, so N
/// clients preparing `tpch:6` cost one tier-0 compile and one
/// background tier-up, not N. Parameterized specs share one entry per
/// *template* (`tpch:6?` — bindings stripped), which is the whole point
/// of parameterization: every literal instantiation serves from one
/// compiled artifact. Bounded LRU: ready entries past `cap` are
/// evicted coldest-first.
struct PreparedCache {
    entries: HashMap<String, PrepState>,
    clock: u64,
    cap: usize,
    evicted: u64,
}

impl PreparedCache {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Drop the coldest `Ready` entries until at or under `cap`.
    /// `Building` latches are never evicted — someone is waiting on
    /// them.
    fn evict_over_cap(&mut self) {
        if self.cap == 0 {
            return;
        }
        loop {
            let ready = self
                .entries
                .iter()
                .filter_map(|(k, v)| match v {
                    PrepState::Ready { last_used, .. } => Some((*last_used, k.clone())),
                    PrepState::Building { .. } => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= self.cap {
                return;
            }
            let coldest = ready.iter().min().expect("non-empty over-cap set");
            self.entries.remove(&coldest.1);
            self.evicted += 1;
        }
    }
}

struct Shared {
    engine: QueryEngine,
    data_dir: PathBuf,
    resolver: QueryResolver,
    prepared: Mutex<PreparedCache>,
    q: Mutex<Admission>,
    cvar: Condvar,
    stop_accepting: AtomicBool,
    deadline: Duration,
    debug_worker_delay: Duration,
    queue_cap: usize,
    workers: usize,
    io_threads: usize,
    stream_threshold: usize,
    stream_chunk: usize,
    counters: Counters,
    started: Instant,
    open_conns: Arc<AtomicUsize>,
    write_overflows: Arc<AtomicU64>,
}

/// A running server. Dropping it performs the same graceful shutdown as
/// [`Server::shutdown`] (so a panicking test never leaks threads); call
/// `shutdown` explicitly to get the [`ShutdownReport`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reactors: Vec<Reactor>,
}

impl Server {
    /// Bind, start the reactor set, the worker pool and the accept
    /// loop. The engine is constructed here and owned by the server for
    /// its lifetime. A reactor whose epoll instance cannot be created is
    /// this call's error.
    pub fn start(
        schema: &Schema,
        data_dir: &std::path::Path,
        resolver: QueryResolver,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let engine = QueryEngine::with_options(schema, opts.engine.clone())?;
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;

        let stream_chunk = opts.stream_chunk.clamp(1, MAX_FRAME - HEADER);
        let stream_threshold = opts.stream_threshold.min(MAX_FRAME - HEADER);
        // The write queue must hold at least one whole chunk plus an
        // error frame, or streaming could never make progress.
        let write_buf_cap = opts.write_buf_cap.max(stream_chunk + 1024);
        let open_conns = Arc::new(AtomicUsize::new(0));
        let write_overflows = Arc::new(AtomicU64::new(0));

        let shared = Arc::new(Shared {
            engine,
            data_dir: data_dir.to_path_buf(),
            resolver,
            prepared: Mutex::new(PreparedCache {
                entries: HashMap::new(),
                clock: 0,
                cap: opts.prepared_cap,
                evicted: 0,
            }),
            q: Mutex::new(Admission {
                jobs: VecDeque::new(),
                exec_pending: 0,
                active: 0,
                closed: false,
            }),
            cvar: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
            deadline: opts.deadline,
            debug_worker_delay: opts.debug_worker_delay,
            queue_cap: opts.queue_cap.max(1),
            workers: opts.workers.max(1),
            io_threads: opts.io_threads.max(1),
            stream_threshold,
            stream_chunk,
            counters: Counters::default(),
            started: Instant::now(),
            open_conns: Arc::clone(&open_conns),
            write_overflows: Arc::clone(&write_overflows),
        });

        let reactors = (0..shared.io_threads)
            .map(|i| {
                Reactor::spawn(
                    &format!("dblab-srv-io-{i}"),
                    Arc::clone(&shared) as Arc<dyn FrameHandler>,
                    ReactorConfig {
                        write_buf_cap,
                        write_stall: opts.write_stall,
                        shutdown_grace: Duration::from_secs(5),
                        sock_sndbuf: opts.sock_sndbuf,
                        open_conns: Arc::clone(&open_conns),
                        write_overflows: Arc::clone(&write_overflows),
                    },
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        let workers = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dblab-srv-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn request worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let registrars: Vec<_> = reactors.iter().map(|r| r.registrar()).collect();
            Some(
                std::thread::Builder::new()
                    .name("dblab-srv-accept".to_string())
                    .spawn(move || accept_loop(&shared, listener, registrars))
                    .expect("spawn accept loop"),
            )
        };
        Ok(Server {
            shared,
            addr,
            accept,
            workers,
            reactors,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine the server serves from (for tests and embedding).
    pub fn engine(&self) -> &QueryEngine {
        &self.shared.engine
    }

    /// Requests shed by admission control so far.
    pub fn shed_count(&self) -> u64 {
        self.shared.counters.shed.load(Ordering::Acquire)
    }

    /// Requests that overran their deadline so far.
    pub fn timeout_count(&self) -> u64 {
        self.shared.counters.timeouts.load(Ordering::Acquire)
    }

    /// Connections shed for never draining their responses so far.
    pub fn overflow_count(&self) -> u64 {
        self.shared.write_overflows.load(Ordering::Acquire)
    }

    /// Currently open connections across the reactor set.
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::Acquire)
    }

    /// Graceful shutdown: refuse new connections, drain every admitted
    /// request to a queued response, flush and close every connection,
    /// join all threads. See the module docs for the exact sequence.
    pub fn shutdown(mut self) -> ShutdownReport {
        let drained = self.shutdown_impl();
        let c = &self.shared.counters;
        ShutdownReport {
            connections: c.connections.load(Ordering::Acquire),
            executed: c.executed.load(Ordering::Acquire),
            shed: c.shed.load(Ordering::Acquire),
            timeouts: c.timeouts.load(Ordering::Acquire),
            malformed: c.malformed.load(Ordering::Acquire),
            rejected: c.rejected.load(Ordering::Acquire),
            exec_errors: c.exec_errors.load(Ordering::Acquire),
            write_overflows: self.shared.write_overflows.load(Ordering::Acquire),
            chunked_results: c.chunked.load(Ordering::Acquire),
            drained_in_flight: drained,
        }
    }

    fn shutdown_impl(&mut self) -> usize {
        // (1) Stop accepting: the accept thread blocks in `accept`, so
        // raise the flag and wake it with one connection of our own; it
        // sees the flag and returns, dropping the listener, and the OS
        // refuses connections from here on.
        if let Some(a) = self.accept.take() {
            self.shared.stop_accepting.store(true, Ordering::SeqCst);
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(Ipv4Addr::LOCALHOST.into());
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = a.join();
        }
        // (2) Close admission. Reactors still answer — with
        // `shutting-down` errors.
        let in_flight = {
            let mut q = self.shared.q.lock().unwrap();
            q.closed = true;
            q.jobs.len() + q.active
        };
        self.shared.cvar.notify_all();
        // (3) Drain: every admitted request is answered (the reactors
        // are still flushing, so queued responses reach the wire).
        {
            let mut q = self.shared.q.lock().unwrap();
            while !(q.jobs.is_empty() && q.active == 0) {
                q = self.shared.cvar.wait(q).unwrap();
            }
        }
        // (4) Workers exit once the queue is empty and closed.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // (5) Reactors flush remaining output (bounded grace), close
        // every socket, and exit.
        for r in &self.reactors {
            r.request_shutdown();
        }
        for r in &mut self.reactors {
            r.join();
        }
        in_flight
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    registrars: Vec<crate::reactor::ReactorRegistrar>,
) {
    let mut next = 0usize;
    loop {
        // The listener blocks: an idle server's accept thread sleeps in
        // the kernel until a connection (or shutdown's wake-up) arrives.
        let accepted = listener.accept();
        if shared.stop_accepting.load(Ordering::SeqCst) {
            return; // drops the stream and the listener: connections now refused
        }
        match accepted {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::AcqRel);
                // Deal round-robin; the reactor flips the stream
                // nonblocking and it stays that way for life.
                registrars[next % registrars.len()].register(stream);
                next = next.wrapping_add(1);
            }
            // A real accept error (e.g. `EMFILE`) would repeat at once;
            // back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Queue one response frame from a reactor thread (never blocks).
fn respond(conn: &ConnHandle, opcode: u8, seq: u32, payload: &[u8]) {
    conn.try_send_frame(opcode, seq, payload);
}

fn respond_error(conn: &ConnHandle, seq: u32, code: ErrorCode, msg: &str) {
    respond(conn, OP_ERROR, seq, &encode_error(code, msg));
}

impl FrameHandler for Shared {
    fn on_frame(&self, conn: &Arc<ConnHandle>, frame: Frame) -> bool {
        handle_frame(self, conn, frame)
    }

    fn on_malformed(&self, conn: &Arc<ConnHandle>, detail: &str) {
        // Framing is unrecoverable: one explicit error, then hang up
        // (seq 0 — there is no trustworthy request id).
        self.counters.malformed.fetch_add(1, Ordering::AcqRel);
        respond_error(conn, 0, ErrorCode::Malformed, detail);
    }
}

/// Dispatch one request frame on a reactor thread; `false` ends the
/// session. Nothing here may block: answers are queued inline, cold
/// prepares and executes go to the worker pool.
fn handle_frame(shared: &Shared, conn: &Arc<ConnHandle>, f: Frame) -> bool {
    match f.opcode {
        OP_PREPARE => {
            let spec = match std::str::from_utf8(&f.payload) {
                Ok(s) if !s.is_empty() => s.to_string(),
                _ => {
                    shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
                    respond_error(
                        conn,
                        f.seq,
                        ErrorCode::Malformed,
                        "prepare wants a UTF-8 query spec",
                    );
                    return true;
                }
            };
            if shared.q.lock().unwrap().closed {
                shared.counters.rejected.fetch_add(1, Ordering::AcqRel);
                respond_error(conn, f.seq, ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            // `base?bindings` — the cache/compile key is the *template*
            // (`base?`); the binding text stays per-statement.
            let (key, binding_text) = match spec.find('?') {
                Some(i) => (format!("{}?", &spec[..i]), Some(spec[i + 1..].to_string())),
                None => (spec.clone(), None),
            };
            let waiter = PrepWaiter {
                conn: Arc::clone(conn),
                seq: f.seq,
                spec,
                binding_text,
            };
            enum Next {
                Answer(PreparedQuery, PrepWaiter),
                Build(String),
                Parked,
            }
            let next = {
                let mut cache = shared.prepared.lock().unwrap();
                match cache.entries.get_mut(&key) {
                    Some(PrepState::Ready { handle, .. }) => {
                        let h = handle.clone();
                        let tick = cache.touch();
                        if let Some(PrepState::Ready { last_used, .. }) =
                            cache.entries.get_mut(&key)
                        {
                            *last_used = tick;
                        }
                        Next::Answer(h, waiter)
                    }
                    Some(PrepState::Building { waiters }) => {
                        waiters.push(waiter);
                        Next::Parked
                    }
                    None => {
                        cache.entries.insert(
                            key.clone(),
                            PrepState::Building {
                                waiters: vec![waiter],
                            },
                        );
                        Next::Build(key)
                    }
                }
            };
            match next {
                Next::Answer(handle, waiter) => {
                    answer_prepare(shared, &waiter, &Ok(handle), false);
                }
                Next::Build(key) => {
                    // Compiles run on the worker pool, past the
                    // admission cap: a prepare is never shed, and the
                    // drain at shutdown covers it like any job.
                    let mut q = shared.q.lock().unwrap();
                    q.jobs.push_back(Job::Prep(PrepJob { key }));
                    drop(q);
                    shared.cvar.notify_one();
                }
                Next::Parked => {}
            }
            true
        }
        OP_EXECUTE => {
            if f.payload.len() < 4 {
                shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
                respond_error(
                    conn,
                    f.seq,
                    ErrorCode::Malformed,
                    "execute wants a u32 statement id",
                );
                return true;
            }
            let id = u32::from_be_bytes(f.payload[..4].try_into().unwrap());
            let stmt = conn.session.lock().unwrap().lookup_exec(id);
            let Some((handle, bindings)) = stmt else {
                respond_error(
                    conn,
                    f.seq,
                    ErrorCode::Unknown,
                    &format!("unknown statement id {id}"),
                );
                return true;
            };
            // A bare 4-byte payload (every pre-parameter client) runs
            // with the statement's own spec-derived bindings; an
            // explicit param section overrides them for this execution
            // only.
            let params = if f.payload.len() == 4 {
                bindings
            } else {
                match decode_params(&f.payload[4..]) {
                    Some(p) => p,
                    None => {
                        shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
                        respond_error(
                            conn,
                            f.seq,
                            ErrorCode::Malformed,
                            "execute carries a malformed parameter section",
                        );
                        return true;
                    }
                }
            };
            let job = ExecJob {
                handle,
                params,
                seq: f.seq,
                conn: Arc::clone(conn),
                enqueued: Instant::now(),
            };
            // Admission control: answer *now*, one way or the other.
            let mut q = shared.q.lock().unwrap();
            if q.closed {
                drop(q);
                shared.counters.rejected.fetch_add(1, Ordering::AcqRel);
                respond_error(conn, f.seq, ErrorCode::ShuttingDown, "server is draining");
            } else if q.exec_pending >= shared.queue_cap {
                drop(q);
                shared.counters.shed.fetch_add(1, Ordering::AcqRel);
                respond_error(
                    conn,
                    f.seq,
                    ErrorCode::Busy,
                    &format!(
                        "server busy: admission queue full ({} pending)",
                        shared.queue_cap
                    ),
                );
            } else {
                q.jobs.push_back(Job::Exec(job));
                q.exec_pending += 1;
                drop(q);
                shared.cvar.notify_one();
            }
            true
        }
        OP_STATS => {
            respond(conn, OP_STATS_REPLY, f.seq, stats_json(shared).as_bytes());
            true
        }
        OP_CLOSE => {
            respond(conn, OP_BYE, f.seq, &[]);
            false
        }
        other => {
            shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
            respond_error(
                conn,
                f.seq,
                ErrorCode::Malformed,
                &format!("unknown opcode {other:#x}"),
            );
            true
        }
    }
}

enum PrepareError {
    UnknownSpec,
    Engine(String),
}

/// Answer one prepare against a resolved build result: parse the
/// statement's own bindings, register it in the session, reply.
/// `blocking` selects the worker send path (backpressured) vs the
/// reactor inline path (never blocks).
fn answer_prepare(
    shared: &Shared,
    w: &PrepWaiter,
    result: &Result<PreparedQuery, PrepareError>,
    blocking: bool,
) {
    let send = |opcode: u8, seq: u32, payload: &[u8]| {
        if blocking {
            w.conn.send_frame(opcode, seq, payload);
        } else {
            w.conn.try_send_frame(opcode, seq, payload);
        }
    };
    match result {
        Ok(handle) => {
            let bindings = match &w.binding_text {
                Some(text) => match parse_bindings(text, handle.params()) {
                    Ok(b) => b,
                    Err(e) => {
                        shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
                        send(OP_ERROR, w.seq, &encode_error(ErrorCode::Malformed, &e));
                        return;
                    }
                },
                None => Vec::new(),
            };
            let id = w
                .conn
                .session
                .lock()
                .unwrap()
                .add(handle.clone(), &w.spec, bindings);
            send(OP_PREPARED, w.seq, &id.to_be_bytes());
        }
        Err(PrepareError::UnknownSpec) => {
            send(
                OP_ERROR,
                w.seq,
                &encode_error(
                    ErrorCode::Unknown,
                    &format!("unknown query spec `{}`", w.spec),
                ),
            );
        }
        Err(PrepareError::Engine(e)) => {
            shared.counters.exec_errors.fetch_add(1, Ordering::AcqRel);
            send(OP_ERROR, w.seq, &encode_error(ErrorCode::Internal, e));
        }
    }
}

/// Worker-side completion of a cold prepare: resolve and compile with
/// no cache lock held, install `Ready` (or remove the failed latch so
/// the next preparer retries), then answer every parked waiter.
fn finish_prepare(shared: &Shared, key: &str) {
    // A panicking resolver or compile is this spec's `internal` error:
    // the latch below is still released and every waiter still answered.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let prog = (shared.resolver)(key).ok_or(PrepareError::UnknownSpec)?;
        let name: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        shared
            .engine
            .prepare_named(&prog, &format!("srv_{name}"))
            .map_err(|e| PrepareError::Engine(e.to_string()))
    }))
    .unwrap_or_else(|p| {
        Err(PrepareError::Engine(format!(
            "prepare panicked: {}",
            panic_message(p.as_ref())
        )))
    });

    let waiters = {
        let mut cache = shared.prepared.lock().unwrap();
        let waiters = match cache.entries.remove(key) {
            Some(PrepState::Building { waiters }) => waiters,
            Some(other) => {
                // Raced with an eviction+rebuild; put it back.
                cache.entries.insert(key.to_string(), other);
                Vec::new()
            }
            None => Vec::new(),
        };
        if let Ok(handle) = &result {
            let tick = cache.touch();
            cache.entries.insert(
                key.to_string(),
                PrepState::Ready {
                    handle: handle.clone(),
                    last_used: tick,
                },
            );
            cache.evict_over_cap();
        }
        waiters
    };
    for w in &waiters {
        answer_prepare(shared, w, &result, true);
    }
}

/// Parse a spec's `k=v&k2=v2` binding suffix against the template's
/// parameter declarations, yielding a full positional vector (defaults
/// fill unbound slots). Unknown names and unparsable values are errors
/// — a typo must not silently run the default plan.
fn parse_bindings(text: &str, decls: &[ParamDecl]) -> Result<Vec<Value>, String> {
    let mut out: Vec<Value> = decls
        .iter()
        .map(|d| dblab_engine::eval::lit_value(&d.default))
        .collect();
    if text.is_empty() {
        return Ok(out);
    }
    for pair in text.split('&') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed binding `{pair}` (want k=v)"))?;
        let idx = decls
            .iter()
            .position(|d| &*d.name == k)
            .ok_or_else(|| format!("unknown parameter `{k}`"))?;
        let ty = decls[idx].default.ty();
        out[idx] = match ty {
            ColType::Int => Value::Int(
                v.parse()
                    .map_err(|_| format!("parameter `{k}` wants an int, got `{v}`"))?,
            ),
            ColType::Long => Value::Long(
                v.parse()
                    .map_err(|_| format!("parameter `{k}` wants a long, got `{v}`"))?,
            ),
            ColType::Double => Value::Double(
                v.parse()
                    .map_err(|_| format!("parameter `{k}` wants a double, got `{v}`"))?,
            ),
            ColType::Bool => match v {
                "0" | "false" => Value::Bool(false),
                "1" | "true" => Value::Bool(true),
                _ => return Err(format!("parameter `{k}` wants a bool, got `{v}`")),
            },
            other => return Err(format!("parameter `{k}` has unsupported type {other:?}")),
        };
    }
    Ok(out)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.q.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    if matches!(job, Job::Exec(_)) {
                        q.exec_pending -= 1;
                    }
                    q.active += 1;
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.cvar.wait(q).unwrap();
            }
        };
        let _active = ActiveGuard(shared);
        match job {
            Job::Exec(j) => {
                // A panic below `execute_bound` (a backend bug, damaged
                // input) is this request's `internal` error: the worker
                // survives and the client still hears back exactly once.
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| serve_one(shared, &j))) {
                    shared.counters.exec_errors.fetch_add(1, Ordering::AcqRel);
                    let msg = format!("execution panicked: {}", panic_message(p.as_ref()));
                    worker_error(&j, ErrorCode::Internal, &msg);
                }
            }
            Job::Prep(j) => finish_prepare(shared, &j.key),
        }
    }
}

/// Marks a popped job answered when dropped — on the normal path and on
/// unwind alike, so the shutdown drain's `active == 0` wait cannot be
/// left hanging by a worker that died mid-job.
struct ActiveGuard<'a>(&'a Shared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // Poison-tolerant: this runs during unwinding too.
        let mut q = self.0.q.lock().unwrap_or_else(|e| e.into_inner());
        q.active -= 1;
        drop(q);
        // Wake both kinds of waiters: workers (more jobs) and the
        // shutdown drain (active count).
        self.0.cvar.notify_all();
    }
}

/// Queue an error reply from a worker; a gone connection is the
/// peer's loss, not ours.
fn worker_error(job: &ExecJob, code: ErrorCode, msg: &str) {
    job.conn
        .send_frame(OP_ERROR, job.seq, &encode_error(code, msg));
}

fn serve_one(shared: &Shared, job: &ExecJob) {
    if !shared.debug_worker_delay.is_zero() {
        std::thread::sleep(shared.debug_worker_delay);
    }
    // A connection that died (or was shed) while this request queued
    // has nobody left to answer — don't burn a worker executing for it.
    if job.conn.is_closed() {
        return;
    }
    // The deadline covers queue wait: whatever the queue already ate
    // comes out of the execution budget, and a request that aged out
    // while queued is answered without running at all.
    let Some(remaining) = shared.deadline.checked_sub(job.enqueued.elapsed()) else {
        shared.counters.timeouts.fetch_add(1, Ordering::AcqRel);
        worker_error(
            job,
            ErrorCode::Timeout,
            &format!("deadline ({:?}) elapsed while queued", shared.deadline),
        );
        return;
    };
    match job
        .handle
        .execute_bound(&shared.data_dir, &job.params, Some(remaining))
    {
        Ok(run) => {
            shared.counters.executed.fetch_add(1, Ordering::AcqRel);
            send_result(
                shared,
                job,
                tier_code(run.tier),
                run.output.query_ms,
                &run.output.stdout,
            );
        }
        Err(ExecError::Timeout { .. }) => {
            shared.counters.timeouts.fetch_add(1, Ordering::AcqRel);
            worker_error(
                job,
                ErrorCode::Timeout,
                &format!("deadline ({:?}) elapsed during execution", shared.deadline),
            );
        }
        Err(ExecError::Exec(e)) => {
            shared.counters.exec_errors.fetch_add(1, Ordering::AcqRel);
            worker_error(job, ErrorCode::Internal, &e.to_string());
        }
        Err(ExecError::Binding(e)) => {
            shared.counters.malformed.fetch_add(1, Ordering::AcqRel);
            worker_error(job, ErrorCode::Malformed, &e);
        }
    }
}

/// The serving tier's wire code (`protocol::TIER_*`). Native stays `1`
/// for wire back-compat; jit took the next free code.
fn tier_code(tier: Tier) -> u8 {
    match tier {
        Tier::Interp => TIER_INTERP,
        Tier::Native => TIER_NATIVE,
        Tier::Jit => TIER_JIT,
    }
}

/// Ship one result: a single `RESULT` frame below the streaming
/// threshold, a `RESULT_CHUNK*` + `RESULT_END` sequence above it.
/// Backpressure applies per chunk, so a slow reader throttles the
/// stream instead of ballooning the write queue; a shed or closed
/// connection abandons the remainder.
fn send_result(shared: &Shared, job: &ExecJob, tier: u8, query_ms: f64, rows: &str) {
    let payload = encode_result(tier, query_ms, rows);
    if payload.len() <= shared.stream_threshold {
        job.conn.send_frame(OP_RESULT, job.seq, &payload);
        return;
    }
    shared.counters.chunked.fetch_add(1, Ordering::AcqRel);
    for chunk in payload.chunks(shared.stream_chunk) {
        if !job.conn.send_frame(OP_RESULT_CHUNK, job.seq, chunk) {
            return;
        }
    }
    job.conn
        .send_frame(OP_RESULT_END, job.seq, &encode_result_end(payload.len()));
}

/// The `stats` frame body: server counters + queue state, plus the
/// engine-wide snapshot rendered by the same
/// [`dblab_engine::service::EngineStats::to_json`] the benches embed.
fn stats_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let (depth, active, closed) = {
        let q = shared.q.lock().unwrap();
        (q.jobs.len(), q.active, q.closed)
    };
    let (prepared_cached, prepared_evicted, prepared_cap) = {
        let c = shared.prepared.lock().unwrap();
        (c.entries.len(), c.evicted, c.cap)
    };
    let server = json::Obj::new()
        .num("uptime_ms", shared.started.elapsed().as_secs_f64() * 1e3)
        .int("connections", c.connections.load(Ordering::Acquire))
        .int(
            "open_conns",
            shared.open_conns.load(Ordering::Acquire) as u64,
        )
        .int("executed", c.executed.load(Ordering::Acquire))
        .int("shed", c.shed.load(Ordering::Acquire))
        .int("timeouts", c.timeouts.load(Ordering::Acquire))
        .int("malformed", c.malformed.load(Ordering::Acquire))
        .int("rejected", c.rejected.load(Ordering::Acquire))
        .int("exec_errors", c.exec_errors.load(Ordering::Acquire))
        .int(
            "write_overflows",
            shared.write_overflows.load(Ordering::Acquire),
        )
        .int("chunked_results", c.chunked.load(Ordering::Acquire))
        .int("queue_depth", depth as u64)
        .int("queue_active", active as u64)
        .int("queue_cap", shared.queue_cap as u64)
        .int("prepared_cached", prepared_cached as u64)
        .int("prepared_evicted", prepared_evicted)
        .int("prepared_cap", prepared_cap as u64)
        .int("workers", shared.workers as u64)
        .int("io_threads", shared.io_threads as u64)
        .int("stream_threshold", shared.stream_threshold as u64)
        .num("deadline_ms", shared.deadline.as_secs_f64() * 1e3)
        .bool("draining", closed)
        .build();
    json::Obj::new()
        .raw("server", &server)
        .raw("engine", &shared.engine.stats().to_json())
        .build()
}
