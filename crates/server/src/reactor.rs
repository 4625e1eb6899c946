//! The readiness reactor: all connection sockets multiplexed onto a
//! fixed set of I/O threads.
//!
//! PR 7's front end spent one reader thread per connection — thousands
//! of sockets, not millions. Here a connection costs one registered fd
//! and a few hundred bytes of buffer state; each [`Reactor`] thread
//! drives every socket assigned to it through one `epoll` instance,
//! reached through tiny `extern "C"` declarations against the libc the
//! process already links, so no new dependency. The crate is Linux-only
//! (see the crate root).
//!
//! ## Connection state machine
//!
//! Every stream is nonblocking for its whole life. On readable, the
//! reactor drains the socket into a per-connection buffer and peels
//! complete frames off it (partial frames simply wait for more bytes);
//! each frame goes to the [`FrameHandler`] — the server's session
//! logic — which answers inline or hands the work to the worker pool.
//! Responses are never written directly: they are appended to the
//! connection's *write queue* ([`ConnHandle::try_send_frame`] from the
//! reactor thread, [`ConnHandle::send_frame`] from workers) and the
//! reactor flushes them as the socket accepts bytes, toggling
//! write-readiness interest only while a backlog exists.
//!
//! ## Backpressure and shedding
//!
//! The write queue is bounded (`write_buf_cap`). A worker appending a
//! response to a full queue waits on a condvar for the reactor to
//! drain it — but only up to `write_stall`: a peer that never reads
//! its responses gets its connection shed (queue dropped, socket
//! closed, `write_overflows` counted) rather than wedging a worker or
//! a reactor thread. The reactor itself never waits: an inline
//! response that cannot fit dooms the connection on the spot.
//!
//! ## Shutdown
//!
//! [`Reactor::request_shutdown`] stops accepting registrations,
//! flushes every connection's pending output for up to
//! `shutdown_grace`, then closes all sockets and exits the thread.
//! Nothing is detached; [`Reactor::join`] returns the process to its
//! prior thread count.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{Frame, HEADER, MAX_FRAME};
use crate::session::Session;

/// Raw readiness syscalls. Declared by hand (not via a crate): the
/// process already links libc, so the symbols are there; all we add is
/// the ABI surface we actually use.
mod sys {
    use std::os::raw::c_int;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;

    /// Matches the kernel's `struct epoll_event`; packed on x86-64
    /// only, where the kernel ABI really is unaligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> c_int;
    }
}

/// Clamp a socket's kernel send buffer. An explicit `SO_SNDBUF`
/// disables the kernel's per-socket auto-tuning (which can grow a
/// buffer to megabytes behind a slow reader), so at high connection
/// counts this bounds kernel memory per connection — and makes the
/// userspace write-queue backpressure the binding constraint instead of
/// multi-megabyte kernel slack.
fn clamp_sndbuf(stream: &TcpStream, bytes: usize) {
    let val = bytes.min(i32::MAX as usize) as std::os::raw::c_int;
    // SAFETY: the fd is open for the borrow of `stream`; `value` points
    // at a live `c_int` and `len` is its size. A failure leaves the
    // kernel default, which is harmless.
    unsafe {
        sys::setsockopt(
            stream.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            &val as *const _ as *const core::ffi::c_void,
            std::mem::size_of_val(&val) as u32,
        );
    }
}

/// Token `0` is the reactor's own wake pipe; connections start at `1`.
const WAKER_TOKEN: u64 = 0;
const MAX_EVENTS: usize = 256;
/// Per-readiness-round read budget: level-triggered polling re-reports
/// leftover bytes, so one firehose connection cannot monopolize a pass.
const READ_ROUNDS: usize = 8;

/// One readiness report out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

/// One epoll instance: interest state lives in the kernel.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross; the result is checked below.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` for the whole call (the
        // kernel copies it; `DEL` ignores it); `epfd` is ours until drop.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register with read interest (every registered fd is always
    /// read-watched; write interest toggles separately).
    fn add(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
    }

    /// Toggle write-readiness interest (read interest stays on).
    fn set_write(&mut self, fd: RawFd, token: u64, want: bool) -> io::Result<()> {
        let events = if want {
            sys::EPOLLIN | sys::EPOLLOUT
        } else {
            sys::EPOLLIN
        };
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&mut self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Collect readiness into `out`. Returns on events, timeout, or
    /// signal interruption — the caller's loop re-enters either way.
    /// Hangup/error conditions are folded into `readable`: the next
    /// read observes the EOF or reset and closes the connection.
    fn wait(&mut self, out: &mut Vec<Ready>, timeout: Duration) {
        out.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let mut evs = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: the kernel writes at most `MAX_EVENTS` entries into
        // `evs`, which holds exactly that many; only the first `n` are read.
        let n = unsafe { sys::epoll_wait(self.epfd, evs.as_mut_ptr(), MAX_EVENTS as i32, ms) };
        for ev in evs.iter().take(n.max(0) as usize) {
            let events = ev.events;
            out.push(Ready {
                token: ev.data,
                readable: events & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                writable: events & sys::EPOLLOUT != 0,
            });
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1`, nothing else owns it,
        // and it is closed exactly once, here.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// Reactor construction knobs, shared by every connection it owns.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Write-queue bound per connection; see the module docs for the
    /// shed policy on overflow.
    pub write_buf_cap: usize,
    /// How long a worker may wait for write-queue space before the
    /// connection is shed as a stalled reader.
    pub write_stall: Duration,
    /// How long shutdown flushes pending output before closing
    /// sockets regardless.
    pub shutdown_grace: Duration,
    /// Kernel send-buffer clamp per connection (`SO_SNDBUF`); `0`
    /// leaves the kernel default and its auto-tuning. See
    /// [`clamp_sndbuf`].
    pub sock_sndbuf: usize,
    /// Live-connection gauge, shared across the reactor set.
    pub open_conns: Arc<AtomicUsize>,
    /// Connections shed because their peer stopped draining responses.
    pub write_overflows: Arc<AtomicU64>,
}

/// The server's session logic, invoked by reactor threads. Handlers
/// must never block: answer inline via [`ConnHandle::try_send_frame`]
/// or hand the work to a pool that answers later via
/// [`ConnHandle::send_frame`].
pub trait FrameHandler: Send + Sync {
    /// One complete request frame. Return `false` to close the
    /// connection after its pending output flushes.
    fn on_frame(&self, conn: &Arc<ConnHandle>, frame: Frame) -> bool;
    /// An unrecoverable framing error (garbage length prefix). The
    /// handler gets one shot at a farewell frame; the reactor then
    /// flushes and closes.
    fn on_malformed(&self, conn: &Arc<ConnHandle>, detail: &str);
}

/// The bounded per-connection write queue. `head` is the flush
/// cursor — bytes before it are already on the wire.
#[derive(Default)]
struct OutBuf {
    data: Vec<u8>,
    head: usize,
    /// Close once `data` drains (graceful) — or immediately if it was
    /// cleared (shed).
    closing: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.data.len() - self.head
    }

    fn compact(&mut self) {
        if self.head == self.data.len() {
            self.data.clear();
            self.head = 0;
        } else if self.head > 64 * 1024 && self.head * 2 >= self.data.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

/// The handle session logic and workers hold on a connection. The
/// socket itself lives on the reactor thread; everything here is the
/// shared half: session state, the write queue, and liveness.
pub struct ConnHandle {
    token: u64,
    /// This connection's statement table.
    pub session: Mutex<Session>,
    out: Mutex<OutBuf>,
    /// Signalled whenever the reactor drains the write queue (or the
    /// connection dies) — what [`ConnHandle::send_frame`] waits on.
    space: Condvar,
    closed: AtomicBool,
    reactor: Arc<ReactorShared>,
}

impl ConnHandle {
    /// True once the reactor has torn the connection down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Append one response frame from a worker thread, waiting
    /// (bounded by `write_stall`) for queue space under backpressure.
    /// `false` means the connection is gone or was shed — the caller
    /// should abandon the remaining response.
    pub fn send_frame(&self, opcode: u8, seq: u32, payload: &[u8]) -> bool {
        let frame_len = 4 + HEADER + payload.len();
        let deadline = Instant::now() + self.reactor.cfg.write_stall;
        let mut out = self.out.lock().unwrap();
        loop {
            if self.closed.load(Ordering::Acquire) || out.closing {
                return false;
            }
            // A frame larger than the cap is admitted alone into an
            // empty queue; otherwise it could never be sent at all.
            if out.pending() == 0 || out.pending() + frame_len <= self.reactor.cfg.write_buf_cap {
                append_frame(&mut out.data, opcode, seq, payload);
                drop(out);
                self.mark_dirty();
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                // The peer is not draining its responses: shed the
                // connection rather than wedge this worker.
                out.closing = true;
                out.data.clear();
                out.head = 0;
                drop(out);
                self.reactor
                    .cfg
                    .write_overflows
                    .fetch_add(1, Ordering::AcqRel);
                self.mark_dirty();
                return false;
            }
            let (guard, _) = self.space.wait_timeout(out, deadline - now).unwrap();
            out = guard;
        }
    }

    /// Append one response frame without ever blocking — the reactor
    /// thread's path. A queue that cannot take the frame sheds the
    /// connection (a peer pipelining requests faster than it reads
    /// answers is the stalled-reader case again).
    pub fn try_send_frame(&self, opcode: u8, seq: u32, payload: &[u8]) -> bool {
        let frame_len = 4 + HEADER + payload.len();
        let mut out = self.out.lock().unwrap();
        if self.closed.load(Ordering::Acquire) || out.closing {
            return false;
        }
        if out.pending() > 0 && out.pending() + frame_len > self.reactor.cfg.write_buf_cap {
            out.closing = true;
            out.data.clear();
            out.head = 0;
            drop(out);
            self.reactor
                .cfg
                .write_overflows
                .fetch_add(1, Ordering::AcqRel);
            self.mark_dirty();
            return false;
        }
        append_frame(&mut out.data, opcode, seq, payload);
        drop(out);
        self.mark_dirty();
        true
    }

    /// Hand the token to the reactor: output to flush or state to act
    /// on. Coalesces with an immediately preceding mark for the same
    /// connection.
    fn mark_dirty(&self) {
        let mut ctl = self.reactor.ctl.lock().unwrap();
        if ctl.dirty.last() != Some(&self.token) {
            ctl.dirty.push(self.token);
        }
        drop(ctl);
        self.reactor.wake();
    }
}

fn append_frame(buf: &mut Vec<u8>, opcode: u8, seq: u32, payload: &[u8]) {
    let len = HEADER + payload.len();
    debug_assert!(len <= MAX_FRAME);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(opcode);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Cross-thread mailbox into a reactor: new connections, dirty
/// tokens, the shutdown flag, and the wake pipe that interrupts
/// `wait`.
struct ReactorShared {
    cfg: ReactorConfig,
    ctl: Mutex<Control>,
    wake_tx: UnixStream,
}

#[derive(Default)]
struct Control {
    dirty: Vec<u64>,
    inbox: Vec<TcpStream>,
    shutdown: bool,
}

impl ReactorShared {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // uninteresting.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The accept thread's handle for assigning connections to a reactor.
#[derive(Clone)]
pub struct ReactorRegistrar(Arc<ReactorShared>);

impl ReactorRegistrar {
    /// Assign a freshly accepted stream to this reactor. A reactor
    /// already shutting down drops the stream (the OS sends the
    /// peer a reset).
    pub fn register(&self, stream: TcpStream) {
        let mut ctl = self.0.ctl.lock().unwrap();
        if ctl.shutdown {
            return;
        }
        ctl.inbox.push(stream);
        drop(ctl);
        self.0.wake();
    }
}

/// One running reactor thread.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Spawn a reactor thread with its epoll instance and wake pipe; an
    /// `epoll_create1` failure is this call's error.
    pub fn spawn(
        name: &str,
        handler: Arc<dyn FrameHandler>,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(wake_rx.as_raw_fd(), WAKER_TOKEN)?;
        let shared = Arc::new(ReactorShared {
            cfg,
            ctl: Mutex::new(Control::default()),
            wake_tx,
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                ReactorThread {
                    shared: thread_shared,
                    handler,
                    poller,
                    wake_rx,
                    conns: HashMap::new(),
                    next_token: WAKER_TOKEN + 1,
                    shutdown_at: None,
                }
                .run()
            })?;
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    pub fn registrar(&self) -> ReactorRegistrar {
        ReactorRegistrar(Arc::clone(&self.shared))
    }

    /// Begin shutdown: no new registrations, flush-then-close every
    /// connection, exit the thread.
    pub fn request_shutdown(&self) {
        self.shared.ctl.lock().unwrap().shutdown = true;
        self.shared.wake();
    }

    /// Join the reactor thread (idempotent).
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join();
    }
}

/// Per-connection state owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    handle: Arc<ConnHandle>,
    /// Read reassembly buffer; `rhead` is the parse cursor.
    rbuf: Vec<u8>,
    rhead: usize,
    /// Mirror of the poller's write-interest bit.
    want_write: bool,
    /// Session logic decided to close: remaining input is discarded,
    /// remaining output flushes, then the socket closes.
    closing_reads: bool,
}

enum Parsed {
    /// No complete frame buffered; wait for more bytes.
    Incomplete,
    Frame(Arc<ConnHandle>, Frame),
    Malformed(Arc<ConnHandle>, String),
}

struct ReactorThread {
    shared: Arc<ReactorShared>,
    handler: Arc<dyn FrameHandler>,
    poller: Poller,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shutdown_at: Option<Instant>,
}

impl ReactorThread {
    fn run(mut self) {
        let mut events: Vec<Ready> = Vec::with_capacity(MAX_EVENTS);
        loop {
            let (dirty, inbox, shutdown) = {
                let mut ctl = self.shared.ctl.lock().unwrap();
                (
                    std::mem::take(&mut ctl.dirty),
                    std::mem::take(&mut ctl.inbox),
                    ctl.shutdown,
                )
            };
            if shutdown && self.shutdown_at.is_none() {
                self.shutdown_at = Some(Instant::now());
            }
            for stream in inbox {
                if self.shutdown_at.is_none() {
                    self.register_conn(stream);
                }
            }
            for token in dirty {
                self.flush_conn(token);
            }
            if let Some(t0) = self.shutdown_at {
                let grace_over = t0.elapsed() >= self.shared.cfg.shutdown_grace;
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    let flushed =
                        grace_over || self.conns[&token].handle.out.lock().unwrap().pending() == 0;
                    if flushed {
                        self.close_conn(token);
                    } else {
                        self.flush_conn(token);
                    }
                }
                if self.conns.is_empty() {
                    return;
                }
            }
            let timeout = if self.shutdown_at.is_some() {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(200)
            };
            self.poller.wait(&mut events, timeout);
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.token == WAKER_TOKEN {
                    self.drain_waker();
                    continue;
                }
                if ev.writable {
                    self.flush_conn(ev.token);
                }
                if ev.readable {
                    self.read_conn(ev.token);
                }
            }
            events = batch;
        }
    }

    fn drain_waker(&mut self) {
        let mut scratch = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut scratch), Ok(n) if n > 0) {}
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if self.shared.cfg.sock_sndbuf > 0 {
            clamp_sndbuf(&stream, self.shared.cfg.sock_sndbuf);
        }
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token).is_err() {
            return;
        }
        let handle = Arc::new(ConnHandle {
            token,
            session: Mutex::new(Session::new()),
            out: Mutex::new(OutBuf::default()),
            space: Condvar::new(),
            closed: AtomicBool::new(false),
            reactor: Arc::clone(&self.shared),
        });
        self.shared.cfg.open_conns.fetch_add(1, Ordering::AcqRel);
        self.conns.insert(
            token,
            Conn {
                stream,
                handle,
                rbuf: Vec::new(),
                rhead: 0,
                want_write: false,
                closing_reads: false,
            },
        );
        // A nonempty buffer can exist before registration completes
        // only via the handler, which runs after this; nothing to
        // flush yet.
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.del(conn.stream.as_raw_fd());
            {
                // `closed` flips under the out lock so a worker parked
                // in `send_frame` cannot miss the wakeup.
                let mut out = conn.handle.out.lock().unwrap();
                conn.handle.closed.store(true, Ordering::Release);
                out.closing = true;
                out.data.clear();
                out.head = 0;
            }
            conn.handle.space.notify_all();
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.shared.cfg.open_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Write as much queued output as the socket accepts; close on
    /// error or when a closing connection fully drains; keep the
    /// poller's write interest in sync with the backlog.
    fn flush_conn(&mut self, token: u64) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut out = conn.handle.out.lock().unwrap();
            let mut dead = false;
            while out.pending() > 0 {
                let head = out.head;
                match (&conn.stream).write(&out.data[head..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => out.head += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            out.compact();
            let empty = out.pending() == 0;
            let closing = out.closing;
            drop(out);
            conn.handle.space.notify_all();
            if dead || (empty && closing) {
                true
            } else {
                let want = !empty;
                if want != conn.want_write {
                    let _ = self.poller.set_write(conn.stream.as_raw_fd(), token, want);
                    conn.want_write = want;
                }
                false
            }
        };
        if close {
            self.close_conn(token);
        }
    }

    /// Drain readable bytes and dispatch every complete frame.
    fn read_conn(&mut self, token: u64) {
        let mut scratch = [0u8; 32 * 1024];
        for _ in 0..READ_ROUNDS {
            let read = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                (&conn.stream).read(&mut scratch)
            };
            match read {
                Ok(0) => {
                    // EOF. Mid-frame leftovers are dropped silently —
                    // the peer hung up; there is nobody to answer.
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let discard = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return;
                        };
                        if conn.closing_reads {
                            true
                        } else {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            false
                        }
                    };
                    if !discard {
                        self.parse_frames(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Peel complete frames off the read buffer and hand them to the
    /// handler, until the buffer runs dry or the connection begins
    /// closing.
    fn parse_frames(&mut self, token: u64) {
        loop {
            match self.next_frame(token) {
                Parsed::Incomplete => return,
                Parsed::Malformed(handle, detail) => {
                    self.handler.on_malformed(&handle, &detail);
                    self.doom_conn(token);
                    return;
                }
                Parsed::Frame(handle, frame) => {
                    if !self.handler.on_frame(&handle, frame) {
                        self.doom_conn(token);
                        return;
                    }
                }
            }
        }
    }

    fn next_frame(&mut self, token: u64) -> Parsed {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Parsed::Incomplete;
        };
        if conn.closing_reads {
            conn.rbuf.clear();
            conn.rhead = 0;
            return Parsed::Incomplete;
        }
        let avail = conn.rbuf.len() - conn.rhead;
        if avail < 4 {
            compact_rbuf(conn);
            return Parsed::Incomplete;
        }
        let len =
            u32::from_be_bytes(conn.rbuf[conn.rhead..conn.rhead + 4].try_into().unwrap()) as usize;
        if !(HEADER..=MAX_FRAME).contains(&len) {
            return Parsed::Malformed(
                Arc::clone(&conn.handle),
                format!("frame length {len} outside [{HEADER}, {MAX_FRAME}]"),
            );
        }
        if avail < 4 + len {
            compact_rbuf(conn);
            return Parsed::Incomplete;
        }
        let body = &conn.rbuf[conn.rhead + 4..conn.rhead + 4 + len];
        let frame = Frame {
            opcode: body[0],
            seq: u32::from_be_bytes(body[1..5].try_into().unwrap()),
            payload: body[5..].to_vec(),
        };
        conn.rhead += 4 + len;
        Parsed::Frame(Arc::clone(&conn.handle), frame)
    }

    /// Stop reading, flush what is queued, then close.
    fn doom_conn(&mut self, token: u64) {
        let handle = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.closing_reads = true;
            conn.rbuf.clear();
            conn.rhead = 0;
            Arc::clone(&conn.handle)
        };
        handle.out.lock().unwrap().closing = true;
        self.flush_conn(token);
    }
}

fn compact_rbuf(conn: &mut Conn) {
    if conn.rhead == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rhead = 0;
    } else if conn.rhead > 64 * 1024 && conn.rhead * 2 >= conn.rbuf.len() {
        conn.rbuf.drain(..conn.rhead);
        conn.rhead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_frame, OP_STATS, OP_STATS_REPLY};
    use std::net::TcpListener;

    fn test_cfg() -> ReactorConfig {
        ReactorConfig {
            write_buf_cap: 1 << 20,
            write_stall: Duration::from_secs(2),
            shutdown_grace: Duration::from_secs(2),
            sock_sndbuf: 0,
            open_conns: Arc::new(AtomicUsize::new(0)),
            write_overflows: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Echoes every frame back with the response bit set; closes on
    /// opcode 0xFF.
    struct Echo;

    impl FrameHandler for Echo {
        fn on_frame(&self, conn: &Arc<ConnHandle>, frame: Frame) -> bool {
            if frame.opcode == 0xFF {
                return false;
            }
            conn.try_send_frame(frame.opcode | 0x80, frame.seq, &frame.payload);
            true
        }

        fn on_malformed(&self, conn: &Arc<ConnHandle>, _detail: &str) {
            conn.try_send_frame(0xEE, 0, b"bad");
        }
    }

    #[test]
    fn epoll_reports_readiness() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller.add(a.as_raw_fd(), 7).unwrap();
        let mut out = Vec::new();
        poller.wait(&mut out, Duration::from_millis(10));
        assert!(out.is_empty(), "no readiness before any write");
        (&b).write_all(b"x").unwrap();
        poller.wait(&mut out, Duration::from_millis(1000));
        assert!(
            out.iter().any(|r| r.token == 7 && r.readable),
            "readable after peer write"
        );
        poller.set_write(a.as_raw_fd(), 7, true).unwrap();
        poller.wait(&mut out, Duration::from_millis(1000));
        assert!(
            out.iter().any(|r| r.token == 7 && r.writable),
            "writable once write interest is on"
        );
        poller.del(a.as_raw_fd());
        poller.wait(&mut out, Duration::from_millis(10));
        assert!(out.is_empty(), "deregistered fd reports nothing");
    }

    #[test]
    fn echo_reactor_round_trip() {
        let cfg = test_cfg();
        let open = Arc::clone(&cfg.open_conns);
        let mut reactor = Reactor::spawn("echo-reactor", Arc::new(Echo), cfg).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.registrar().register(server_side);

        let mut w = client.try_clone().unwrap();
        write_frame(&mut w, OP_STATS, 41, b"ping").unwrap();
        let mut r = std::io::BufReader::new(client.try_clone().unwrap());
        let f = crate::protocol::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            (f.opcode, f.seq, &f.payload[..]),
            (OP_STATS_REPLY, 41, &b"ping"[..])
        );
        assert_eq!(open.load(Ordering::Acquire), 1);

        // Byte-dribbled frame: the reactor reassembles partial reads.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_STATS, 42, b"slow").unwrap();
        for byte in buf {
            use std::io::Write as _;
            w.write_all(&[byte]).unwrap();
            w.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let f = crate::protocol::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            (f.opcode, f.seq, &f.payload[..]),
            (OP_STATS_REPLY, 42, &b"slow"[..])
        );

        // Handler-driven close (opcode 0xFF): EOF on the client side.
        write_frame(&mut w, 0xFF, 43, &[]).unwrap();
        assert!(crate::protocol::read_frame(&mut r).unwrap().is_none());

        reactor.request_shutdown();
        reactor.join();
        assert_eq!(open.load(Ordering::Acquire), 0);
    }

    #[test]
    fn malformed_length_prefix_answers_then_closes() {
        let mut reactor = Reactor::spawn("bad-reactor", Arc::new(Echo), test_cfg()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.registrar().register(server_side);
        let mut w = client.try_clone().unwrap();
        {
            use std::io::Write as _;
            w.write_all(&u32::MAX.to_be_bytes()).unwrap();
        }
        let mut r = std::io::BufReader::new(client);
        let f = crate::protocol::read_frame(&mut r).unwrap().unwrap();
        assert_eq!((f.opcode, &f.payload[..]), (0xEE, &b"bad"[..]));
        assert!(
            crate::protocol::read_frame(&mut r).unwrap().is_none(),
            "socket closes after the farewell frame"
        );
        reactor.request_shutdown();
        reactor.join();
    }
}
