//! Shared by the `server_*` suites.

use std::io::Write;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The budget every server test gets unless it says otherwise: far above
/// a healthy run under the parallel harness, far below "the suite hangs
/// until someone kills it".
pub const LIMIT: Duration = Duration::from_secs(120);

/// Armed by [`watchdog`]; dropping it — normally or by unwinding —
/// disarms and *joins* the watchdog thread, so the thread-parity tests
/// never count a dying watchdog.
pub struct Watchdog(Option<(mpsc::Sender<()>, JoinHandle<()>)>);

/// Arm a watchdog for the calling test; hold the guard for the test's
/// whole body. A test still running after `limit` is wedged (a lost
/// wakeup, a drain that never finishes): the watchdog names it on stderr
/// and exits the test binary, so `cargo test -q` fails instead of
/// hanging. (libtest names each test's thread after the test.)
pub fn watchdog(limit: Duration) -> Watchdog {
    let test = std::thread::current().name().unwrap_or("?").to_string();
    let (disarm, armed) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // Straight to the fd: libtest captures `eprintln!`.
            let _ = writeln!(
                std::io::stderr(),
                "watchdog: `{test}` still running after {limit:?} — wedged; failing the test binary"
            );
            std::process::exit(101);
        }
    });
    Watchdog(Some((disarm, thread)))
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Some((disarm, thread)) = self.0.take() {
            drop(disarm);
            let _ = thread.join();
        }
    }
}
