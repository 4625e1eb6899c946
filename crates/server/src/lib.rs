//! `dblab-server` — the network serving front end.
//!
//! A concurrent TCP server over [`dblab_engine::service::QueryEngine`]:
//! length-prefixed binary frames ([`protocol`]), per-connection sessions
//! ([`session`]), a readiness reactor multiplexing every connection
//! onto a fixed set of I/O threads ([`reactor`]), a bounded request
//! worker pool with admission control and per-request deadlines, and a
//! graceful drain-then-join shutdown ([`server`]). [`client`] is the
//! matching blocking client used by the benchmark and the integration
//! tests.
//!
//! ```no_run
//! use dblab_server::{Client, Server, ServerOptions, tpch_resolver};
//!
//! let schema = dblab_tpch::schema::tpch_schema();
//! let server = Server::start(
//!     &schema,
//!     std::path::Path::new("tpch-data"),
//!     tpch_resolver(),
//!     ServerOptions::default(),
//! ).unwrap();
//!
//! let mut c = Client::connect(server.addr()).unwrap();
//! let stmt = c.prepare("tpch:6").unwrap();
//! let reply = c.execute(stmt).unwrap();
//! println!("{}", reply.rows);
//! c.close().unwrap();
//! let report = server.shutdown();
//! assert_eq!(report.executed, 1);
//! ```
//!
//! Linux only: every reactor thread is one `epoll` instance.

#[cfg(not(target_os = "linux"))]
compile_error!("dblab-server is Linux-only: its reactor is built on epoll");

pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, ExecReply};
pub use protocol::{ErrorCode, Frame};
pub use reactor::{ConnHandle, FrameHandler, Reactor, ReactorConfig};
pub use server::{tpch_resolver, QueryResolver, Server, ServerOptions, ShutdownReport};
