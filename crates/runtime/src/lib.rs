//! # dblab-runtime — the execution-time substrate
//!
//! Everything a running query touches: dynamic [`value::Value`]s, columnar
//! [`table::Table`]s with `.tbl` IO (format-compatible with TPC-H `dbgen`
//! output), order-preserving string dictionaries (paper §5.3), and the
//! resident [`snapshot`] the in-process executors read a data directory
//! through.
//!
//! The Volcano reference engine, the IR interpreter and the TPC-H data
//! generator are all built on this crate.

pub mod json;
pub mod like;
pub mod snapshot;
pub mod string_dict;
pub mod table;
pub mod value;

pub use snapshot::{Snapshot, TableSnapshot};
pub use string_dict::StringDict;
pub use table::{ColData, Database, Table};
pub use value::Value;
