//! # dblab-engine — the Volcano-style reference engine
//!
//! The classical alternative to compilation (paper §1: System R "quickly
//! abandoned [compilation] in favor of query interpretation"): a
//! straightforward interpreter over [`dblab_frontend::qplan::QPlan`]. It is
//! deliberately simple and obviously correct — it serves as the **oracle**
//! every compiled configuration is differentially tested against, and as
//! the "interpretation" context point in the benchmarks.

//! Since the serving layer landed, this crate also hosts the other end of
//! the spectrum: [`service::QueryEngine`], a long-lived tiered engine
//! that serves prepared queries on the in-process jit immediately while
//! the native backend compiles in the background.

pub mod eval;
pub mod exec;
pub mod service;

pub use exec::{execute_plan, execute_program, execute_program_bound, ResultSet};
pub use service::{EngineOptions, NativeChoice, PreparedQuery, QueryEngine, Tier};
