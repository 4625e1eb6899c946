//! # dblab-transform — the DSL stack
//!
//! This crate realises the paper's central artifact: a stack of DSL levels
//! connected by *lowering* transformations, with *optimizations* applied to
//! fixpoint inside each level (§2). The [`stack`] module drives the whole
//! pipeline; everything else is one transformation each (the units counted
//! in the paper's Table 4):
//!
//! | module | paper | kind |
//! |--------|-------|------|
//! | [`pipeline`] | pipelining for QPlan, §5.1 | lowering QPlan → ScaLite\[Map, List\] |
//! | [`fusion`] | pipelining for QMonad (shortcut fusion), §5.1 | lowering QMonad → ScaLite\[Map, List\] |
//! | [`string_dict`] | string dictionaries, §5.3 | optimization @ ScaLite\[Map, List\] |
//! | [`index_inference`] | automatic index inference + partitioning, §5.2/App. B.1 | analysis run inside pipelining |
//! | [`hash_spec`] | hash-table specialization, §5.2/App. B.2 | lowering ScaLite\[Map, List\] → ScaLite\[List\] |
//! | [`list_spec`] | list specialization, §4.4 | lowering ScaLite\[List\] → ScaLite |
//! | [`field_removal`] | unused-struct-field removal, App. C | optimization @ ScaLite |
//! | [`mem_hoist`] | memory-allocation hoisting, App. D.1 | lowering ScaLite → C.Scala |
//! | [`layout`] | storage-layout specialization, App. C | decision pipelining records for the C.Scala unparser |
//! | [`fine`] | `&&` → `&` and friends, App. E | optimization @ C.Scala |
//!
//! The scalar expression lowering shared by both front-ends lives in
//! [`scalar`]; [`config`] defines the per-level optimization sets (the
//! experiment axis of the paper's Table 3).
//!
//! `index_inference` and `layout` are not passes: pipelining calls the
//! first as a hook (gated by `StackConfig::index_inference`) and writes
//! the second's decision into each `LoadTable`'s `layout`. Every other
//! transformation above is registered with the contract-checked
//! **pass manager** in [`pass`]: a [`pass::Pass`] declares its name, its
//! input/output [`dblab_ir::Level`] contract and an `applies(cfg)`
//! predicate, and the [`stack`] driver assembles the pipeline from the
//! registry — which passes run is decided by data ([`StackConfig`]), not
//! call sites, and debug builds mechanically validate the dialect after
//! every pass.

pub mod config;
pub mod field_removal;
pub mod fine;
pub mod fusion;
pub mod hash_spec;
pub mod index_inference;
pub mod layout;
pub mod list_spec;
pub mod mem_hoist;
pub mod memo;
pub mod pass;
pub mod pipeline;
pub mod scalar;
pub mod schedule;
pub mod stack;
pub mod string_dict;

pub use config::StackConfig;
pub use pass::{Pass, PassCtx, PassKind};
pub use schedule::{ScheduleChoice, Scheduler};
pub use stack::{
    compile, compile_cost_scored, compile_ordered, CompiledQuery, CostScored, StageSnapshot,
};
