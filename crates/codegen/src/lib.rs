//! # dblab-codegen — backends and compilation below the DSL stack
//!
//! The bottom of the stack, redesigned around one seam: a [`Backend`]
//! turns a fully-lowered C.Scala program into an [`Executable`], and the
//! [`Compiler`] facade is the single compile/execute entry point used by
//! the benches, examples and differential tests:
//!
//! ```no_run
//! # let schema = dblab_catalog::Schema::default();
//! # let prog = dblab_frontend::qplan::QueryProgram::new(
//! #     dblab_frontend::qplan::QPlan::scan("nation"));
//! use dblab_codegen::{backend, Compiler};
//! let art = Compiler::new(&schema)
//!     .config(&dblab_transform::StackConfig::level5())
//!     .backend(backend("jit").unwrap())
//!     .compile(&prog)
//!     .expect("build");
//! println!("{}", art.stack.stage_report()); // per-pass trace
//! let out = art.run(std::path::Path::new("/data")).expect("run");
//! ```
//!
//! Three backends ship in the registry: [`CBackend`] (unparse to C, build
//! with `gcc -O3` — [`emit`] + [`cc`]), [`JitBackend`] (the same dialect
//! compiled to pre-resolved closures in-process — [`jit`]), and
//! [`InterpBackend`] (`dblab-interp` as a zero-build in-process
//! executable). Builds are memoized at two seams: [`build_cache`] skips
//! the toolchain for byte-identical emitted source, and the DSL stack
//! above caches one compiled query per input (`dblab_transform::memo`). See
//! DESIGN.md §5 for the trait contracts and §6 for the cache layers.

pub mod backend;
pub mod build_cache;
pub mod cc;
pub mod emit;
pub mod jit;
pub mod jit_rt;
mod jit_scan;
pub mod runtime;
mod tables;

pub use backend::{
    available_backends, backend, backends, format_param, run_binary, same_normalized,
    timeout_error, Backend, BuildInput, CBackend, CompiledArtifact, Compiler, Executable,
    InterpBackend, RunOutput,
};
pub use build_cache::{build_with_cache, BuildCacheStats, DiskCacheStats};
pub use cc::{compile_c, Compiled};
pub use emit::emit;
pub use jit::JitBackend;
