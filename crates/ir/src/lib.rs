//! # dblab-ir — the shared intermediate representation of the DSL stack
//!
//! Every DSL level below the front-ends (ScaLite\[Map, List\], ScaLite\[List\],
//! ScaLite, C.Scala — see the paper's Figure 2) is encoded in **one** ANF IR.
//! What distinguishes the levels is the *vocabulary of nodes* a program may
//! contain, which we call a [`Level`] (the paper: "different DSLs or
//! abstraction levels may use the same IR; however, the information encoded
//! using these IRs may vary significantly", §3.3).
//!
//! The pieces:
//!
//! * [`types`] — the type language ([`Type`]) and the struct registry.
//! * [`expr`] — atoms, expressions, statements, blocks and [`Program`].
//! * [`level`] — DSL levels and the dialect validator that mechanically
//!   enforces the paper's *expressibility principle*.
//! * [`effects`] — a conservative effect system (pure / read / write /
//!   alloc / io) used by CSE, DCE and statement reordering.
//! * [`builder`] — the ANF builder. Every pure expression is hash-consed,
//!   which yields common-subexpression elimination "for free" (§3.3).
//! * [`rewrite`] — the generic program transformer all lowerings and
//!   optimizations are written against (reconstruction through a fresh
//!   builder re-applies CSE, mirroring the LMS/SC design the paper uses).
//! * [`opt`] — framework-level optimizations that come "out of the box"
//!   (dead-code elimination, unnecessary-let-binding removal; paper §6 and
//!   Appendix C).
//! * [`printer`] — pretty printer used for debugging and the examples.
//! * [`hash`] — stable structural fingerprints of programs (part of the
//!   compile-cache and build-cache keys).

pub mod builder;
pub mod effects;
pub mod expr;
pub mod hash;
pub mod level;
pub mod opt;
pub mod printer;
pub mod rewrite;
pub mod types;

pub use builder::IrBuilder;
pub use expr::{Atom, BinOp, Block, Expr, PrimOp, Program, Stmt, Sym, UnOp};
pub use level::Level;
pub use types::{FieldDef, StructDef, StructId, StructRegistry, Type};
