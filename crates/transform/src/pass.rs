//! The contract-checked pass manager.
//!
//! The paper's architecture is "a stack of many small, composable passes"
//! with per-level dialect guarantees (§2). This module gives that stack a
//! formal seam: every transformation is a [`Pass`] declaring
//!
//! * a **name** (the stage label in traces and benches),
//! * its **input/output [`Level`] contract** — the dialect edge it walks,
//!   matching the edges fed to the [`crate::config::StackBuilder`] checker,
//! * an **`applies` predicate** over [`StackConfig`] — the Table 3
//!   experiment axis decides membership, not hard-coded call sites.
//!
//! The driver ([`crate::stack`]) assembles the pipeline from
//! [`registry`], statically checks it with [`check_pipeline`], runs each
//! pass to fixpoint via [`apply_one`], and — in debug/test builds —
//! mechanically validates the program after *every* pass against the
//! dialect window it is entitled to (see [`dblab_ir::level::validate_window`]).
//!
//! ### The dialect window
//!
//! With the full stack enabled every lowering discharges the vocabulary
//! exclusive to its source level, so after each pass the program conforms
//! to exactly one dialect. Partial stacks (levels 2–4, the compliant
//! config) skip lowerings on purpose; the vocabulary those lowerings would
//! have removed legitimately survives downward and is handled by the
//! generic code generator. The driver therefore tracks a *ceiling* — the
//! most abstract level whose vocabulary has not yet been discharged — and
//! the post-pass contract is: **no node outside `[ceiling, current
//! level]`**. When every lowering runs, ceiling == current level and the
//! check is exact dialect conformance.

use std::time::Instant;

use dblab_catalog::Schema;
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::QueryProgram;
use dblab_ir::opt::optimize;
use dblab_ir::{Level, Program};

use crate::config::StackConfig;
use crate::stack::StageSnapshot;
use crate::{field_removal, fine, fusion, hash_spec, list_spec, mem_hoist, pipeline, string_dict};

/// What a pass *does* to the program (the paper's Table 4 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Front-end AST → top-level IR (pipelining / shortcut fusion, §5.1).
    FrontendLowering,
    /// Level *n* → level *n+1*: discharges the source level's vocabulary.
    Lowering,
    /// Rewrites within one level, applied to fixpoint.
    Optimization,
}

/// Everything a pass may consult besides the program itself.
pub struct PassCtx<'a> {
    pub schema: &'a Schema,
    pub cfg: &'a StackConfig,
}

/// One transformation of the DSL stack.
///
/// `Send + Sync` is part of the contract: a pass is stateless (its
/// rewrite is a pure function of program + context — that purity is what
/// licenses the [`crate::memo`] compile cache), so one registry instance
/// and one [`crate::schedule::Scheduler`] can serve concurrent sweeps.
pub trait Pass: Send + Sync {
    /// Stage label; also the edge name in the declared stack.
    fn name(&self) -> &'static str;

    fn kind(&self) -> PassKind;

    /// The level this pass is *defined at* (its input dialect).
    fn source(&self) -> Level;

    /// The level its output conforms to. Equal to [`Pass::source`] for
    /// optimizations/analyses; one step lower for lowerings.
    fn target(&self) -> Level;

    /// Does the configuration enable this pass? The driver builds the
    /// pipeline from exactly the passes answering `true` — membership is
    /// data-driven, never a call-site `if`.
    fn applies(&self, cfg: &StackConfig) -> bool {
        let _ = cfg;
        true
    }

    /// A floating pass only uses common-core (ScaLite) vocabulary and may
    /// therefore run at whatever level the partial stack has reached, not
    /// just its declared [`Pass::source`] — the expressibility principle
    /// (§2.2) is what makes this sound.
    fn floats(&self) -> bool {
        false
    }

    /// Registry names of passes that must run **before** this one, beyond
    /// what the level structure already implies (see
    /// [`crate::schedule`]). An edge here is a *semantic* claim: this
    /// pass's output depends on whether the named pass has already run, so
    /// the two do not commute. Any pair of passes left unordered by the
    /// resulting DAG is declared commuting, and every valid order
    /// ([`crate::schedule::Scheduler::orders`]) is held to the baseline's
    /// `program_hash` on the 22 TPC-H queries.
    fn after(&self) -> &'static [&'static str] {
        &[]
    }

    /// Registry names of passes that must run **after** this one (the
    /// mirror of [`Pass::after`], for when the constraint reads more
    /// naturally from the earlier pass's side).
    fn before(&self) -> &'static [&'static str] {
        &[]
    }

    /// The rewrite. Its output must be a program [`dblab_ir::IrBuilder`]
    /// emitted (a `run_rule` rewrite, or the input with fields renumbered
    /// in place): the post-pass [`optimize`] only deletes dead code and
    /// renumbers, and debug builds assert that an identity rebuild leaves
    /// its result unchanged.
    fn run(&self, p: &Program, ctx: &PassCtx) -> Program;
}

/// A front-end lowering: a source AST (not IR) into the top IR level.
pub trait Frontend {
    fn name(&self) -> &'static str;
    fn target(&self) -> Level {
        Level::MapList
    }
    fn lower(&self, ctx: &PassCtx) -> Program;
}

/// Operator pipelining for the QPlan front-end (§5.1).
pub struct PlanLowering<'a>(pub &'a QueryProgram);

impl Frontend for PlanLowering<'_> {
    fn name(&self) -> &'static str {
        "pipelining"
    }
    fn lower(&self, ctx: &PassCtx) -> Program {
        pipeline::lower_program(self.0, ctx.schema, ctx.cfg)
    }
}

/// Shortcut fusion for the QMonad front-end (§4.5/§5.1). Shares the stage
/// name with [`PlanLowering`]: both are the paper's "pipelining" step,
/// reached from different surface syntaxes.
pub struct MonadLowering<'a>(pub &'a QMonad);

impl Frontend for MonadLowering<'_> {
    fn name(&self) -> &'static str {
        "pipelining"
    }
    fn lower(&self, ctx: &PassCtx) -> Program {
        fusion::lower_qmonad(self.0, ctx.schema, ctx.cfg)
    }
}

// ---------------------------------------------------------------------
// The registered passes
// ---------------------------------------------------------------------

/// String dictionaries (§5.3).
struct StringDictionaries;

impl Pass for StringDictionaries {
    fn name(&self) -> &'static str {
        "string-dictionaries"
    }
    fn kind(&self) -> PassKind {
        PassKind::Optimization
    }
    fn source(&self) -> Level {
        Level::MapList
    }
    fn target(&self) -> Level {
        Level::MapList
    }
    fn applies(&self, cfg: &StackConfig) -> bool {
        cfg.string_dict
    }
    /// Field removal re-indexes the `StructNew` argument lists this
    /// pass's retyping step anchors on (swapped, it crashes outright);
    /// branch optimization restructures the string comparisons it
    /// pattern-matches.
    fn before(&self) -> &'static [&'static str] {
        &["field-removal", "branch-optimization"]
    }
    fn run(&self, p: &Program, ctx: &PassCtx) -> Program {
        string_dict::apply(p, ctx.schema)
    }
}

/// Hash-table specialization: ScaLite\[Map, List\] → ScaLite\[List\]
/// (§5.2, App. B.2).
struct HashTableSpecialization;

impl Pass for HashTableSpecialization {
    fn name(&self) -> &'static str {
        "hash-table-specialization"
    }
    fn kind(&self) -> PassKind {
        PassKind::Lowering
    }
    fn source(&self) -> Level {
        Level::MapList
    }
    fn target(&self) -> Level {
        Level::List
    }
    fn applies(&self, cfg: &StackConfig) -> bool {
        cfg.hash_spec
    }
    fn run(&self, p: &Program, ctx: &PassCtx) -> Program {
        hash_spec::apply(p, ctx.cfg)
    }
}

/// List specialization: ScaLite\[List\] → ScaLite (§4.4).
struct ListSpecialization;

impl Pass for ListSpecialization {
    fn name(&self) -> &'static str {
        "list-specialization"
    }
    fn kind(&self) -> PassKind {
        PassKind::Lowering
    }
    fn source(&self) -> Level {
        Level::List
    }
    fn target(&self) -> Level {
        Level::ScaLite
    }
    fn applies(&self, cfg: &StackConfig) -> bool {
        cfg.list_spec
    }
    fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
        list_spec::apply(p)
    }
}

/// Unused-struct-field removal (App. C). Core-vocabulary rewrites only, so
/// it floats with partial stacks; whether *base-table* columns may be
/// pruned (not TPC-H compliant) is itself config-driven.
struct FieldRemoval;

impl Pass for FieldRemoval {
    fn name(&self) -> &'static str {
        "field-removal"
    }
    fn kind(&self) -> PassKind {
        PassKind::Optimization
    }
    fn source(&self) -> Level {
        Level::ScaLite
    }
    fn target(&self) -> Level {
        Level::ScaLite
    }
    fn floats(&self) -> bool {
        true
    }
    /// Run on the *specialized* data structures: hash-table
    /// specialization materializes records whose liveness this pass
    /// decides (measured: up to 6/22 queries diverge when swapped).
    fn after(&self) -> &'static [&'static str] {
        &["hash-table-specialization"]
    }
    /// Memory hoisting sizes pools from the record layouts this pass
    /// prunes — hoist first and the pools are sized for fields that no
    /// longer exist.
    fn before(&self) -> &'static [&'static str] {
        &["memory-hoisting"]
    }
    fn run(&self, p: &Program, ctx: &PassCtx) -> Program {
        field_removal::apply(p, ctx.cfg.table_field_removal)
    }
}

/// Memory-allocation hoisting into pre-sized pools: ScaLite → C.Scala
/// (App. D.1). Rewrites core allocation sites, so it floats: a partial
/// stack hands it whatever level it reached and it still lands at C.Scala.
struct MemoryHoisting;

impl Pass for MemoryHoisting {
    fn name(&self) -> &'static str {
        "memory-hoisting"
    }
    fn kind(&self) -> PassKind {
        PassKind::Lowering
    }
    fn source(&self) -> Level {
        Level::ScaLite
    }
    fn target(&self) -> Level {
        Level::CScala
    }
    fn applies(&self, cfg: &StackConfig) -> bool {
        cfg.mem_pools
    }
    fn floats(&self) -> bool {
        true
    }
    fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
        mem_hoist::apply(p)
    }
}

/// `&&` → `&` branch optimization (App. E).
struct BranchOptimization;

impl Pass for BranchOptimization {
    fn name(&self) -> &'static str {
        "branch-optimization"
    }
    fn kind(&self) -> PassKind {
        PassKind::Optimization
    }
    fn source(&self) -> Level {
        Level::CScala
    }
    fn target(&self) -> Level {
        Level::CScala
    }
    fn applies(&self, cfg: &StackConfig) -> bool {
        cfg.branchless
    }
    fn floats(&self) -> bool {
        true
    }
    /// Hash-table specialization emits fresh `&&` chains in its bucket
    /// probes; run the `&&` → `&` rewrite before it and those are missed
    /// (measured: 9/22 queries diverge when swapped).
    fn after(&self) -> &'static [&'static str] {
        &["hash-table-specialization"]
    }
    fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
        fine::apply(p)
    }
}

/// The full pass registry, in stack order (top of the DSL stack first).
/// Which of these actually run for a given build is decided exclusively by
/// each pass's [`Pass::applies`] against the [`StackConfig`].
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(StringDictionaries),
        Box::new(HashTableSpecialization),
        Box::new(ListSpecialization),
        Box::new(FieldRemoval),
        Box::new(MemoryHoisting),
        Box::new(BranchOptimization),
    ]
}

/// Every edge the registry declares, for the formal stack checker
/// ([`crate::config::dblab_stack`] feeds these to the §2.3 principles).
pub fn declared_edges() -> Vec<(&'static str, Level, Level)> {
    registry()
        .iter()
        .map(|p| (p.name(), p.source(), p.target()))
        .collect()
}

/// Statically check the pipeline a configuration selects: every pass must
/// find the program at a level it accepts, given the lowerings enabled
/// before it. Returns the selected passes in execution order.
pub fn check_pipeline<'r>(
    passes: &'r [Box<dyn Pass>],
    cfg: &StackConfig,
) -> Result<Vec<&'r dyn Pass>, String> {
    let selected: Vec<&dyn Pass> = passes
        .iter()
        .filter(|p| p.applies(cfg))
        .map(|p| p.as_ref())
        .collect();
    if let Some(p) = selected.iter().find(|p| p.target() < p.source()) {
        return Err(format!(
            "pass {} is declared upward ({} -> {}), violating expressibility",
            p.name(),
            p.source(),
            p.target()
        ));
    }
    check_levels(&selected).map_err(|e| {
        format!(
            "{e} under config `{}` — enable the lowerings in between or mark \
             the pass floating",
            cfg.name
        )
    })?;
    Ok(selected)
}

/// The level simulation behind both [`check_pipeline`] and
/// [`crate::schedule::Scheduler::validate_order`]: walk `passes` in order
/// from ScaLite\[Map, List\] and fail at the first non-floating pass that
/// meets the program at a level other than its source. Mirrors the
/// runtime contract in [`apply_one`]: only a lowering moves the program
/// level; a floating optimization's declared target says where it is
/// *defined*, not where the program ends up.
pub(crate) fn check_levels(passes: &[&dyn Pass]) -> Result<(), String> {
    let mut level = Level::MapList;
    for p in passes {
        if !p.floats() && p.source() != level {
            return Err(format!(
                "pass {} expects {} input but is handed {}",
                p.name(),
                p.source(),
                level
            ));
        }
        if p.kind() == PassKind::Lowering {
            level = level.max(p.target());
        }
    }
    Ok(())
}

/// How far the dialect ceiling drops after `pass` runs: a lowering whose
/// source *is* the ceiling discharges that level's exclusive vocabulary.
pub fn advance_ceiling(ceiling: Level, pass: &dyn Pass) -> Level {
    if pass.kind() == PassKind::Lowering && pass.source() == ceiling {
        ceiling.lower().unwrap_or(ceiling)
    } else {
        ceiling
    }
}

/// Run one pass: rewrite, re-optimize to fixpoint, check the level
/// contract, and (when `validate` is set — debug/test builds) mechanically
/// verify the output against the dialect window `[ceiling, level]`.
/// `size_before` is `p`'s statement count, which the stage that produced
/// `p` has already counted.
pub fn apply_one(
    pass: &dyn Pass,
    p: &Program,
    size_before: usize,
    ctx: &PassCtx,
    ceiling: Level,
    validate: bool,
) -> Result<(Program, StageSnapshot), String> {
    let t0 = Instant::now();
    let level_before = p.level;
    let q = pass.run(p, ctx);
    let t = Instant::now();
    let q = optimize(q);
    let fixpoint = t.elapsed();
    // Only a lowering moves the level; everything else preserves the level
    // the (possibly partial) stack has reached.
    let expected = if pass.kind() == PassKind::Lowering {
        level_before.max(pass.target())
    } else {
        level_before
    };
    if q.level != expected {
        return Err(format!(
            "pass {} declared target {} but produced a {} program (input was {})",
            pass.name(),
            pass.target(),
            q.level,
            level_before
        ));
    }
    if validate {
        // Schedule-order-stable window: depends only on which lowerings
        // have run (the ceiling), never on where this pass sits.
        let violations = dblab_ir::level::validate_stage(&q, ceiling);
        if !violations.is_empty() {
            return Err(format!(
                "pass {} violated its output dialect [{}, {}]: {} violation(s), first: {}",
                pass.name(),
                ceiling.min(q.level),
                q.level,
                violations.len(),
                violations[0]
            ));
        }
    }
    let snap = StageSnapshot {
        name: pass.name().to_string(),
        kind: pass.kind(),
        level_before,
        level: q.level,
        size_before,
        size: q.body.size(),
        time: t0.elapsed(),
        fixpoint,
    };
    Ok((q, snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::expr::{Atom, Block, Expr, Stmt, Sym};
    use dblab_ir::types::{StructRegistry, Type};

    fn maplist_prog() -> Program {
        Program {
            structs: StructRegistry::new(),
            body: Block::unit(vec![Stmt {
                sym: Sym(0),
                ty: Type::Int,
                expr: Expr::Bin(dblab_ir::BinOp::Add, Atom::Int(1), Atom::Int(2)),
            }]),
            sym_types: vec![Type::Int],
            level: Level::MapList,
        }
    }

    /// A pass that claims to stay at ScaLite[Map, List] but injects
    /// C.Scala vocabulary — the post-pass check must reject it.
    struct LevelViolatingPass;

    impl Pass for LevelViolatingPass {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn kind(&self) -> PassKind {
            PassKind::Optimization
        }
        fn source(&self) -> Level {
            Level::MapList
        }
        fn target(&self) -> Level {
            Level::MapList
        }
        fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
            let mut q = p.clone();
            let sym = Sym(q.sym_types.len() as u32);
            q.sym_types.push(Type::pool(Type::Int));
            q.body.stmts.push(Stmt {
                sym,
                ty: Type::pool(Type::Int),
                expr: Expr::PoolNew {
                    ty: Type::Int,
                    cap: Atom::Int(8),
                },
            });
            // Live, so the post-pass DCE keeps it for the check to find.
            q.body.result = Atom::Sym(sym);
            q
        }
    }

    /// A pass that silently changes the program's level without declaring
    /// a lowering — the level contract must reject it.
    struct LevelLyingPass;

    impl Pass for LevelLyingPass {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn kind(&self) -> PassKind {
            PassKind::Optimization
        }
        fn source(&self) -> Level {
            Level::MapList
        }
        fn target(&self) -> Level {
            Level::MapList
        }
        fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
            let mut q = p.clone();
            q.level = Level::CScala;
            q
        }
    }

    fn ctx_fixture() -> (Schema, StackConfig) {
        (Schema::new(vec![]), StackConfig::level5())
    }

    #[test]
    fn dialect_violating_pass_is_caught() {
        let (schema, cfg) = ctx_fixture();
        let ctx = PassCtx {
            schema: &schema,
            cfg: &cfg,
        };
        let err = apply_one(
            &LevelViolatingPass,
            &maplist_prog(),
            1,
            &ctx,
            Level::MapList,
            true,
        )
        .unwrap_err();
        assert!(err.contains("violated its output dialect"), "{err}");
        // Without validation the rogue pass sails through — the check is
        // what catches it, not the rewrite machinery.
        assert!(apply_one(
            &LevelViolatingPass,
            &maplist_prog(),
            1,
            &ctx,
            Level::MapList,
            false
        )
        .is_ok());
    }

    #[test]
    fn undeclared_level_change_is_caught() {
        let (schema, cfg) = ctx_fixture();
        let ctx = PassCtx {
            schema: &schema,
            cfg: &cfg,
        };
        let err = apply_one(
            &LevelLyingPass,
            &maplist_prog(),
            1,
            &ctx,
            Level::MapList,
            true,
        )
        .unwrap_err();
        assert!(err.contains("declared target"), "{err}");
    }

    #[test]
    fn registry_selection_is_config_driven() {
        let passes = registry();
        let names = |cfg: &StackConfig| -> Vec<&'static str> {
            check_pipeline(&passes, cfg)
                .expect("valid pipeline")
                .iter()
                .map(|p| p.name())
                .collect()
        };
        let l2 = names(&StackConfig::level2());
        assert_eq!(l2, vec!["field-removal"]);
        let l5 = names(&StackConfig::level5());
        assert!(l5.contains(&"hash-table-specialization"));
        assert!(l5.contains(&"list-specialization"));
        assert!(l5.contains(&"string-dictionaries"));
        // Order is registry order regardless of config.
        let pos = |n: &str| l5.iter().position(|x| *x == n).unwrap();
        assert!(pos("hash-table-specialization") < pos("list-specialization"));
        assert!(pos("list-specialization") < pos("memory-hoisting"));
    }

    #[test]
    fn non_floating_pass_at_wrong_level_is_a_config_error() {
        // list specialization without hash-table specialization: the
        // program would still be at ScaLite[Map, List].
        let cfg = StackConfig {
            list_spec: true,
            ..StackConfig::level2()
        };
        let passes = registry();
        let err = check_pipeline(&passes, &cfg).err().expect("rejected");
        assert!(err.contains("list-specialization"), "{err}");
    }

    #[test]
    fn floating_passes_do_not_fake_level_progress() {
        // A floating pass's declared target says where it is defined, not
        // where the program ends up: after field-removal (floating, declared
        // at ScaLite) a level-2 program is still at ScaLite[Map, List], so a
        // non-floating ScaLite pass behind it must be rejected.
        struct NeedsScaLite;
        impl Pass for NeedsScaLite {
            fn name(&self) -> &'static str {
                "needs-scalite"
            }
            fn kind(&self) -> PassKind {
                PassKind::Optimization
            }
            fn source(&self) -> Level {
                Level::ScaLite
            }
            fn target(&self) -> Level {
                Level::ScaLite
            }
            fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
                p.clone()
            }
        }
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(FieldRemoval), Box::new(NeedsScaLite)];
        let err = check_pipeline(&passes, &StackConfig::level2())
            .err()
            .expect("rejected");
        assert!(err.contains("needs-scalite"), "{err}");
        // With the real lowerings enabled the same pass is placed validly.
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(HashTableSpecialization),
            Box::new(ListSpecialization),
            Box::new(NeedsScaLite),
        ];
        assert!(check_pipeline(&passes, &StackConfig::level5()).is_ok());
    }

    #[test]
    fn ceiling_tracks_discharged_vocabulary() {
        let passes = registry();
        let cfg = StackConfig::level4(); // list_spec disabled
        let mut ceiling = Level::MapList;
        for p in check_pipeline(&passes, &cfg).unwrap() {
            ceiling = advance_ceiling(ceiling, p);
        }
        // Hash tables were discharged, lists were not.
        assert_eq!(ceiling, Level::List);
        let mut ceiling = Level::MapList;
        for p in check_pipeline(&passes, &StackConfig::level5()).unwrap() {
            ceiling = advance_ceiling(ceiling, p);
        }
        assert_eq!(ceiling, Level::CScala);
    }
}
