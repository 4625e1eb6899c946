//! Framework-level ("out of the box", §6) optimizations:
//!
//! * [`dce`] — dead-code elimination, including dead-store elimination of
//!   write-only variables, run to fixpoint;
//! * [`inline_aliases`] — unnecessary-let-binding removal (Appendix C);
//! * [`optimize`] — the fixpoint driver the stack uses at every level
//!   (paper §2.2: "we recursively apply optimizations inside the same
//!   abstraction level until we reach a fixed point").
//!
//! CSE and constant folding live in the builder and therefore re-run on
//! every rewrite; they are not separate passes.
//!
//! ### Cost of a sweep
//!
//! The front-end and nearly every pass end in [`optimize`], so its cost
//! is paid many times per compile. One DCE sweep is linear in program size: one walk counts uses
//! into a `Vec<u32>` indexed by [`crate::expr::Sym`] (symbols are dense
//! indices into `sym_types`), and one walk cleans the owned program in
//! place, `retain`ing each block and recursing through
//! [`Expr::blocks_mut`]. A statement is judged by [`own_effects`] united
//! with the effects its sub-blocks returned after they were cleaned, so
//! every node's effect is computed once. Nothing is cloned; the fixpoint
//! hands the program from round to round by value.
//!
//! ### Why the sweep order does not matter
//!
//! A statement is removed when it is unused and its effects are
//! removable, or when it declares or assigns a variable nobody reads.
//! Removing statements only lowers use counts and effects, so each
//! condition, once true, stays true. The sweeps therefore all reach the
//! same fixpoint, whatever order they remove things in; judging a
//! statement after cleaning its sub-blocks only reaches it in fewer
//! sweeps. (`tests/optimizer_reference.rs` holds the earlier
//! clone-per-statement DCE and checks the two agree.)

use crate::effects::{own_effects, Effects};
use crate::expr::{Atom, Block, Expr, Program, Sym};
use crate::rewrite::{run_rule, Identity};

/// Dead-code elimination. A statement is removed when its symbol is unused
/// and its effects are removable (no writes, no IO). Additionally, mutable
/// variables that are only ever written (never read) are removed together
/// with their assignments. Runs to fixpoint.
pub fn dce(mut p: Program) -> Program {
    let mut uses = Vec::new();
    let mut decls = Vec::new();
    let mut write_only = Vec::new();
    loop {
        uses.clear();
        uses.resize(p.sym_types.len(), 0u32);
        decls.clear();
        count_uses(&p.body, &mut uses, &mut decls);
        write_only.clear();
        write_only.resize(uses.len(), false);
        for d in &decls {
            write_only[d.0 as usize] = uses[d.0 as usize] == 0;
        }
        let mut changed = false;
        dce_block(&mut p.body, &uses, &write_only, &mut changed);
        if !changed {
            return p;
        }
    }
}

/// Count every *read* of each symbol (as an operand, a block result, or
/// a variable read) and collect the `DeclVar` symbols. `Assign { var }`
/// does not count as a read of `var`.
fn count_uses(b: &Block, uses: &mut [u32], decls: &mut Vec<Sym>) {
    for st in &b.stmts {
        st.expr.for_each_atom(|a| {
            if let Atom::Sym(s) = a {
                uses[s.0 as usize] += 1;
            }
        });
        match &st.expr {
            Expr::ReadVar(v) => uses[v.0 as usize] += 1,
            Expr::DeclVar { .. } => decls.push(st.sym),
            _ => {}
        }
        for blk in st.expr.blocks() {
            count_uses(blk, uses, decls);
        }
    }
    if let Atom::Sym(s) = b.result {
        uses[s.0 as usize] += 1;
    }
}

/// Clean `b` in place; returns the effects of the statements that stay.
fn dce_block(b: &mut Block, uses: &[u32], write_only: &[bool], changed: &mut bool) -> Effects {
    let before = b.stmts.len();
    let mut effects = Effects::PURE;
    b.stmts.retain_mut(|st| {
        // Declarations of and assignments to write-only variables are dead
        // stores.
        let dead_store = match &st.expr {
            Expr::Assign { var, .. } => write_only[var.0 as usize],
            Expr::DeclVar { .. } => write_only[st.sym.0 as usize],
            _ => false,
        };
        if dead_store {
            return false;
        }
        let mut eff = own_effects(&st.expr);
        for blk in st.expr.blocks_mut() {
            eff = eff.union(dce_block(blk, uses, write_only, changed));
        }
        if uses[st.sym.0 as usize] == 0 && eff.is_removable() {
            return false;
        }
        effects = effects.union(eff);
        true
    });
    *changed |= b.stmts.len() != before;
    effects
}

/// Unnecessary-let-binding removal (Appendix C): pure single-value aliases
/// (`val x = y`) are substituted away. Realised by the identity rewrite —
/// reconstruction maps `Expr::Atom` bindings directly to the aliased atom.
pub fn inline_aliases(p: &Program) -> Program {
    run_rule(p, &mut Identity, p.level)
}

/// The per-level fixpoint driver: alternate alias-inlining (which re-runs
/// CSE/folding) and DCE until the program stops shrinking or `max_iters`
/// is reached (termination guard; see paper footnote 4).
pub fn optimize(mut p: Program, max_iters: usize) -> Program {
    let mut last_size = usize::MAX;
    for _ in 0..max_iters {
        p = dce(inline_aliases(&p));
        let size = p.body.size();
        if size >= last_size {
            break;
        }
        last_size = size;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::level::Level;

    #[test]
    fn dce_removes_unused_pure_code() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(1));
        let x = b.read_var(v);
        let _dead = b.add(x.clone(), Atom::Int(42));
        let live = b.add(x, Atom::Int(1));
        let p = b.finish(live, Level::ScaLite);
        let q = dce(p);
        assert_eq!(q.body.stmts.len(), 3); // decl, read, live add
    }

    #[test]
    fn dce_keeps_effectful_statements() {
        let mut b = IrBuilder::new();
        b.printf("hello\n", vec![]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let q = dce(p);
        assert_eq!(q.body.stmts.len(), 1);
    }

    #[test]
    fn dce_removes_write_only_variables() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        b.assign(v, Atom::Int(1));
        b.assign(v, Atom::Int(2));
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let q = dce(p);
        assert!(q.body.stmts.is_empty(), "{:?}", q.body.stmts);
    }

    #[test]
    fn dce_removes_empty_loops_transitively() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, _i| {
            bb.assign(v, Atom::Int(1));
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        // v is write-only: assignments die, then the loop is pure and dies,
        // then the DeclVar dies.
        let q = dce(p);
        assert!(q.body.stmts.is_empty(), "{:?}", q.body.stmts);
    }

    #[test]
    fn dce_keeps_loops_with_live_writes() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, i| {
            let cur = bb.read_var(v);
            let nxt = bb.add(cur, i);
            bb.assign(v, nxt);
        });
        let out = b.read_var(v);
        let p = b.finish(out, Level::ScaLite);
        let q = dce(p);
        assert_eq!(q.body.stmts.len(), 3);
    }

    #[test]
    fn optimize_reaches_fixpoint() {
        let mut b = IrBuilder::new();
        b.cse_enabled = false;
        let v = b.decl_var(Atom::Int(5));
        let x = b.read_var(v);
        // alias chain: a = x; c = a + 0 (folds to alias); dead = c * 0
        let a = b.emit(Type::Int, Expr::Atom(x.clone()));
        let c = b.emit(
            Type::Int,
            Expr::Bin(crate::expr::BinOp::Add, a, Atom::Int(0)),
        );
        let _dead = b.emit(
            Type::Int,
            Expr::Bin(crate::expr::BinOp::Mul, c.clone(), Atom::Int(0)),
        );
        let p = b.finish(c, Level::ScaLite);
        let q = optimize(p, 10);
        assert_eq!(q.body.stmts.len(), 2); // decl + read
        assert!(matches!(q.body.result, Atom::Sym(_)));
    }

    use crate::types::Type;
}
