//! Framework-level ("out of the box", §6) optimizations:
//!
//! * [`dce`] — dead-code elimination, including dead-store elimination of
//!   write-only variables, run to fixpoint;
//! * [`inline_aliases`] — unnecessary-let-binding removal (Appendix C);
//! * [`compact`] — dense symbol renumbering, in place;
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
//! every node's effect is computed once. Nothing is cloned: [`optimize`]
//! takes the program by value.
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
//!
//! ### The contract
//!
//! The front-end and every pass emit through
//! [`IrBuilder`](crate::IrBuilder), which substitutes aliases away,
//! folds, and hash-conses pure expressions on every emission (§3.3), so
//! the program a stage hands [`optimize`] is already what an identity
//! rebuild ([`inline_aliases`]) makes of it, up to symbol numbers. DCE
//! only deletes statements: it creates no alias and no foldable node,
//! and makes two pure expressions equal only by emptying the blocks that
//! told two pure `If`s apart, which no compiled program does.
//! [`optimize`] is therefore one [`dce`] (itself run to a fixpoint) and
//! one [`compact`], which closes the holes DCE leaves in the numbering a
//! rebuild would give. Debug builds assert in every call that the result
//! is a fixed point of the rebuild, so a rewrite that emits around the
//! builder fails the debug test suite instead of being rebuilt.
//! (`tests/optimizer_reference.rs` keeps the earlier rebuild-then-DCE
//! rounds and compares.)

use crate::effects::{own_effects, Effects};
use crate::expr::{Atom, Block, Expr, Program, Sym};
use crate::hash::program_hash;
use crate::rewrite::{run_rule, Identity};
use crate::types::Type;

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

/// Renumber `p`'s symbols densely, in the order a rebuild through a
/// fresh builder allocates them: a statement after its sub-blocks and
/// binders, binders before the blocks that see them. `sym_types` follows
/// the new numbers. A
/// program with no holes comes back untouched.
pub fn compact(mut p: Program) -> Program {
    let mut r = Renumber {
        new_of: vec![UNMAPPED; p.sym_types.len()],
        old_of: Vec::with_capacity(p.sym_types.len()),
    };
    r.block(&mut p.body);
    let dense = r.old_of.len() == p.sym_types.len();
    if dense && r.old_of.iter().enumerate().all(|(n, &o)| o as usize == n) {
        return p;
    }
    let mut old_types = std::mem::take(&mut p.sym_types);
    p.sym_types = r
        .old_of
        .iter()
        .map(|&o| std::mem::replace(&mut old_types[o as usize], Type::Unit))
        .collect();
    p
}

const UNMAPPED: u32 = u32::MAX;

/// [`compact`]'s walk: `new_of[old]` and its inverse `old_of[new]`.
struct Renumber {
    new_of: Vec<u32>,
    old_of: Vec<u32>,
}

impl Renumber {
    /// Give the binding occurrence `s` the next number.
    fn def(&mut self, s: &mut Sym) {
        let n = self.old_of.len() as u32;
        let slot = &mut self.new_of[s.0 as usize];
        assert!(*slot == UNMAPPED, "symbol {s} is bound twice");
        *slot = n;
        self.old_of.push(s.0);
        *s = Sym(n);
    }

    fn sym(&self, s: &mut Sym) {
        let n = self.new_of[s.0 as usize];
        assert!(n != UNMAPPED, "unmapped symbol {s} during compaction");
        *s = Sym(n);
    }

    fn atom(&self, a: &mut Atom) {
        if let Atom::Sym(s) = a {
            self.sym(s);
        }
    }

    fn block(&mut self, b: &mut Block) {
        for st in &mut b.stmts {
            st.expr.for_each_atom_mut(|a| self.atom(a));
            match &mut st.expr {
                Expr::ReadVar(v) | Expr::Assign { var: v, .. } => self.sym(v),
                Expr::If { then_b, else_b, .. } => {
                    self.block(then_b);
                    self.block(else_b);
                }
                Expr::While { cond, body } => {
                    self.block(cond);
                    self.block(body);
                }
                Expr::HashMapGetOrInit { init, .. } => self.block(init),
                Expr::ForRange { var, body, .. }
                | Expr::ListForeach { var, body, .. }
                | Expr::MultiMapForeachAt { var, body, .. } => {
                    self.def(var);
                    self.block(body);
                }
                Expr::HashMapForeach {
                    kvar, vvar, body, ..
                } => {
                    self.def(kvar);
                    self.def(vvar);
                    self.block(body);
                }
                Expr::SortArray { a, b, cmp, .. } => {
                    self.def(a);
                    self.def(b);
                    self.block(cmp);
                }
                _ => {}
            }
            self.def(&mut st.sym);
        }
        self.atom(&mut b.result);
    }
}

/// The per-level fixpoint (paper §2.2; module docs, *The contract*):
/// DCE to its fixpoint, then dense renumbering.
pub fn optimize(p: Program) -> Program {
    let p = compact(dce(p));
    if cfg!(debug_assertions) {
        assert_eq!(
            program_hash(&inline_aliases(&p)),
            program_hash(&p),
            "the fixpoint left a program an identity rebuild still changes: \
             a rewrite emitted around IrBuilder"
        );
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
        // `dead` feeds only another dead product; the loop only writes a
        // variable nobody reads.
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(5));
        let x = b.read_var(v);
        let dead = b.add(x.clone(), Atom::Int(3));
        b.mul(dead, Atom::Int(2));
        let w = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), x.clone(), |bb, i| bb.assign(w, i));
        let live = b.sub(x, Atom::Int(1));
        let q = optimize(b.finish(live, Level::ScaLite));
        assert_eq!(q.body.stmts.len(), 3); // decl, read, live sub
        assert_eq!(q.sym_types.len(), 3, "symbols not renumbered densely");
        assert_same(&optimize(q.clone()), &q);
        assert_same(&inline_aliases(&q), &q);
    }

    use crate::expr::Layout;
    use crate::types::{FieldDef, StructDef, StructId};

    fn record(b: &mut IrBuilder) -> StructId {
        b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![FieldDef {
                name: "k".into(),
                ty: Type::Int,
            }],
        })
    }

    /// Every binder form, with dead code in their blocks (so DCE leaves
    /// holes) and sized allocations, live and dead.
    fn every_binder_form() -> Program {
        let mut b = IrBuilder::new();
        let sid = record(&mut b);
        let rec = Type::Record(sid);
        let t = b.load_table("t", sid, Layout::Columnar);
        b.array_new(Type::Int, Atom::Int(3));
        b.list_new(Type::Int, Some(3));
        let total = b.decl_var(Atom::Int(0));

        // A loop that folds into a variable and stores pooled records.
        let arr = b.array_new(rec.clone(), Atom::Int(4));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            bb.mul(i.clone(), Atom::Int(7));
            let cur = bb.read_var(total);
            let next = bb.add(cur, i.clone());
            bb.assign(total, next);
            let r = bb.struct_new_pooled(sid, vec![i.clone()], 4);
            bb.array_set(arr.clone(), i, r);
        });

        b.sort_array(t.clone(), Atom::Int(4), |bb, x, y| {
            bb.array_new(Type::Int, Atom::Int(2));
            let kx = bb.field_get(x, sid, 0);
            let ky = bb.field_get(y, sid, 0);
            bb.sub(kx, ky)
        });
        let map = b.hashmap_new(Type::Int, Type::Int, 9);
        b.hashmap_get_or_init(map.clone(), Atom::Int(1), |bb| {
            bb.array_new(Type::Int, Atom::Int(2));
            Atom::Int(0)
        });
        b.hashmap_foreach(map, |bb, k, v| {
            bb.mul(k.clone(), Atom::Int(3));
            let s = bb.add(k, v);
            bb.printf("%d\n", vec![s]);
        });
        let mm = b.multimap_new(Type::Int, rec.clone(), 5);
        let r = b.struct_new(sid, vec![Atom::Int(5)]);
        b.multimap_add(mm.clone(), Atom::Int(5), r);
        b.multimap_foreach_at(mm, Atom::Int(5), |bb, r| {
            bb.array_new(Type::Int, Atom::Int(2));
            let k = bb.field_get(r, sid, 0);
            bb.printf("%d\n", vec![k]);
        });
        let list = b.list_new(rec, Some(7));
        b.list_foreach(list, |bb, r| {
            let k = bb.field_get(r, sid, 0);
            bb.printf("%d\n", vec![k]);
        });
        b.for_range(Atom::Int(0), Atom::Int(2), |bb, i| {
            bb.mul(i.clone(), Atom::Int(2));
            bb.printf("%d\n", vec![i]);
        });
        let out = b.read_var(total);
        b.finish(out, Level::ScaLite)
    }

    fn assert_same(got: &Program, want: &Program) {
        assert_eq!(got.body, want.body);
        assert_eq!(got.sym_types, want.sym_types);
        assert_eq!(got.level, want.level);
    }

    #[test]
    fn compact_leaves_a_compact_program_alone() {
        let p = every_binder_form();
        assert_same(&compact(p.clone()), &p);
        assert_same(&inline_aliases(&p), &p);
    }

    #[test]
    fn after_dce_compact_renumbers_like_the_rebuild() {
        let p = every_binder_form();
        let q = dce(p.clone());
        assert!(q.body.size() < p.body.size(), "DCE removed nothing");
        let got = compact(q.clone());
        assert!(got.sym_types.len() < q.sym_types.len(), "no holes closed");
        assert_same(&got, &inline_aliases(&q));
        // Sizes and layouts are node fields, so renumbering cannot detach
        // them: the live allocations keep theirs, the dead list is gone.
        let mut sized = Vec::new();
        got.body.for_each_stmt(&mut |st| match &st.expr {
            Expr::LoadTable { layout, .. } => sized.push(format!("{layout:?}")),
            Expr::StructNew { pool, .. } => sized.push(format!("pool {pool}")),
            Expr::ListNew { bound, .. } => sized.push(format!("list {bound:?}")),
            Expr::HashMapNew { expected, .. } | Expr::MultiMapNew { expected, .. } => {
                sized.push(format!("map {expected}"))
            }
            _ => {}
        });
        assert_eq!(
            sized,
            [
                "Columnar",
                "pool 4",
                "map 9",
                "map 5",
                "pool 1024",
                "list Some(7)"
            ]
        );
    }

    #[test]
    fn optimize_compacts_once_it_stops() {
        let p = every_binder_form();
        let out = optimize(p.clone());
        assert_same(&out, &inline_aliases(&dce(p)));
    }
}
