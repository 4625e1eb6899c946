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
//!
//! ### When the rebuild runs
//!
//! A round of the fixpoint is "rebuild, then DCE", where the rebuild is
//! [`inline_aliases`]: the whole program re-emitted through a fresh
//! builder, which substitutes aliases away and re-runs folding and CSE.
//! The front-end and every pass already emit through the builder, so
//! their output has nothing left for it to do, and DCE only deletes
//! statements: it cannot create an alias or a foldable node, and it
//! makes two expressions equal only in the rare case where it empties
//! the blocks that told two pure `If`s apart. So a round first asks
//! [`IrBuilder::rebuild_would_simplify`], one read-only walk beside the
//! builder's `emit` that applies `emit`'s own rules (alias, `fold`, a
//! pure expression equal to one in scope) and the two ways the rewriter
//! itself changes a symbol (a statement it maps to `Unit` that is
//! annotated or used; a `LoadTable` whose `Table` annotation is not its
//! first). Only when it says yes does the round rebuild.
//!
//! Otherwise a rebuild would only renumber (and re-infer types, which
//! the builder's programs already carry): it allocates symbols densely,
//! in emission order, and so closes the holes DCE leaves. [`compact`]
//! does the same in place, in the same order: a statement's sub-blocks
//! and binders come before the statement itself, binders before the
//! blocks that see them, a `ParallelFor`'s accumulators each after its
//! `init` block and before the loop variable, `body` and `merge`. It
//! permutes `sym_types` to match and re-keys the annotations, dropping
//! those of deleted symbols. Both the check and the renumbering are
//! blind to symbol numbers, so [`optimize`] compacts once, when the
//! fixpoint stops, and its result is the program the unconditional
//! rebuild-then-DCE rounds produced: `tests/optimizer_reference.rs`
//! keeps those rounds and compares, and debug builds assert that the
//! result is a fixed point of the rebuild.

use crate::builder::IrBuilder;
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
/// fresh builder allocates them (module docs, *When the rebuild runs*):
/// for a program [`IrBuilder::rebuild_would_simplify`] passes over, the
/// result equals [`inline_aliases`]'s, except that the rebuild
/// re-infers types. `sym_types` follows the new numbers and annotations
/// of symbols the body no longer binds are dropped. A program with no
/// holes comes back untouched.
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
    p.annots.rekey(|s| match r.new_of.get(s.0 as usize) {
        Some(&n) if n != UNMAPPED => Some(Sym(n)),
        _ => None,
    });
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
                Expr::ParallelFor {
                    accs,
                    var,
                    body,
                    merge,
                    ..
                } => {
                    for acc in accs {
                        self.block(&mut acc.init);
                        self.def(&mut acc.sym);
                    }
                    self.def(var);
                    self.block(body);
                    self.block(merge);
                }
                _ => {}
            }
            self.def(&mut st.sym);
        }
        self.atom(&mut b.result);
    }
}

/// The per-level fixpoint driver: rounds of alias-inlining (which re-runs
/// CSE/folding) and DCE until the program stops shrinking or `max_iters`
/// rounds have run (termination guard; see paper footnote 4). A round
/// rebuilds only when [`IrBuilder::rebuild_would_simplify`] says the
/// rebuild would do more than renumber, and the result is compacted once
/// at the end (module docs, *When the rebuild runs*).
pub fn optimize(mut p: Program, max_iters: usize) -> Program {
    let mut last_size = usize::MAX;
    for round in 1..=max_iters {
        if IrBuilder::rebuild_would_simplify(&p) {
            p = inline_aliases(&p);
        } else if round == max_iters {
            // The result keeps this round's DCE holes, in the numbering
            // the rebuild would have given its input.
            p = compact(p);
        }
        p = dce(p);
        let size = p.body.size();
        if size >= last_size {
            let p = compact(p);
            if cfg!(debug_assertions) {
                assert_eq!(
                    program_hash(&inline_aliases(&p)),
                    program_hash(&p),
                    "the fixpoint left a program an identity rebuild still changes"
                );
            }
            return p;
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

    use crate::expr::{Annot, BinOp, ParAcc, Stmt};
    use crate::rewrite::{reconstructs_to_unit, Rewriter, Rule};
    use crate::types::{FieldDef, StructDef, StructId, Type};

    /// A builder that emits every expression verbatim, and a variable read
    /// to compute with.
    fn verbatim() -> (IrBuilder, Atom) {
        let mut b = IrBuilder::new();
        b.cse_enabled = false;
        b.fold_enabled = false;
        let v = b.decl_var(Atom::Int(5));
        let x = b.read_var(v);
        (b, x)
    }

    fn simplifies(b: IrBuilder) -> bool {
        IrBuilder::rebuild_would_simplify(&b.finish(Atom::Unit, Level::ScaLite))
    }

    fn record(b: &mut IrBuilder) -> StructId {
        b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![FieldDef {
                name: "k".into(),
                ty: Type::Int,
            }],
        })
    }

    #[test]
    fn a_builder_built_program_needs_no_rebuild() {
        let (mut b, x) = verbatim();
        b.add(x.clone(), Atom::Int(1));
        b.if_then(x, |bb| {
            bb.printf("%d\n", vec![Atom::Int(1)]);
        });
        assert!(!simplifies(b));
    }

    #[test]
    fn an_alias_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        b.emit(Type::Int, Expr::Atom(x));
        assert!(simplifies(b));
    }

    #[test]
    fn a_foldable_node_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        b.bin(BinOp::Add, x, Atom::Int(0));
        assert!(simplifies(b));
    }

    #[test]
    fn a_pure_duplicate_of_an_enclosing_scope_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        b.add(x.clone(), Atom::Int(1));
        b.for_range(Atom::Int(0), Atom::Int(3), |bb, _| {
            bb.if_then(x.clone(), |bbb| {
                bbb.add(x.clone(), Atom::Int(1));
            });
        });
        assert!(simplifies(b));
    }

    #[test]
    fn a_duplicate_pure_if_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        for _ in 0..2 {
            b.if_val(x.clone(), |_| x.clone(), |_| Atom::Int(0));
        }
        assert!(simplifies(b));
    }

    #[test]
    fn a_duplicate_in_a_sibling_scope_needs_no_rebuild() {
        let (mut b, x) = verbatim();
        b.if_else(
            x.clone(),
            |bb| {
                bb.add(x.clone(), Atom::Int(1));
            },
            |bb| {
                bb.add(x.clone(), Atom::Int(1));
            },
        );
        b.add(x.clone(), Atom::Int(1));
        assert!(!simplifies(b));
    }

    #[test]
    fn reads_and_allocations_are_never_duplicates() {
        let (mut b, _) = verbatim();
        let v = b.decl_var(Atom::Int(1));
        b.read_var(v);
        b.read_var(v);
        assert!(!simplifies(b), "two ReadVars of one variable");

        let (mut b, x) = verbatim();
        let sid = record(&mut b);
        b.struct_new(sid, vec![x.clone()]);
        b.struct_new(sid, vec![x]);
        assert!(!simplifies(b), "two StructNews");
    }

    fn printf(b: &mut IrBuilder, args: Vec<Atom>) -> Sym {
        let fmt = "%d\n".into();
        b.emit(Type::Unit, Expr::Printf { fmt, args })
            .as_sym()
            .unwrap()
    }

    /// `optimize` rebuilds `p` and leaves a fixed point of the rebuild.
    fn optimizes_through_a_rebuild(p: Program) {
        assert!(IrBuilder::rebuild_would_simplify(&p));
        let out = optimize(p, 8);
        assert_eq!(program_hash(&inline_aliases(&out)), program_hash(&out));
    }

    #[test]
    fn an_annotated_unit_statement_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        let s = printf(&mut b, vec![x]);
        b.annotate(s, Annot::SizeHint(1));
        optimizes_through_a_rebuild(b.finish(Atom::Unit, Level::ScaLite));
    }

    #[test]
    fn a_use_of_a_unit_statement_needs_a_rebuild() {
        let (mut b, x) = verbatim();
        let s = printf(&mut b, vec![x.clone()]);
        optimizes_through_a_rebuild(b.finish(Atom::Sym(s), Level::ScaLite));

        let (mut b, x) = verbatim();
        let s = printf(&mut b, vec![x]);
        printf(&mut b, vec![Atom::Sym(s)]);
        optimizes_through_a_rebuild(b.finish(Atom::Unit, Level::ScaLite));
    }

    #[test]
    fn a_table_whose_annotations_do_not_start_with_it_needs_a_rebuild() {
        let mut b = IrBuilder::new();
        let sid = record(&mut b);
        let load = Expr::LoadTable {
            table: "t".into(),
            sid,
        };
        let t = b.emit(Type::array(Type::Record(sid)), load.clone());
        printf(&mut b, vec![t.clone()]);
        optimizes_through_a_rebuild(b.finish(Atom::Unit, Level::ScaLite));

        let mut b = IrBuilder::new();
        let sid = record(&mut b);
        let t = b.emit(Type::array(Type::Record(sid)), load);
        b.annotate(t.as_sym().unwrap(), Annot::SizeHint(9));
        b.annotate(t.as_sym().unwrap(), Annot::Table("t".into()));
        printf(&mut b, vec![t]);
        optimizes_through_a_rebuild(b.finish(Atom::Unit, Level::ScaLite));
    }

    /// Reconstructs every statement itself and records whether the
    /// statement's symbol went to `Unit`.
    struct RecordUnit(Vec<(bool, bool)>);

    impl Rule for RecordUnit {
        fn name(&self) -> &'static str {
            "record-unit"
        }
        fn apply(
            &mut self,
            rw: &mut Rewriter<'_>,
            sym: Sym,
            ty: &Type,
            expr: &Expr,
        ) -> Option<Atom> {
            let st = Stmt {
                sym,
                ty: ty.clone(),
                expr: expr.clone(),
            };
            let atom = rw.reconstruct(self, &st);
            self.0
                .push((reconstructs_to_unit(expr), atom == Atom::Unit));
            Some(atom)
        }
    }

    #[test]
    fn reconstructs_to_unit_names_the_statements_reconstruct_maps_to_unit() {
        let mut b = IrBuilder::new();
        let sid = record(&mut b);
        let list = b.list_new(Type::Record(sid));
        let r = b.struct_new(sid, vec![Atom::Int(1)]);
        b.list_append(list, r.clone());
        b.field_set(r, sid, 0, Atom::Int(2));
        let m = b.malloc(Type::Int, Atom::Int(4));
        b.free(m);
        let v = b.decl_var(Atom::Int(0));
        b.while_loop(
            |bb| {
                let cur = bb.read_var(v);
                bb.lt(cur, Atom::Int(3))
            },
            |bb| bb.assign(v, Atom::Int(3)),
        );
        let mut kinds = std::collections::BTreeSet::new();
        for p in [b.finish(Atom::Unit, Level::ScaLite), every_binder_form()] {
            let mut rule = RecordUnit(Vec::new());
            run_rule(&p, &mut rule, p.level);
            for (listed, unit) in rule.0 {
                assert_eq!(listed, unit);
                kinds.insert(listed);
            }
        }
        assert_eq!(kinds.len(), 2);
    }

    /// Every binder form, with dead code in their blocks (so DCE leaves
    /// holes) and annotations on live and dead symbols.
    fn every_binder_form() -> Program {
        let mut b = IrBuilder::new();
        let sid = record(&mut b);
        let rec = Type::Record(sid);
        let t = b.load_table("t", sid);
        b.annotate(t.as_sym().unwrap(), Annot::SizeHint(9));
        let dead = b.array_new(Type::Int, Atom::Int(3));
        b.annotate(dead.as_sym().unwrap(), Annot::SizeHint(3));
        let total = b.decl_var(Atom::Int(0));

        // A `ParallelFor` with two accumulators.
        let init0 = b.block(|bb| {
            bb.array_new(Type::Int, Atom::Int(1));
            Atom::Int(0)
        });
        let acc0 = b.bind(Type::Int);
        let init1 = b.block(|bb| bb.array_new(rec.clone(), Atom::Int(4)));
        let acc1 = b.bind(Type::array(rec.clone()));
        b.annotate(acc1, Annot::SizeHint(4));
        let var = b.bind(Type::Int);
        let body = b.block_unit(|bb| {
            bb.mul(Atom::Sym(var), Atom::Int(7));
            let cur = bb.read_var(acc0);
            let next = bb.add(cur, Atom::Sym(var));
            bb.assign(acc0, next);
            let r = bb.struct_new(sid, vec![Atom::Sym(var)]);
            bb.array_set(Atom::Sym(acc1), Atom::Sym(var), r);
        });
        let merge = b.block_unit(|bb| {
            bb.array_len(Atom::Sym(acc1));
            let cur = bb.read_var(total);
            let next = bb.add(cur, Atom::Sym(acc0));
            bb.assign(total, next);
        });
        let accs = vec![
            ParAcc {
                sym: acc0,
                ty: Type::Int,
                var: true,
                init: init0,
            },
            ParAcc {
                sym: acc1,
                ty: Type::array(rec.clone()),
                var: false,
                init: init1,
            },
        ];
        b.emit_unit(Expr::ParallelFor {
            lo: Atom::Int(0),
            hi: Atom::Int(4),
            var,
            threads: 2,
            accs,
            body,
            merge,
        });

        b.sort_array(t.clone(), Atom::Int(4), |bb, x, y| {
            bb.array_new(Type::Int, Atom::Int(2));
            let kx = bb.field_get(x, sid, 0);
            let ky = bb.field_get(y, sid, 0);
            bb.sub(kx, ky)
        });
        let map = b.hashmap_new(Type::Int, Type::Int);
        b.hashmap_get_or_init(map.clone(), Atom::Int(1), |bb| {
            bb.array_new(Type::Int, Atom::Int(2));
            Atom::Int(0)
        });
        b.hashmap_foreach(map, |bb, k, v| {
            bb.mul(k.clone(), Atom::Int(3));
            let s = bb.add(k, v);
            bb.printf("%d\n", vec![s]);
        });
        let mm = b.multimap_new(Type::Int, rec.clone());
        let r = b.struct_new(sid, vec![Atom::Int(5)]);
        b.multimap_add(mm.clone(), Atom::Int(5), r);
        b.multimap_foreach_at(mm, Atom::Int(5), |bb, r| {
            bb.array_new(Type::Int, Atom::Int(2));
            let k = bb.field_get(r, sid, 0);
            bb.printf("%d\n", vec![k]);
        });
        let list = b.list_new(rec);
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

    fn annots(p: &Program) -> Vec<(Sym, Vec<Annot>)> {
        let mut v: Vec<_> = p.annots.iter().map(|(s, a)| (*s, a.clone())).collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    fn assert_same(got: &Program, want: &Program) {
        assert_eq!(got.body, want.body);
        assert_eq!(got.sym_types, want.sym_types);
        assert_eq!(got.level, want.level);
        assert_eq!(annots(got), annots(want));
    }

    #[test]
    fn compact_leaves_a_compact_program_alone() {
        let p = every_binder_form();
        assert!(!IrBuilder::rebuild_would_simplify(&p));
        assert_same(&compact(p.clone()), &p);
        assert_same(&inline_aliases(&p), &p);
    }

    #[test]
    fn after_dce_compact_renumbers_like_the_rebuild() {
        let p = every_binder_form();
        let q = dce(p.clone());
        assert!(q.body.size() < p.body.size(), "DCE removed nothing");
        assert!(!IrBuilder::rebuild_would_simplify(&q));
        let got = compact(q.clone());
        assert!(got.sym_types.len() < q.sym_types.len(), "no holes closed");
        assert_same(&got, &inline_aliases(&q));
        // The dead array's annotation went with it; the accumulator's and
        // the table's (after the builder's own `Table`) stayed.
        assert_eq!(annots(&got).len(), 2);
    }

    #[test]
    fn optimize_compacts_once_it_stops() {
        let p = every_binder_form();
        let out = optimize(p.clone(), 4);
        assert_same(&out, &inline_aliases(&dce(p)));
    }
}
