//! Horizontal loop fusion (paper §7.3, footnote 12).
//!
//! Shortcut fusion only gives *vertical* fusion (producer into consumer).
//! When two loops iterate the same range — the classic case being several
//! independent folds over one source produced by the naïve QMonad lowering
//! — they can be merged into one traversal, provided their bodies'
//! effects commute. This is a sibling-statement optimization, so it is a
//! dedicated pass over blocks rather than a per-statement rewrite rule.

use std::collections::HashSet;

use dblab_ir::expr::{Block, Expr, Program, Stmt};
use dblab_ir::opt::map_blocks;

/// Fuse mergeable adjacent loops everywhere in the program; runs bottom-up
/// and to fixpoint within each block.
pub fn apply(p: &Program) -> Program {
    let mut p = p.clone();
    p.body = fuse_block(&p.body);
    p
}

fn fuse_block(b: &Block) -> Block {
    // Recurse first.
    let mut stmts: Vec<Stmt> = b
        .stmts
        .iter()
        .map(|st| {
            let mut st = st.clone();
            st.expr = map_blocks(&st.expr, fuse_block);
            st
        })
        .collect();

    let mut i = 0;
    while i + 1 < stmts.len() {
        if let Some(merged) = try_fuse(&stmts[i], &stmts[i + 1]) {
            stmts[i] = merged;
            stmts.remove(i + 1);
            // Stay at i: the merged loop may fuse with the next one too.
        } else {
            i += 1;
        }
    }
    Block {
        stmts,
        result: b.result.clone(),
    }
}

fn try_fuse(a: &Stmt, b: &Stmt) -> Option<Stmt> {
    match (&a.expr, &b.expr) {
        (
            Expr::ForRange {
                lo: lo1,
                hi: hi1,
                var: v1,
                body: b1,
            },
            Expr::ForRange {
                lo: lo2,
                hi: hi2,
                var: v2,
                body: b2,
            },
        ) if lo1 == lo2 && hi1 == hi2 => {
            // Bodies must commute: neither may write state the other reads
            // or writes. Mutable variables are tracked individually; all
            // heap-resident state is one conservative region.
            if !bodies_commute(b1, b2) {
                return None;
            }
            // The second body must not depend on symbols defined by the
            // first loop (they are out of scope after merging reorders).
            let mut body = b1.clone();
            let mut b2 = b2.clone();
            substitute_sym(&mut b2, *v2, *v1);
            body.stmts.extend(b2.stmts);
            Some(Stmt {
                sym: a.sym,
                ty: a.ty.clone(),
                expr: Expr::ForRange {
                    lo: lo1.clone(),
                    hi: hi1.clone(),
                    var: *v1,
                    body,
                },
            })
        }
        _ => None,
    }
}

/// Per-target read/write footprint of a block: individual mutable
/// variables, plus a single conservative "heap" region for everything
/// reached through arrays, records and collections.
#[derive(Default)]
struct Footprint {
    reads: HashSet<Option<dblab_ir::Sym>>,
    writes: HashSet<Option<dblab_ir::Sym>>,
    io: bool,
}

const HEAP: Option<dblab_ir::Sym> = None;

fn footprint(b: &Block, fp: &mut Footprint) {
    for st in &b.stmts {
        match &st.expr {
            Expr::ReadVar(v) => {
                fp.reads.insert(Some(*v));
            }
            Expr::Assign { var, .. } => {
                fp.writes.insert(Some(*var));
            }
            Expr::FieldGet { .. }
            | Expr::ArrayGet { .. }
            | Expr::ArrayLen(_)
            | Expr::ListSize(_)
            | Expr::HashMapSize(_)
            | Expr::ListForeach { .. }
            | Expr::HashMapForeach { .. }
            | Expr::MultiMapForeachAt { .. } => {
                fp.reads.insert(HEAP);
            }
            Expr::FieldSet { .. }
            | Expr::ArraySet { .. }
            | Expr::ListAppend { .. }
            | Expr::MultiMapAdd { .. }
            | Expr::HashMapGetOrInit { .. }
            | Expr::SortArray { .. }
            | Expr::Free(_) => {
                fp.writes.insert(HEAP);
            }
            Expr::Printf { .. }
            | Expr::Prim(dblab_ir::expr::PrimOp::TimerStart, _)
            | Expr::Prim(dblab_ir::expr::PrimOp::TimerStop, _)
            | Expr::Prim(dblab_ir::expr::PrimOp::PrintRusage, _)
            | Expr::LoadTable { .. }
            | Expr::LoadIndexUnique { .. }
            | Expr::LoadIndexStarts { .. }
            | Expr::LoadIndexItems { .. } => fp.io = true,
            _ => {}
        }
        for blk in st.expr.blocks() {
            footprint(blk, fp);
        }
    }
}

fn bodies_commute(a: &Block, b: &Block) -> bool {
    let mut fa = Footprint::default();
    let mut fb = Footprint::default();
    footprint(a, &mut fa);
    footprint(b, &mut fb);
    if fa.io || fb.io {
        return false;
    }
    let conflict = |w: &HashSet<Option<dblab_ir::Sym>>, other: &Footprint| {
        w.iter()
            .any(|t| other.reads.contains(t) || other.writes.contains(t))
    };
    !conflict(&fa.writes, &fb) && !conflict(&fb.writes, &fa)
}

/// Replace every use of `from` with `to` inside a block.
fn substitute_sym(b: &mut Block, from: dblab_ir::Sym, to: dblab_ir::Sym) {
    use dblab_ir::expr::Atom;
    fn subst_atom(a: &mut Atom, from: dblab_ir::Sym, to: dblab_ir::Sym) {
        if let Atom::Sym(s) = a {
            if *s == from {
                *s = to;
            }
        }
    }
    fn subst_expr(e: &mut Expr, from: dblab_ir::Sym, to: dblab_ir::Sym) {
        for_each_atom_mut(e, &mut |a| subst_atom(a, from, to));
        match e {
            Expr::ReadVar(v) | Expr::Assign { var: v, .. } if *v == from => {
                *v = to;
            }
            _ => {}
        }
        for blk in blocks_mut(e) {
            subst_block(blk, from, to);
        }
    }
    fn subst_block(b: &mut Block, from: dblab_ir::Sym, to: dblab_ir::Sym) {
        for st in &mut b.stmts {
            subst_expr(&mut st.expr, from, to);
        }
        subst_atom(&mut b.result, from, to);
    }
    subst_block(b, from, to);
}

/// Apply a mutation to each operand atom of an expression (not descending
/// into blocks).
fn for_each_atom_mut(e: &mut Expr, f: &mut dyn FnMut(&mut dblab_ir::expr::Atom)) {
    use Expr::*;
    match e {
        Atom(a) | Un(_, a) | ArrayLen(a) | Free(a) | ListSize(a) | HashMapSize(a) => f(a),
        Bin(_, a, b) => {
            f(a);
            f(b);
        }
        Prim(_, args) | StructNew { args, .. } | Printf { args, .. } => args.iter_mut().for_each(f),
        Dict { arg, .. } => f(arg),
        If { cond, .. } => f(cond),
        ForRange { lo, hi, .. } => {
            f(lo);
            f(hi);
        }
        While { .. } => {}
        DeclVar { init } => f(init),
        ReadVar(_) => {}
        Assign { value, .. } => f(value),
        FieldGet { obj, .. } => f(obj),
        FieldSet { obj, value, .. } => {
            f(obj);
            f(value);
        }
        ArrayNew { len, .. } => f(len),
        ArrayGet { arr, idx } => {
            f(arr);
            f(idx);
        }
        ArraySet { arr, idx, value } => {
            f(arr);
            f(idx);
            f(value);
        }
        SortArray { arr, len, .. } => {
            f(arr);
            f(len);
        }
        ListNew { .. } | HashMapNew { .. } | MultiMapNew { .. } => {}
        ListAppend { list, value } => {
            f(list);
            f(value);
        }
        ListForeach { list, .. } => f(list),
        HashMapGetOrInit { map, key, .. } => {
            f(map);
            f(key);
        }
        HashMapForeach { map, .. } => f(map),
        MultiMapAdd { map, key, value } => {
            f(map);
            f(key);
            f(value);
        }
        MultiMapForeachAt { map, key, .. } => {
            f(map);
            f(key);
        }
        Malloc { count, .. } => f(count),
        PoolNew { cap, .. } => f(cap),
        PoolAlloc { pool } => f(pool),
        LoadTable { .. }
        | LoadIndexUnique { .. }
        | LoadIndexStarts { .. }
        | LoadIndexItems { .. } => {}
        ParallelFor { lo, hi, .. } => {
            f(lo);
            f(hi);
        }
        LoadParam { .. } => {}
    }
}

/// Mutable access to an expression's sub-blocks.
fn blocks_mut(e: &mut Expr) -> Vec<&mut Block> {
    match e {
        Expr::If { then_b, else_b, .. } => vec![then_b, else_b],
        Expr::ForRange { body, .. }
        | Expr::ListForeach { body, .. }
        | Expr::HashMapForeach { body, .. }
        | Expr::MultiMapForeachAt { body, .. } => vec![body],
        Expr::While { cond, body } => vec![cond, body],
        Expr::SortArray { cmp, .. } => vec![cmp],
        Expr::HashMapGetOrInit { init, .. } => vec![init],
        Expr::ParallelFor {
            accs, body, merge, ..
        } => {
            let mut bs: Vec<&mut Block> = accs.iter_mut().map(|a| &mut a.init).collect();
            bs.push(body);
            bs.push(merge);
            bs
        }
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::expr::Atom;
    use dblab_ir::{IrBuilder, Level};

    #[test]
    fn independent_folds_over_same_range_fuse() {
        let mut b = IrBuilder::new();
        let s1 = b.decl_var(Atom::Long(0));
        let s2 = b.decl_var(Atom::Long(0));
        b.for_range(Atom::Int(0), Atom::Int(100), |bb, i| {
            let cur = bb.read_var(s1);
            let n = bb.add(cur, i);
            bb.assign(s1, n);
        });
        b.for_range(Atom::Int(0), Atom::Int(100), |bb, i| {
            let cur = bb.read_var(s2);
            let n = bb.add(cur, i);
            bb.assign(s2, n);
        });
        let r1 = b.read_var(s1);
        let p = b.finish(r1, Level::MapList);
        let loops_before = count_loops(&p.body);
        assert_eq!(loops_before, 2);
        let q = apply(&p);
        assert_eq!(count_loops(&q.body), 1, "loops fused");
    }

    #[test]
    fn conflicting_loops_do_not_fuse() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Long(0));
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, i| {
            bb.assign(v, i);
        });
        // Second loop reads what the first writes: order matters.
        let out = b.decl_var(Atom::Long(0));
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, _i| {
            let x = bb.read_var(v);
            bb.assign(out, x);
        });
        let r = b.read_var(out);
        let p = b.finish(r, Level::MapList);
        let q = apply(&p);
        assert_eq!(count_loops(&q.body), 2, "must not fuse");
    }

    #[test]
    fn different_ranges_do_not_fuse() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Long(0));
        let w = b.decl_var(Atom::Long(0));
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, i| {
            let c = bb.read_var(v);
            let n = bb.add(c, i);
            bb.assign(v, n);
        });
        b.for_range(Atom::Int(0), Atom::Int(20), |bb, i| {
            let c = bb.read_var(w);
            let n = bb.add(c, i);
            bb.assign(w, n);
        });
        let r = b.read_var(v);
        let p = b.finish(r, Level::MapList);
        assert_eq!(count_loops(&apply(&p).body), 2);
    }

    fn count_loops(b: &Block) -> usize {
        b.stmts
            .iter()
            .filter(|st| matches!(st.expr, Expr::ForRange { .. }))
            .count()
    }
}
