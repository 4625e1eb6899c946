//! # jit — the in-process closure-JIT backend
//!
//! Tier 0.5 of the serving ladder: compiles a fully-lowered IR program into
//! a tree of pre-resolved Rust closures ("threaded code") in single-digit
//! milliseconds — no fork+exec, no toolchain. Three ideas carry the
//! speedup over the AST interpreter:
//!
//! 1. **Slot resolution.** ANF symbols are dense (`Sym(n)` indexes
//!    `Program::sym_types`), so every variable is resolved at compile time
//!    to frame slot `n` of a flat `Vec` — reads and writes are array
//!    indexing, not the interpreter's per-access `HashMap` probe.
//! 2. **Monomorphized operators.** Each `Bin`/`Un`/`Prim` node is compiled
//!    against its operands' static IR types into a closure that goes
//!    straight to `i64`/`f64`/`bool` — the interpreter's per-evaluation
//!    "is either side a double?" dispatch happens once, here. Nodes whose
//!    types don't pin a scalar shape fall back to a dynamic closure that
//!    replicates the interpreter's dispatch bit for bit.
//! 3. **Closure arrays for control flow.** A block becomes a `Vec` of ops
//!    run back to back; loops iterate that array directly with the same
//!    fuel-amortized deadline check at every back-edge the interpreter
//!    uses, so cooperative timeouts hold on this tier too.
//!
//! Semantics are pinned to `dblab-interp` (wrapping i64 arithmetic, null
//! Eq/Ne, dictionary encoding, serial `ParallelFor` as one logical
//! worker); `tests/backend_conformance.rs` runs the 22-query differential
//! suite over this backend like any other.
//!
//! Base data is read in place. `LoadTable` opens a view over the resident
//! snapshot's columns, `ArrayGet` on it yields a copyable `(view, row)`
//! handle, `FieldGet` on that reads the column; indexes and dictionaries
//! are the snapshot's shared side structures. Base records are therefore
//! read-only, which every program the stack generates respects: a
//! `FieldSet` on a base record type is refused at compile time.

use std::io;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dblab_catalog::Schema;
use dblab_interp::Interrupted;
use dblab_ir::expr::{Atom, BinOp, Block, DictOp, Expr, PrimOp, Stmt, UnOp};
use dblab_ir::types::StructDef;
use dblab_ir::{Program, Type};
use dblab_runtime::{Snapshot, Value};

use crate::backend::{self, Backend, BuildInput, Executable, RunOutput};
use crate::jit_rt::{compile_printf, format_segs, key_back, zero_of, Key, PfSeg, Rt, JV};

/// One compiled operation: evaluates against the runtime frame and writes
/// its statement's result slot. `Send + Sync` is load-bearing — closures
/// capture only slot numbers, constants and child [`Seq`]s, never runtime
/// values, so a compiled program is thread-portable like every other
/// [`Executable`].
type Op = Box<dyn Fn(&mut Rt<'_>) + Send + Sync>;

/// Coerce a closure to [`Op`] — lets match arms with distinct closure
/// types unify without per-arm `Box::new(...) as Op` casts.
fn op_box(f: impl Fn(&mut Rt<'_>) + Send + Sync + 'static) -> Op {
    Box::new(f)
}

/// Null equality against a statically-null operand: test the slot's
/// variant in place. The dynamic fallback would clone the record out of
/// the frame just to check it — once per hash-chain probe.
fn null_cmp(op: BinOp, a: &Atom, b: &Atom, out: usize) -> Option<Op> {
    if !matches!(op, BinOp::Eq | BinOp::Ne) {
        return None;
    }
    let want = op == BinOp::Eq;
    match (a, b) {
        (Atom::Null(_), Atom::Null(_)) => Some(op_box(move |rt| rt.frame[out] = JV::B(want))),
        (Atom::Sym(s), Atom::Null(_)) | (Atom::Null(_), Atom::Sym(s)) => {
            let s = slot(*s);
            Some(op_box(move |rt| {
                rt.frame[out] = JV::B(matches!(rt.frame[s], JV::Null) == want)
            }))
        }
        _ => None,
    }
}

/// A compiled block: the closure array plus the block's result source.
struct Seq {
    ops: Vec<Op>,
    result: GV,
}

impl Seq {
    /// Run for effect, discarding the block result.
    #[inline]
    fn run_unit(&self, rt: &mut Rt<'_>) {
        for op in &self.ops {
            op(rt);
        }
    }
    /// Run and produce the block's result value.
    #[inline]
    fn run_val(&self, rt: &mut Rt<'_>) -> JV {
        for op in &self.ops {
            op(rt);
        }
        self.result.get(rt)
    }
}

// ---------------------------------------------------------------------
// Pre-resolved operand getters
// ---------------------------------------------------------------------
//
// An `Atom` compiles to one of these — a slot number or an immediate —
// so evaluation never consults an environment. The typed variants apply
// the same coercions as the interpreter's accessors (`as_i` takes bools,
// `as_d` takes ints).

/// A chained scalar expression: a pure producer inlined into its single
/// consumer by the adjacency pass in [`Jc::seq`], evaluated against the
/// frame with no store of its own. `Arc` keeps the getters `Clone`.
type EI = Arc<dyn Fn(&Rt<'_>) -> i64 + Send + Sync>;
type ED = Arc<dyn Fn(&Rt<'_>) -> f64 + Send + Sync>;
type EB = Arc<dyn Fn(&Rt<'_>) -> bool + Send + Sync>;

/// A deferred scalar producer, typed by its static class.
#[derive(Clone)]
enum Frag {
    I(EI),
    D(ED),
    B(EB),
}

/// Store a deferred producer to its slot after all — the consumer turned
/// out not to take it (multi-use, non-adjacent use, or container shape).
fn materialize(s: usize, f: Frag) -> Op {
    match f {
        Frag::I(f) => op_box(move |rt| rt.frame[s] = JV::I(f(rt))),
        Frag::D(f) => op_box(move |rt| rt.frame[s] = JV::D(f(rt))),
        Frag::B(f) => op_box(move |rt| rt.frame[s] = JV::B(f(rt))),
    }
}

fn frag_gv(f: Frag) -> GV {
    match f {
        Frag::I(f) => GV::EvI(f),
        Frag::D(f) => GV::EvD(f),
        Frag::B(f) => GV::EvB(f),
    }
}

#[derive(Clone)]
enum GI {
    Slot(usize),
    Const(i64),
    Ev(EI),
}
impl GI {
    #[inline]
    fn get(&self, rt: &Rt<'_>) -> i64 {
        match self {
            GI::Slot(s) => rt.frame[*s].as_i(),
            GI::Const(c) => *c,
            GI::Ev(f) => f(rt),
        }
    }
}

#[derive(Clone)]
enum GD {
    Slot(usize),
    Const(f64),
    Ev(ED),
}
impl GD {
    #[inline]
    fn get(&self, rt: &Rt<'_>) -> f64 {
        match self {
            GD::Slot(s) => rt.frame[*s].as_d(),
            GD::Const(c) => *c,
            GD::Ev(f) => f(rt),
        }
    }
}

#[derive(Clone)]
enum GB {
    Slot(usize),
    Const(bool),
    Ev(EB),
}
impl GB {
    #[inline]
    fn get(&self, rt: &Rt<'_>) -> bool {
        match self {
            GB::Slot(s) => rt.frame[*s].as_b(),
            GB::Const(c) => *c,
            GB::Ev(f) => f(rt),
        }
    }
}

#[derive(Clone)]
enum GS {
    Slot(usize),
    Const(Arc<str>),
}
impl GS {
    #[inline]
    fn get(&self, rt: &Rt<'_>) -> Arc<str> {
        match self {
            GS::Slot(s) => rt.frame[*s].as_s(),
            GS::Const(c) => c.clone(),
        }
    }
}

/// Any-value getter (also the compile-time image of constants like array
/// zero elements — only non-reference variants are constructible, which is
/// what keeps compiled programs `Send + Sync`).
#[derive(Clone)]
enum GV {
    Slot(usize),
    Unit,
    Null,
    B(bool),
    I(i64),
    D(f64),
    S(Arc<str>),
    EvI(EI),
    EvD(ED),
    EvB(EB),
}
impl GV {
    #[inline]
    fn get(&self, rt: &Rt<'_>) -> JV {
        match self {
            GV::Slot(s) => rt.frame[*s].clone(),
            GV::Unit => JV::Unit,
            GV::Null => JV::Null,
            GV::B(b) => JV::B(*b),
            GV::I(v) => JV::I(*v),
            GV::D(v) => JV::D(*v),
            GV::S(s) => JV::S(s.clone()),
            GV::EvI(f) => JV::I(f(rt)),
            GV::EvD(f) => JV::D(f(rt)),
            GV::EvB(f) => JV::B(f(rt)),
        }
    }
}

fn slot(s: dblab_ir::expr::Sym) -> usize {
    s.0 as usize
}

/// Container operand: in ANF every record/array/list/map a data-structure
/// op touches is a bound symbol, so the container resolves to a plain slot
/// number at compile time.
fn cslot(a: &Atom) -> usize {
    match a {
        Atom::Sym(s) => slot(*s),
        other => panic!("jit: container operand from {other:?}"),
    }
}

#[inline]
fn map_at<'a>(
    rt: &'a Rt<'_>,
    s: usize,
) -> &'a Rc<std::cell::RefCell<std::collections::HashMap<Key, JV>>> {
    match &rt.frame[s] {
        JV::Map(m) => m,
        other => panic!("expected hashmap, got {other:?}"),
    }
}

#[inline]
fn mmap_at<'a>(
    rt: &'a Rt<'_>,
    s: usize,
) -> &'a Rc<std::cell::RefCell<std::collections::HashMap<Key, Vec<JV>>>> {
    match &rt.frame[s] {
        JV::MMap(m) => m,
        other => panic!("expected multimap, got {other:?}"),
    }
}

fn gv(a: &Atom) -> GV {
    match a {
        Atom::Sym(s) => GV::Slot(slot(*s)),
        Atom::Unit => GV::Unit,
        Atom::Bool(b) => GV::B(*b),
        Atom::Int(v) | Atom::Long(v) => GV::I(*v),
        Atom::Double(_) => GV::D(a.as_double().unwrap()),
        Atom::Str(s) => GV::S(s.clone()),
        Atom::Null(_) => GV::Null,
    }
}

fn gi(a: &Atom) -> GI {
    match a {
        Atom::Sym(s) => GI::Slot(slot(*s)),
        Atom::Int(v) | Atom::Long(v) => GI::Const(*v),
        Atom::Bool(b) => GI::Const(*b as i64),
        other => panic!("jit: int operand from {other:?}"),
    }
}

fn gd(a: &Atom) -> GD {
    match a {
        Atom::Sym(s) => GD::Slot(slot(*s)),
        Atom::Int(v) | Atom::Long(v) => GD::Const(*v as f64),
        Atom::Double(_) => GD::Const(a.as_double().unwrap()),
        other => panic!("jit: double operand from {other:?}"),
    }
}

fn gb(a: &Atom) -> GB {
    match a {
        Atom::Sym(s) => GB::Slot(slot(*s)),
        Atom::Bool(b) => GB::Const(*b),
        other => panic!("jit: bool operand from {other:?}"),
    }
}

fn gs(a: &Atom) -> GS {
    match a {
        Atom::Sym(s) => GS::Slot(slot(*s)),
        Atom::Str(v) => GS::Const(v.clone()),
        other => panic!("jit: string operand from {other:?}"),
    }
}

/// Compile-time scalar class of an operand, from its static IR type.
#[derive(Clone, Copy, PartialEq)]
enum Cls {
    /// Int/Long — and Bool, which the interpreter's `i()` coerces.
    I,
    D,
    B,
    Other,
}

fn cls(t: &Type) -> Cls {
    match t {
        Type::Int | Type::Long => Cls::I,
        Type::Double => Cls::D,
        Type::Bool => Cls::B,
        _ => Cls::Other,
    }
}

// ---------------------------------------------------------------------
// Use counting — feeds the adjacency-chaining pass
// ---------------------------------------------------------------------

/// Per-symbol use count over the whole program: every `Atom::Sym`
/// occurrence in any operand position or block result, plus variable
/// reads/writes. A producer whose uses all sit in the very next statement
/// can be inlined there and its store elided.
fn count_uses(p: &Program) -> Vec<u32> {
    fn atom(u: &mut [u32], a: &Atom) {
        if let Atom::Sym(s) = a {
            u[s.0 as usize] += 1;
        }
    }
    fn sym(u: &mut [u32], s: &dblab_ir::expr::Sym) {
        u[s.0 as usize] += 1;
    }
    fn block(u: &mut [u32], b: &Block) {
        for st in &b.stmts {
            expr(u, &st.expr);
        }
        atom(u, &b.result);
    }
    fn expr(u: &mut [u32], e: &Expr) {
        match e {
            Expr::Atom(x) | Expr::Un(_, x) | Expr::Dict { arg: x, .. } => atom(u, x),
            Expr::Bin(_, x, y) => {
                atom(u, x);
                atom(u, y);
            }
            Expr::Prim(_, args) | Expr::StructNew { args, .. } | Expr::Printf { args, .. } => {
                args.iter().for_each(|a| atom(u, a))
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                atom(u, cond);
                block(u, then_b);
                block(u, else_b);
            }
            Expr::ForRange { lo, hi, body, .. } => {
                atom(u, lo);
                atom(u, hi);
                block(u, body);
            }
            Expr::While { cond, body } => {
                block(u, cond);
                block(u, body);
            }
            Expr::DeclVar { init } => atom(u, init),
            Expr::ReadVar(v) => sym(u, v),
            Expr::Assign { var, value } => {
                sym(u, var);
                atom(u, value);
            }
            Expr::FieldGet { obj, .. } => atom(u, obj),
            Expr::FieldSet { obj, value, .. } => {
                atom(u, obj);
                atom(u, value);
            }
            Expr::ArrayNew { len, .. } => atom(u, len),
            Expr::ArrayGet { arr, idx } => {
                atom(u, arr);
                atom(u, idx);
            }
            Expr::ArraySet { arr, idx, value } => {
                atom(u, arr);
                atom(u, idx);
                atom(u, value);
            }
            Expr::ArrayLen(x) | Expr::ListSize(x) | Expr::HashMapSize(x) | Expr::Free(x) => {
                atom(u, x)
            }
            Expr::SortArray { arr, len, cmp, .. } => {
                atom(u, arr);
                atom(u, len);
                block(u, cmp);
            }
            Expr::ListAppend { list, value } => {
                atom(u, list);
                atom(u, value);
            }
            Expr::ListForeach { list, body, .. } => {
                atom(u, list);
                block(u, body);
            }
            Expr::HashMapGetOrInit { map, key, init } => {
                atom(u, map);
                atom(u, key);
                block(u, init);
            }
            Expr::HashMapForeach { map, body, .. } => {
                atom(u, map);
                block(u, body);
            }
            Expr::MultiMapAdd { map, key, value } => {
                atom(u, map);
                atom(u, key);
                atom(u, value);
            }
            Expr::MultiMapForeachAt { map, key, body, .. } => {
                atom(u, map);
                atom(u, key);
                block(u, body);
            }
            Expr::Malloc { count, .. } | Expr::PoolNew { cap: count, .. } => atom(u, count),
            Expr::PoolAlloc { pool } => atom(u, pool),
            Expr::ParallelFor {
                lo,
                hi,
                accs,
                body,
                merge,
                ..
            } => {
                atom(u, lo);
                atom(u, hi);
                for acc in accs {
                    block(u, &acc.init);
                }
                block(u, body);
                block(u, merge);
            }
            Expr::ListNew { .. }
            | Expr::HashMapNew { .. }
            | Expr::MultiMapNew { .. }
            | Expr::LoadTable { .. }
            | Expr::LoadIndexUnique { .. }
            | Expr::LoadIndexStarts { .. }
            | Expr::LoadIndexItems { .. }
            | Expr::LoadParam { .. } => {}
        }
    }
    let mut u = vec![0u32; p.sym_types.len()];
    block(&mut u, &p.body);
    u
}

/// How many of `sym`'s uses sit in this statement's *direct* operand
/// atoms — the positions an inlined fragment may feed. Nested blocks do
/// not count: a fragment consumed inside a loop or branch would move its
/// evaluation across iterations.
fn direct_uses(st: &Stmt, sym: dblab_ir::expr::Sym) -> u32 {
    let a = |x: &Atom| matches!(x, Atom::Sym(s) if *s == sym) as u32;
    match &st.expr {
        Expr::Atom(x) | Expr::Un(_, x) | Expr::Dict { arg: x, .. } => a(x),
        Expr::Bin(_, x, y) => a(x) + a(y),
        Expr::Prim(_, args) | Expr::StructNew { args, .. } | Expr::Printf { args, .. } => {
            args.iter().map(a).sum()
        }
        Expr::If { cond, .. } => a(cond),
        Expr::ForRange { lo, hi, .. } => a(lo) + a(hi),
        Expr::DeclVar { init } => a(init),
        Expr::Assign { value, .. } => a(value),
        Expr::FieldGet { obj, .. } => a(obj),
        Expr::FieldSet { obj, value, .. } => a(obj) + a(value),
        Expr::ArrayNew { len, .. } => a(len),
        Expr::ArrayGet { arr, idx } => a(arr) + a(idx),
        Expr::ArraySet { arr, idx, value } => a(arr) + a(idx) + a(value),
        Expr::ArrayLen(x) | Expr::ListSize(x) | Expr::HashMapSize(x) | Expr::Free(x) => a(x),
        Expr::SortArray { arr, len, .. } => a(arr) + a(len),
        Expr::ListAppend { list, value } => a(list) + a(value),
        Expr::ListForeach { list, .. } => a(list),
        Expr::HashMapGetOrInit { map, key, .. } => a(map) + a(key),
        Expr::HashMapForeach { map, .. } => a(map),
        Expr::MultiMapAdd { map, key, value } => a(map) + a(key) + a(value),
        Expr::MultiMapForeachAt { map, key, .. } => a(map) + a(key),
        Expr::Malloc { count, .. } | Expr::PoolNew { cap: count, .. } => a(count),
        Expr::PoolAlloc { pool } => a(pool),
        Expr::ParallelFor { lo, hi, .. } => a(lo) + a(hi),
        Expr::While { .. }
        | Expr::ReadVar(_)
        | Expr::ListNew { .. }
        | Expr::HashMapNew { .. }
        | Expr::MultiMapNew { .. }
        | Expr::LoadTable { .. }
        | Expr::LoadIndexUnique { .. }
        | Expr::LoadIndexStarts { .. }
        | Expr::LoadIndexItems { .. }
        | Expr::LoadParam { .. } => 0,
    }
}

// ---------------------------------------------------------------------
// Monomorphized scalar kernels
// ---------------------------------------------------------------------

fn int_arith(op: BinOp) -> fn(i64, i64) -> i64 {
    use BinOp::*;
    // Wrapping semantics to match the generated C (hash mixing below the
    // specialization levels deliberately overflows i64).
    match op {
        Add => |u, v| u.wrapping_add(v),
        Sub => |u, v| u.wrapping_sub(v),
        Mul => |u, v| u.wrapping_mul(v),
        Div => |u, v| u / v,
        Mod => |u, v| u % v,
        Max => |u, v| u.max(v),
        Min => |u, v| u.min(v),
        _ => unreachable!(),
    }
}

fn dbl_arith(op: BinOp) -> fn(f64, f64) -> f64 {
    use BinOp::*;
    match op {
        Add => |u, v| u + v,
        Sub => |u, v| u - v,
        Mul => |u, v| u * v,
        Div => |u, v| u / v,
        Mod => |u, v| u % v,
        Max => |u, v| u.max(v),
        Min => |u, v| u.min(v),
        _ => unreachable!(),
    }
}

fn int_cmp(op: BinOp) -> fn(i64, i64) -> bool {
    use BinOp::*;
    match op {
        Eq => |u, v| u == v,
        Ne => |u, v| u != v,
        Lt => |u, v| u < v,
        Le => |u, v| u <= v,
        Gt => |u, v| u > v,
        Ge => |u, v| u >= v,
        _ => unreachable!(),
    }
}

fn ord_d(u: f64, v: f64) -> std::cmp::Ordering {
    u.partial_cmp(&v).expect("NaN comparison")
}

fn dbl_cmp(op: BinOp) -> fn(f64, f64) -> bool {
    use BinOp::*;
    match op {
        Eq => |u, v| ord_d(u, v).is_eq(),
        Ne => |u, v| !ord_d(u, v).is_eq(),
        Lt => |u, v| ord_d(u, v).is_lt(),
        Le => |u, v| ord_d(u, v).is_le(),
        Gt => |u, v| ord_d(u, v).is_gt(),
        Ge => |u, v| ord_d(u, v).is_ge(),
        _ => unreachable!(),
    }
}

/// The interpreter's `bin` dispatch, verbatim — the fallback for operand
/// types the static classifier can't pin down (record/null comparisons,
/// mixed `Bit*` overloads).
fn bin_dyn(op: BinOp, x: JV, y: JV) -> JV {
    use BinOp::*;
    if matches!(op, Eq | Ne) {
        let xn = matches!(x, JV::Null);
        let yn = matches!(y, JV::Null);
        if xn || yn {
            let eq = matches!((&x, &y), (JV::Null, JV::Null));
            return JV::B(if op == Eq { eq } else { !eq });
        }
    }
    let numeric_dbl = matches!(x, JV::D(_)) || matches!(y, JV::D(_));
    match op {
        Add | Sub | Mul | Div | Mod | Max | Min => {
            if numeric_dbl {
                JV::D(dbl_arith(op)(x.as_d(), y.as_d()))
            } else {
                JV::I(int_arith(op)(x.as_i(), y.as_i()))
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            if numeric_dbl {
                JV::B(dbl_cmp(op)(x.as_d(), y.as_d()))
            } else {
                JV::B(int_cmp(op)(x.as_i(), y.as_i()))
            }
        }
        And => JV::B(x.as_b() && y.as_b()),
        Or => JV::B(x.as_b() || y.as_b()),
        BitAnd => match (&x, &y) {
            (JV::B(_), _) | (_, JV::B(_)) => JV::B(x.as_b() && y.as_b()),
            _ => JV::I(x.as_i() & y.as_i()),
        },
        BitOr => match (&x, &y) {
            (JV::B(_), _) | (_, JV::B(_)) => JV::B(x.as_b() || y.as_b()),
            _ => JV::I(x.as_i() | y.as_i()),
        },
    }
}

// ---------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------

struct Jc<'p> {
    p: &'p Program,
    /// Program-wide use counts, indexed by symbol — drives store elision.
    uses: Vec<u32>,
    /// The producer currently being inlined into the statement under
    /// compilation, if any: `(slot, fragment)`. Set by [`Jc::seq`] right
    /// before compiling a consumer whose direct operands cover every use
    /// of the producer; the chain-aware getters substitute it in place of
    /// a slot read.
    chain: std::cell::RefCell<Option<(usize, Frag)>>,
}

impl Jc<'_> {
    fn seq(&self, b: &Block) -> Seq {
        let mut ops = Vec::with_capacity(b.stmts.len());
        // The previous statement, compiled but not yet emitted: a pure
        // scalar producer waiting to see whether the next statement is its
        // only consumer. Chains collapse transitively — `a+b` feeding a
        // compare feeding an `If` becomes one op.
        let mut prev: Option<(dblab_ir::expr::Sym, Frag)> = None;
        let mut i = 0;
        while i < b.stmts.len() {
            let st = &b.stmts[i];
            if let Some((psym, frag)) = prev.take() {
                let direct = direct_uses(st, psym);
                if direct > 0 && direct == self.uses[slot(psym)] {
                    *self.chain.borrow_mut() = Some((slot(psym), frag));
                } else {
                    ops.push(materialize(slot(psym), frag));
                }
            }
            let chained = self.chain.borrow().is_some();
            if !chained {
                if let Some((op, n)) = self.try_fuse(&b.stmts[i..]) {
                    ops.push(op);
                    i += n;
                    continue;
                }
            }
            if let Some(frag) = self.frag(st) {
                prev = Some((st.sym, frag));
            } else {
                ops.push(self.stmt(st));
            }
            *self.chain.borrow_mut() = None;
            i += 1;
        }
        // Block tail: a still-pending fragment either *is* the block's
        // result (single use — feed it through without a store) or gets
        // stored at its original position like any other statement.
        let result = match prev.take() {
            Some((psym, frag)) if b.result == Atom::Sym(psym) && self.uses[slot(psym)] == 1 => {
                frag_gv(frag)
            }
            Some((psym, frag)) => {
                ops.push(materialize(slot(psym), frag));
                gv(&b.result)
            }
            None => gv(&b.result),
        };
        Seq { ops, result }
    }

    // -- chain-aware operand getters ----------------------------------
    //
    // Every operand read in a compile path goes through these: when the
    // atom is the symbol currently being inlined, the getter evaluates the
    // fragment instead of reading the (never-written) slot. Class
    // mismatches cannot happen — the consumer picks its getter from the
    // same static classification the fragment was built under — so they
    // panic rather than silently misread.

    fn chain_frag(&self, a: &Atom) -> Option<Frag> {
        let Atom::Sym(s) = a else { return None };
        match &*self.chain.borrow() {
            Some((cs, f)) if *cs == slot(*s) => Some(f.clone()),
            _ => None,
        }
    }

    fn ci(&self, a: &Atom) -> GI {
        match self.chain_frag(a) {
            Some(Frag::I(f)) => GI::Ev(f),
            Some(Frag::B(f)) => GI::Ev(Arc::new(move |rt| f(rt) as i64)),
            Some(Frag::D(_)) => panic!("jit chain: int consumer of a double fragment"),
            None => gi(a),
        }
    }

    fn cd(&self, a: &Atom) -> GD {
        match self.chain_frag(a) {
            Some(Frag::D(f)) => GD::Ev(f),
            Some(Frag::I(f)) => GD::Ev(Arc::new(move |rt| f(rt) as f64)),
            Some(Frag::B(_)) => panic!("jit chain: double consumer of a bool fragment"),
            None => gd(a),
        }
    }

    fn cb(&self, a: &Atom) -> GB {
        match self.chain_frag(a) {
            Some(Frag::B(f)) => GB::Ev(f),
            Some(_) => panic!("jit chain: bool consumer of a numeric fragment"),
            None => gb(a),
        }
    }

    fn cv(&self, a: &Atom) -> GV {
        match self.chain_frag(a) {
            Some(f) => frag_gv(f),
            None => gv(a),
        }
    }

    // -- fragment compilation -----------------------------------------

    /// Compile a statement as a deferred scalar fragment, if its shape
    /// allows: a pure read or scalar computation with a statically pinned
    /// class. Anything else (containers, side effects, dynamic dispatch)
    /// returns `None` and compiles as a regular op.
    fn frag(&self, st: &Stmt) -> Option<Frag> {
        match &st.expr {
            Expr::Bin(op, a, b) => self.frag_bin(*op, a, b),
            Expr::Un(op, a) => self.frag_un(*op, a),
            Expr::FieldGet {
                obj: Atom::Sym(o),
                field,
                ..
            } => {
                let (o, f) = (slot(*o), *field);
                match cls(&st.ty) {
                    Cls::I => Some(Frag::I(Arc::new(move |rt| rt.field_with(o, f, JV::as_i)))),
                    Cls::D => Some(Frag::D(Arc::new(move |rt| rt.field_with(o, f, JV::as_d)))),
                    Cls::B => Some(Frag::B(Arc::new(move |rt| rt.field_with(o, f, JV::as_b)))),
                    Cls::Other => None,
                }
            }
            Expr::ArrayGet {
                arr: Atom::Sym(ar),
                idx,
            } => {
                let (a, ix) = (slot(*ar), self.ci(idx));
                match cls(&st.ty) {
                    Cls::I => Some(Frag::I(Arc::new(move |rt| {
                        rt.elem_with(a, ix.get(rt) as usize, JV::as_i)
                    }))),
                    Cls::D => Some(Frag::D(Arc::new(move |rt| {
                        rt.elem_with(a, ix.get(rt) as usize, JV::as_d)
                    }))),
                    Cls::B => Some(Frag::B(Arc::new(move |rt| {
                        rt.elem_with(a, ix.get(rt) as usize, JV::as_b)
                    }))),
                    Cls::Other => None,
                }
            }
            Expr::ReadVar(v) => {
                let v = slot(*v);
                match cls(&st.ty) {
                    Cls::I => Some(Frag::I(Arc::new(move |rt| rt.frame[v].as_i()))),
                    Cls::D => Some(Frag::D(Arc::new(move |rt| rt.frame[v].as_d()))),
                    Cls::B => Some(Frag::B(Arc::new(move |rt| rt.frame[v].as_b()))),
                    Cls::Other => None,
                }
            }
            _ => None,
        }
    }

    fn frag_bin(&self, op: BinOp, a: &Atom, b: &Atom) -> Option<Frag> {
        use BinOp::*;
        // Null tests: compare the slot's variant in place (the chain-aware
        // mirror of `null_cmp`).
        if matches!(op, Eq | Ne) {
            let want = op == Eq;
            match (a, b) {
                (Atom::Null(_), Atom::Null(_)) => return Some(Frag::B(Arc::new(move |_| want))),
                (Atom::Sym(s), Atom::Null(_)) | (Atom::Null(_), Atom::Sym(s)) => {
                    let s = slot(*s);
                    return Some(Frag::B(Arc::new(move |rt| {
                        matches!(rt.frame[s], JV::Null) == want
                    })));
                }
                _ => {}
            }
        }
        let (ca, cb) = (cls(&self.p.atom_type(a)), cls(&self.p.atom_type(b)));
        let int_like = |c: Cls| matches!(c, Cls::I | Cls::B);
        let dbl_like = |c: Cls| matches!(c, Cls::I | Cls::D);
        match op {
            Add | Sub | Mul | Div | Mod | Max | Min => {
                if ca == Cls::I && cb == Cls::I {
                    let (x, y, f) = (self.ci(a), self.ci(b), int_arith(op));
                    Some(Frag::I(Arc::new(move |rt| f(x.get(rt), y.get(rt)))))
                } else if dbl_like(ca) && dbl_like(cb) && (ca == Cls::D || cb == Cls::D) {
                    let (x, y, f) = (self.cd(a), self.cd(b), dbl_arith(op));
                    Some(Frag::D(Arc::new(move |rt| f(x.get(rt), y.get(rt)))))
                } else {
                    None
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                if int_like(ca) && int_like(cb) {
                    let (x, y, f) = (self.ci(a), self.ci(b), int_cmp(op));
                    Some(Frag::B(Arc::new(move |rt| f(x.get(rt), y.get(rt)))))
                } else if dbl_like(ca) && dbl_like(cb) {
                    let (x, y, f) = (self.cd(a), self.cd(b), dbl_cmp(op));
                    Some(Frag::B(Arc::new(move |rt| f(x.get(rt), y.get(rt)))))
                } else {
                    None
                }
            }
            And => {
                let (x, y) = (self.cb(a), self.cb(b));
                Some(Frag::B(Arc::new(move |rt| x.get(rt) && y.get(rt))))
            }
            Or => {
                let (x, y) = (self.cb(a), self.cb(b));
                Some(Frag::B(Arc::new(move |rt| x.get(rt) || y.get(rt))))
            }
            BitAnd | BitOr if ca == Cls::B && cb == Cls::B => {
                let (x, y) = (self.cb(a), self.cb(b));
                if op == BitAnd {
                    Some(Frag::B(Arc::new(move |rt| x.get(rt) && y.get(rt))))
                } else {
                    Some(Frag::B(Arc::new(move |rt| x.get(rt) || y.get(rt))))
                }
            }
            BitAnd | BitOr if ca == Cls::I && cb == Cls::I => {
                let (x, y) = (self.ci(a), self.ci(b));
                if op == BitAnd {
                    Some(Frag::I(Arc::new(move |rt| x.get(rt) & y.get(rt))))
                } else {
                    Some(Frag::I(Arc::new(move |rt| x.get(rt) | y.get(rt))))
                }
            }
            _ => None,
        }
    }

    fn frag_un(&self, op: UnOp, a: &Atom) -> Option<Frag> {
        match op {
            UnOp::Neg => match cls(&self.p.atom_type(a)) {
                Cls::I => {
                    let x = self.ci(a);
                    Some(Frag::I(Arc::new(move |rt| -x.get(rt))))
                }
                Cls::D => {
                    let x = self.cd(a);
                    Some(Frag::D(Arc::new(move |rt| -x.get(rt))))
                }
                _ => None,
            },
            UnOp::Not => {
                let x = self.cb(a);
                Some(Frag::B(Arc::new(move |rt| !x.get(rt))))
            }
            UnOp::I2D | UnOp::L2D => {
                let x = self.cd(a);
                Some(Frag::D(Arc::new(move |rt| x.get(rt))))
            }
            UnOp::I2L | UnOp::L2I => {
                let x = self.ci(a);
                Some(Frag::I(Arc::new(move |rt| x.get(rt))))
            }
            UnOp::Year => {
                let x = self.ci(a);
                Some(Frag::I(Arc::new(move |rt| x.get(rt) / 10000)))
            }
            UnOp::HashInt => {
                let x = self.ci(a);
                Some(Frag::I(Arc::new(move |rt| {
                    x.get(rt).wrapping_mul(0x9E3779B97F4A7C15u64 as i64)
                })))
            }
            UnOp::HashDouble => {
                let x = self.cd(a);
                Some(Frag::I(Arc::new(move |rt| x.get(rt).to_bits() as i64)))
            }
        }
    }

    /// Peephole over the statement window: the lowering emits a handful of
    /// multi-statement shapes on every scan row — aggregate read-modify-write
    /// triples, the row-load `ArrayGet` fanned out into per-column
    /// `FieldGet`s, key-record `FieldSet` bursts. Each becomes one closure
    /// with one container borrow instead of k dispatches with k borrows.
    /// Returns the op plus how many statements it consumed, or `None` when
    /// no multi-statement shape starts at the window head.
    fn try_fuse(&self, w: &[Stmt]) -> Option<(Op, usize)> {
        self.fuse_rmw(w)
            .or_else(|| self.fuse_alloc_init(w))
            .or_else(|| self.fuse_field_reads(w))
            .or_else(|| self.fuse_field_writes(w))
    }

    /// Scalar class of an arithmetic RMW, mirroring [`Jc::bin`]'s operand
    /// classification: `Some(I)` compiles the wrapping-int kernel, `Some(D)`
    /// the double kernel, `None` falls back to unfused compilation.
    fn rmw_cls(&self, read_sym: dblab_ir::expr::Sym, other: &Atom) -> Option<Cls> {
        let cf = cls(&self.p.atom_type(&Atom::Sym(read_sym)));
        let co = cls(&self.p.atom_type(other));
        let dbl_like = |c: Cls| matches!(c, Cls::I | Cls::D);
        if cf == Cls::I && co == Cls::I {
            Some(Cls::I)
        } else if dbl_like(cf) && dbl_like(co) && (cf == Cls::D || co == Cls::D) {
            Some(Cls::D)
        } else {
            None
        }
    }

    /// `a = read; b = a ⊕ y; write b` — the aggregate-update triple (nine
    /// per Q1 row). Both the field flavor (`o.f`) and the loop-variable
    /// flavor (`ReadVar`/`Assign`) collapse to one op that reads, combines
    /// and writes back under a single borrow. The two intermediate slots
    /// are still stored: ANF gives no liveness guarantee past the triple.
    fn fuse_rmw(&self, w: &[Stmt]) -> Option<(Op, usize)> {
        use BinOp::*;
        let [g, m, s, ..] = w else { return None };
        let Expr::Bin(op, x, y) = &m.expr else {
            return None;
        };
        if !matches!(op, Add | Sub | Mul | Div | Mod | Max | Min) {
            return None;
        }
        // Which Bin operand is the freshly read value? The other one must
        // not alias it, or the fused op would read the slot too early.
        let (other, swap) = match (x, y) {
            (Atom::Sym(a), yy) if *a == g.sym => (yy, false),
            (xx, Atom::Sym(a)) if *a == g.sym => (xx, true),
            _ => return None,
        };
        if matches!(other, Atom::Sym(a) if *a == g.sym) {
            return None;
        }
        let c = self.rmw_cls(g.sym, other)?;
        let (a_out, b_out) = (slot(g.sym), slot(m.sym));
        // The triple itself accounts for one use of each intermediate
        // (the Bin operand, the written value). Any further use means the
        // slot must still be stored; otherwise the store is dead.
        let (store_a, store_b) = (self.uses[a_out] > 1, self.uses[b_out] > 1);
        match (&g.expr, &s.expr) {
            (
                Expr::FieldGet {
                    obj: Atom::Sym(o1),
                    field,
                    ..
                },
                Expr::FieldSet {
                    obj: Atom::Sym(o2),
                    field: f2,
                    value: Atom::Sym(v),
                    ..
                },
            ) if o1 == o2 && field == f2 && *v == m.sym => {
                let (o, f) = (slot(*o1), *field);
                let op = match c {
                    Cls::I => {
                        let (y, arith) = (gi(other), int_arith(*op));
                        op_box(move |rt| {
                            let oth = y.get(rt);
                            let (cur, new);
                            {
                                let mut cells = rt.cells_at(o, "FieldSet").borrow_mut();
                                cur = cells[f].as_i();
                                new = if swap {
                                    arith(oth, cur)
                                } else {
                                    arith(cur, oth)
                                };
                                cells[f] = JV::I(new);
                            }
                            if store_a {
                                rt.frame[a_out] = JV::I(cur);
                            }
                            if store_b {
                                rt.frame[b_out] = JV::I(new);
                            }
                        })
                    }
                    _ => {
                        let (y, arith) = (gd(other), dbl_arith(*op));
                        op_box(move |rt| {
                            let oth = y.get(rt);
                            let (cur, new);
                            {
                                let mut cells = rt.cells_at(o, "FieldSet").borrow_mut();
                                cur = cells[f].as_d();
                                new = if swap {
                                    arith(oth, cur)
                                } else {
                                    arith(cur, oth)
                                };
                                cells[f] = JV::D(new);
                            }
                            if store_a {
                                rt.frame[a_out] = JV::D(cur);
                            }
                            if store_b {
                                rt.frame[b_out] = JV::D(new);
                            }
                        })
                    }
                };
                Some((op, 3))
            }
            (
                Expr::ReadVar(v1),
                Expr::Assign {
                    var: v2,
                    value: Atom::Sym(v),
                },
            ) if v1 == v2 && *v == m.sym => {
                let var = slot(*v1);
                let op = match c {
                    Cls::I => {
                        let (y, arith) = (gi(other), int_arith(*op));
                        op_box(move |rt| {
                            let oth = y.get(rt);
                            let cur = rt.frame[var].as_i();
                            let new = if swap {
                                arith(oth, cur)
                            } else {
                                arith(cur, oth)
                            };
                            rt.frame[var] = JV::I(new);
                            if store_a {
                                rt.frame[a_out] = JV::I(cur);
                            }
                            if store_b {
                                rt.frame[b_out] = JV::I(new);
                            }
                        })
                    }
                    _ => {
                        let (y, arith) = (gd(other), dbl_arith(*op));
                        op_box(move |rt| {
                            let oth = y.get(rt);
                            let cur = rt.frame[var].as_d();
                            let new = if swap {
                                arith(oth, cur)
                            } else {
                                arith(cur, oth)
                            };
                            rt.frame[var] = JV::D(new);
                            if store_a {
                                rt.frame[a_out] = JV::D(cur);
                            }
                            if store_b {
                                rt.frame[b_out] = JV::D(new);
                            }
                        })
                    }
                };
                Some((op, 3))
            }
            _ => None,
        }
    }

    /// A run of `FieldGet`s off one record — optionally headed by the
    /// `ArrayGet` that produced it (the table-scan row load: one `ArrayGet`
    /// plus one `FieldGet` per referenced column, every row) — becomes one
    /// op with a single lookup of the record: one borrow of a heap
    /// record's cells, one view resolution for a base row.
    fn fuse_field_reads(&self, w: &[Stmt]) -> Option<(Op, usize)> {
        let (head, rec_sym, start) = match &w[0].expr {
            Expr::ArrayGet { arr, idx } => (Some((cslot(arr), gi(idx))), w[0].sym, 1),
            Expr::FieldGet {
                obj: Atom::Sym(o), ..
            } => (None, *o, 0),
            _ => return None,
        };
        let mut fields: Vec<(usize, usize)> = Vec::new(); // (field, out slot)
        let mut i = start;
        while let Some(st) = w.get(i) {
            match &st.expr {
                Expr::FieldGet {
                    obj: Atom::Sym(o),
                    field,
                    ..
                } if *o == rec_sym => {
                    fields.push((*field, slot(st.sym)));
                    i += 1;
                }
                _ => break,
            }
        }
        // Only fuse past the single-statement shapes.
        if fields.len() < if head.is_some() { 1 } else { 2 } {
            return None;
        }
        let n = i;
        let op = match head {
            Some((arr, idx)) => {
                let rec_out = slot(rec_sym);
                op_box(move |rt| {
                    let rec = rt.elem(arr, idx.get(rt) as usize);
                    rt.fields_into(&rec, &fields);
                    rt.frame[rec_out] = rec;
                })
            }
            None => {
                let o = slot(rec_sym);
                op_box(move |rt| {
                    // Owned handle: the field stores reborrow `rt`.
                    let rec = rt.frame[o].clone();
                    rt.fields_into(&rec, &fields);
                })
            }
        };
        Some((op, n))
    }

    /// Consecutive `FieldSet`s into one record — the key-record init shape —
    /// under a single `borrow_mut`. Values are atoms, so evaluating them
    /// mid-borrow only reads the frame and cannot re-enter the cells.
    fn fuse_field_writes(&self, w: &[Stmt]) -> Option<(Op, usize)> {
        let Expr::FieldSet {
            obj: Atom::Sym(o), ..
        } = &w[0].expr
        else {
            return None;
        };
        let o = *o;
        let mut stores: Vec<(usize, GV)> = Vec::new();
        let mut i = 0;
        while let Some(st) = w.get(i) {
            match &st.expr {
                Expr::FieldSet {
                    obj: Atom::Sym(oo),
                    field,
                    value,
                    ..
                } if *oo == o => {
                    stores.push((*field, gv(value)));
                    i += 1;
                }
                _ => break,
            }
        }
        if stores.len() < 2 {
            return None;
        }
        let (o, n) = (slot(o), stores.len());
        let op = op_box(move |rt| {
            let mut cells = rt.cells_at(o, "FieldSet").borrow_mut();
            for (f, x) in &stores {
                cells[*f] = x.get(rt);
            }
        });
        Some((op, n))
    }

    /// `rec = pool.alloc; rec.f0 = …; rec.f1 = …` — the per-row key-record
    /// shape: build the cells vector directly instead of zero-filling and
    /// then writing each field through a borrow. Stops at any store whose
    /// value is the record itself (its slot isn't written until the end).
    fn fuse_alloc_init(&self, w: &[Stmt]) -> Option<(Op, usize)> {
        let Expr::PoolAlloc { pool } = &w[0].expr else {
            return None;
        };
        let rec = w[0].sym;
        let mut stores: Vec<(usize, GV)> = Vec::new();
        let mut i = 1;
        while let Some(st) = w.get(i) {
            match &st.expr {
                Expr::FieldSet {
                    obj: Atom::Sym(o),
                    field,
                    value,
                    ..
                } if *o == rec && !matches!(value, Atom::Sym(v) if *v == rec) => {
                    stores.push((*field, gv(value)));
                    i += 1;
                }
                _ => break,
            }
        }
        if stores.is_empty() {
            return None;
        }
        let (pool, out, n) = (gi(pool), slot(rec), i);
        let op = op_box(move |rt| {
            let mut fields = vec![JV::I(0); pool.get(rt) as usize];
            for (f, x) in &stores {
                fields[*f] = x.get(rt);
            }
            rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(fields)));
        });
        Some((op, n))
    }

    fn bin(&self, op: BinOp, a: &Atom, b: &Atom, out: usize) -> Op {
        use BinOp::*;
        let (ca, cb) = (cls(&self.p.atom_type(a)), cls(&self.p.atom_type(b)));
        let int_like = |c: Cls| matches!(c, Cls::I | Cls::B);
        let dbl_like = |c: Cls| matches!(c, Cls::I | Cls::D);
        match op {
            Add | Sub | Mul | Div | Mod | Max | Min => {
                if ca == Cls::I && cb == Cls::I {
                    let (x, y, f) = (self.ci(a), self.ci(b), int_arith(op));
                    Box::new(move |rt| rt.frame[out] = JV::I(f(x.get(rt), y.get(rt))))
                } else if dbl_like(ca) && dbl_like(cb) && (ca == Cls::D || cb == Cls::D) {
                    let (x, y, f) = (self.cd(a), self.cd(b), dbl_arith(op));
                    Box::new(move |rt| rt.frame[out] = JV::D(f(x.get(rt), y.get(rt))))
                } else {
                    self.bin_fallback(op, a, b, out)
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                // `null_cmp` reads slots in place, so it must not swallow a
                // chained operand (can't happen for scalar fragments, but
                // the guard keeps the invariant local).
                let unchained = self.chain_frag(a).is_none() && self.chain_frag(b).is_none();
                if let Some(fast) = null_cmp(op, a, b, out).filter(|_| unchained) {
                    fast
                } else if int_like(ca) && int_like(cb) {
                    let (x, y, f) = (self.ci(a), self.ci(b), int_cmp(op));
                    Box::new(move |rt| rt.frame[out] = JV::B(f(x.get(rt), y.get(rt))))
                } else if dbl_like(ca) && dbl_like(cb) {
                    let (x, y, f) = (self.cd(a), self.cd(b), dbl_cmp(op));
                    Box::new(move |rt| rt.frame[out] = JV::B(f(x.get(rt), y.get(rt))))
                } else {
                    self.bin_fallback(op, a, b, out)
                }
            }
            And => {
                let (x, y) = (self.cb(a), self.cb(b));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) && y.get(rt)))
            }
            Or => {
                let (x, y) = (self.cb(a), self.cb(b));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) || y.get(rt)))
            }
            BitAnd | BitOr => {
                if ca == Cls::B && cb == Cls::B {
                    let (x, y) = (self.cb(a), self.cb(b));
                    if op == BitAnd {
                        Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) && y.get(rt)))
                    } else {
                        Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) || y.get(rt)))
                    }
                } else if ca == Cls::I && cb == Cls::I {
                    let (x, y) = (self.ci(a), self.ci(b));
                    if op == BitAnd {
                        Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt) & y.get(rt)))
                    } else {
                        Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt) | y.get(rt)))
                    }
                } else {
                    self.bin_fallback(op, a, b, out)
                }
            }
        }
    }

    fn bin_fallback(&self, op: BinOp, a: &Atom, b: &Atom, out: usize) -> Op {
        let (x, y) = (self.cv(a), self.cv(b));
        Box::new(move |rt| rt.frame[out] = bin_dyn(op, x.get(rt), y.get(rt)))
    }

    fn un(&self, op: UnOp, a: &Atom, out: usize) -> Op {
        match op {
            UnOp::Neg => match cls(&self.p.atom_type(a)) {
                Cls::I => {
                    let x = self.ci(a);
                    Box::new(move |rt| rt.frame[out] = JV::I(-x.get(rt)))
                }
                Cls::D => {
                    let x = self.cd(a);
                    Box::new(move |rt| rt.frame[out] = JV::D(-x.get(rt)))
                }
                _ => {
                    let x = self.cv(a);
                    Box::new(move |rt| {
                        rt.frame[out] = match x.get(rt) {
                            JV::I(v) => JV::I(-v),
                            JV::D(v) => JV::D(-v),
                            other => panic!("neg {other:?}"),
                        }
                    })
                }
            },
            UnOp::Not => {
                let x = self.cb(a);
                Box::new(move |rt| rt.frame[out] = JV::B(!x.get(rt)))
            }
            UnOp::I2D | UnOp::L2D => {
                let x = self.cd(a);
                Box::new(move |rt| rt.frame[out] = JV::D(x.get(rt)))
            }
            UnOp::I2L | UnOp::L2I => {
                let x = self.ci(a);
                Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt)))
            }
            UnOp::Year => {
                let x = self.ci(a);
                Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt) / 10000))
            }
            UnOp::HashInt => {
                let x = self.ci(a);
                Box::new(move |rt| {
                    rt.frame[out] = JV::I(x.get(rt).wrapping_mul(0x9E3779B97F4A7C15u64 as i64))
                })
            }
            UnOp::HashDouble => {
                let x = self.cd(a);
                Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt).to_bits() as i64))
            }
        }
    }

    fn prim(&self, op: PrimOp, args: &[Atom], out: usize) -> Op {
        match op {
            PrimOp::StrEq => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) == y.get(rt)))
            }
            PrimOp::StrNe => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt) != y.get(rt)))
            }
            PrimOp::StrCmp => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| {
                    rt.frame[out] = JV::I(match x.get(rt).cmp(&y.get(rt)) {
                        std::cmp::Ordering::Less => -1,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    })
                })
            }
            PrimOp::StrStartsWith => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt).starts_with(&*y.get(rt))))
            }
            PrimOp::StrEndsWith => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt).ends_with(&*y.get(rt))))
            }
            PrimOp::StrContains => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| rt.frame[out] = JV::B(x.get(rt).contains(&*y.get(rt))))
            }
            PrimOp::StrLike => {
                let (x, y) = (gs(&args[0]), gs(&args[1]));
                Box::new(move |rt| {
                    rt.frame[out] = JV::B(dblab_runtime::like::like_match(&x.get(rt), &y.get(rt)))
                })
            }
            PrimOp::StrSubstr => {
                let (s, from1, len) = (gs(&args[0]), self.ci(&args[1]), self.ci(&args[2]));
                Box::new(move |rt| {
                    let s = s.get(rt);
                    let from = (from1.get(rt) as usize).saturating_sub(1).min(s.len());
                    let to = (from + len.get(rt) as usize).min(s.len());
                    rt.frame[out] = JV::S(s[from..to].into());
                })
            }
            PrimOp::StrLen => {
                let x = gs(&args[0]);
                Box::new(move |rt| rt.frame[out] = JV::I(x.get(rt).len() as i64))
            }
            PrimOp::HashStr => {
                let x = gs(&args[0]);
                Box::new(move |rt| {
                    let mut h = 1469598103934665603u64;
                    for b in x.get(rt).bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(1099511628211);
                    }
                    rt.frame[out] = JV::I(h as i64);
                })
            }
            // Honoured in-process: the native binaries report in-query time
            // (loading excluded) through these; the jit tier does the same.
            PrimOp::TimerStart => Box::new(move |rt| {
                rt.timer_start = Some(Instant::now());
            }),
            PrimOp::TimerStop => Box::new(move |rt| {
                rt.query_ms = rt.timer_start.map(|t| t.elapsed().as_secs_f64() * 1e3);
            }),
            PrimOp::PrintRusage => Box::new(move |_rt: &mut Rt<'_>| {}),
        }
    }

    fn stmt(&self, st: &Stmt) -> Op {
        let out = slot(st.sym);
        match &st.expr {
            Expr::Atom(a) => {
                let x = self.cv(a);
                Box::new(move |rt| rt.frame[out] = x.get(rt))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b, out),
            Expr::Un(op, a) => self.un(*op, a, out),
            Expr::Prim(op, args) => self.prim(*op, args, out),
            Expr::Dict { dict, op, arg } => {
                let name = dict.clone();
                let op = *op;
                match op {
                    DictOp::Decode => {
                        let x = self.ci(arg);
                        Box::new(move |rt| {
                            let code = x.get(rt);
                            let d = &rt.db.dict(&name).dict;
                            rt.frame[out] = JV::S(d.decode(code as i32).into());
                        })
                    }
                    _ => {
                        let x = gs(arg);
                        Box::new(move |rt| {
                            let s = x.get(rt);
                            let d = &rt.db.dict(&name).dict;
                            rt.frame[out] = JV::I(match op {
                                DictOp::Lookup => d.code(&s) as i64,
                                DictOp::RangeStart => d.prefix_range(&s).0 as i64,
                                DictOp::RangeEnd => d.prefix_range(&s).1 as i64,
                                DictOp::Decode => unreachable!(),
                            });
                        })
                    }
                }
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                // Getter first: the nested `seq` calls reuse the chain cell.
                let c = self.cb(cond);
                let (t, e) = (self.seq(then_b), self.seq(else_b));
                // Filter shape — both arms are effect-only. The result slot
                // keeps its initial Unit (slots are single-assignment), so
                // no store at all.
                if then_b.result == Atom::Unit && else_b.result == Atom::Unit {
                    Box::new(move |rt| {
                        if c.get(rt) {
                            t.run_unit(rt)
                        } else {
                            e.run_unit(rt)
                        }
                    })
                } else {
                    Box::new(move |rt| {
                        let v = if c.get(rt) {
                            t.run_val(rt)
                        } else {
                            e.run_val(rt)
                        };
                        rt.frame[out] = v;
                    })
                }
            }
            Expr::ForRange { lo, hi, var, body } => {
                let (lo, hi, var) = (self.ci(lo), self.ci(hi), slot(*var));
                let body = self.seq(body);
                Box::new(move |rt| {
                    let (l, h) = (lo.get(rt), hi.get(rt));
                    for i in l..h {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = JV::I(i);
                        body.run_unit(rt);
                    }
                })
            }
            Expr::While { cond, body } => {
                // `run_val` lets the cond block's tail chain collapse into
                // the returned value instead of a slot round trip.
                let (cond, body) = (self.seq(cond), self.seq(body));
                Box::new(move |rt| loop {
                    if rt.expired() {
                        break;
                    }
                    if !cond.run_val(rt).as_b() {
                        break;
                    }
                    body.run_unit(rt);
                })
            }
            Expr::DeclVar { init } => {
                let x = self.cv(init);
                Box::new(move |rt| rt.frame[out] = x.get(rt))
            }
            Expr::ReadVar(v) => {
                let v = slot(*v);
                Box::new(move |rt| rt.frame[out] = rt.frame[v].clone())
            }
            Expr::Assign { var, value } => {
                let (var, x) = (slot(*var), self.cv(value));
                Box::new(move |rt| rt.frame[var] = x.get(rt))
            }
            Expr::StructNew { args, .. } => {
                let args: Vec<GV> = args.iter().map(|a| self.cv(a)).collect();
                Box::new(move |rt| {
                    let fields: Vec<JV> = args.iter().map(|a| a.get(rt)).collect();
                    rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(fields)));
                })
            }
            Expr::FieldGet { obj, field, .. } => {
                let (obj, field) = (cslot(obj), *field);
                Box::new(move |rt| rt.frame[out] = rt.field(obj, field))
            }
            Expr::FieldSet {
                obj, field, value, ..
            } => {
                let (obj, field, x) = (cslot(obj), *field, self.cv(value));
                Box::new(move |rt| {
                    let v = x.get(rt);
                    rt.cells_at(obj, "FieldSet").borrow_mut()[field] = v;
                })
            }
            Expr::ArrayNew { elem, len } => {
                let (zero, len) = (gv_zero(elem), self.ci(len));
                Box::new(move |rt| {
                    let n = len.get(rt) as usize;
                    let z = zero.get(rt);
                    rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(vec![z; n])));
                })
            }
            Expr::ArrayGet { arr, idx } => {
                let (arr, idx) = (cslot(arr), self.ci(idx));
                Box::new(move |rt| {
                    rt.frame[out] = rt.elem(arr, idx.get(rt) as usize);
                })
            }
            Expr::ArraySet { arr, idx, value } => {
                let (arr, idx, x) = (cslot(arr), self.ci(idx), self.cv(value));
                Box::new(move |rt| {
                    let i = idx.get(rt) as usize;
                    let v = x.get(rt);
                    rt.cells_at(arr, "ArraySet").borrow_mut()[i] = v;
                })
            }
            Expr::ArrayLen(a) => {
                let a = cslot(a);
                Box::new(move |rt| rt.frame[out] = JV::I(rt.len_of(a) as i64))
            }
            Expr::SortArray {
                arr,
                len,
                a,
                b,
                cmp,
            } => {
                let (arr, len) = (cslot(arr), self.ci(len));
                let (sa, sb) = (slot(*a), slot(*b));
                let cmp = self.seq(cmp);
                Box::new(move |rt| {
                    // Owned handle: the comparator mutates rt.frame, so the
                    // borrow of the array slot cannot live across it.
                    let cells = rt.cells_at(arr, "SortArray").clone();
                    let n = len.get(rt) as usize;
                    let mut items: Vec<JV> = cells.borrow()[..n].to_vec();
                    // Comparators are tiny and not interruptible (the outer
                    // loops carry the deadline) — same as the interpreter.
                    let saved = rt.deadline.take();
                    items.sort_by(|x, y| {
                        rt.frame[sa] = x.clone();
                        rt.frame[sb] = y.clone();
                        cmp.run_val(rt).as_i().cmp(&0)
                    });
                    rt.deadline = saved;
                    cells.borrow_mut()[..n].clone_from_slice(&items);
                })
            }
            Expr::ListNew { .. } => Box::new(move |rt| {
                rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(Vec::new())));
            }),
            Expr::ListAppend { list, value } => {
                let (list, x) = (cslot(list), self.cv(value));
                Box::new(move |rt| {
                    let v = x.get(rt);
                    rt.cells_at(list, "ListAppend").borrow_mut().push(v);
                })
            }
            Expr::ListSize(l) => {
                let l = cslot(l);
                Box::new(move |rt| rt.frame[out] = JV::I(rt.len_of(l) as i64))
            }
            Expr::ListForeach { list, var, body } => {
                let (list, var) = (cslot(list), slot(*var));
                let body = self.seq(body);
                Box::new(move |rt| {
                    let items: Vec<JV> = rt.cells_at(list, "ListForeach").borrow().clone();
                    for v in items {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = v;
                        body.run_unit(rt);
                    }
                })
            }
            Expr::HashMapNew { .. } => Box::new(move |rt| {
                rt.frame[out] = JV::Map(Rc::new(std::cell::RefCell::new(Default::default())));
            }),
            Expr::HashMapGetOrInit { map, key, init } => {
                let (map, key) = (cslot(map), self.cv(key));
                let init = self.seq(init);
                Box::new(move |rt| {
                    let k = rt.key_of(&key.get(rt));
                    let existing = map_at(rt, map).borrow().get(&k).cloned();
                    let v = match existing {
                        Some(v) => v,
                        None => {
                            // The init block mutates rt.frame, so take an
                            // owned handle before running it.
                            let m = map_at(rt, map).clone();
                            let v = init.run_val(rt);
                            m.borrow_mut().insert(k, v.clone());
                            v
                        }
                    };
                    rt.frame[out] = v;
                })
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let (map, kvar, vvar) = (cslot(map), slot(*kvar), slot(*vvar));
                let body = self.seq(body);
                Box::new(move |rt| {
                    let mut entries: Vec<(Key, JV)> = map_at(rt, map)
                        .borrow()
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    entries.sort_by_key(|(k, _)| format!("{k:?}"));
                    for (k, v) in entries {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[kvar] = key_back(&k);
                        rt.frame[vvar] = v;
                        body.run_unit(rt);
                    }
                })
            }
            Expr::HashMapSize(m) => {
                let m = cslot(m);
                Box::new(move |rt| {
                    let n = map_at(rt, m).borrow().len();
                    rt.frame[out] = JV::I(n as i64);
                })
            }
            Expr::MultiMapNew { .. } => Box::new(move |rt| {
                rt.frame[out] = JV::MMap(Rc::new(std::cell::RefCell::new(Default::default())));
            }),
            Expr::MultiMapAdd { map, key, value } => {
                let (map, key, x) = (cslot(map), self.cv(key), self.cv(value));
                Box::new(move |rt| {
                    let k = rt.key_of(&key.get(rt));
                    let v = x.get(rt);
                    mmap_at(rt, map).borrow_mut().entry(k).or_default().push(v);
                })
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let (map, key, var) = (cslot(map), self.cv(key), slot(*var));
                let body = self.seq(body);
                Box::new(move |rt| {
                    let k = rt.key_of(&key.get(rt));
                    let items: Vec<JV> = mmap_at(rt, map)
                        .borrow()
                        .get(&k)
                        .cloned()
                        .unwrap_or_default();
                    for v in items {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = v;
                        body.run_unit(rt);
                    }
                })
            }
            Expr::Malloc { ty, count } => {
                let (zero, count) = (gv_zero(ty), self.ci(count));
                Box::new(move |rt| {
                    let n = count.get(rt) as usize;
                    let z = zero.get(rt);
                    rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(vec![z; n])));
                })
            }
            Expr::Free(_) => Box::new(move |_rt: &mut Rt<'_>| {}),
            // Pools: allocation identity is all that matters; hand out fresh
            // zeroed records sized by the pool's element type.
            Expr::PoolNew { ty, .. } => {
                let nfields = match ty {
                    Type::Record(sid) => self.p.structs.get(*sid).fields.len(),
                    _ => 0,
                } as i64;
                Box::new(move |rt| rt.frame[out] = JV::I(nfields))
            }
            Expr::PoolAlloc { pool } => {
                let pool = self.ci(pool);
                Box::new(move |rt| {
                    let n = pool.get(rt) as usize;
                    rt.frame[out] = JV::Cells(Rc::new(std::cell::RefCell::new(vec![JV::I(0); n])));
                })
            }
            Expr::LoadTable { table, sid } => {
                let table = table.clone();
                let def: StructDef = self.p.structs.get(*sid).clone();
                Box::new(move |rt| rt.frame[out] = rt.load_table(&table, &def))
            }
            Expr::LoadIndexUnique { table, field } => {
                let (table, field) = (table.clone(), *field);
                Box::new(move |rt| {
                    let idx = rt.db.table(&table).index_unique(field);
                    rt.frame[out] = ints(idx.map(Arc::clone));
                })
            }
            Expr::LoadIndexStarts { table, field } => {
                let (table, field) = (table.clone(), *field);
                Box::new(move |rt| {
                    let csr = rt.db.table(&table).csr(field);
                    rt.frame[out] = ints(csr.map(|c| Arc::clone(&c.starts)));
                })
            }
            Expr::LoadIndexItems { table, field } => {
                let (table, field) = (table.clone(), *field);
                Box::new(move |rt| {
                    let csr = rt.db.table(&table).csr(field);
                    rt.frame[out] = ints(csr.map(|c| Arc::clone(&c.items)));
                })
            }
            Expr::Printf { fmt, args } => {
                let segs: Vec<PfSeg> = compile_printf(fmt);
                let args: Vec<GV> = args.iter().map(|a| self.cv(a)).collect();
                Box::new(move |rt| {
                    let vals: Vec<JV> = args.iter().map(|a| a.get(rt)).collect();
                    let mut line = std::mem::take(&mut rt.output);
                    format_segs(&segs, &vals, &mut line);
                    rt.output = line;
                })
            }
            // Tier 0.5 executes the morsel form with a single logical
            // worker, exactly like the interpreter: init each accumulator,
            // run the whole range, merge once. Parallel semantics at worker
            // count one — the differential suites compare against this.
            Expr::ParallelFor {
                lo,
                hi,
                var,
                accs,
                body,
                merge,
                ..
            } => {
                let (lo, hi, var) = (self.ci(lo), self.ci(hi), slot(*var));
                let accs: Vec<(usize, Seq)> = accs
                    .iter()
                    .map(|acc| (slot(acc.sym), self.seq(&acc.init)))
                    .collect();
                let body = self.seq(body);
                let merge = self.seq(merge);
                Box::new(move |rt| {
                    for (aslot, init) in &accs {
                        let v = init.run_val(rt);
                        rt.frame[*aslot] = v;
                    }
                    let (l, h) = (lo.get(rt), hi.get(rt));
                    for i in l..h {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = JV::I(i);
                        body.run_unit(rt);
                    }
                    merge.run_unit(rt);
                })
            }
            Expr::LoadParam { idx } => {
                let idx = *idx;
                Box::new(move |rt| {
                    rt.frame[out] = rt
                        .params
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| panic!("unbound query parameter {idx}"));
                })
            }
        }
    }
}

/// An index load is a view of one of the snapshot's shared arrays.
/// [`backend::ResidentData::resolve`] built every index the program loads
/// before it ran, so a refusal here means a caller ran the program over a
/// snapshot it did not resolve that way; say why and unwind.
fn ints(built: io::Result<Arc<[i64]>>) -> JV {
    JV::Ints(built.unwrap_or_else(|e| panic!("{e}")))
}

fn gv_zero(t: &Type) -> GV {
    match zero_of(t) {
        JV::D(v) => GV::D(v),
        JV::B(b) => GV::B(b),
        JV::I(v) => GV::I(v),
        JV::S(s) => GV::S(s),
        _ => GV::Null,
    }
}

// ---------------------------------------------------------------------
// Compiled program + backend registration
// ---------------------------------------------------------------------

/// A program compiled to threaded code: the closure tree plus the frame
/// size (one slot per ANF symbol).
pub struct JitProgram {
    body: Seq,
    frame_size: usize,
}

/// What one jit execution produced: captured rows, and the in-query time
/// if the program ran its `TimerStart`/`TimerStop` instrumentation.
pub struct JitOutput {
    pub stdout: String,
    pub query_ms: Option<f64>,
}

/// Base records are views of the shared, immutable snapshot. No program
/// the stack generates writes one (joins and aggregates copy the fields
/// they keep into records of their own), so a `FieldSet` on a record type
/// some `LoadTable` yields is refused here, naming the statement, rather
/// than discovered by a panic mid-query.
fn check_base_records_read_only(p: &Program) -> io::Result<()> {
    let (mut base, mut writes) = (Vec::new(), Vec::new());
    backend::for_each_stmt(&p.body, &mut |st| match &st.expr {
        Expr::LoadTable { sid, .. } => base.push(*sid),
        Expr::FieldSet { sid, .. } => writes.push((st, *sid)),
        _ => {}
    });
    match writes.into_iter().find(|(_, sid)| base.contains(sid)) {
        None => Ok(()),
        Some((st, sid)) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "jit: `{}` writes a `{}` record, but base-table records are \
                 read-only views of the resident snapshot",
                dblab_ir::printer::print_block(&Block::unit(vec![st.clone()])).trim(),
                p.structs.get(sid).name
            ),
        )),
    }
}

/// Compile a fully-lowered program to threaded code. This is the whole
/// tier-up: single-digit milliseconds, no toolchain, no subprocess.
pub fn compile(p: &Program) -> io::Result<JitProgram> {
    check_base_records_read_only(p)?;
    let jc = Jc {
        p,
        uses: count_uses(p),
        chain: std::cell::RefCell::new(None),
    };
    Ok(JitProgram {
        body: jc.seq(&p.body),
        frame_size: p.sym_types.len(),
    })
}

impl JitProgram {
    /// Execute with positional parameter bindings and an optional absolute
    /// deadline; on interruption the partial output is discarded.
    pub fn run_bound(
        &self,
        db: &Snapshot,
        params: &[Value],
        deadline: Option<Instant>,
    ) -> Result<JitOutput, Interrupted> {
        let mut rt = Rt::new(self.frame_size, db, params);
        rt.deadline = deadline;
        self.body.run_unit(&mut rt);
        if rt.interrupted {
            Err(Interrupted)
        } else {
            Ok(JitOutput {
                stdout: rt.output,
                query_ms: rt.query_ms,
            })
        }
    }
}

/// The in-process closure-JIT as a backend: no toolchain, no artifact —
/// `build` is the sub-millisecond closure compile itself.
pub struct JitBackend;

struct JitExecutable {
    program: JitProgram,
    data: backend::ResidentData,
    build: Duration,
}

impl Executable for JitExecutable {
    fn run(&self, data_dir: &Path) -> io::Result<RunOutput> {
        self.run_deadline(data_dir, None)
    }
    fn run_deadline(&self, data_dir: &Path, deadline: Option<Duration>) -> io::Result<RunOutput> {
        self.run_bound(data_dir, &[], deadline)
    }
    fn run_bound(
        &self,
        data_dir: &Path,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> io::Result<RunOutput> {
        let t0 = Instant::now();
        let db = self.data.resolve(data_dir)?;
        let tq = Instant::now();
        // The budget covers query evaluation, not resolving the snapshot
        // above — same accounting as the interpreter and the native
        // binaries.
        let out = self
            .program
            .run_bound(&db, params, deadline.map(|d| tq + d))
            .map_err(|Interrupted| {
                backend::timeout_error(deadline.expect("interrupt implies a deadline"))
            })?;
        let query = tq.elapsed();
        Ok(RunOutput {
            stdout: out.stdout,
            query_ms: out.query_ms.unwrap_or(query.as_secs_f64() * 1e3),
            peak_rss_kb: backend::self_peak_rss_kb(),
            wall: t0.elapsed(),
        })
    }
    fn build_time(&self) -> Duration {
        self.build
    }
    fn artifact(&self) -> Option<&Path> {
        None
    }
}

impl Backend for JitBackend {
    fn name(&self) -> &'static str {
        "jit"
    }
    fn emit(&self, p: &Program, _schema: &Schema) -> String {
        dblab_ir::printer::print_program(p)
    }
    fn build(&self, input: BuildInput<'_>) -> io::Result<Box<dyn Executable>> {
        let t = Instant::now();
        let program = compile(input.program)?;
        Ok(Box::new(JitExecutable {
            program,
            data: backend::ResidentData::new(input.program, input.schema),
            build: t.elapsed(),
        }))
    }
    fn requirement(&self) -> &'static str {
        "nothing (in-process closure jit)"
    }
    fn cacheable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_catalog::{ColType, TableDef};
    use dblab_ir::expr::Atom;
    use dblab_ir::types::{FieldDef, StructDef, StructId};
    use dblab_ir::{IrBuilder, Level};
    use dblab_runtime::{Database, Table};

    fn empty_db() -> Snapshot {
        Snapshot::from(Database {
            schema: dblab_catalog::Schema::default(),
            tables: vec![],
            dir: std::env::temp_dir(),
        })
    }

    /// `t(k, name, v, tag)` — four rows, built in memory, never written.
    fn small_db() -> Snapshot {
        let def = TableDef::new(
            "t",
            vec![
                ("k", ColType::Int),
                ("name", ColType::String),
                ("v", ColType::Double),
                ("tag", ColType::String),
            ],
        );
        let mut t = Table::empty(&def);
        for (k, name, v, tag) in [
            (3, "carol", 2.5, "red"),
            (1, "alice", 9.0, "blue"),
            (2, "bob", 4.25, "red"),
            (0, "dave", 7.5, "green"),
        ] {
            t.push_row(vec![
                Value::Int(k),
                Value::str(name),
                Value::Double(v),
                Value::str(tag),
            ]);
        }
        Snapshot::from(Database {
            schema: dblab_catalog::Schema::new(vec![def]),
            tables: vec![t],
            dir: std::env::temp_dir(),
        })
    }

    /// A builder holding `t`'s record type — `tag` typed `Int`, i.e.
    /// dictionary-encoded — and the loaded table.
    fn with_table() -> (IrBuilder, StructId, Atom) {
        let mut b = IrBuilder::new();
        let field = |name: &str, ty| FieldDef {
            name: name.into(),
            ty,
        };
        let sid = b.structs.register(StructDef {
            name: "t".into(),
            fields: vec![
                field("k", Type::Int),
                field("name", Type::String),
                field("v", Type::Double),
                field("tag", Type::Int),
            ],
        });
        let table = b.load_table("t", sid);
        (b, sid, table)
    }

    /// Both in-process executors over the same in-memory snapshot.
    fn jit_and_interp(b: IrBuilder, level: Level) -> (String, String) {
        let p = b.finish(Atom::Unit, level);
        let db = small_db();
        let got = compile(&p).expect("compile").run_bound(&db, &[], None);
        (got.expect("no deadline").stdout, dblab_interp::run(&p, &db))
    }

    #[test]
    fn jit_matches_interp_on_loops_and_vars() {
        let mut b = IrBuilder::new();
        let total = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(5), |bb, i| {
            let c = bb.read_var(total);
            let n = bb.add(c, i);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let db = empty_db();
        let jp = compile(&p).unwrap();
        let got = jp.run_bound(&db, &[], None).unwrap();
        assert_eq!(got.stdout, dblab_interp::run(&p, &db));
        assert_eq!(got.stdout, "10\n");
    }

    #[test]
    fn jit_sorts_and_aggregates_like_interp() {
        let mut b = IrBuilder::new();
        let arr = b.array_new(dblab_ir::Type::Int, Atom::Int(3));
        b.array_set(arr.clone(), Atom::Int(0), Atom::Int(3));
        b.array_set(arr.clone(), Atom::Int(1), Atom::Int(1));
        b.array_set(arr.clone(), Atom::Int(2), Atom::Int(2));
        b.sort_array(arr.clone(), Atom::Int(3), |bb, x, y| bb.sub(x, y));
        b.for_range(Atom::Int(0), Atom::Int(3), |bb, i| {
            let v = bb.array_get(arr.clone(), i);
            bb.printf("%d ", vec![v]);
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let db = empty_db();
        let got = compile(&p).unwrap().run_bound(&db, &[], None).unwrap();
        assert_eq!(got.stdout, "1 2 3 ");
        assert_eq!(got.stdout, dblab_interp::run(&p, &db));
    }

    #[test]
    fn expired_deadline_interrupts_mid_loop_without_partial_output() {
        let mut b = IrBuilder::new();
        let total = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(100_000_000), |bb, i| {
            let c = bb.read_var(total);
            let n = bb.add(c, i);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let db = empty_db();
        let jp = compile(&p).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert!(jp.run_bound(&db, &[], Some(past)).is_err());
        // A real mid-loop deadline (not already expired at entry) also
        // interrupts instead of running the full hundred-million range.
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(jp.run_bound(&db, &[], Some(soon)).is_err());
    }

    #[test]
    fn jit_binds_parameters_positionally() {
        let mut b = IrBuilder::new();
        let x = b.emit(dblab_ir::Type::Int, dblab_ir::Expr::LoadParam { idx: 0 });
        let y = b.emit(dblab_ir::Type::Int, dblab_ir::Expr::LoadParam { idx: 1 });
        let s = b.add(x, y);
        b.printf("%d\n", vec![s]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let db = empty_db();
        let jp = compile(&p).unwrap();
        let got = jp
            .run_bound(&db, &[Value::Int(40), Value::Int(2)], None)
            .unwrap();
        assert_eq!(got.stdout, "42\n");
    }

    /// The scan shape over an in-memory database that never touched disk:
    /// every column kind read in place, the encoded one through the shared
    /// code column and back through the dictionary, strings with `%s`.
    #[test]
    fn base_rows_read_columns_in_place_and_print() {
        let (mut b, sid, table) = with_table();
        let n = b.array_len(table.clone());
        b.for_range(Atom::Int(0), n, |bb, i| {
            let row = bb.array_get(table.clone(), i);
            let k = bb.field_get(row.clone(), sid, 0);
            let name = bb.field_get(row.clone(), sid, 1);
            let v = bb.field_get(row.clone(), sid, 2);
            let code = bb.field_get(row, sid, 3);
            let tag = bb.dict("t__3".into(), DictOp::Decode, code.clone());
            bb.printf("%d|%s|%.4f|%d|%s\n", vec![k, name, v, code, tag]);
        });
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        // Ordered dictionary: blue < green < red.
        assert!(jit.starts_with("3|carol|2.5000|2|red\n1|alice|9.0000|0|blue\n"));
    }

    #[test]
    fn a_base_row_is_a_hash_key_by_value() {
        let (mut b, sid, table) = with_table();
        let map = b.hashmap_new(Type::Record(sid), Type::Int);
        let n = b.array_len(table.clone());
        // Twice over the table: the second pass must find every key.
        for _ in 0..2 {
            b.for_range(Atom::Int(0), n.clone(), |bb, i| {
                let row = bb.array_get(table.clone(), i);
                bb.hashmap_get_or_init(map.clone(), row, |_| Atom::Int(1));
            });
        }
        let size = b.hashmap_size(map.clone());
        b.printf("%d\n", vec![size]);
        b.hashmap_foreach(map, |bb, key, one| {
            let k = bb.field_get(key.clone(), sid, 0);
            let name = bb.field_get(key, sid, 1);
            bb.printf("%d|%s|%d\n", vec![k, name, one]);
        });
        let (jit, interp) = jit_and_interp(b, Level::MapList);
        assert_eq!(jit, interp);
        assert!(jit.starts_with("4\n"), "{jit}");
    }

    #[test]
    fn base_rows_live_in_lists_arrays_and_multimaps() {
        let (mut b, sid, table) = with_table();
        let list = b.list_new(Type::Record(sid));
        let arr = b.array_new(Type::Record(sid), Atom::Int(4));
        let mm = b.multimap_new(Type::Int, Type::Record(sid));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(table.clone(), i.clone());
            bb.list_append(list.clone(), row.clone());
            let back = bb.sub(Atom::Int(3), i);
            bb.array_set(arr.clone(), back, row.clone());
            let tag = bb.field_get(row.clone(), sid, 3);
            bb.multimap_add(mm.clone(), tag, row);
        });
        b.list_foreach(list, |bb, row| {
            let name = bb.field_get(row, sid, 1);
            bb.printf("list %s\n", vec![name]);
        });
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(arr.clone(), i);
            let v = bb.field_get(row, sid, 2);
            bb.printf("arr %.4f\n", vec![v]);
        });
        let red = b.dict("t__3".into(), DictOp::Lookup, Atom::Str("red".into()));
        b.multimap_foreach_at(mm, red, |bb, row| {
            let k = bb.field_get(row, sid, 0);
            bb.printf("red %d\n", vec![k]);
        });
        let (jit, interp) = jit_and_interp(b, Level::MapList);
        assert_eq!(jit, interp);
        assert!(jit.ends_with("red 3\nred 2\n"), "{jit}");
    }

    #[test]
    fn base_rows_compare_against_null() {
        let (mut b, sid, table) = with_table();
        let null = || Atom::Null(Box::new(Type::Record(sid)));
        let arr = b.array_new(Type::Record(sid), Atom::Int(2));
        let row = b.array_get(table, Atom::Int(1));
        b.array_set(arr.clone(), Atom::Int(0), row.clone());
        let is_null = b.eq(row.clone(), null());
        let not_null = b.ne(null(), row);
        b.printf("%d %d\n", vec![is_null, not_null]);
        b.for_range(Atom::Int(0), Atom::Int(2), |bb, i| {
            let slot = bb.array_get(arr.clone(), i);
            let empty = bb.eq(slot, null());
            bb.printf("%d\n", vec![empty]);
        });
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        assert_eq!(jit, "0 1\n0\n1\n");
    }

    #[test]
    fn base_rows_sort_by_a_field() {
        let (mut b, sid, table) = with_table();
        let arr = b.array_new(Type::Record(sid), Atom::Int(4));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(table.clone(), i.clone());
            bb.array_set(arr.clone(), i, row);
        });
        b.sort_array(arr.clone(), Atom::Int(4), |bb, x, y| {
            let (kx, ky) = (bb.field_get(x, sid, 0), bb.field_get(y, sid, 0));
            bb.sub(kx, ky)
        });
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(arr.clone(), i);
            let name = bb.field_get(row, sid, 1);
            bb.printf("%s ", vec![name]);
        });
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        assert_eq!(jit, "dave alice bob carol ");
    }

    #[test]
    fn indexes_are_views_of_the_shared_side_structures() {
        let (mut b, sid, table) = with_table();
        let unique = b.load_index_unique("t", 0);
        let starts = b.load_index_starts("t", 0);
        let items = b.load_index_items("t", 0);
        let n = b.array_len(unique.clone());
        b.printf("%d\n", vec![n]);
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, k| {
            let pos = bb.array_get(unique.clone(), k.clone());
            let row = bb.array_get(table.clone(), pos.clone());
            let name = bb.field_get(row, sid, 1);
            let at = bb.array_get(starts.clone(), k);
            let item = bb.array_get(items.clone(), at);
            bb.printf("%d %s %d\n", vec![pos, name, item]);
        });
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        assert_eq!(jit, "5\n3 dave 3\n1 alice 1\n2 bob 2\n0 carol 0\n");
    }

    #[test]
    fn writing_a_base_record_is_refused_at_compile_time() {
        let (mut b, sid, table) = with_table();
        let row = b.array_get(table, Atom::Int(0));
        b.field_set(row, sid, 0, Atom::Int(7));
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let err = compile(&p)
            .err()
            .expect("a base-record write must not compile");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains(".f0 = 7"), "names the statement: {msg}");
        assert!(msg.contains("`t` record"), "names the record type: {msg}");

        // Records the query allocates itself stay writable.
        let (mut b, _, _) = with_table();
        let own = b.structs.register(StructDef {
            name: "own".into(),
            fields: vec![FieldDef {
                name: "x".into(),
                ty: Type::Int,
            }],
        });
        let rec = b.struct_new(own, vec![Atom::Int(1)]);
        b.field_set(rec.clone(), own, 0, Atom::Int(7));
        let x = b.field_get(rec, own, 0);
        b.printf("%d", vec![x]);
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!((jit.as_str(), interp.as_str()), ("7", "7"));
    }
}
