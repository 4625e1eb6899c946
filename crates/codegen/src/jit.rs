//! # jit — the in-process closure-JIT backend
//!
//! Tier 0 of the serving ladder — what `prepare` returns: compiles a
//! fully-lowered IR program into a tree of pre-resolved Rust closures
//! ("threaded code") in well under a millisecond — no fork+exec, no
//! toolchain. What carries the speedup over the AST interpreter:
//!
//! 1. **A word frame typed at compile time.** ANF symbols are dense
//!    (`Sym(n)` indexes `Program::sym_types`), so every variable is frame
//!    slot `n` of one `Vec<u64>`, and what that word *is* — an `i64`, the
//!    bits of an `f64`, `0`/`1`, a string or record handle (encodings in
//!    [`crate::jit_rt`]) — is read off `sym_types[n]` here, once. No
//!    closure matches a tag, no store runs drop glue. The interpreter's
//!    per-evaluation "is either side a double?" is decided per `Bin` node
//!    at compile time, with the int→double coercions it implies inserted
//!    where a value crosses into a wider slot; an operand whose static
//!    type does not pin the class an operator needs is refused, naming
//!    the statement, instead of panicking mid-query.
//! 2. **One fragment path.** Every pure statement (scalar operator, field
//!    / element / variable read) compiles to a getter `Fn(&Rt) -> u64`, and
//!    [`Jc::seq`] decides where it runs: a read of immutable base data (a
//!    row of a loaded table, a column at that row) at every use; anything
//!    else that depends only on single-assignment slots at its one use,
//!    however far down the block — so a filter's whole predicate is one
//!    closure tree under its `If`, and a column is only read for rows that
//!    get that far; a read of mutable state in the very next statement if
//!    that is its only consumer (chains collapse transitively, block tails
//!    feed `If`/`While` directly). Otherwise it is stored at its original
//!    position. There is no second, "stored" implementation of any
//!    operator.
//! 3. **Arena records, columns in place.** `PoolAlloc`/`StructNew`/
//!    `ArrayNew` bump one per-run arena of words. `LoadTable`
//!    binds the record type's fields to the resident snapshot's typed
//!    column slices under column numbers assigned here, so a `FieldGet` on
//!    a base record is `slice[row]` on a `&[i32]` / `&[i64]` / `&[f64]` —
//!    a base record is read-only, and a `FieldSet` on one is refused at
//!    compile time.
//! 4. **Closure arrays for control flow.** A block is a `Vec` of ops run
//!    back to back; loops iterate it with the same fuel-amortized deadline
//!    check at every back-edge the interpreter uses, so cooperative
//!    timeouts hold on this tier too.
//! 5. **Chunked scans.** A loop over a table's rows whose body is one
//!    filter reading only base columns, invariants and constants runs
//!    [`crate::jit_scan`]'s way: column kernels narrow a selection vector
//!    per 1,024 rows ([`Jc::chunked`]). Its then-block runs over the
//!    survivors as kernels when that keeps row order for everything it
//!    writes ([`Jc::then_kernels`]): value kernels fill chunk-local
//!    columns, a group-by's get-or-insert runs its insert closure per
//!    null slot, and each aggregate update is one read-modify-write
//!    kernel — `tpch:1?`'s 15 kernels replace ~32 closure calls per row.
//!    Otherwise its closures run per survivor. A walk over the slots of an
//!    arena array that skips the null ones — a dense table's or a bucket
//!    array's emission loop — runs in chunks too, with one kernel keeping
//!    the non-null slots ([`Jc::non_null`]). [`Jc::range`] tries both on
//!    every `ForRange`; [`JitProgram::chunked_loops`] reports them.
//!
//! Semantics are pinned to `dblab-interp` (wrapping i64 arithmetic, null
//! `Eq`/`Ne`, dictionary encoding, hash-map iteration order);
//! `tests/backend_conformance.rs` runs the 22-query differential suite
//! over this backend like any other.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use dblab_catalog::Schema;
use dblab_interp::Interrupted;
use dblab_ir::expr::{Atom, BinOp, Block, DictOp, Expr, PrimOp, Stmt, Sym, UnOp};
use dblab_ir::types::StructId;
use dblab_ir::{Program, Type};
use dblab_runtime::{Snapshot, Value};

use crate::backend::{Backend, BuildInput, Evaluator, Executable, InProcessExecutable};
use crate::jit_rt::{
    base_str, compile_printf, row_of, Col, ColCounts, KeyShape, Obj, PfSeg, Rt, TableBinding, BASE,
};
use crate::jit_scan::{self, Arg, Kernels, Pred, Rhs, Scan, Step, Then};

/// One compiled effect: runs against the runtime state. `Send + Sync` is
/// load-bearing — closures capture only slot numbers, constants and child
/// [`Seq`]s, never runtime values, so a compiled program is
/// thread-portable like every other [`Executable`].
type Op = Box<dyn Fn(&mut Rt<'_>) + Send + Sync>;

fn op_box(f: impl Fn(&mut Rt<'_>) + Send + Sync + 'static) -> Op {
    Box::new(f)
}

/// A pure producer of one word, evaluated against the frame with no store
/// of its own. `Arc` keeps getters `Clone`.
type E = Arc<dyn Fn(&Rt<'_>) -> u64 + Send + Sync>;

/// A pre-resolved operand: a slot number, an immediate, or a nested
/// fragment. Always yields the word in the representation its consumer
/// asked [`Jc::want`] for.
#[derive(Clone)]
pub(crate) enum G {
    Slot(usize),
    Const(u64),
    Ev(E),
}

impl G {
    #[inline]
    pub(crate) fn get(&self, rt: &Rt<'_>) -> u64 {
        match self {
            G::Slot(s) => rt.frame[*s],
            G::Const(c) => *c,
            G::Ev(f) => f(rt),
        }
    }
}

fn ev(f: impl Fn(&Rt<'_>) -> u64 + Send + Sync + 'static) -> G {
    G::Ev(Arc::new(f))
}

fn ev2(x: G, y: G, k: impl Fn(u64, u64) -> u64 + Send + Sync + 'static) -> G {
    ev(move |rt| k(x.get(rt), y.get(rt)))
}

/// Store a fragment to its slot after all — its consumer did not take it
/// (multi-use, non-adjacent use, or a nested block).
fn store(s: usize, g: G) -> Op {
    op_box(move |rt| rt.frame[s] = g.get(rt))
}

/// A compiled block: the closure array plus the block's result getter.
pub(crate) struct Seq {
    ops: Vec<Op>,
    result: G,
}

impl Seq {
    #[inline]
    pub(crate) fn run_unit(&self, rt: &mut Rt<'_>) {
        for op in &self.ops {
            op(rt);
        }
    }
    #[inline]
    fn run_val(&self, rt: &mut Rt<'_>) -> u64 {
        self.run_unit(rt);
        self.result.get(rt)
    }
}

/// What one statement compiles to.
enum Code {
    /// Its value as a fragment; [`Jc::seq`] inlines, nests or stores it.
    Pure(G, Purity),
    Effect(Op),
}

/// What a fragment's value depends on — decides where it may be evaluated.
#[derive(Clone, Copy, PartialEq)]
enum Purity {
    /// Mutable state (an arena field or element, a variable): valid only
    /// until the next statement runs.
    Volatile,
    /// Single-assignment slots, constants and base data only: the same
    /// value wherever its symbol is in scope.
    Stable,
    /// Stable, and no dearer than the slot read that storing it would buy
    /// (a base column read): inlined at every use.
    Cheap,
}

fn slot(s: Sym) -> usize {
    s.0 as usize
}

/// Compile-time class of a word, from its static IR type: which
/// representation of [`crate::jit_rt`]'s table it is in.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Cls {
    Unit,
    Bool,
    /// `Int` / `Long`.
    Int,
    Double,
    Str,
    /// Any handle: record, pointer, array, pool, list, map.
    Handle,
}

fn cls(t: &Type) -> Cls {
    match t {
        Type::Unit => Cls::Unit,
        Type::Bool => Cls::Bool,
        Type::Int | Type::Long => Cls::Int,
        Type::Double => Cls::Double,
        Type::String => Cls::Str,
        _ => Cls::Handle,
    }
}

/// How many of `sym`'s uses sit in this statement's *direct* operand
/// atoms — the positions a nested fragment may feed. Nested blocks do not
/// count: a fragment consumed inside a loop or branch would move its
/// evaluation across iterations.
fn direct_uses(st: &Stmt, sym: Sym) -> u32 {
    let mut n = 0;
    (st.expr).for_each_atom(|a| n += matches!(a, Atom::Sym(s) if *s == sym) as u32);
    n
}

/// Per symbol: how many operand positions, block results and variable
/// accesses use it; whether one of them sits in a loop its definition is
/// outside of (inlining there would re-evaluate per iteration); whether it
/// is a mutable variable rather than a single-assignment value.
struct Uses {
    count: Vec<u32>,
    in_deeper_loop: Vec<bool>,
    var: Vec<bool>,
}

fn count_uses(p: &Program) -> Uses {
    /// Walks in definition order: `def[s]` is the loop depth `s` was
    /// bound at by the time anything uses it.
    fn block(b: &Block, depth: u32, def: &mut [u32], u: &mut Uses) {
        let used = |s: Sym, def: &[u32], u: &mut Uses| {
            u.count[slot(s)] += 1;
            u.in_deeper_loop[slot(s)] |= depth > def[slot(s)];
        };
        for st in &b.stmts {
            st.expr
                .for_each_atom(|a| a.as_sym().into_iter().for_each(|s| used(s, def, u)));
            if let Expr::ReadVar(v) | Expr::Assign { var: v, .. } = &st.expr {
                used(*v, def, u);
            }
            if let Expr::DeclVar { .. } = st.expr {
                u.var[slot(st.sym)] = true;
            }
            let looping = !matches!(st.expr, Expr::If { .. } | Expr::HashMapGetOrInit { .. });
            let inner = depth + looping as u32;
            st.expr
                .bound_syms()
                .into_iter()
                .for_each(|s| def[slot(s)] = inner);
            st.expr
                .blocks()
                .into_iter()
                .for_each(|nested| block(nested, inner, def, u));
            def[slot(st.sym)] = depth;
        }
        if let Some(s) = b.result.as_sym() {
            used(s, def, u);
        }
    }
    let n = p.sym_types.len();
    let mut uses = Uses {
        count: vec![0; n],
        in_deeper_loop: vec![false; n],
        var: vec![false; n],
    };
    block(&p.body, 0, &mut vec![0; n], &mut uses);
    uses
}

fn d(w: u64) -> f64 {
    f64::from_bits(w)
}

/// `Some($body)` with `$k` bound to kernel `$f`: each expansion of `$body`
/// is its own instance, so every kernel inlines into its own closure.
macro_rules! bind {
    ($k:ident, $f:expr, $body:expr) => {{
        let $k = $f;
        Some($body)
    }};
}

/// Bind `$k` to the word kernel of arithmetic `$op` in the double (`$dbl`)
/// or wrapping-i64 domain — wrapping to match the generated C (hash mixing
/// below the specialization levels deliberately overflows) — and expand
/// `$body`; `None` for any other operator.
macro_rules! arith {
    ($op:expr, $dbl:expr, $k:ident => $body:expr) => {
        match ($op, $dbl) {
            (BinOp::Add, false) => arith!(@int $k, wrapping_add, $body),
            (BinOp::Sub, false) => arith!(@int $k, wrapping_sub, $body),
            (BinOp::Mul, false) => arith!(@int $k, wrapping_mul, $body),
            (BinOp::Div, false) => bind!($k, |u: u64, v: u64| (u as i64 / v as i64) as u64, $body),
            (BinOp::Max, false) => arith!(@int $k, max, $body),
            (BinOp::Add, true) => bind!($k, |u: u64, v: u64| (d(u) + d(v)).to_bits(), $body),
            (BinOp::Sub, true) => bind!($k, |u: u64, v: u64| (d(u) - d(v)).to_bits(), $body),
            (BinOp::Mul, true) => bind!($k, |u: u64, v: u64| (d(u) * d(v)).to_bits(), $body),
            (BinOp::Div, true) => bind!($k, |u: u64, v: u64| (d(u) / d(v)).to_bits(), $body),
            (BinOp::Max, true) => bind!($k, |u: u64, v: u64| d(u).max(d(v)).to_bits(), $body),
            _ => None,
        }
    };
    (@int $k:ident, $m:ident, $body:expr) => {
        bind!($k, |u: u64, v: u64| (u as i64).$m(v as i64) as u64, $body)
    };
}

/// Bind `$k` to the `Ordering` test of comparison `$op` and expand `$body`.
macro_rules! ordering {
    ($op:expr, $k:ident => $body:expr) => {{
        use std::cmp::Ordering;
        match $op {
            BinOp::Eq => bind!($k, Ordering::is_eq, $body),
            BinOp::Ne => bind!($k, Ordering::is_ne, $body),
            BinOp::Lt => bind!($k, Ordering::is_lt, $body),
            BinOp::Le => bind!($k, Ordering::is_le, $body),
            BinOp::Gt => bind!($k, Ordering::is_gt, $body),
            BinOp::Ge => bind!($k, Ordering::is_ge, $body),
            _ => None,
        }
    }};
}

/// Bind `$k` to the word test `Fn(u64, u64) -> bool` of comparison `$op`
/// — on doubles (`$dbl`) or on i64s — and expand `$body`; `None` for any
/// other operator. The row path and the chunk kernels share it.
macro_rules! compare {
    ($op:expr, $dbl:expr, $k:ident => $body:expr) => {
        if $dbl {
            ordering!($op, o => {
                let $k = move |u, v| o(ord_d(u, v));
                $body
            })
        } else {
            ordering!($op, o => {
                let $k = move |u: u64, v: u64| o((u as i64).cmp(&(v as i64)));
                $body
            })
        }
    };
}

fn ord_d(u: u64, v: u64) -> std::cmp::Ordering {
    d(u).partial_cmp(&d(v)).expect("NaN comparison")
}

/// An index the snapshot refused to build. The serving executable built
/// every index its program loads while resolving the snapshot, so
/// this means a caller ran the program over a snapshot it did not resolve
/// that way; say why and unwind.
fn built<T>(index: io::Result<T>) -> T {
    index.unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------

struct Jc<'p> {
    p: &'p Program,
    uses: Uses,
    /// Per slot: the fragment [`Jc::raw`] substitutes for the slot, which
    /// is then never written. [`Jc::seq`] decides what goes in.
    inline: Vec<Option<G>>,
    /// The slot whose [`Jc::inline`] entry is a [`Purity::Volatile`]
    /// producer nested into the one statement under compilation.
    nested: Option<usize>,
    /// The statement under compilation reads mutable state through an
    /// operand — that nested producer, or a variable named directly — so
    /// it is volatile itself.
    volatile: bool,
    /// Slots holding a loaded base table, and a loaded index.
    tables: Vec<usize>,
    indexes: Vec<usize>,
    /// Slots of rows read straight off one: `(slot, row index)`.
    rows: Vec<(usize, G)>,
    /// The statement under compilation, for [`Jc::reject`].
    cur: Option<&'p Stmt>,
    /// String constants, the empty string first; a constant's word is its
    /// index here.
    consts: Vec<Arc<str>>,
    /// Record types some `LoadTable` yields, with their column numbers.
    bases: Vec<(StructId, TableBinding)>,
    cols: ColCounts,
    scans: Vec<ChunkedLoop>,
    /// `(idx, class)` of every `LoadParam`.
    params: Vec<(usize, Cls)>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

fn printed(st: &Stmt) -> String {
    let text = dblab_ir::printer::print_block(&Block::unit(vec![st.clone()]));
    text.trim().lines().next().unwrap_or_default().to_string()
}

impl<'p> Jc<'p> {
    /// Refuse the program, naming the statement under compilation.
    fn reject(&self, why: String) -> io::Error {
        match self.cur {
            Some(st) => invalid(format!("jit: `{}`: {why}", printed(st))),
            None => invalid(format!("jit: {why}")),
        }
    }

    // -- base record types --------------------------------------------

    /// Number the columns of every record type a `LoadTable` yields, and
    /// refuse a program that writes one: base records are views of the
    /// shared, immutable snapshot. No program the stack generates does
    /// (joins and aggregates copy the fields they keep into records of
    /// their own), so a `FieldSet` on such a type is refused here, naming
    /// the statement, rather than discovered by a panic mid-query.
    fn bind_tables(&mut self) -> io::Result<()> {
        let (mut loads, mut writes) = (Vec::new(), Vec::new());
        self.p.body.for_each_stmt(&mut |st| match &st.expr {
            Expr::LoadTable { table, sid, .. } => loads.push((st, table, *sid)),
            Expr::FieldSet { sid, .. } => writes.push((st, *sid)),
            _ => {}
        });
        for (st, table, sid) in loads {
            self.cur = Some(st);
            if let Some(seen) = self.base(sid) {
                if seen.table != *table {
                    let seen = &seen.table;
                    return Err(self.reject(format!("its record type already reads `{seen}`")));
                }
                continue;
            }
            let mut fields = Vec::new();
            for f in &self.p.structs.get(sid).fields {
                let n = &mut self.cols;
                let next = |count: &mut usize| std::mem::replace(count, *count + 1);
                let col = match f.ty {
                    Type::Int | Type::Bool => Col::I32(next(&mut n.i32s)),
                    Type::Long => Col::I64(next(&mut n.i64s)),
                    Type::Double => Col::F64(next(&mut n.f64s)),
                    Type::String => Col::Str(next(&mut n.strs)),
                    ref other => {
                        return Err(self.reject(format!("no column holds a `{other}` field")))
                    }
                };
                // A string attribute typed `Int` is dictionary-encoded.
                fields.push((f.name.clone(), f.ty == Type::Int, col));
            }
            let table = table.clone();
            self.bases.push((sid, TableBinding { table, fields }));
        }
        if let Some((st, sid)) = writes
            .into_iter()
            .find(|(_, sid)| self.base(*sid).is_some())
        {
            self.cur = Some(st);
            return Err(self.reject(format!(
                "writes a `{}` record, but base-table records are read-only views of the \
                 resident snapshot",
                self.p.structs.get(sid).name
            )));
        }
        self.cur = None;
        Ok(())
    }

    fn base(&self, sid: StructId) -> Option<&TableBinding> {
        self.bases.iter().find(|(s, _)| *s == sid).map(|(_, b)| b)
    }

    fn col_of(&self, sid: StructId, field: usize) -> Option<Col> {
        self.base(sid).map(|b| b.fields[field].2)
    }

    // -- operands -----------------------------------------------------

    /// The word of `a` in its own static type's representation: a
    /// constant, the fragment being nested, or its slot.
    fn raw(&mut self, a: &Atom) -> G {
        match a {
            Atom::Sym(s) => self.inline[slot(*s)].clone().unwrap_or(G::Slot(slot(*s))),
            Atom::Unit | Atom::Null(_) => G::Const(0),
            Atom::Bool(b) => G::Const(*b as u64),
            Atom::Int(v) | Atom::Long(v) => G::Const(*v as u64),
            Atom::Double(bits) => G::Const(*bits),
            Atom::Str(s) => {
                let known = self.consts.iter().position(|c| c == s);
                G::Const(known.unwrap_or_else(|| {
                    self.consts.push(s.clone());
                    self.consts.len() - 1
                }) as u64)
            }
        }
    }

    /// Re-represent a `from`-class word as `to`: the interpreter's
    /// accessor coercions (`i()` takes bools, `d()` takes ints), decided
    /// here instead of per value. Anything else does not pin the class.
    fn convert(&self, g: G, from: Cls, to: Cls, what: impl FnOnce() -> String) -> io::Result<G> {
        Ok(match (from, to) {
            _ if from == to => g,
            (_, Cls::Unit) => G::Const(0),
            (Cls::Bool, Cls::Int) => g,
            (Cls::Int, Cls::Double) => match g {
                G::Const(c) => G::Const((c as i64 as f64).to_bits()),
                g => ev(move |rt| (g.get(rt) as i64 as f64).to_bits()),
            },
            _ => {
                let need = match to {
                    Cls::Bool => "a boolean",
                    Cls::Int => "an integer",
                    Cls::Double => "a number",
                    Cls::Str => "a string",
                    Cls::Handle | Cls::Unit => "a record, array or container",
                };
                return Err(self.reject(format!("{} where {need} is required", what())));
            }
        })
    }

    /// Class of operand `a`, from its static type.
    fn atom_cls(&self, a: &Atom) -> Cls {
        match a {
            Atom::Sym(s) => cls(self.p.type_of(*s)),
            Atom::Null(t) => cls(t),
            Atom::Unit => Cls::Unit,
            Atom::Bool(_) => Cls::Bool,
            Atom::Int(_) | Atom::Long(_) => Cls::Int,
            Atom::Double(_) => Cls::Double,
            Atom::Str(_) => Cls::Str,
        }
    }

    /// Operand `a` as a word of class `to`.
    fn want(&mut self, a: &Atom, to: Cls) -> io::Result<G> {
        let g = self.raw(a);
        self.convert(g, self.atom_cls(a), to, || match a {
            Atom::Sym(s) => format!("{s} is `{}`", self.p.type_of(*s)),
            _ => format!("a `{}` constant", self.p.atom_type(a)),
        })
    }

    fn key_shape(&self, t: &Type, depth: usize) -> io::Result<KeyShape> {
        Ok(match (t, record_sid(t)) {
            (Type::Bool, _) => KeyShape::B,
            (Type::Int | Type::Long, _) => KeyShape::I,
            (Type::Double, _) => KeyShape::D,
            (Type::String, _) => KeyShape::S,
            (_, Some(sid)) if depth < 8 => KeyShape::Rec(
                (self.p.structs.get(sid).fields.iter().enumerate())
                    .map(|(f, fd)| Ok((self.key_shape(&fd.ty, depth + 1)?, self.col_of(sid, f))))
                    .collect::<io::Result<_>>()?,
            ),
            _ => return Err(self.reject(format!("a `{t}` is not hashable"))),
        })
    }

    /// The key operand of a hash operation: its word and how to flatten it.
    fn key(&mut self, a: &Atom) -> io::Result<(G, KeyShape)> {
        let shape = self.key_shape(&self.p.atom_type(a), 0)?;
        Ok((self.raw(a), shape))
    }

    // -- blocks -------------------------------------------------------

    /// Compile a block whose result is consumed as a `want`-class word.
    ///
    /// Where a fragment is evaluated: a [`Purity::Cheap`] one at every
    /// use, a [`Purity::Stable`] one at its use if it has just the one —
    /// neither inside a loop the definition is outside of. Any other
    /// fragment waits one statement: if that statement's direct operands
    /// are all of its uses it is nested there (chains collapse
    /// transitively — `o.f + b` feeding a compare feeding an `If` becomes
    /// one op), else it is stored at its original position.
    fn seq(&mut self, b: &'p Block, want: Cls) -> io::Result<Seq> {
        self.seq_of(&b.stmts, &b.result, want)
    }

    /// [`Jc::seq`] over the block `{ stmts; result }`.
    fn seq_of(&mut self, stmts: &'p [Stmt], res: &Atom, want: Cls) -> io::Result<Seq> {
        let outer = self.cur;
        // The statement this block belongs to built its operands already.
        self.unnest();
        let mut ops = Vec::with_capacity(stmts.len());
        let mut prev: Option<(Sym, G)> = None;
        for st in stmts {
            self.cur = Some(st);
            if let Some((psym, g)) = prev.take() {
                let direct = direct_uses(st, psym);
                if direct > 0 && direct == self.uses.count[slot(psym)] {
                    self.inline[slot(psym)] = Some(g);
                    self.nested = Some(slot(psym));
                } else {
                    ops.push(store(slot(psym), g));
                }
            }
            self.volatile = self.nested.is_some();
            (st.expr).for_each_atom(|a| {
                self.volatile |= a.as_sym().is_some_and(|v| self.uses.var[slot(v)])
            });
            match self.stmt(st)? {
                Code::Effect(op) => ops.push(op),
                Code::Pure(g, purity) => {
                    let s = slot(st.sym);
                    let anywhere = match purity {
                        Purity::Volatile => false,
                        Purity::Stable => self.uses.count[s] <= 1,
                        Purity::Cheap => true,
                    };
                    if anywhere && !self.uses.in_deeper_loop[s] {
                        self.inline[s] = Some(g);
                    } else {
                        prev = Some((st.sym, g));
                    }
                }
            }
            self.unnest();
        }
        // Block tail: a still-pending fragment either *is* the block's
        // result (single use — feed it through without a store) or gets
        // stored at its original position like any other statement.
        let tail = prev.map(|(psym, g)| (slot(psym), g));
        let result = match tail {
            Some((s, g)) if *res == Atom::Sym(Sym(s as u32)) && self.uses.count[s] == 1 => {
                self.inline[s] = Some(g);
                let result = self.want(res, want);
                self.inline[s] = None;
                result?
            }
            Some((s, g)) => {
                ops.push(store(s, g));
                self.want(res, want)?
            }
            None => self.want(res, want)?,
        };
        self.cur = outer;
        Ok(Seq { ops, result })
    }

    /// The nested producer's one consumer has its operands: forget it.
    fn unnest(&mut self) {
        if let Some(done) = self.nested.take() {
            self.inline[done] = None;
        }
    }

    // -- scalar operators ---------------------------------------------

    /// `a op b` as a fragment and the class of its value. The
    /// interpreter's dispatch, decided statically: a double on either side
    /// makes the operation a double one, `Eq`/`Ne` on handles is the null
    /// (or identity) test, `Bit*` on bools is the branchless `&&`/`||` of
    /// Appendix E — which on `0`/`1` words is the same `&`/`|`.
    fn bin(&mut self, op: BinOp, a: &Atom, b: &Atom) -> io::Result<(G, Cls)> {
        use BinOp::*;
        let (ca, cb) = (self.atom_cls(a), self.atom_cls(b));
        let dbl = ca == Cls::Double || cb == Cls::Double;
        let num = if dbl { Cls::Double } else { Cls::Int };
        let compiled = match op {
            Add | Sub | Mul | Div | Max => {
                let (x, y) = (self.want(a, num)?, self.want(b, num)?);
                arith!(op, dbl, k => (ev2(x, y, k), num))
            }
            Eq | Ne if ca == Cls::Handle && cb == Cls::Handle => {
                let (x, y) = (self.raw(a), self.raw(b));
                Some(if op == Eq {
                    (ev2(x, y, |u, v| (u == v) as u64), Cls::Bool)
                } else {
                    (ev2(x, y, |u, v| (u != v) as u64), Cls::Bool)
                })
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (x, y) = (self.want(a, num)?, self.want(b, num)?);
                compare!(op, dbl, k => (ev2(x, y, move |u, v| k(u, v) as u64), Cls::Bool))
            }
            And | Or | BitAnd | BitOr => {
                let both_bool = ca == Cls::Bool && cb == Cls::Bool;
                let c = match op {
                    BitAnd | BitOr if !both_bool => Cls::Int,
                    _ => Cls::Bool,
                };
                let (x, y) = (self.want(a, c)?, self.want(b, c)?);
                // A nested right-hand fragment is not run when the left
                // bool decides: it is pure, and a closure call costs more
                // than the branch Appendix E's `&` saves the generated C.
                let skip = c == Cls::Bool && matches!(y, G::Ev(_));
                Some((
                    match (matches!(op, And | BitAnd), skip) {
                        (true, true) => ev(move |rt| if x.get(rt) != 0 { y.get(rt) } else { 0 }),
                        (false, true) => ev(move |rt| if x.get(rt) != 0 { 1 } else { y.get(rt) }),
                        (true, false) => ev2(x, y, |u, v| u & v),
                        (false, false) => ev2(x, y, |u, v| u | v),
                    },
                    c,
                ))
            }
        };
        compiled.ok_or_else(|| self.reject(format!("no kernel for {op:?}")))
    }

    fn un(&mut self, op: UnOp, a: &Atom) -> io::Result<(G, Cls)> {
        fn int(x: G, k: impl Fn(i64) -> i64 + Send + Sync + 'static) -> (G, Cls) {
            (ev(move |rt| k(x.get(rt) as i64) as u64), Cls::Int)
        }
        Ok(match op {
            UnOp::Neg if self.atom_cls(a) == Cls::Double => {
                let x = self.want(a, Cls::Double)?;
                (ev(move |rt| (-d(x.get(rt))).to_bits()), Cls::Double)
            }
            // Wrapping, like the arithmetic kernels and the generated C.
            UnOp::Neg => int(self.want(a, Cls::Int)?, i64::wrapping_neg),
            UnOp::Not => {
                let x = self.want(a, Cls::Bool)?;
                (ev(move |rt| x.get(rt) ^ 1), Cls::Bool)
            }
            UnOp::I2D | UnOp::L2D => (self.want(a, Cls::Double)?, Cls::Double),
            UnOp::L2I => (self.want(a, Cls::Int)?, Cls::Int),
            UnOp::Year => int(self.want(a, Cls::Int)?, |v| v / 10000),
            UnOp::HashInt => int(self.want(a, Cls::Int)?, |v| {
                v.wrapping_mul(0x9E3779B97F4A7C15u64 as i64)
            }),
            // The double's bits are the hash: the same word, read as an int.
            UnOp::HashDouble => (self.want(a, Cls::Double)?, Cls::Int),
        })
    }

    fn str2(
        &mut self,
        args: &[Atom],
        k: impl Fn(&str, &str) -> u64 + Send + Sync + 'static,
    ) -> io::Result<G> {
        let (x, y) = (
            self.want(&args[0], Cls::Str)?,
            self.want(&args[1], Cls::Str)?,
        );
        Ok(ev(move |rt| k(rt.str_at(x.get(rt)), rt.str_at(y.get(rt)))))
    }

    fn prim(&mut self, op: PrimOp, args: &[Atom], st: &Stmt) -> io::Result<Code> {
        if args.len() != op.arity() {
            return Err(self.reject(format!("{op:?} takes {} operands", op.arity())));
        }
        let out = slot(st.sym);
        let (g, c) = match op {
            PrimOp::StrEq => (self.str2(args, |a, b| (a == b) as u64)?, Cls::Bool),
            PrimOp::StrNe => (self.str2(args, |a, b| (a != b) as u64)?, Cls::Bool),
            // `Ordering` is -1 / 0 / 1, like `strcmp`'s sign.
            PrimOp::StrCmp => (self.str2(args, |a, b| a.cmp(b) as i64 as u64)?, Cls::Int),
            PrimOp::StrStartsWith => (self.str2(args, |a, b| a.starts_with(b) as u64)?, Cls::Bool),
            PrimOp::StrEndsWith => (self.str2(args, |a, b| a.ends_with(b) as u64)?, Cls::Bool),
            PrimOp::StrContains => (self.str2(args, |a, b| a.contains(b) as u64)?, Cls::Bool),
            PrimOp::StrLike => {
                let like = |a: &str, b: &str| dblab_runtime::like::like_match(a, b) as u64;
                (self.str2(args, like)?, Cls::Bool)
            }
            PrimOp::HashStr => {
                let x = self.want(&args[0], Cls::Str)?;
                let fnv = move |rt: &Rt<'_>| {
                    (rt.str_at(x.get(rt)).bytes()).fold(1469598103934665603u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(1099511628211)
                    })
                };
                (ev(fnv), Cls::Int)
            }
            PrimOp::StrSubstr => {
                let s = self.want(&args[0], Cls::Str)?;
                let (from1, len) = (
                    self.want(&args[1], Cls::Int)?,
                    self.want(&args[2], Cls::Int)?,
                );
                return Ok(Code::Effect(op_box(move |rt| {
                    let text = rt.str_at(s.get(rt));
                    let from = (from1.get(rt) as usize).saturating_sub(1).min(text.len());
                    let to = (from + len.get(rt) as usize).min(text.len());
                    let sub: Arc<str> = text[from..to].into();
                    rt.frame[out] = rt.new_str(sub);
                })));
            }
            // Honoured in-process: the native binaries report in-query time
            // (loading excluded) through these; the jit tier does the same.
            PrimOp::TimerStart => {
                return Ok(Code::Effect(op_box(|rt| {
                    rt.timer_start = Some(Instant::now())
                })))
            }
            PrimOp::TimerStop => {
                return Ok(Code::Effect(op_box(|rt| {
                    rt.query_ms = rt.timer_start.map(|t| t.elapsed().as_secs_f64() * 1e3);
                })))
            }
            PrimOp::PrintRusage => return Ok(Code::Effect(op_box(|_| {}))),
        };
        self.result(st, g, c, Purity::Stable)
    }

    // -- statements ---------------------------------------------------

    /// A statement's value as a fragment in its declared type's
    /// representation.
    fn result(&self, st: &Stmt, g: G, from: Cls, purity: Purity) -> io::Result<Code> {
        let what = || format!("it computes a {from:?} but is declared `{}`,", st.ty);
        let purity = if self.volatile {
            Purity::Volatile
        } else {
            purity
        };
        Ok(Code::Pure(
            self.convert(g, from, cls(&st.ty), what)?,
            purity,
        ))
    }

    /// Field `f` of a `sid` record: an arena word, or — for a row handle
    /// of a base record type — the field's column slice at the row. One
    /// closure per column kind: the slice table and the widening are fixed
    /// here, not matched per value.
    fn field_get(&mut self, obj: &Atom, sid: StructId, f: usize) -> io::Result<(G, Purity)> {
        fn read(col: Col, f: usize, at: impl Fn(&Rt<'_>) -> At + Send + Sync + 'static) -> G {
            macro_rules! slice {
                ($cols:ident[$c:expr], |$v:ident| $widen:expr) => {{
                    let c = $c;
                    ev(move |rt| match at(rt) {
                        At::Arena(h) => rt.arena.get(h, f),
                        At::Row(r) => {
                            let $v = rt.cols.$cols[c][r];
                            $widen
                        }
                    })
                }};
            }
            match col {
                Col::I32(c) => slice!(i32s[c], |v| v as i64 as u64),
                Col::I64(c) => slice!(i64s[c], |v| v as u64),
                Col::F64(c) => slice!(f64s[c], |v| v.to_bits()),
                Col::Str(c) => ev(move |rt| match at(rt) {
                    At::Arena(h) => rt.arena.get(h, f),
                    At::Row(r) => base_str(c, r),
                }),
            }
        }
        let row = obj
            .as_sym()
            .and_then(|r| self.rows.iter().find(|(s, _)| *s == slot(r)));
        let (col, row) = (self.col_of(sid, f), row.map(|(_, i)| i.clone()));
        if let (Some(col), Some(i)) = (col, row) {
            return Ok((
                read(col, f, move |rt| At::Row(i.get(rt) as usize)),
                Purity::Cheap,
            ));
        }
        let o = self.want(obj, Cls::Handle)?;
        let Some(col) = col else {
            return Ok((ev(move |rt| rt.arena.get(o.get(rt), f)), Purity::Volatile));
        };
        let at = move |rt: &Rt<'_>| match o.get(rt) {
            h if h & BASE == 0 => At::Arena(h),
            h => At::Row(row_of(h)),
        };
        Ok((read(col, f, at), Purity::Volatile))
    }

    fn stmt(&mut self, st: &'p Stmt) -> io::Result<Code> {
        let out = slot(st.sym);
        let to = cls(&st.ty);
        let effect = |f| Ok(Code::Effect(f));
        match &st.expr {
            Expr::Atom(a) => {
                let g = self.raw(a);
                self.result(st, g, self.atom_cls(a), Purity::Stable)
            }
            Expr::Bin(op, a, b) => {
                let (g, c) = self.bin(*op, a, b)?;
                self.result(st, g, c, Purity::Stable)
            }
            Expr::Un(op, a) => {
                let (g, c) = self.un(*op, a)?;
                self.result(st, g, c, Purity::Stable)
            }
            Expr::Prim(op, args) => self.prim(*op, args, st),
            Expr::Dict { dict, op, arg } => {
                let (name, op) = (dict.clone(), *op);
                if op == DictOp::Decode {
                    let x = self.want(arg, Cls::Int)?;
                    return effect(op_box(move |rt| {
                        let text = rt.db.dict(&name).dict.decode(x.get(rt) as i32);
                        rt.frame[out] = rt.new_str(text.into());
                    }));
                }
                let x = self.want(arg, Cls::Str)?;
                let g = ev(move |rt| {
                    let (s, d) = (rt.str_at(x.get(rt)), &rt.db.dict(&name).dict);
                    (match op {
                        DictOp::RangeStart => d.prefix_range(s).0,
                        DictOp::RangeEnd => d.prefix_range(s).1,
                        DictOp::Lookup | DictOp::Decode => d.code(s),
                    }) as i64 as u64
                });
                self.result(st, g, Cls::Int, Purity::Stable)
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                // Operands first: a nested `seq` forgets the nested producer.
                let c = self.want(cond, Cls::Bool)?;
                let (t, e) = (self.seq(then_b, to)?, self.seq(else_b, to)?);
                // Filter shape — both arms are effect-only: no store at all.
                effect(if to == Cls::Unit {
                    op_box(move |rt| {
                        if c.get(rt) != 0 {
                            t.run_unit(rt)
                        } else {
                            e.run_unit(rt)
                        }
                    })
                } else {
                    op_box(move |rt| {
                        rt.frame[out] = if c.get(rt) != 0 {
                            t.run_val(rt)
                        } else {
                            e.run_val(rt)
                        }
                    })
                })
            }
            Expr::ForRange { lo, hi, var, body } => {
                let (lo, hi) = (self.want(lo, Cls::Int)?, self.want(hi, Cls::Int)?);
                effect(self.range(*var, lo, hi, body)?)
            }
            Expr::While { cond, body } => {
                // `run_val` lets the cond block's tail chain collapse into
                // the returned word instead of a slot round trip.
                let (cond, body) = (self.seq(cond, Cls::Bool)?, self.seq(body, Cls::Unit)?);
                effect(op_box(move |rt| {
                    while !rt.expired() && cond.run_val(rt) != 0 {
                        body.run_unit(rt);
                    }
                }))
            }
            Expr::DeclVar { init } => effect(store(out, self.want(init, to)?)),
            Expr::ReadVar(v) => {
                let var = G::Slot(slot(*v));
                self.result(st, var, cls(self.p.type_of(*v)), Purity::Volatile)
            }
            Expr::Assign { var, value } => {
                let x = self.want(value, cls(self.p.type_of(*var)))?;
                effect(store(slot(*var), x))
            }
            Expr::StructNew { sid, args, .. } => {
                let fields = &self.p.structs.get(*sid).fields;
                if args.len() != fields.len() {
                    return Err(self.reject(format!("the record has {} fields", fields.len())));
                }
                let args = (args.iter().zip(fields))
                    .map(|(a, f)| self.want(a, cls(&f.ty)))
                    .collect::<io::Result<Vec<G>>>()?;
                effect(op_box(move |rt| {
                    let h = rt.arena.alloc(args.len());
                    for (f, a) in args.iter().enumerate() {
                        rt.arena.set(h, f, a.get(rt));
                    }
                    rt.frame[out] = h;
                }))
            }
            Expr::FieldGet { obj, sid, field } => {
                let (g, purity) = self.field_get(obj, *sid, *field)?;
                self.result(st, g, cls(self.p.structs.field_type(*sid, *field)), purity)
            }
            Expr::FieldSet {
                obj,
                sid,
                field,
                value,
            } => {
                let (o, f) = (self.want(obj, Cls::Handle)?, *field);
                let x = self.want(value, cls(self.p.structs.field_type(*sid, f)))?;
                effect(op_box(move |rt| {
                    let v = x.get(rt);
                    rt.arena.set(o.get(rt), f, v);
                }))
            }
            Expr::ArrayNew { len: n, .. } => {
                let n = self.want(n, Cls::Int)?;
                effect(op_box(move |rt| {
                    rt.frame[out] = rt.arena.alloc_array(n.get(rt) as usize)
                }))
            }
            Expr::ArrayGet { arr, idx } => {
                let (a, elem) = self.array(arr)?;
                let i = self.want(idx, Cls::Int)?;
                // Base data is immutable: an element straight off a loaded
                // index, a row straight off a loaded table — and the
                // columns `FieldGet`s read at it — depend on the index alone.
                let known =
                    |slots: &[usize]| arr.as_sym().is_some_and(|t| slots.contains(&slot(t)));
                let purity = match self.volatile {
                    false if known(&self.tables) => {
                        self.rows.push((out, i.clone()));
                        Purity::Cheap
                    }
                    false if known(&self.indexes) => Purity::Stable,
                    _ => Purity::Volatile,
                };
                let g = ev(move |rt| rt.elem(a.get(rt), i.get(rt) as usize));
                self.result(st, g, cls(&elem), purity)
            }
            Expr::ArraySet { arr, idx, value } => {
                let (a, elem) = self.array(arr)?;
                let (i, x) = (self.want(idx, Cls::Int)?, self.want(value, cls(&elem))?);
                effect(op_box(move |rt| {
                    let (h, i, v) = (a.get(rt), i.get(rt) as usize, x.get(rt));
                    rt.arena.elems_mut(h)[i] = v;
                }))
            }
            Expr::ArrayLen(a) => {
                let (a, _) = self.array(a)?;
                let len = ev(move |rt| rt.len_of(a.get(rt)) as u64);
                self.result(st, len, Cls::Int, Purity::Stable)
            }
            Expr::SortArray {
                arr,
                len,
                a,
                b,
                cmp,
            } => {
                let (arr, _) = self.array(arr)?;
                let (len, sa, sb) = (self.want(len, Cls::Int)?, slot(*a), slot(*b));
                let cmp = self.seq(cmp, Cls::Int)?;
                effect(op_box(move |rt| {
                    let (h, n) = (arr.get(rt), len.get(rt) as usize);
                    // Sorted outside the arena: the comparator runs against
                    // `rt`. Comparators are tiny and not interruptible (the
                    // outer loops carry the deadline) — like the interpreter.
                    let mut items = rt.arena.elems(h)[..n].to_vec();
                    let saved = rt.deadline.take();
                    items.sort_by(|x, y| {
                        (rt.frame[sa], rt.frame[sb]) = (*x, *y);
                        (cmp.run_val(rt) as i64).cmp(&0)
                    });
                    rt.deadline = saved;
                    rt.arena.elems_mut(h)[..n].copy_from_slice(&items);
                }))
            }
            Expr::ListNew { .. } => effect(op_box(move |rt| {
                rt.frame[out] = rt.objs.new_obj(Obj::List(Vec::new()))
            })),
            Expr::ListAppend { list, value } => {
                let (l, elem) = self.list(list)?;
                let x = self.want(value, cls(&elem))?;
                effect(op_box(move |rt| {
                    let v = x.get(rt);
                    rt.objs.list(l.get(rt)).push(v);
                }))
            }
            Expr::ListSize(l) => {
                let (l, _) = self.list(l)?;
                effect(op_box(move |rt| {
                    rt.frame[out] = rt.objs.list(l.get(rt)).len() as u64
                }))
            }
            Expr::ListForeach { list, var, body } => {
                let ((l, _), var) = (self.list(list)?, slot(*var));
                let body = self.seq(body, Cls::Unit)?;
                effect(op_box(move |rt| {
                    // The items present now, like the interpreter's copy.
                    let l = l.get(rt);
                    for i in 0..rt.objs.list(l).len() {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = rt.objs.list(l)[i];
                        body.run_unit(rt);
                    }
                }))
            }
            Expr::HashMapNew { .. } => effect(op_box(move |rt| {
                rt.frame[out] = rt.objs.new_obj(Obj::Map(Default::default()))
            })),
            Expr::HashMapGetOrInit { map, key, init } => {
                let (m, vt) = self.map(map)?;
                if cls(&vt) != to {
                    return Err(self.reject(format!("the map holds `{vt}` values")));
                }
                let (key, shape) = self.key(key)?;
                let init = self.seq(init, to)?;
                effect(op_box(move |rt| {
                    let (m, kw) = (m.get(rt), key.get(rt));
                    let k = rt.key_of(kw, &shape);
                    let found = rt.objs.map(m).get(&k).map(|&(_, v)| v);
                    rt.frame[out] = found.unwrap_or_else(|| {
                        let v = init.run_val(rt);
                        rt.objs.map(m).insert(k, (kw, v));
                        v
                    });
                }))
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let ((m, _), kvar, vvar) = (self.map(map)?, slot(*kvar), slot(*vvar));
                let body = self.seq(body, Cls::Unit)?;
                effect(op_box(move |rt| {
                    // The interpreter's order: by the key's `Debug` text.
                    let mut entries: Vec<_> = rt.objs.map(m.get(rt)).iter().collect();
                    entries.sort_by_cached_key(|(k, _)| format!("{k:?}"));
                    let entries: Vec<(u64, u64)> = entries.into_iter().map(|(_, kv)| *kv).collect();
                    for (k, v) in entries {
                        if rt.expired() {
                            break;
                        }
                        // The key word first inserted: equal by value to
                        // the record the interpreter rebuilds from the key.
                        (rt.frame[kvar], rt.frame[vvar]) = (k, v);
                        body.run_unit(rt);
                    }
                }))
            }
            Expr::MultiMapNew { .. } => effect(op_box(move |rt| {
                rt.frame[out] = rt.objs.new_obj(Obj::MMap(Default::default()))
            })),
            Expr::MultiMapAdd { map, key, value } => {
                let (m, vt) = self.map(map)?;
                let ((key, shape), x) = (self.key(key)?, self.want(value, cls(&vt))?);
                effect(op_box(move |rt| {
                    let (k, v) = (rt.key_of(key.get(rt), &shape), x.get(rt));
                    rt.objs.mmap(m.get(rt)).entry(k).or_default().push(v);
                }))
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let ((m, _), (key, shape)) = (self.map(map)?, self.key(key)?);
                let (var, body) = (slot(*var), self.seq(body, Cls::Unit)?);
                effect(op_box(move |rt| {
                    let k = rt.key_of(key.get(rt), &shape);
                    let items = rt.objs.mmap(m.get(rt)).get(&k).cloned().unwrap_or_default();
                    for v in items {
                        if rt.expired() {
                            break;
                        }
                        rt.frame[var] = v;
                        body.run_unit(rt);
                    }
                }))
            }
            // Allocation identity is all a pool gives: `alloc` bumps the
            // arena by the element record's size, known from the type.
            Expr::PoolNew { .. } => effect(op_box(|_| {})),
            Expr::PoolAlloc { pool } => {
                let n = self.pool_record(pool)?;
                effect(op_box(move |rt| rt.frame[out] = rt.arena.alloc(n)))
            }
            Expr::LoadTable { sid, .. } => {
                let binding = self.base(*sid).cloned();
                let binding = binding.ok_or_else(|| self.reject("unbound table".into()))?;
                self.tables.push(out);
                effect(op_box(move |rt| rt.frame[out] = rt.load_table(&binding)))
            }
            Expr::LoadIndexUnique { table, field } => {
                let (table, field) = (table.clone(), *field);
                self.indexes.push(out);
                effect(op_box(move |rt| {
                    let index = built(rt.db.table(&table).index_unique(field));
                    rt.frame[out] = rt.load_ints(index);
                }))
            }
            Expr::LoadIndexStarts { table, field } => {
                let (table, field) = (table.clone(), *field);
                self.indexes.push(out);
                effect(op_box(move |rt| {
                    let csr = built(rt.db.table(&table).csr(field));
                    rt.frame[out] = rt.load_ints(&csr.starts);
                }))
            }
            Expr::LoadIndexItems { table, field } => {
                let (table, field) = (table.clone(), *field);
                self.indexes.push(out);
                effect(op_box(move |rt| {
                    let csr = built(rt.db.table(&table).csr(field));
                    rt.frame[out] = rt.load_ints(&csr.items);
                }))
            }
            Expr::Printf { fmt, args } => {
                let segs = compile_printf(fmt).map_err(|e| self.reject(e))?;
                let specs = segs.iter().filter(|s| !matches!(s, PfSeg::Lit(_)));
                if specs.clone().count() != args.len() {
                    return Err(self.reject(format!("{} arguments", args.len())));
                }
                let args = (specs.zip(args))
                    .map(|(seg, a)| match seg {
                        PfSeg::Str => self.want(a, Cls::Str),
                        PfSeg::F4 => self.want(a, Cls::Double),
                        _ => self.want(a, Cls::Int),
                    })
                    .collect::<io::Result<Vec<G>>>()?;
                effect(op_box(move |rt| {
                    let words: Vec<u64> = args.iter().map(|a| a.get(rt)).collect();
                    rt.printf(&segs, &words);
                }))
            }
            // The binding, converted to a word once per run (`run_bound`).
            Expr::LoadParam { idx } => {
                let idx = *idx;
                self.params.push((idx, to));
                effect(op_box(move |rt| rt.frame[out] = rt.params[idx]))
            }
        }
    }

    // -- container operands -------------------------------------------

    /// An array operand and its element type.
    fn array(&mut self, a: &Atom) -> io::Result<(G, Type)> {
        match self.p.atom_type(a) {
            Type::Array(elem) | Type::Pointer(elem) => Ok((self.raw(a), *elem)),
            other => Err(self.reject(format!("`{other}` operand where an array is required"))),
        }
    }

    fn list(&mut self, a: &Atom) -> io::Result<(G, Type)> {
        match self.p.atom_type(a) {
            Type::List(elem) => Ok((self.raw(a), *elem)),
            other => Err(self.reject(format!("`{other}` operand where a list is required"))),
        }
    }

    /// A hash-map or multimap operand and its value type.
    fn map(&mut self, a: &Atom) -> io::Result<(G, Type)> {
        match self.p.atom_type(a) {
            Type::HashMap(_, v) | Type::MultiMap(_, v) => Ok((self.raw(a), *v)),
            other => Err(self.reject(format!("`{other}` operand where a hash map is required"))),
        }
    }

    /// How many words one `alloc` from pool `a` takes.
    fn pool_record(&self, a: &Atom) -> io::Result<usize> {
        match self.p.atom_type(a) {
            Type::Pool(elem) => match record_sid(&elem) {
                Some(sid) => Ok(self.p.structs.get(sid).fields.len()),
                None => Ok(0),
            },
            other => Err(self.reject(format!("`{other}` operand where a pool is required"))),
        }
    }
}

/// Where a `FieldGet` finds its record.
enum At {
    Arena(u64),
    /// Row of a base table.
    Row(usize),
}

fn record_sid(t: &Type) -> Option<StructId> {
    match t {
        Type::Record(sid) => Some(*sid),
        Type::Pointer(inner) => record_sid(inner),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Chunked scans
// ---------------------------------------------------------------------

/// One loop [`compile`] runs as chunked scans ([`crate::jit_scan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedLoop {
    /// The loop variable.
    pub var: Sym,
    /// The table whose rows the chunks are; `None`: the slots of an arena
    /// array, the non-null ones kept by one kernel.
    pub table: Option<Arc<str>>,
    /// Conjuncts of the filter's top-level `&`-chain that run as column
    /// kernels over the chunk …
    pub kernels: usize,
    /// … and as their row getter per surviving row.
    pub leaves: usize,
    /// Value and read-modify-write kernels (a fold into a variable is
    /// one) the then-block runs as, over each chunk's survivors; `0`: its
    /// closures, once per survivor.
    pub then_kernels: usize,
}

/// Where a chunked loop's rows come from: `table(var)` (`None`) or
/// `table(index(var))` (`Some(index)`).
type Src = Option<Sym>;

/// The statement of `pre` that binds `a`.
fn def<'s>(pre: &'s [Stmt], a: &Atom) -> Option<&'s Stmt> {
    let s = a.as_sym()?;
    pre.iter().find(|st| st.sym == s)
}

/// `a` has one value for the whole loop over `var`: a constant, a symbol
/// bound outside the loop body `pre`, or `Bin`/`Un` over those.
fn invariant(pre: &[Stmt], var: Sym, a: &Atom) -> bool {
    match def(pre, a).map(|st| &st.expr) {
        _ if *a == Atom::Sym(var) => false,
        None => true,
        Some(Expr::Bin(_, x, y)) => invariant(pre, var, x) && invariant(pre, var, y),
        Some(Expr::Un(_, x)) => invariant(pre, var, x),
        Some(_) => false,
    }
}

impl<'p> Jc<'p> {
    /// `for (var <- lo until hi) { body }` as a chunked scan, a
    /// null-skipping walk, or the closure loop, which checks the deadline
    /// at every back-edge.
    fn range(&mut self, var: Sym, lo: G, hi: G, body: &'p Block) -> io::Result<Op> {
        let scan = match self.chunked(var, body, lo.clone(), hi.clone())? {
            None => self.non_null(var, body, lo.clone(), hi.clone())?,
            scan => scan,
        };
        if let Some(scan) = scan {
            return Ok(op_box(move |rt| scan.run(rt)));
        }
        let (var, body) = (slot(var), self.seq(body, Cls::Unit)?);
        Ok(op_box(move |rt| {
            for i in lo.get(rt) as i64..hi.get(rt) as i64 {
                if rt.expired() {
                    break;
                }
                rt.frame[var] = i as u64;
                body.run_unit(rt);
            }
        }))
    }

    /// `for (var <- lo until hi) { pre; if (c) { then } }` as a chunked
    /// [`Scan`], or `None` — the closure tree — unless `pre` reads a
    /// loaded table at `var` (or at an index entry at `var`) and inlines
    /// every fragment but column reads of those rows that `c` does not read.
    /// Then `c` reads only immutable base columns, single-assignment slots
    /// and constants — a base record is never written (`bind_tables`) — so
    /// evaluating it for a chunk of rows before their then-blocks run, and
    /// storing those reads, which cannot fail, at the head of each
    /// surviving row's then-block, is the row loop's semantics.
    fn chunked(&mut self, var: Sym, body: &'p Block, lo: G, hi: G) -> io::Result<Option<Scan>> {
        let Some((last, pre)) = body.stmts.split_last() else {
            return Ok(None);
        };
        let Expr::If {
            cond,
            then_b,
            else_b,
        } = &last.expr
        else {
            return Ok(None);
        };
        let nested = pre.iter().any(|st| !st.expr.blocks().is_empty());
        if nested || !else_b.stmts.is_empty() || cls(&last.ty) != Cls::Unit {
            return Ok(None);
        }
        let rows = pre
            .iter()
            .find_map(|st| Some((st, self.row_src(pre, var, st)?)));
        let table = rows.and_then(|(row, _)| self.base(record_sid(&row.ty)?));
        let (Some((_, src)), Some(table)) = (rows, table.map(|b| b.table.clone())) else {
            return Ok(None);
        };
        // What `pre` does not inline is stored: only column reads of the
        // loop's rows may be, to run at the head of the then-block.
        let stores = self.seq_of(pre, cond, Cls::Bool)?.ops;
        let read = |st: &Stmt| match &st.expr {
            Expr::FieldGet { obj, .. } => def(pre, obj).and_then(|r| self.row_src(pre, var, r)),
            _ => None,
        };
        if pre
            .iter()
            .any(|st| self.inline[slot(st.sym)].is_none() && read(st).is_none())
        {
            return Ok(None);
        }
        let mut conjuncts = Vec::new();
        self.conjuncts(pre, cond, &mut conjuncts);
        let mut preds = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            preds.push(match self.kernel(pre, var, src, c)? {
                Some(k) => k,
                None if self.inlined(pre, c) => Pred::Leaf(self.want(c, Cls::Bool)?),
                None => return Ok(None),
            });
        }
        let leaves = preds.iter().filter(|p| matches!(p, Pred::Leaf(_))).count();
        let at = self.scans.len();
        self.scans.push(ChunkedLoop {
            var,
            table: Some(table),
            kernels: preds.len() - leaves,
            leaves,
            then_kernels: 0,
        });
        // The kernels read the columns themselves; a stored read is for a
        // loop in the then-block, which has none.
        let kernels = match stores.is_empty() {
            true => self.then_kernels(pre, var, src, then_b)?,
            false => None,
        };
        let then = match kernels {
            Some((ks, n)) => {
                self.scans[at].then_kernels = n;
                Then::Kernels(ks)
            }
            None => {
                let Seq { ops, result } = self.seq(then_b, Cls::Unit)?;
                Then::Rows(Seq {
                    ops: stores.into_iter().chain(ops).collect(),
                    result,
                })
            }
        };
        let (var, index) = (slot(var), src.map(|ix| self.raw(&Atom::Sym(ix))));
        Ok(Some(Scan {
            var,
            lo,
            hi,
            index,
            filter: Pred::All(preds),
            then,
        }))
    }

    /// `for (var <- lo until hi) { e = arr(var); e != null; if (…) { then } }`
    /// — the test spelled `e != null`, `null != e` or `!(e == null)`, used
    /// by the `If` alone — over an array `arr` bound outside the loop, as a
    /// chunked [`Scan`] whose one kernel keeps the non-null slots, with `e`
    /// stored at the head of each survivor's then-block; or `None`, the
    /// closure tree. Only if nothing in the loop stores into (or sorts) an
    /// array of `arr`'s type: arrays of different element types do not
    /// alias, so no then-block changes a slot a later test of the chunk
    /// reads, and testing the chunk first is the row loop's semantics.
    fn non_null(&mut self, var: Sym, body: &'p Block, lo: G, hi: G) -> io::Result<Option<Scan>> {
        let [get, test @ .., last] = &body.stmts[..] else {
            return Ok(None);
        };
        let (
            Expr::ArrayGet { arr, idx },
            Expr::If {
                cond,
                then_b,
                else_b,
            },
        ) = (&get.expr, &last.expr)
        else {
            return Ok(None);
        };
        let unit = cls(&last.ty) == Cls::Unit && else_b.stmts.is_empty();
        if *idx != Atom::Sym(var) || cls(&get.ty) != Cls::Handle || !unit {
            return Ok(None);
        }
        let e = Atom::Sym(get.sym);
        let null_test = |st: &Stmt, want: BinOp| match &st.expr {
            Expr::Bin(op, x, y) if *op == want => {
                (*x == e && matches!(y, Atom::Null(_))) || (*y == e && matches!(x, Atom::Null(_)))
            }
            _ => false,
        };
        let feeds =
            |st: &Stmt, a: &Atom| *a == Atom::Sym(st.sym) && self.uses.count[slot(st.sym)] == 1;
        let shaped = match test {
            [ne] => null_test(ne, BinOp::Ne) && feeds(ne, cond),
            [eq, not] => {
                null_test(eq, BinOp::Eq)
                    && matches!(&not.expr, Expr::Un(UnOp::Not, a) if feeds(eq, a))
                    && feeds(not, cond)
            }
            _ => false,
        };
        if !shaped {
            return Ok(None);
        }
        let (a, elem) = self.array(arr)?;
        let mut aliased = false;
        body.for_each_stmt(&mut |st| match &st.expr {
            Expr::ArraySet { arr, .. } | Expr::SortArray { arr, .. } => {
                aliased |=
                    matches!(self.p.atom_type(arr), Type::Array(t) | Type::Pointer(t) if *t == elem)
            }
            _ => {}
        });
        if aliased {
            return Ok(None);
        }
        self.scans.push(ChunkedLoop {
            var,
            table: None,
            kernels: 1,
            leaves: 0,
            then_kernels: 0,
        });
        let Seq { ops, result } = self.seq(then_b, Cls::Unit)?;
        let (var, e) = (slot(var), slot(get.sym));
        let load = {
            let a = a.clone();
            op_box(move |rt| rt.frame[e] = rt.elem(a.get(rt), rt.frame[var] as usize))
        };
        Ok(Some(Scan {
            var,
            lo,
            hi,
            index: None,
            filter: Pred::All(vec![Pred::Kernel(jit_scan::non_null(a))]),
            then: Then::Rows(Seq {
                ops: std::iter::once(load).chain(ops).collect(),
                result,
            }),
        }))
    }

    /// Every symbol of `pre` that `a`'s fragment reads, `a` included, is
    /// inlined: the fragment reads no slot the chunk has not written.
    fn inlined(&self, pre: &[Stmt], a: &Atom) -> bool {
        let Some(st) = def(pre, a) else {
            return true;
        };
        let mut all = self.inline[slot(st.sym)].is_some();
        st.expr.for_each_atom(|x| all &= self.inlined(pre, x));
        all
    }

    /// `Some(src)` if `st` reads a loaded table at `var`, or at entry `var`
    /// of a loaded index.
    fn row_src(&self, pre: &[Stmt], var: Sym, st: &Stmt) -> Option<Src> {
        let loaded = |a: &Atom, at: &[usize]| a.as_sym().is_some_and(|s| at.contains(&slot(s)));
        match &st.expr {
            Expr::ArrayGet { arr, idx } if loaded(arr, &self.tables) => match &def(pre, idx) {
                _ if *idx == Atom::Sym(var) => Some(None),
                Some(Stmt {
                    expr: Expr::ArrayGet { arr, idx },
                    ..
                }) if *idx == Atom::Sym(var) && loaded(arr, &self.indexes) => Some(arr.as_sym()),
                _ => None,
            },
            _ => None,
        }
    }

    fn bools(&self, x: &Atom, y: &Atom) -> bool {
        self.atom_cls(x) == Cls::Bool && self.atom_cls(y) == Cls::Bool
    }

    /// The top-level `&`-chain of `a`, in IR order.
    fn conjuncts(&self, pre: &'p [Stmt], a: &'p Atom, out: &mut Vec<&'p Atom>) {
        match def(pre, a).map(|st| &st.expr) {
            Some(Expr::Bin(BinOp::And | BinOp::BitAnd, x, y)) if self.bools(x, y) => {
                self.conjuncts(pre, x, out);
                self.conjuncts(pre, y, out);
            }
            _ => out.push(a),
        }
    }

    /// Conjunct `a` as column kernels — `&`, `|` and `!` over comparisons
    /// of a column of the loop's rows with a column of the same kind or an
    /// invariant, in the row path's class (a double column for a double
    /// comparison, an integer one otherwise) — or `None` if a part of it
    /// has none.
    fn kernel(&mut self, pre: &[Stmt], var: Sym, src: Src, a: &Atom) -> io::Result<Option<Pred>> {
        use BinOp::*;
        let (op, x, y) = match def(pre, a).map(|st| &st.expr) {
            Some(Expr::Un(UnOp::Not, x)) => {
                return Ok((self.kernel(pre, var, src, x)?).map(|x| Pred::Not(Box::new(x))))
            }
            Some(Expr::Bin(op, x, y)) => (*op, x, y),
            _ => return Ok(None),
        };
        if matches!(op, And | BitAnd | Or | BitOr) && self.bools(x, y) {
            let (x, y) = (
                self.kernel(pre, var, src, x)?,
                self.kernel(pre, var, src, y)?,
            );
            return Ok(x.zip(y).map(|(x, y)| match op {
                And | BitAnd => Pred::All(vec![x, y]),
                _ => Pred::Or(Box::new(x), Box::new(y)),
            }));
        }
        if !matches!(op, Eq | Ne | Lt | Le | Gt | Ge) {
            return Ok(None);
        }
        let dbl = self.atom_cls(x) == Cls::Double || self.atom_cls(y) == Cls::Double;
        let column = |a: &Atom| {
            let Expr::FieldGet { obj, sid, field } = &def(pre, a)?.expr else {
                return None;
            };
            let col = self.col_of(*sid, *field)?;
            let fits = matches!(
                (dbl, col),
                (true, Col::F64(_)) | (false, Col::I32(_) | Col::I64(_))
            );
            (fits && self.row_src(pre, var, def(pre, obj)?)? == src).then_some(col)
        };
        // A column on the right only: `s op c` is `c op' s`.
        let flip = [(Lt, Gt), (Le, Ge), (Gt, Lt), (Ge, Le)]
            .into_iter()
            .find(|f| f.0 == op);
        let (col, op, rhs) = match (column(x), column(y)) {
            (Some(a), b) => (a, op, b.ok_or(y)),
            (None, Some(b)) => (b, flip.map_or(op, |f| f.1), Err(x)),
            (None, None) => return Ok(None),
        };
        let rhs = match rhs {
            Ok(b) => Rhs::Col(b),
            Err(s) if invariant(pre, var, s) && self.inlined(pre, s) => {
                Rhs::Word(self.want(s, if dbl { Cls::Double } else { Cls::Int })?)
            }
            Err(_) => return Ok(None),
        };
        let k = compare!(op, dbl, k => jit_scan::kernel(col, rhs, k));
        Ok(k.flatten().map(Pred::Kernel))
    }
}

// ---------------------------------------------------------------------
// Then-blocks as kernels
// ---------------------------------------------------------------------

/// `e = arr(slot); c = e == null; if (c) { insert }` at the head of `w`,
/// `e` and `c` used by the test alone: `(arr, slot, insert)`.
fn get_or_insert<'s>(w: &'s [Stmt], uses: &Uses) -> Option<(&'s Atom, &'s Atom, &'s Block)> {
    let [get, test, branch, ..] = w else {
        return None;
    };
    let (
        Expr::ArrayGet { arr, idx },
        Expr::Bin(BinOp::Eq, x, y),
        Expr::If {
            cond,
            then_b,
            else_b,
        },
    ) = (&get.expr, &test.expr, &branch.expr)
    else {
        return None;
    };
    let (e, null) = (Atom::Sym(get.sym), |a: &Atom| matches!(a, Atom::Null(_)));
    let once = |st: &Stmt| uses.count[slot(st.sym)] == 1;
    let shaped = ((*x == e && null(y)) || (*y == e && null(x)))
        && *cond == Atom::Sym(test.sym)
        && once(get)
        && once(test)
        && else_b.stmts.is_empty()
        && cls(&branch.ty) == Cls::Unit;
    shaped.then_some((arr, idx, then_b))
}

/// `a = h.f; b = a ⊕ v; h.f = b` or `a = x; b = a ⊕ v; x = b` at the head
/// of `w` — `b = v ⊕ a`: `swap` — as `(a's statement, b's, ⊕, v, swap)`.
fn triple(w: &[Stmt]) -> Option<(&Stmt, &Stmt, BinOp, &Atom, bool)> {
    let [read, bin, write, ..] = w else {
        return None;
    };
    let Expr::Bin(op, x, y) = &bin.expr else {
        return None;
    };
    let (a, b) = (Atom::Sym(read.sym), Atom::Sym(bin.sym));
    let (v, swap) = match (*x == a, *y == a) {
        (true, false) => (y, false),
        (false, true) => (x, true),
        _ => return None,
    };
    let paired = match (&read.expr, &write.expr) {
        (
            Expr::FieldGet { obj, field, .. },
            Expr::FieldSet {
                obj: o2,
                field: f2,
                value,
                ..
            },
        ) => obj == o2 && field == f2 && *value == b,
        (Expr::ReadVar(x), Expr::Assign { var, value }) => x == var && *value == b,
        _ => false,
    };
    paired.then_some((read, bin, *op, v, swap))
}

/// A get-or-insert of a then-block: its step, array, slot — as an atom and
/// an operand — and element type, its insert block and the `(frame slot,
/// value column)`s to store before the block runs.
struct Insert<'p> {
    step: usize,
    arr: &'p Atom,
    at: &'p Atom,
    slot: Arg,
    elem: Type,
    block: &'p Block,
    frame: Vec<(usize, usize)>,
}

/// A then-block on its way to [`Kernels`] ([`Jc::then_kernels`]).
struct Kb<'p> {
    /// The scan: the statements ahead of its filter, its variable, where
    /// its rows come from; and the then-block's statements.
    pre: &'p [Stmt],
    var: Sym,
    src: Src,
    then: &'p [Stmt],
    /// How many value columns the steps fill, and the column of each
    /// value.
    cols: usize,
    vals: Vec<(Sym, usize)>,
    /// The value column of each loaded `(column, as a double)`.
    loads: Vec<((Col, bool), usize)>,
    /// `None`: a get-or-insert, compiled once the whole block passes.
    steps: Vec<Option<Step>>,
    inserts: Vec<Insert<'p>>,
    /// Per gather: its step, array, slot and element type.
    gathers: Vec<(usize, &'p Atom, &'p Atom, Type)>,
    /// Per gathered handle: its value column, and how many uses the
    /// triples make of it.
    handles: Vec<(Sym, usize, u32)>,
    /// What the triples write: `(Some(record type), field)` or
    /// `(None, variable slot)`.
    written: Vec<(Option<StructId>, usize)>,
    /// Value and read-modify-write kernels.
    kernels: usize,
}

impl Kb<'_> {
    fn val(&self, s: Sym) -> Option<usize> {
        self.vals.iter().find(|(v, _)| *v == s).map(|&(_, c)| c)
    }

    /// Bound in the loop body, or the loop variable.
    fn inside(&self, s: Sym) -> bool {
        s == self.var || self.pre.iter().chain(self.then).any(|st| st.sym == s)
    }

    /// A new value column, filled by `step`.
    fn push(&mut self, step: Step) -> usize {
        self.steps.push(Some(step));
        self.cols += 1;
        self.cols - 1
    }

    /// The value column of `col` at the survivors' rows, loaded once.
    fn load(&mut self, col: Col, dbl: bool) -> Option<Arg> {
        if let Some(&(_, c)) = self.loads.iter().find(|(k, _)| *k == (col, dbl)) {
            return Some(Arg::Val(c));
        }
        let c = self.push(jit_scan::load(col, dbl, self.cols)?);
        self.loads.push(((col, dbl), c));
        Some(Arg::Val(c))
    }
}

impl<'p> Jc<'p> {
    /// The then-block `b` of a chunked scan over `var` — its rows at
    /// `src`, `pre` the statements ahead of its filter — as [`Kernels`]
    /// over each chunk's survivors, and how many value and
    /// read-modify-write kernels it runs; or `None`, its closures per
    /// survivor. Only when that gives the row loop's result:
    ///
    /// * a value kernel (`+ - *`, a comparison, `i2d`/`l2d`) reads row
    ///   columns, invariants, constants and earlier values — no mutable
    ///   state — and cannot fail;
    /// * an array of records is written only by the insert of a
    ///   get-or-insert, at the slot it tested, and read by a gather only
    ///   at that slot, after it. An insert fills only a null slot, so
    ///   after a chunk's inserts each survivor's slot holds what it held
    ///   right after that survivor's own get-or-insert;
    /// * an insert writes only the record it allocates and reads no field
    ///   or variable, so running the inserts first moves them only past
    ///   updates of other records;
    /// * each field and each variable is written by one triple, whose
    ///   intermediates nothing else uses, and read by nothing else. So it
    ///   receives its updates in row order, and a double sum keeps its
    ///   bits.
    ///
    /// Bought by `tpch:1?`: 9.5–13.3 ms in-query with the closures, 2.4–2.8
    /// ms as 15 kernels (SF 0.01, median of 40 runs, four alternating
    /// rounds on a 2-vCPU box); `tpch:6?`'s fold moves within the noise.
    fn then_kernels(
        &mut self,
        pre: &'p [Stmt],
        var: Sym,
        src: Src,
        b: &'p Block,
    ) -> io::Result<Option<(Kernels, usize)>> {
        let outer = self.cur;
        let mut kb = Kb {
            pre,
            var,
            src,
            then: &b.stmts,
            cols: 0,
            vals: Vec::new(),
            loads: Vec::new(),
            steps: Vec::new(),
            inserts: Vec::new(),
            gathers: Vec::new(),
            handles: Vec::new(),
            written: Vec::new(),
            kernels: 0,
        };
        let kernels = match b.result == Atom::Unit {
            true => self.kernels_of(&mut kb),
            false => Ok(None),
        };
        self.cur = outer;
        Ok(kernels?.map(|ks| (ks, kb.kernels)))
    }

    fn kernels_of(&mut self, kb: &mut Kb<'p>) -> io::Result<Option<Kernels>> {
        let mut i = 0;
        while i < kb.then.len() {
            let w = &kb.then[i..];
            self.cur = Some(&w[0]);
            let taken = if let Some((arr, at, block)) = get_or_insert(w, &self.uses) {
                self.insert_kernel(kb, arr, at, block)?.map(|()| 3)
            } else if let Some(t) = triple(w) {
                self.rmw_kernel(kb, t)?.map(|()| 3)
            } else {
                self.value_kernel(kb, &w[0])?.map(|()| 1)
            };
            let Some(n) = taken else { return Ok(None) };
            i += n;
        }
        let handles = (kb.handles.iter()).all(|&(h, _, n)| self.uses.count[slot(h)] == n);
        let inserts = kb.inserts.iter().enumerate().all(|(i, ins)| {
            kb.inserts[..i].iter().all(|other| other.elem != ins.elem)
                && (kb.gathers.iter()).all(|(step, arr, at, elem)| {
                    *elem != ins.elem || (*arr == ins.arr && *at == ins.at && ins.step < *step)
                })
        });
        if kb.kernels == 0 || !handles || !inserts {
            return Ok(None);
        }
        for ins in std::mem::take(&mut kb.inserts) {
            let (arr, block) = (self.raw(ins.arr), self.seq(ins.block, Cls::Unit)?);
            kb.steps[ins.step] = Some(jit_scan::insert(arr, ins.slot, ins.frame, block));
        }
        Ok(Some(Kernels {
            steps: std::mem::take(&mut kb.steps)
                .into_iter()
                .flatten()
                .collect(),
            cols: kb.cols,
        }))
    }

    /// Operand `a` of a kernel as a word of class `to`: an invariant or a
    /// constant, or a value column — an earlier value, or a column of the
    /// scan's rows, loaded once. `None` for anything else.
    fn operand(&mut self, kb: &mut Kb<'p>, a: &Atom, to: Cls) -> io::Result<Option<Arg>> {
        let from = self.atom_cls(a);
        let fits = |widen: bool| {
            from == to
                || (from, to) == (Cls::Bool, Cls::Int)
                || (widen && (from, to) == (Cls::Int, Cls::Double))
        };
        let scalar = matches!(from, Cls::Bool | Cls::Int | Cls::Double);
        let Some(s) = a.as_sym() else {
            return Ok(match scalar && fits(true) {
                true => Some(Arg::Word(self.want(a, to)?)),
                false => None,
            });
        };
        if let Some(c) = kb.val(s) {
            return Ok(fits(false).then_some(Arg::Val(c)));
        }
        let inner = kb.inside(s) && def(kb.pre, a).is_none();
        if !scalar || !fits(true) || self.uses.var[slot(s)] || inner {
            return Ok(None);
        }
        let Some(st) = def(kb.pre, a) else {
            return Ok(Some(Arg::Word(self.want(a, to)?)));
        };
        let Expr::FieldGet { obj, sid, field } = &st.expr else {
            return Ok(None);
        };
        let row = def(kb.pre, obj).and_then(|r| self.row_src(kb.pre, kb.var, r));
        Ok(match self.col_of(*sid, *field) {
            Some(col) if row == Some(kb.src) => kb.load(col, to == Cls::Double),
            _ => None,
        })
    }

    /// `a` is an array of records bound outside the loop: its element
    /// type, which is what may alias it.
    fn outer_array(&self, kb: &Kb<'p>, a: &Atom) -> Option<Type> {
        let s = a
            .as_sym()
            .filter(|s| !kb.inside(*s) && !self.uses.var[slot(*s)])?;
        match self.p.type_of(s) {
            Type::Array(t) | Type::Pointer(t) if cls(t) == Cls::Handle => Some((**t).clone()),
            _ => None,
        }
    }

    /// A value kernel for `st`, or a gather of record handles; `None` for
    /// anything else.
    fn value_kernel(&mut self, kb: &mut Kb<'p>, st: &'p Stmt) -> io::Result<Option<()>> {
        use BinOp::*;
        let to = cls(&st.ty);
        let step = match &st.expr {
            Expr::Bin(op, x, y) => {
                let (ca, cb) = (self.atom_cls(x), self.atom_cls(y));
                let dbl = ca == Cls::Double || cb == Cls::Double;
                let num = if dbl { Cls::Double } else { Cls::Int };
                let from = match op {
                    Add | Sub | Mul => num,
                    Eq | Ne | Lt | Le | Gt | Ge => Cls::Bool,
                    _ => return Ok(None),
                };
                if from != to && (from, to) != (Cls::Bool, Cls::Int) {
                    return Ok(None);
                }
                let (Some(a), Some(b)) = (self.operand(kb, x, num)?, self.operand(kb, y, num)?)
                else {
                    return Ok(None);
                };
                let out = kb.cols;
                match op {
                    Add | Sub | Mul => arith!(*op, dbl, k => jit_scan::value(a, b, out, k)),
                    _ => {
                        compare!(*op, dbl, k => jit_scan::value(a, b, out, move |u, v| k(u, v) as u64))
                    }
                }
            }
            Expr::Un(UnOp::I2D | UnOp::L2D, x)
                if (self.atom_cls(x), to) == (Cls::Int, Cls::Double) =>
            {
                let Some(a) = self.operand(kb, x, Cls::Int)? else {
                    return Ok(None);
                };
                // One operand: the second is not read.
                let i2d = |u: u64, _| (u as i64 as f64).to_bits();
                Some(jit_scan::value(a, Arg::Word(G::Const(0)), kb.cols, i2d))
            }
            Expr::ArrayGet { arr, idx } if to == Cls::Handle => {
                let Some(elem) = self.outer_array(kb, arr) else {
                    return Ok(None);
                };
                let Some(at) = self.operand(kb, idx, Cls::Int)? else {
                    return Ok(None);
                };
                let out = kb.push(jit_scan::gather(self.raw(arr), at, kb.cols));
                kb.gathers.push((kb.steps.len() - 1, arr, idx, elem));
                kb.handles.push((st.sym, out, 0));
                return Ok(Some(()));
            }
            _ => return Ok(None),
        };
        let Some(step) = step else { return Ok(None) };
        let out = kb.push(step);
        kb.vals.push((st.sym, out));
        kb.kernels += 1;
        Ok(Some(()))
    }

    /// A get-or-insert at `arr(at)` with insert block `block`: checked
    /// now, compiled once the whole then-block passes.
    fn insert_kernel(
        &mut self,
        kb: &mut Kb<'p>,
        arr: &'p Atom,
        at: &'p Atom,
        block: &'p Block,
    ) -> io::Result<Option<()>> {
        let Some(elem) = self.outer_array(kb, arr) else {
            return Ok(None);
        };
        let Some(slot) = self.operand(kb, at, Cls::Int)? else {
            return Ok(None);
        };
        let Some(frame) = self.insert_reads(kb, block, arr, at) else {
            return Ok(None);
        };
        kb.inserts.push(Insert {
            step: kb.steps.len(),
            arr,
            at,
            slot,
            elem,
            block,
            frame,
        });
        kb.steps.push(None);
        Ok(Some(()))
    }

    /// The values `block` — the insert of a get-or-insert at `arr(at)` —
    /// reads, as `(frame slot, value column)` pairs to store before it
    /// runs; `None` unless it only allocates records, writes their fields
    /// and computes scalars, then stores one of them into `arr(at)`.
    fn insert_reads(
        &self,
        kb: &Kb<'p>,
        block: &Block,
        arr: &Atom,
        at: &Atom,
    ) -> Option<Vec<(usize, usize)>> {
        let [body @ .., last] = &block.stmts[..] else {
            return None;
        };
        let Expr::ArraySet {
            arr: a,
            idx,
            value: Atom::Sym(new),
        } = &last.expr
        else {
            return None;
        };
        let mut fresh = Vec::new();
        for st in body {
            match &st.expr {
                Expr::PoolAlloc { .. } | Expr::StructNew { .. } => fresh.push(st.sym),
                Expr::FieldSet {
                    obj: Atom::Sym(o), ..
                } if fresh.contains(o) => {}
                Expr::Atom(_) | Expr::Bin(..) | Expr::Un(..) => {}
                _ => return None,
            }
        }
        let mut ok = block.result == Atom::Unit && a == arr && idx == at && fresh.contains(new);
        let mut frame = Vec::new();
        for st in &block.stmts {
            (st.expr).for_each_atom(|x| {
                let Some(s) = x.as_sym() else { return };
                match kb.val(s) {
                    Some(c) => frame.push((slot(s), c)),
                    None => ok &= !self.uses.var[slot(s)] && !kb.then.iter().any(|t| t.sym == s),
                }
            });
        }
        frame.sort_unstable();
        frame.dedup();
        ok.then_some(frame)
    }

    /// A read-modify-write triple as one kernel: over a gathered record's
    /// field, or a fold into a variable. `None` unless the triple is in
    /// one numeric class end to end, its intermediates have no other use
    /// and nothing else in the block writes its field or variable.
    fn rmw_kernel(
        &mut self,
        kb: &mut Kb<'p>,
        (read, bin, op, v, swap): (&Stmt, &Stmt, BinOp, &Atom, bool),
    ) -> io::Result<Option<()>> {
        use BinOp::*;
        let dbl = cls(&read.ty) == Cls::Double || self.atom_cls(v) == Cls::Double;
        let num = if dbl { Cls::Double } else { Cls::Int };
        let once = |st: &Stmt| self.uses.count[slot(st.sym)] == 1;
        let legal = matches!(op, Add | Sub | Mul | Max)
            && cls(&read.ty) == num
            && cls(&bin.ty) == num
            && once(read)
            && once(bin);
        // What the triple writes, as [`Kb::written`] keys it, and where:
        // a handle column and a field, or a variable's slot.
        let (written, target) = match &read.expr {
            _ if !legal => return Ok(None),
            Expr::FieldGet { obj, sid, field } => {
                let h = obj
                    .as_sym()
                    .and_then(|h| kb.handles.iter().position(|e| e.0 == h));
                let num_field = cls(self.p.structs.field_type(*sid, *field)) == num;
                let Some(h) = h.filter(|_| num_field) else {
                    return Ok(None);
                };
                kb.handles[h].2 += 2;
                ((Some(*sid), *field), Ok((kb.handles[h].1, *field)))
            }
            Expr::ReadVar(x) if !kb.inside(*x) && cls(self.p.type_of(*x)) == num => {
                ((None, slot(*x)), Err(slot(*x)))
            }
            _ => return Ok(None),
        };
        if kb.written.contains(&written) {
            return Ok(None);
        }
        kb.written.push(written);
        let Some(v) = self.operand(kb, v, num)? else {
            return Ok(None);
        };
        kb.steps.push(match target {
            Ok((hs, f)) => arith!(op, dbl, k => jit_scan::rmw(hs, f, v, swap, k)),
            Err(var) => arith!(op, dbl, k => jit_scan::fold(var, v, swap, k)),
        });
        kb.kernels += 1;
        Ok(Some(()))
    }
}

// ---------------------------------------------------------------------
// Compiled program + backend registration
// ---------------------------------------------------------------------

/// A program compiled to threaded code: the closure tree plus what a run's
/// [`Rt`] is sized by — one frame slot per ANF symbol, the string
/// constants, the numbered columns.
pub struct JitProgram {
    body: Seq,
    frame_size: usize,
    consts: Vec<Arc<str>>,
    cols: ColCounts,
    scans: Vec<ChunkedLoop>,
    params: Vec<(usize, Cls)>,
}

/// Compile a fully-lowered program to threaded code. This is the whole
/// tier-up: well under a millisecond, no toolchain, no subprocess. A
/// program whose static types do not pin what an operator needs, or that
/// writes a base record, is `InvalidInput` naming the statement.
pub fn compile(p: &Program) -> io::Result<JitProgram> {
    let mut jc = Jc {
        p,
        uses: count_uses(p),
        inline: vec![None; p.sym_types.len()],
        nested: None,
        volatile: false,
        tables: Vec::new(),
        indexes: Vec::new(),
        rows: Vec::new(),
        cur: None,
        consts: vec!["".into()],
        bases: Vec::new(),
        cols: ColCounts::default(),
        scans: Vec::new(),
        params: Vec::new(),
    };
    jc.bind_tables()?;
    Ok(JitProgram {
        body: jc.seq(&p.body, Cls::Unit)?,
        frame_size: p.sym_types.len(),
        consts: jc.consts,
        cols: jc.cols,
        scans: jc.scans,
        params: jc.params,
    })
}

impl JitProgram {
    /// The loops that run as chunked scans, outer before inner.
    pub fn chunked_loops(&self) -> &[ChunkedLoop] {
        &self.scans
    }

    /// Execute with positional parameter bindings and an optional absolute
    /// deadline; on interruption the partial output is discarded. Returns
    /// the captured rows, and the in-query time if the program ran its
    /// `TimerStart`/`TimerStop` instrumentation. Every `LoadParam` needs a
    /// binding its declared type takes — the executable checks that
    /// before it calls this.
    pub fn run_bound(
        &self,
        db: &Snapshot,
        params: &[Value],
        deadline: Option<Instant>,
    ) -> Result<(String, Option<f64>), Interrupted> {
        let mut rt = Rt::new(self.frame_size, &self.consts, self.cols, db);
        rt.params = (params.iter().enumerate())
            .map(|(i, v)| {
                let to = self.params.iter().find(|(j, _)| *j == i).map(|&(_, c)| c);
                match (v, to) {
                    (Value::Int(v), Some(Cls::Double)) => (*v as f64).to_bits(),
                    (Value::Long(v), Some(Cls::Double)) => (*v as f64).to_bits(),
                    (Value::Int(v), _) => *v as i64 as u64,
                    (Value::Long(v), _) => *v as u64,
                    (Value::Double(v), _) => v.to_bits(),
                    (Value::Bool(b), _) => *b as u64,
                    (Value::Str(s), _) => rt.new_str(s.clone()),
                    (Value::Null, _) => 0,
                }
            })
            .collect();
        rt.deadline = deadline;
        self.body.run_unit(&mut rt);
        if rt.interrupted {
            Err(Interrupted)
        } else {
            Ok((rt.output, rt.query_ms))
        }
    }
}

/// The in-process closure-JIT as a backend: no toolchain, no artifact —
/// `build` is the sub-millisecond closure compile itself.
pub struct JitBackend;

impl Backend for JitBackend {
    fn name(&self) -> &'static str {
        "jit"
    }
    fn emit(&self, p: &Program, _schema: &Schema) -> String {
        dblab_ir::printer::print_program(p)
    }
    fn build(&self, input: BuildInput<'_>) -> io::Result<Box<dyn Executable>> {
        let t = Instant::now();
        let eval = Evaluator::Jit(compile(input.program)?);
        let exe = InProcessExecutable::new(eval, &input, t.elapsed());
        Ok(Box::new(exe))
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
    use dblab_ir::types::{FieldDef, StructDef, StructId};
    use dblab_ir::{IrBuilder, Level};
    use dblab_runtime::{Database, Table};
    use std::time::Duration;

    fn empty_db() -> Snapshot {
        Snapshot::from(Database {
            schema: dblab_catalog::Schema::default(),
            tables: vec![],
            dir: std::env::temp_dir(),
        })
    }

    /// `t(k, name, v, tag)` — four rows, built in memory, never written.
    fn small_db() -> Snapshot {
        table_db([
            (3, "carol".into(), 2.5, "red"),
            (1, "alice".into(), 9.0, "blue"),
            (2, "bob".into(), 4.25, "red"),
            (0, "dave".into(), 7.5, "green"),
        ])
    }

    /// `t` with `n` rows: `k = i % 3`, `name = "r{i}"`, `v = i / 2`, `tag`
    /// cycling red, blue, green.
    fn rows_db(n: usize) -> Snapshot {
        let tags = ["red", "blue", "green"];
        table_db((0..n).map(|i| ((i % 3) as i32, format!("r{i}"), i as f64 * 0.5, tags[i % 3])))
    }

    fn table_db(rows: impl IntoIterator<Item = (i32, String, f64, &'static str)>) -> Snapshot {
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
        for (k, name, v, tag) in rows {
            t.push_row(vec![
                Value::Int(k),
                Value::str(&name),
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
        let sid = b.structs.register(StructDef {
            name: "t".into(),
            fields: vec![
                field("k", Type::Int),
                field("name", Type::String),
                field("v", Type::Double),
                field("tag", Type::Int),
            ],
        });
        let table = b.load_table("t", sid, dblab_ir::expr::Layout::Columnar);
        (b, sid, table)
    }

    /// Both in-process executors over the same in-memory snapshot.
    fn jit_and_interp(b: IrBuilder, level: Level) -> (String, String) {
        let p = b.finish(Atom::Unit, level);
        let db = small_db();
        let got = compile(&p).expect("compile").run_bound(&db, &[], None);
        (got.expect("no deadline").0, dblab_interp::run(&p, &db))
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
        let (got, _) = jp.run_bound(&db, &[], None).unwrap();
        assert_eq!(got, dblab_interp::run(&p, &db));
        assert_eq!(got, "10\n");
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
        let (got, _) = compile(&p).unwrap().run_bound(&db, &[], None).unwrap();
        assert_eq!(got, "1 2 3 ");
        assert_eq!(got, dblab_interp::run(&p, &db));
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
        let (got, _) = jp
            .run_bound(&db, &[Value::Int(40), Value::Int(2)], None)
            .unwrap();
        assert_eq!(got, "42\n");
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
        let map = b.hashmap_new(Type::Record(sid), Type::Int, 8);
        let n = b.array_len(table.clone());
        // Twice over the table: the second pass must find every key.
        for _ in 0..2 {
            b.for_range(Atom::Int(0), n.clone(), |bb, i| {
                let row = bb.array_get(table.clone(), i);
                bb.hashmap_get_or_init(map.clone(), row, |_| Atom::Int(1));
            });
        }
        let size = b.decl_var(Atom::Int(0));
        b.hashmap_foreach(map, |bb, key, one| {
            let k = bb.field_get(key.clone(), sid, 0);
            let name = bb.field_get(key, sid, 1);
            bb.printf("%d|%s|%d\n", vec![k, name, one.clone()]);
            let n = bb.read_var(size);
            let n = bb.add(n, one);
            bb.assign(size, n);
        });
        let size = b.read_var(size);
        b.printf("%d\n", vec![size]);
        let (jit, interp) = jit_and_interp(b, Level::MapList);
        assert_eq!(jit, interp);
        assert!(jit.ends_with("\n4\n"), "{jit}");
    }

    #[test]
    fn base_rows_live_in_lists_arrays_and_multimaps() {
        let (mut b, sid, table) = with_table();
        let list = b.list_new(Type::Record(sid), None);
        let arr = b.array_new(Type::Record(sid), Atom::Int(4));
        let mm = b.multimap_new(Type::Int, Type::Record(sid), 8);
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

    fn field(name: &str, ty: Type) -> FieldDef {
        FieldDef {
            name: name.into(),
            ty,
        }
    }

    #[test]
    fn the_data_plane_is_send() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<JitProgram>();
        assert_send::<Rt<'static>>();
        assert_send::<crate::jit_rt::Arena>();
        assert_send::<crate::jit_rt::Objects>();
    }

    /// `-x` on `i64::MIN` wraps on both in-process tiers (debug builds
    /// check overflow, so a plain negation would panic here).
    #[test]
    fn integer_negation_wraps() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Long(i64::MIN));
        let x = b.read_var(v);
        let n = b.un(UnOp::Neg, x);
        let m = b.un(UnOp::Neg, Atom::Sym(v));
        b.printf("%ld %ld\n", vec![n, m]);
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        assert_eq!(jit, format!("{0} {0}\n", i64::MIN));
    }

    #[test]
    fn null_arena_records_and_base_rows_compare_as_handles() {
        let (mut b, sid, table) = with_table();
        let own = b.structs.register(StructDef {
            name: "own".into(),
            fields: vec![field("x", Type::Int)],
        });
        let null = |sid| Atom::Null(Box::new(Type::Record(sid)));
        let (r1, r2) = (
            b.struct_new(own, vec![Atom::Int(1)]),
            b.struct_new(own, vec![Atom::Int(1)]),
        );
        let row = b.array_get(table, Atom::Int(2));
        let shots = vec![
            b.eq(r1.clone(), null(own)),
            b.ne(r1.clone(), null(own)),
            b.eq(null(own), null(own)),
            // Two records equal by value are still two records.
            b.eq(r1.clone(), r2),
            b.eq(r1.clone(), r1),
            b.ne(row.clone(), null(sid)),
            b.eq(row.clone(), row),
        ];
        // A variable that is null, then an arena record, then null again.
        let var = b.decl_var(null(own));
        let probe = |b: &mut IrBuilder| {
            let cur = b.read_var(var);
            let is_null = b.eq(cur, null(own));
            b.printf("%d", vec![is_null]);
        };
        probe(&mut b);
        let fresh = b.struct_new(own, vec![Atom::Int(9)]);
        b.assign(var, fresh);
        probe(&mut b);
        b.assign(var, null(own));
        probe(&mut b);
        b.printf(" %d%d%d%d%d%d%d\n", shots);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let got = compile(&p).unwrap().run_bound(&small_db(), &[], None);
        assert_eq!(got.expect("no deadline").0, "101 0110111\n");
    }

    /// Records with a string field: through an arena array, sorted by a
    /// comparator that reads the strings, printed with `%s` — strings from
    /// a base column, a constant, `substr` and a dictionary decode alike.
    #[test]
    fn string_fields_round_trip_through_arrays_sort_and_printf() {
        let (mut b, sid, table) = with_table();
        let named = b.structs.register(StructDef {
            name: "named".into(),
            fields: vec![field("name", Type::String), field("v", Type::Double)],
        });
        let arr = b.array_new(Type::Record(named), Atom::Int(6));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(table.clone(), i.clone());
            let (name, v) = (bb.field_get(row.clone(), sid, 1), bb.field_get(row, sid, 2));
            let rec = bb.struct_new(named, vec![name, v]);
            bb.array_set(arr.clone(), i, rec);
        });
        let sub = b.prim(
            PrimOp::StrSubstr,
            vec!["xbanjo".into(), Atom::Int(2), Atom::Int(3)],
        );
        let rec = b.struct_new(named, vec![sub, Atom::Int(1)]);
        b.array_set(arr.clone(), Atom::Int(4), rec);
        let tag = b.dict("t__3".into(), DictOp::Decode, Atom::Int(1));
        let rec = b.struct_new(named, vec![tag, Atom::double(0.5)]);
        b.array_set(arr.clone(), Atom::Int(5), rec);
        b.sort_array(arr.clone(), Atom::Int(6), |bb, x, y| {
            let (nx, ny) = (bb.field_get(x, named, 0), bb.field_get(y, named, 0));
            bb.prim(PrimOp::StrCmp, vec![nx, ny])
        });
        b.for_range(Atom::Int(0), Atom::Int(6), |bb, i| {
            let rec = bb.array_get(arr.clone(), i);
            let (name, v) = (
                bb.field_get(rec.clone(), named, 0),
                bb.field_get(rec, named, 1),
            );
            bb.printf("%s/%.4f ", vec![name, v]);
        });
        let (jit, interp) = jit_and_interp(b, Level::ScaLite);
        assert_eq!(jit, interp);
        let want = "alice/9.0000 ban/1.0000 bob/4.2500 carol/2.5000 dave/7.5000 green/0.5000 ";
        assert_eq!(jit, want);
    }

    /// The hash-table specialization's shape: pool-allocated pairs pushed
    /// onto the front of a `next` chain held in a bucket array, then
    /// walked by a `while` over a variable until null.
    #[test]
    fn an_intrusive_chain_is_built_and_walked() {
        let mut b = IrBuilder::new();
        let pair = b.structs.register(StructDef {
            name: "Pair".into(),
            fields: vec![field("key", Type::Int), field("sum", Type::Double)],
        });
        // Self-referential: the `next` field names the type it is in.
        (b.structs.get_mut(pair).fields).push(field("next", Type::Record(pair)));
        let null = || Atom::Null(Box::new(Type::Record(pair)));
        let pool = b.pool_new(Type::Record(pair), Atom::Int(8));
        let buckets = b.array_new(Type::Record(pair), Atom::Int(1));
        b.for_range(Atom::Int(0), Atom::Int(5), |bb, i| {
            let p = bb.pool_alloc(pool.clone());
            bb.field_set(p.clone(), pair, 0, i.clone());
            // An `Int` into the `Double` field: converted where it is stored.
            bb.field_set(p.clone(), pair, 1, Atom::Int(0));
            let head = bb.array_get(buckets.clone(), Atom::Int(0));
            bb.field_set(p.clone(), pair, 2, head);
            bb.array_set(buckets.clone(), Atom::Int(0), p);
        });
        let head = b.array_get(buckets, Atom::Int(0));
        let cur = b.decl_var(head);
        b.while_loop(
            |bb| {
                let c = bb.read_var(cur);
                bb.ne(c, null())
            },
            |bb| {
                let c = bb.read_var(cur);
                let key = bb.field_get(c.clone(), pair, 0);
                let sum = bb.field_get(c.clone(), pair, 1);
                let half = bb.mul(key.clone(), Atom::double(0.5));
                let sum = bb.add(sum, half);
                bb.field_set(c.clone(), pair, 1, sum);
                let sum = bb.field_get(c.clone(), pair, 1);
                bb.printf("%d:%.4f ", vec![key, sum]);
                let next = bb.field_get(c, pair, 2);
                bb.assign(cur, next);
            },
        );
        let (jit, interp) = jit_and_interp(b, Level::CScala);
        assert_eq!(jit, interp);
        assert_eq!(jit, "4:2.0000 3:1.5000 2:1.0000 1:0.5000 0:0.0000 ");
    }

    /// The level-2 aggregation shape: a record built per row is the key of
    /// a generic hash map, by value — two records with equal fields are
    /// one group, and iteration follows the interpreter's key order.
    #[test]
    fn a_record_is_a_generic_hash_key_by_value() {
        let (mut b, sid, table) = with_table();
        let key = b.structs.register(StructDef {
            name: "key".into(),
            fields: vec![field("tag", Type::Int), field("big", Type::Bool)],
        });
        let map = b.hashmap_new(Type::Record(key), Type::Double, 8);
        let sums = b.array_new(Type::Double, Atom::Int(1));
        b.for_range(Atom::Int(0), Atom::Int(4), |bb, i| {
            let row = bb.array_get(table.clone(), i);
            let (tag, v) = (bb.field_get(row.clone(), sid, 3), bb.field_get(row, sid, 2));
            let big = bb.emit(
                Type::Bool,
                Expr::Bin(BinOp::Gt, v.clone(), Atom::double(3.0)),
            );
            let k = bb.struct_new(key, vec![tag, big]);
            let first = bb.hashmap_get_or_init(map.clone(), k, |_| Atom::double(100.0));
            let total = bb.array_get(sums.clone(), Atom::Int(0));
            let total = bb.add(total, first);
            let total = bb.add(total, v);
            bb.array_set(sums.clone(), Atom::Int(0), total);
        });
        let size = b.decl_var(Atom::Int(0));
        b.hashmap_foreach(map, |bb, k, v| {
            let (tag, big) = (bb.field_get(k.clone(), key, 0), bb.field_get(k, key, 1));
            bb.printf("%d|%d|%.4f\n", vec![tag, big, v]);
            let n = bb.read_var(size);
            let n = bb.add(n, Atom::Int(1));
            bb.assign(size, n);
        });
        let size = b.read_var(size);
        let total = b.array_get(sums, Atom::Int(0));
        b.printf("%d %.4f\n", vec![size, total]);
        let (jit, interp) = jit_and_interp(b, Level::MapList);
        assert_eq!(jit, interp);
        // red/small (carol), blue/big, red/big (bob), green/big: 4 groups.
        assert!(jit.ends_with("\n4 423.2500\n"), "{jit}");
        assert_eq!(jit.lines().count(), 5);
    }

    #[test]
    fn a_deadline_expiring_mid_loop_discards_partial_output() {
        let mut b = IrBuilder::new();
        b.for_range(Atom::Int(0), Atom::Int(i32::MAX as i64), |bb, i| {
            bb.printf("%d\n", vec![i]);
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let jp = compile(&p).unwrap();
        // Not expired at entry: rows are printed before the clock runs out.
        let soon = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            jp.run_bound(&empty_db(), &[], Some(soon)),
            Err(Interrupted)
        ));
    }

    /// A program whose static types do not pin what an operator needs does
    /// not compile; the error names the statement the way a base-record
    /// write's does.
    #[test]
    fn an_unpinned_operand_is_refused_at_compile_time() {
        let refusal = |b: IrBuilder| {
            let p = b.finish(Atom::Unit, Level::ScaLite);
            let err = compile(&p).err().expect("must not compile");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            err.to_string()
        };
        let (mut b, _, table) = with_table();
        let row = b.array_get(table, Atom::Int(0));
        b.emit(Type::Int, Expr::Bin(BinOp::Add, row, Atom::Int(1)));
        let msg = refusal(b);
        assert!(msg.contains("x1 + 1"), "names the statement: {msg}");
        assert!(
            msg.contains("x1 is `Rec#0` where an integer is required"),
            "{msg}"
        );

        let mut b = IrBuilder::new();
        b.printf("%s\n", vec![Atom::Int(3)]);
        let msg = refusal(b);
        assert!(
            msg.contains("a `Int` constant where a string is required"),
            "{msg}"
        );

        let mut b = IrBuilder::new();
        b.printf("%x\n", vec![Atom::Int(3)]);
        assert!(refusal(b).contains("unsupported printf spec"));

        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::double(1.5));
        let x = b.read_var(v);
        b.emit(Type::Bool, Expr::Un(UnOp::Not, x));
        assert!(refusal(b).contains("is `Double` where a boolean is required"));
    }

    /// Generated TPC-H data at SF 0.002, for its schema and its rows.
    fn tpch_db() -> Database {
        dblab_tpch::generate(0.002, &std::env::temp_dir().join("dblab_jit_chunks"))
    }

    /// Statement `spec` (`"6?"`: the template of query 6 with its default
    /// bindings) lowered through the level-5 stack.
    fn level5(spec: &str, db: &Database) -> (Program, Vec<Value>) {
        use dblab_frontend::expr::Lit;
        let n = spec.trim_end_matches('?').parse().expect("query number");
        let q = match spec.ends_with('?') {
            true => dblab_tpch::queries::template(n).expect("template"),
            false => dblab_tpch::queries::query(n),
        };
        let cfg = dblab_transform::StackConfig::level5();
        let params = (q.params.iter())
            .map(|d| match d.default {
                Lit::Int(v) => Value::Int(v),
                Lit::Double(v) => Value::Double(v),
                ref other => panic!("{other:?}"),
            })
            .collect();
        (
            dblab_transform::compile(&q, &db.schema, &cfg).program,
            params,
        )
    }

    /// `jp`'s chunked loops as `table kernels+leaves`, `slots` for a
    /// null-skipping walk, then `/n` if the then-block runs as `n` kernels.
    fn loops_of(jp: &JitProgram) -> Vec<String> {
        let each = jp.chunked_loops().iter().map(|l| {
            let rows = l.table.as_deref().unwrap_or("slots");
            match l.then_kernels {
                0 => format!("{rows} {}+{}", l.kernels, l.leaves),
                n => format!("{rows} {}+{}/{n}", l.kernels, l.leaves),
            }
        });
        each.collect()
    }

    /// The level-5 programs of the five `steady_jit` statements: which
    /// loops run as chunked scans or null-skipping walks, and each prints
    /// what the interpreter prints.
    #[test]
    fn the_steady_jit_statements_scan_in_chunks() {
        let db = tpch_db();
        let snap = Snapshot::from(db.clone());
        let mut got = String::new();
        for spec in ["1?", "6?", "14?", "3", "12"] {
            let (p, params) = level5(spec, &db);
            let jp = compile(&p).expect("compile");
            let got_rows = jp.run_bound(&snap, &params, None).expect("no deadline").0;
            assert_eq!(
                got_rows,
                dblab_interp::run_bound(&p, &snap, &params, None).expect("run"),
                "tpch:{spec}"
            );
            for l in loops_of(&jp) {
                got += &format!("tpch:{spec} {l} ");
            }
        }
        // `slots`: the emission walks over Q1's dense table and over Q3's
        // and Q12's bucket arrays. Q1's then-block is 6 value kernels and 9
        // RMW kernels; Q6's a product and its fold.
        let want = "tpch:1? lineitem 1+0/15 tpch:1? slots 1+0 tpch:6? lineitem 5+0/2 \
                    tpch:14? lineitem 2+0 tpch:3 orders 1+0 tpch:3 lineitem 1+0 \
                    tpch:3 slots 1+0 tpch:12 lineitem 5+0 tpch:12 slots 1+0 ";
        assert_eq!(got, want);
    }

    /// Field `f` of a `t` row ([`with_table`]).
    fn col(b: &mut IrBuilder, row: &Atom, f: usize) -> Atom {
        let sid = b.structs.lookup("t").expect("with_table registered `t`");
        b.field_get(row.clone(), sid, f)
    }

    /// `for i <- 0 until t.length { row = t(i); if (pred(row, [t.length, i])) { then(row, i) } }`.
    fn scan_of(
        pred: impl FnOnce(&mut IrBuilder, Atom, [Atom; 2]) -> Atom,
        then: impl FnOnce(&mut IrBuilder, Atom, Atom),
    ) -> Program {
        let (mut b, _, table) = with_table();
        let n = b.array_len(table.clone());
        b.for_range(Atom::Int(0), n.clone(), |bb, i| {
            let row = bb.array_get(table.clone(), i.clone());
            let c = pred(bb, row.clone(), [n, i.clone()]);
            bb.if_then(c, |bb| then(bb, row, i));
        });
        b.finish(Atom::Unit, Level::ScaLite)
    }

    /// `p`'s chunked loops as `(kernels, leaves)` — none: the closure tree
    /// — and what it prints on `db`, or `None` if it was interrupted.
    fn chunked(
        p: &Program,
        db: &Snapshot,
        deadline: Option<Instant>,
    ) -> (Vec<(usize, usize)>, Option<String>) {
        let jp = compile(p).expect("compile");
        let loops = jp
            .chunked_loops()
            .iter()
            .map(|l| (l.kernels, l.leaves))
            .collect();
        (
            loops,
            jp.run_bound(db, &[], deadline).ok().map(|(out, _)| out),
        )
    }

    /// A scan printing each row `pred` keeps: chunked as `loops` says, and
    /// printing what the interpreter prints.
    fn scan(
        db: &Snapshot,
        loops: &[(usize, usize)],
        pred: impl FnOnce(&mut IrBuilder, Atom, [Atom; 2]) -> Atom,
    ) {
        let p = scan_of(pred, |b, row, i| {
            let name = col(b, &row, 1);
            b.printf("%d|%s\n", vec![i, name]);
        });
        let rows = db.table("t").len();
        let want = (loops.to_vec(), Some(dblab_interp::run(&p, db)));
        assert_eq!(chunked(&p, db, None), want, "{rows} rows");
    }

    #[test]
    fn chunked_scans_match_the_interpreter_at_every_chunk_edge() {
        for rows in [0, 1, 1023, 1024, 1025, 2049] {
            let db = rows_db(rows);
            // Kernels on every column kind against constants, an outer
            // slot and an invariant computed in the body; a string leaf.
            scan(&db, &[(4, 1)], |b, row, [n, _]| {
                let (k, v, name) = (col(b, &row, 0), col(b, &row, 2), col(b, &row, 1));
                let c1 = b.ge(v.clone(), Atom::double(3.0));
                let lim = b.mul(Atom::double(0.25), n.clone());
                let c2 = b.lt(v, lim);
                let c3 = b.ne(k.clone(), Atom::Int(1));
                let c4 = b.lt(k, n);
                let c5 = b.prim(PrimOp::StrEndsWith, vec![name, Atom::Str("1".into())]);
                [c2, c3, c4, c5].into_iter().fold(c1, |c, d| b.and(c, d))
            });
            // `|` whose sides overlap, `!`, column ⋈ column, a column on
            // the right; leaves: a mixed-width compare, the loop variable.
            scan(&db, &[(3, 2)], |b, row, [_, i]| {
                let (k, v, tag) = (col(b, &row, 0), col(b, &row, 2), col(b, &row, 3));
                let one = b.eq(k.clone(), Atom::Int(1));
                let big = b.gt(v.clone(), Atom::double(300.0));
                let c1 = b.or(one, big);
                let early = b.gt(Atom::double(100.0), v);
                let c2 = b.not(early);
                let c3 = b.le(tag, k.clone());
                let c4 = b.lt(k.clone(), Atom::double(1.5));
                let c5 = b.gt(i, k);
                [c2, c3, c4, c5].into_iter().fold(c1, |c, d| b.and(c, d))
            });
        }
        let db = rows_db(1025);
        let v = |b: &mut IrBuilder, row: Atom| col(b, &row, 2);
        scan(&db, &[(1, 0)], |b, row, _| {
            let v = v(b, row);
            b.lt(v, Atom::double(0.0))
        });
        scan(&db, &[(1, 0)], |b, row, _| {
            let v = v(b, row);
            b.ge(v, Atom::double(0.0))
        });
        // The closure tree: a body with an effect ahead of its filter, and a
        // leaf reading a column stored for a loop in the then-block.
        scan(&db, &[], |b, row, _| {
            let k = col(b, &row, 0);
            b.printf("%d\n", vec![k.clone()]);
            b.ne(k, Atom::Int(1))
        });
        let (mut b, sid, table) = with_table();
        let n = b.array_len(table.clone());
        b.for_range(Atom::Int(0), n, |b, i| {
            let row = b.array_get(table.clone(), i);
            let k = b.field_get(row, sid, 0);
            let c = b.lt(k.clone(), Atom::double(1.5));
            b.if_then(c, |b| {
                b.for_range(Atom::Int(0), Atom::Int(1), |b, _| b.printf("%d\n", vec![k]))
            });
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let want = (vec![], Some(dblab_interp::run(&p, &db)));
        assert_eq!(chunked(&p, &db, None), want);
        // A leaf on a row through an index, in a loop over the range.
        let (mut b, sid, table) = with_table();
        let unique = b.load_index_unique("t", 0);
        b.for_range(Atom::Int(0), Atom::Int(4), |b, i| {
            let row = b.array_get(table.clone(), i.clone());
            let at = b.array_get(unique.clone(), i);
            let other = b.array_get(table.clone(), at);
            let (k, v) = (b.field_get(row, sid, 0), b.field_get(other, sid, 2));
            let (c1, c2) = (b.ne(k.clone(), Atom::Int(1)), b.gt(v, Atom::double(3.0)));
            let c = b.and(c1, c2);
            b.if_then(c, |b| b.printf("%d\n", vec![k]));
        });
        let (p, db) = (b.finish(Atom::Unit, Level::ScaLite), small_db());
        let want = (vec![(1, 1)], Some(dblab_interp::run(&p, &db)));
        assert_eq!(chunked(&p, &db, None), want);
    }

    /// `k != 0 & 6 / k > 3`: the division, a leaf, only sees the rows the
    /// first conjunct kept, so it never divides by zero — where the
    /// interpreter, which evaluates every statement, would.
    #[test]
    fn a_later_conjunct_never_sees_a_row_an_earlier_one_rejected() {
        let pred = |b: &mut IrBuilder, row, _| {
            let k = col(b, &row, 0);
            let nonzero = b.ne(k.clone(), Atom::Int(0));
            let q = b.div(Atom::Int(6), k);
            let big = b.gt(q, Atom::Int(3));
            b.and(nonzero, big)
        };
        let p = scan_of(pred, |b, _, i| b.printf("%d\n", vec![i]));
        // `k = i % 3`: `6 / k > 3` holds for `k = 1` only.
        let want: String = (1..2049).step_by(3).map(|i| format!("{i}\n")).collect();
        assert_eq!(
            chunked(&p, &rows_db(2049), None),
            (vec![(1, 1)], Some(want))
        );
    }

    /// `n` slots of `own(x)` records, slot `i` set where `i & 3 < fill`;
    /// then `for (i <- 0 until n) { e = slots(i); if (e != null) { then } }`
    /// — the test spelled `!(e == null)` when `negated` — `then` given `own`,
    /// `e`, `i`, the slot array and an array of `n` `Int`s.
    fn slot_walk(
        n: i64,
        fill: i64,
        negated: bool,
        then: impl FnOnce(&mut IrBuilder, StructId, [Atom; 4]),
    ) -> Program {
        let mut b = IrBuilder::new();
        let own = b.structs.register(StructDef {
            name: "own".into(),
            fields: vec![field("x", Type::Int)],
        });
        let null = Atom::Null(Box::new(Type::Record(own)));
        let slots = b.array_new(Type::Record(own), Atom::Int(n));
        let ints = b.array_new(Type::Int, Atom::Int(n));
        let fill_slots = slots.clone();
        b.for_range(Atom::Int(0), Atom::Int(n), |b, i| {
            let r = b.bin(BinOp::BitAnd, i.clone(), Atom::Int(3));
            let c = b.lt(r, Atom::Int(fill));
            b.if_then(c, |b| {
                let rec = b.struct_new(own, vec![i.clone()]);
                b.array_set(fill_slots, i, rec);
            });
        });
        b.for_range(Atom::Int(0), Atom::Int(n), |b, i| {
            let e = b.array_get(slots.clone(), i.clone());
            let c = match negated {
                true => {
                    let is_null = b.eq(e.clone(), null.clone());
                    b.not(is_null)
                }
                false => b.ne(null, e.clone()),
            };
            b.if_then(c, |b| then(b, own, [e, i, slots, ints]));
        });
        b.finish(Atom::Unit, Level::ScaLite)
    }

    /// A walk over an arena array's non-null slots runs in chunks — one
    /// kernel — and prints what the interpreter prints, at every chunk
    /// edge, with no, some and every slot null, while its then-block
    /// stores into an array of another type; storing into one of the slot
    /// array's own type puts it back on the closure tree.
    #[test]
    fn null_skipping_walks_match_the_interpreter_at_every_chunk_edge() {
        let db = empty_db();
        for n in [0, 1, 1023, 1024, 1025, 2049] {
            for (fill, negated) in [(0, false), (2, true), (2, false), (4, false)] {
                let p = slot_walk(n, fill, negated, |b, own, [e, i, _, ints]| {
                    let x = b.field_get(e, own, 0);
                    b.array_set(ints, i.clone(), x.clone());
                    b.printf("%d|%d\n", vec![i, x]);
                });
                let want = (vec![(1, 0)], Some(dblab_interp::run(&p, &db)));
                assert_eq!(chunked(&p, &db, None), want, "{n} slots, fill {fill}");
            }
        }
        // Moving each record to the mirror slot changes what a later slot
        // test sees: the row loop's order decides, so no chunks.
        let p = slot_walk(2049, 2, false, |b, _, [e, i, slots, _]| {
            let mirror = b.sub(Atom::Int(2048), i.clone());
            b.array_set(slots, mirror, e);
            b.printf("%d\n", vec![i]);
        });
        let want = (vec![], Some(dblab_interp::run(&p, &db)));
        assert_eq!(chunked(&p, &db, None), want);
    }

    #[test]
    fn a_deadline_expiring_in_a_null_skipping_walk_discards_partial_output() {
        let p = slot_walk(2049, 4, false, |b, _, [_, i, _, _]| {
            b.printf("%d\n", vec![i]);
            let total = b.decl_var(Atom::Int(0));
            b.for_range(Atom::Int(0), Atom::Int(100_000), |b, j| {
                let t = b.read_var(total);
                let t = b.add(t, j);
                b.assign(total, t);
            });
        });
        let db = empty_db();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(chunked(&p, &db, Some(past)), (vec![(1, 0)], None));
        let soon = Instant::now() + Duration::from_millis(20);
        assert_eq!(chunked(&p, &db, Some(soon)), (vec![(1, 0)], None));
    }

    /// A chunked loop checks the deadline per chunk, and stops once a loop
    /// in its then-block was interrupted; either way the output is dropped.
    #[test]
    fn a_deadline_expiring_in_a_chunked_loop_discards_partial_output() {
        let program = |inner: bool| {
            let pred = |b: &mut IrBuilder, row: Atom, _| {
                let k = col(b, &row, 0);
                b.ne(k, Atom::Int(1))
            };
            scan_of(pred, |b, _, i| {
                b.printf("%d\n", vec![i]);
                let total = b.decl_var(Atom::Int(0));
                let n = if inner { 100_000 } else { 0 };
                b.for_range(Atom::Int(0), Atom::Int(n), |b, j| {
                    let t = b.read_var(total);
                    let t = b.add(t, j);
                    b.assign(total, t);
                });
            })
        };
        let db = rows_db(2049);
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            chunked(&program(false), &db, Some(past)),
            (vec![(1, 0)], None)
        );
        let soon = Instant::now() + Duration::from_millis(20);
        assert_eq!(
            chunked(&program(true), &db, Some(soon)),
            (vec![(1, 0)], None)
        );
    }

    /// `p`'s chunked loops' then-kernel counts — a group scan's, then its
    /// emission walk's — and what it prints on `db`, `None` if it was
    /// interrupted.
    fn then_kernels(
        p: &Program,
        db: &Snapshot,
        deadline: Option<Instant>,
    ) -> (Vec<usize>, Option<String>) {
        let jp = compile(p).expect("compile");
        let loops = jp.chunked_loops().iter().map(|l| l.then_kernels).collect();
        (
            loops,
            jp.run_bound(db, &[], deadline).ok().map(|(out, _)| out),
        )
    }

    /// `h.f = op(h.f)` as the triple `a = h.f; b = op(a); h.f = b`.
    fn update(
        b: &mut IrBuilder,
        h: &Atom,
        (sid, f): (StructId, usize),
        op: impl FnOnce(&mut IrBuilder, Atom) -> Atom,
    ) {
        let a = b.field_get(h.clone(), sid, f);
        let new = op(b, a);
        b.field_set(h.clone(), sid, f, new);
    }

    /// What a group-by then-block ([`group_scan`]) is given: the builder,
    /// the `agg` record type, the row's `k` and `v`, the slot array and
    /// the `Long` variable `total`.
    type GroupThen<'a> = &'a dyn Fn(&mut IrBuilder, StructId, [Atom; 2], &Atom, Sym);

    /// `repeat` times, a scan of every row of `t` ([`with_table`]) whose
    /// then-block `then` groups into nine slots of `agg(key: Int, cnt:
    /// Long, sum: Double, neg: Double)` records; then each group — its
    /// doubles as their raw bits — and `total`.
    fn group_scan(repeat: i64, then: GroupThen<'_>) -> Program {
        let (mut b, sid, table) = with_table();
        let agg = b.structs.register(StructDef {
            name: "agg".into(),
            fields: vec![
                field("key", Type::Int),
                field("cnt", Type::Long),
                field("sum", Type::Double),
                field("neg", Type::Double),
            ],
        });
        let slots = b.array_new(Type::Record(agg), Atom::Int(9));
        let total = b.decl_var(Atom::Long(0));
        let n = b.array_len(table.clone());
        b.for_range(Atom::Int(0), Atom::Int(repeat), |b, _| {
            b.for_range(Atom::Int(0), n, |b, i| {
                let row = b.array_get(table, i);
                let (k, v) = (b.field_get(row.clone(), sid, 0), b.field_get(row, sid, 2));
                let c = b.ge(v.clone(), Atom::double(0.0));
                b.if_then(c, |b| then(b, agg, [k, v], &slots, total));
            })
        });
        b.for_range(Atom::Int(0), Atom::Int(9), |b, s| {
            let e = b.array_get(slots.clone(), s.clone());
            let c = b.ne(e.clone(), Atom::Null(Box::new(Type::Record(agg))));
            b.if_then(c, |b| {
                let [key, cnt, sum, neg] = [0, 1, 2, 3].map(|f| b.field_get(e.clone(), agg, f));
                let (sum, neg) = (b.un(UnOp::HashDouble, sum), b.un(UnOp::HashDouble, neg));
                b.printf("%d|%d|%ld|%ld|%ld\n", vec![s, key, cnt, sum, neg]);
            });
        });
        let t = b.read_var(total);
        b.printf("%ld\n", vec![t]);
        b.finish(Atom::Unit, Level::ScaLite)
    }

    /// The group slot `k + 3 * (v >= 350) + 3 * (v >= 600)`: slots 0–2 are
    /// filled from row 0, 3–5 from row 700 and 6–8 from row 1,200 — each
    /// inserted mid-chunk, then updated in that chunk.
    fn group_slot(b: &mut IrBuilder, [k, v]: &[Atom; 2]) -> Atom {
        let late = b.ge(v.clone(), Atom::double(350.0));
        let later = b.ge(v.clone(), Atom::double(600.0));
        let (late, later) = (b.mul(Atom::Int(3), late), b.mul(Atom::Int(3), later));
        let s = b.add(k.clone(), late);
        b.add(s, later)
    }

    /// `e = slots(s); if (e == null) { slots(s) = agg(k, 0, 0, 0) }`.
    fn get_or_insert(b: &mut IrBuilder, agg: StructId, k: &Atom, slots: &Atom, s: &Atom) {
        let e = b.array_get(slots.clone(), s.clone());
        let null = b.eq(e, Atom::Null(Box::new(Type::Record(agg))));
        b.if_then(null, |b| {
            let zero = [Atom::Long(0), Atom::double(0.0), Atom::double(0.0)];
            let r = b.struct_new(agg, [k.clone()].into_iter().chain(zero).collect());
            b.array_set(slots.clone(), s.clone(), r);
        });
    }

    /// Per row: `cnt += 1`, `sum += v * 1.1 + i2d(k)`, `neg -= v` on the
    /// row's group, and `total += k * 0x4000000000000001`, which wraps.
    fn group_by(b: &mut IrBuilder, agg: StructId, kv: [Atom; 2], slots: &Atom, total: Sym) {
        let s = group_slot(b, &kv);
        let [k, v] = kv;
        let w = b.mul(v.clone(), Atom::double(1.1));
        let kd = b.un(UnOp::I2D, k.clone());
        let w = b.add(w, kd);
        let big = b.mul(k.clone(), Atom::Long(0x4000_0000_0000_0001));
        get_or_insert(b, agg, &k, slots, &s);
        let h = b.array_get(slots.clone(), s);
        update(b, &h, (agg, 1), |b, a| b.add(a, Atom::Long(1)));
        update(b, &h, (agg, 2), |b, a| b.add(a, w));
        update(b, &h, (agg, 3), |b, a| b.sub(a, v));
        let t = b.read_var(total);
        let t = b.add(t, big);
        b.assign(total, t);
    }

    /// [`group_scan`] of [`group_by`] over `rows_db(rows)` in row order,
    /// in Rust.
    fn group_by_rows(rows: usize) -> String {
        let mut groups = [None; 9];
        let mut total = 0i64;
        for i in 0..rows {
            let (k, v) = ((i % 3) as i64, i as f64 * 0.5);
            let s = k + 3 * (v >= 350.0) as i64 + 3 * (v >= 600.0) as i64;
            let (_, cnt, sum, neg) = groups[s as usize].get_or_insert((k, 0i64, 0.0, 0.0));
            (*cnt, *sum, *neg) = (*cnt + 1, *sum + (v * 1.1 + k as f64), *neg - v);
            total = total.wrapping_add(k.wrapping_mul(0x4000_0000_0000_0001));
        }
        let each = groups.iter().enumerate().filter_map(|(s, g)| {
            let (k, cnt, sum, neg) = (*g)?;
            Some(format!(
                "{s}|{k}|{cnt}|{}|{}\n",
                sum.to_bits() as i64,
                neg.to_bits() as i64
            ))
        });
        each.collect::<String>() + &format!("{total}\n")
    }

    /// A dense group-by's then-block runs as 10 value kernels, 3 RMW
    /// kernels and a fold, and leaves every sum with the bits a row-order
    /// fold gives it — at every survivor count around a chunk edge.
    #[test]
    fn rmw_kernels_keep_row_order_at_every_chunk_edge() {
        let p = group_scan(1, &group_by);
        for rows in [0, 1, 1023, 1024, 1025, 2049] {
            let want = (vec![14, 0], Some(group_by_rows(rows)));
            assert_eq!(then_kernels(&p, &rows_db(rows), None), want, "{rows} rows");
        }
    }

    /// Then-blocks whose kernels would not see row order keep their
    /// closures per survivor, and print what the interpreter prints: (a)
    /// a field updated by two triples, (b) a value read off a field a
    /// triple writes, (c) a gather at a slot other than the insert's, (d)
    /// a loop or a `printf` in the then-block.
    #[test]
    fn then_blocks_out_of_row_order_keep_closures_in_chunked_scans() {
        let twice: GroupThen<'_> = &|b, agg, kv, slots, _| {
            let s = group_slot(b, &kv);
            get_or_insert(b, agg, &kv[0], slots, &s);
            let h = b.array_get(slots.clone(), s);
            update(b, &h, (agg, 1), |b, a| b.add(a, Atom::Long(1)));
            update(b, &h, (agg, 1), |b, a| b.mul(a, Atom::Long(2)));
        };
        let read_back: GroupThen<'_> = &|b, agg, kv, slots, total| {
            let s = group_slot(b, &kv);
            get_or_insert(b, agg, &kv[0], slots, &s);
            let h = b.array_get(slots.clone(), s);
            update(b, &h, (agg, 1), |b, a| b.add(a, Atom::Long(1)));
            let cnt = b.field_get(h, agg, 1);
            let t = b.read_var(total);
            let t = b.add(t, cnt);
            b.assign(total, t);
        };
        let elsewhere: GroupThen<'_> = &|b, agg, [k, v], slots, _| {
            let s = group_slot(b, &[k.clone(), v]);
            get_or_insert(b, agg, &k, slots, &s);
            let h = b.array_get(slots.clone(), k);
            update(b, &h, (agg, 1), |b, a| b.add(a, Atom::Long(1)));
        };
        let looping: GroupThen<'_> = &|b, agg, kv, slots, total| {
            group_by(b, agg, kv, slots, total);
            b.for_range(Atom::Int(0), Atom::Int(1), |_, _| {});
        };
        let printing: GroupThen<'_> = &|b, agg, kv, slots, total| {
            let k = kv[0].clone();
            group_by(b, agg, kv, slots, total);
            b.printf("%d\n", vec![k]);
        };
        let db = rows_db(2049);
        for (what, then) in [
            ("(a)", twice),
            ("(b)", read_back),
            ("(c)", elsewhere),
            ("(d) loop", looping),
            ("(d) printf", printing),
        ] {
            let p = group_scan(1, then);
            let want = (vec![0, 0], Some(dblab_interp::run(&p, &db)));
            assert_eq!(then_kernels(&p, &db, None), want, "{what}");
        }
    }

    /// A chunked scan whose then-block runs as kernels checks the deadline
    /// per chunk like any other; the partial output is dropped.
    #[test]
    fn a_deadline_expiring_in_a_chunk_of_rmw_kernels_discards_partial_output() {
        let db = rows_db(2049);
        let past = Instant::now() - Duration::from_millis(1);
        let p = group_scan(1, &group_by);
        assert_eq!(then_kernels(&p, &db, Some(past)), (vec![14, 0], None));
        let soon = Instant::now() + Duration::from_millis(20);
        let p = group_scan(1_000_000, &group_by);
        assert_eq!(then_kernels(&p, &db, Some(soon)), (vec![14, 0], None));
    }
}
