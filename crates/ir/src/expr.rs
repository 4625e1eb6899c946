//! ANF expressions, statements, blocks and programs.
//!
//! The IR is in *administrative normal form* (paper §3.3): every operator
//! takes only [`Atom`]s (constants or symbols) as operands, and every
//! intermediate value is bound to a unique immutable [`Sym`]. Mutability is
//! modelled explicitly through [`Expr::DeclVar`] / [`Expr::Assign`] and the
//! data-structure mutation nodes, which keeps data-flow analysis trivial.

use std::sync::Arc;

use crate::types::{StructId, Type};

/// A unique IR symbol. Symbols are immutable single-assignment names; a
/// mutable variable is a symbol bound by [`Expr::DeclVar`] and accessed via
/// [`Expr::ReadVar`] / [`Expr::Assign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An ANF operand: a constant or a reference to a bound symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Atom {
    Sym(Sym),
    #[default]
    Unit,
    Bool(bool),
    /// 32-bit integer constant (stored widened; the IR type stays `Int`).
    Int(i64),
    /// 64-bit integer constant.
    Long(i64),
    /// `f64` constant stored as raw bits so that `Atom: Eq + Hash` (needed
    /// for hash-consing); use [`Atom::double`] / [`Atom::as_double`].
    Double(u64),
    Str(Arc<str>),
    /// A typed null pointer (C.Scala level).
    Null(Box<Type>),
}

impl Atom {
    pub fn double(v: f64) -> Atom {
        Atom::Double(v.to_bits())
    }
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Atom::Double(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Atom::Sym(s) => Some(*s),
            _ => None,
        }
    }
    pub fn is_const(&self) -> bool {
        !matches!(self, Atom::Sym(_))
    }
}

impl From<Sym> for Atom {
    fn from(s: Sym) -> Atom {
        Atom::Sym(s)
    }
}
impl From<i32> for Atom {
    fn from(v: i32) -> Atom {
        Atom::Int(v as i64)
    }
}
impl From<i64> for Atom {
    fn from(v: i64) -> Atom {
        Atom::Long(v)
    }
}
impl From<f64> for Atom {
    fn from(v: f64) -> Atom {
        Atom::double(v)
    }
}
impl From<bool> for Atom {
    fn from(v: bool) -> Atom {
        Atom::Bool(v)
    }
}
impl From<&str> for Atom {
    fn from(v: &str) -> Atom {
        Atom::Str(v.into())
    }
}

/// Binary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit boolean and/or. The fine-grained `&&` → `&` branch
    /// optimization (Appendix E) rewrites these to the `Bit*` forms.
    And,
    Or,
    BitAnd,
    BitOr,
    Max,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::BitAnd | BinOp::BitOr)
    }
}

/// Unary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    /// int -> double widening.
    I2D,
    /// long -> double widening.
    L2D,
    /// long -> int truncation (bucket indices after masking).
    L2I,
    /// `yyyymmdd / 10000` — extract the year of an encoded date.
    Year,
    /// Integer hash mixing (Fibonacci hashing), returns `Long`.
    HashInt,
    /// Double hash (bit-pattern based), returns `Long`.
    HashDouble,
}

/// The long tail of scalar primitives (mostly string operations, paper §5.3
/// Table 2, plus instrumentation intrinsics used by the generated `main`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    StrEq,
    StrNe,
    /// Three-way compare, like `strcmp`.
    StrCmp,
    StrStartsWith,
    StrEndsWith,
    StrContains,
    /// SQL LIKE with `%` wildcards; the pattern is the second operand and
    /// must be constant.
    StrLike,
    /// `substr(s, start1based, len)` — returns a fresh string.
    StrSubstr,
    /// String hash, returns `Long`.
    HashStr,
    /// Start the query-execution timer (excludes data loading, §7).
    TimerStart,
    /// Stop the timer and print `QUERY_TIME_MS: <ms>`.
    TimerStop,
    /// Print `PEAK_RSS_KB: <kb>` via `getrusage` (Figure 8 measurement).
    PrintRusage,
}

impl PrimOp {
    pub fn arity(self) -> usize {
        match self {
            PrimOp::StrEq
            | PrimOp::StrNe
            | PrimOp::StrCmp
            | PrimOp::StrStartsWith
            | PrimOp::StrEndsWith
            | PrimOp::StrContains
            | PrimOp::StrLike => 2,
            PrimOp::StrSubstr => 3,
            PrimOp::HashStr => 1,
            PrimOp::TimerStart | PrimOp::TimerStop | PrimOp::PrintRusage => 0,
        }
    }
}

/// String-dictionary intrinsics (§5.3). Dictionaries are built per string
/// attribute at data-loading time; these nodes run in the pre-computation
/// phase of the generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DictOp {
    /// Code of an exact string (or `-1` when absent) — `Int`.
    Lookup,
    /// First code whose string starts with the prefix — `Int`.
    RangeStart,
    /// Last code whose string starts with the prefix — `Int`.
    RangeEnd,
    /// Decode a code back to its string (used when printing results).
    Decode,
}

/// A right-hand side. Operands are always [`Atom`]s; nested computation
/// appears only inside the [`Block`]s of control-flow nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Identity — used by let-inlining and as a typed alias.
    Atom(Atom),
    Bin(BinOp, Atom, Atom),
    Un(UnOp, Atom),
    Prim(PrimOp, Vec<Atom>),
    Dict {
        dict: Arc<str>,
        op: DictOp,
        arg: Atom,
    },

    // ---- control flow -------------------------------------------------
    /// Value-producing conditional; both arms yield the block result.
    If {
        cond: Atom,
        then_b: Block,
        else_b: Block,
    },
    /// `for (var <- lo until hi) body` — ScaLite's bounded loop.
    ForRange {
        lo: Atom,
        hi: Atom,
        var: Sym,
        body: Block,
    },
    /// `while (cond-block) body`.
    While {
        cond: Block,
        body: Block,
    },

    // ---- mutable variables --------------------------------------------
    /// Declares a mutable variable; the statement's symbol *is* the
    /// variable.
    DeclVar {
        init: Atom,
    },
    ReadVar(Sym),
    Assign {
        var: Sym,
        value: Atom,
    },

    // ---- records --------------------------------------------------------
    StructNew {
        sid: StructId,
        args: Vec<Atom>,
        /// How many records this site allocates at most (App. D.1):
        /// memory hoisting sizes each record type's pool by the sum over
        /// its sites. [`DEFAULT_POOL`] where no estimate exists.
        pool: u64,
    },
    FieldGet {
        obj: Atom,
        sid: StructId,
        field: usize,
    },
    FieldSet {
        obj: Atom,
        sid: StructId,
        field: usize,
        value: Atom,
    },

    // ---- arrays (ScaLite) ------------------------------------------------
    /// Zero/null-initialised array of `len` elements.
    ArrayNew {
        elem: Type,
        len: Atom,
    },
    ArrayGet {
        arr: Atom,
        idx: Atom,
    },
    ArraySet {
        arr: Atom,
        idx: Atom,
        value: Atom,
    },
    ArrayLen(Atom),
    /// In-place sort with an inline three-way comparator over bound symbols
    /// `a`, `b`; unparses to `qsort` with a synthesised comparator function.
    SortArray {
        arr: Atom,
        len: Atom,
        a: Sym,
        b: Sym,
        cmp: Block,
    },

    // ---- lists (ScaLite[List] and above) ---------------------------------
    ListNew {
        elem: Type,
        /// Worst-case length from the bounded-loop analysis, when known:
        /// list specialization turns a bounded list into a pre-sized array.
        bound: Option<u64>,
    },
    ListAppend {
        list: Atom,
        value: Atom,
    },
    ListSize(Atom),
    ListForeach {
        list: Atom,
        var: Sym,
        body: Block,
    },

    // ---- hash tables (ScaLite[Map, List] only) -----------------------------
    HashMapNew {
        key: Type,
        value: Type,
        /// Expected-case entry count: sizes the bucket array.
        expected: u64,
        /// Keys known dense: the map may become a direct array.
        dense: Option<DenseKey>,
        /// The aggregates include a `min` or `max`: the records have no
        /// neutral initial value, so a dense array of them is not
        /// pre-filled (App. D.2).
        has_minmax: bool,
    },
    /// Aggregation workhorse: returns the value for `key`, running `init`
    /// to create it on first sight.
    HashMapGetOrInit {
        map: Atom,
        key: Atom,
        init: Block,
    },
    HashMapForeach {
        map: Atom,
        kvar: Sym,
        vvar: Sym,
        body: Block,
    },
    MultiMapNew {
        key: Type,
        value: Type,
        /// Expected-case entry count: sizes the bucket array.
        expected: u64,
    },
    MultiMapAdd {
        map: Atom,
        key: Atom,
        value: Atom,
    },
    /// Iterate all values bound to `key` (the paper's `get` + `match` +
    /// inner `for`, Figure 4d, collapsed into one node).
    MultiMapForeachAt {
        map: Atom,
        key: Atom,
        var: Sym,
        body: Block,
    },

    // ---- C.Scala ----------------------------------------------------------
    /// Memory pool of `cap` records (Appendix D.1).
    PoolNew {
        ty: Type,
        cap: Atom,
    },
    PoolAlloc {
        pool: Atom,
    },

    // ---- I/O intrinsics -----------------------------------------------------
    /// Load an input relation; yields `Array[Record(sid)]`. Expanded by the
    /// code generator into a `.tbl` loader honouring `layout` (App. C).
    LoadTable {
        table: Arc<str>,
        sid: StructId,
        layout: Layout,
    },
    /// Precomputed unique index (Fig. 7d): `Array[Int]` mapping each key of
    /// the (dense, single-column primary key) `field` to its row position.
    LoadIndexUnique {
        table: Arc<str>,
        field: usize,
    },
    /// CSR partition index (Fig. 7c): bucket start offsets per key value of
    /// `field` (length `max_key + 2`).
    LoadIndexStarts {
        table: Arc<str>,
        field: usize,
    },
    /// CSR partition index: row positions grouped by key (pairs with
    /// [`Expr::LoadIndexStarts`]).
    LoadIndexItems {
        table: Arc<str>,
        field: usize,
    },
    Printf {
        fmt: Arc<str>,
        args: Vec<Atom>,
    },

    // ---- prepared-query parameters ----------------------------------------
    /// Read the `idx`-th query parameter, bound per execution (argv for
    /// native binaries, a value slice for the interpreter). The parameter's
    /// *value* never appears in the IR — only this positional slot — so
    /// `program_hash` is automatically "modulo parameter values": every
    /// literal binding of one template shares one hash, one compile-cache
    /// entry and one build-cache artifact. The statement's declared type carries
    /// the parameter type.
    LoadParam {
        idx: usize,
    },
}

/// The operand match behind [`Expr::for_each_atom`] and
/// [`Expr::for_each_atom_mut`]: `$e` is an `&Expr` or an `&mut Expr`, and
/// the bindings follow it, so both visitors share one list of each
/// variant's operands.
macro_rules! visit_operands {
    ($e:expr, $f:ident) => {
        match $e {
            Expr::Atom(a) | Expr::Un(_, a) | Expr::ArrayLen(a) => $f(a),
            Expr::Bin(_, a, b) => {
                $f(a);
                $f(b);
            }
            Expr::Prim(_, args) | Expr::StructNew { args, .. } | Expr::Printf { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
            Expr::Dict { arg, .. } => $f(arg),
            Expr::If { cond, .. } => $f(cond),
            Expr::ForRange { lo, hi, .. } => {
                $f(lo);
                $f(hi);
            }
            Expr::DeclVar { init } => $f(init),
            Expr::Assign { value, .. } => $f(value),
            Expr::FieldGet { obj, .. } => $f(obj),
            Expr::FieldSet { obj, value, .. } => {
                $f(obj);
                $f(value);
            }
            Expr::ArrayNew { len, .. } => $f(len),
            Expr::ArrayGet { arr, idx } => {
                $f(arr);
                $f(idx);
            }
            Expr::ArraySet { arr, idx, value } => {
                $f(arr);
                $f(idx);
                $f(value);
            }
            Expr::SortArray { arr, len, .. } => {
                $f(arr);
                $f(len);
            }
            Expr::ListAppend { list, value } => {
                $f(list);
                $f(value);
            }
            Expr::ListSize(l) => $f(l),
            Expr::ListForeach { list, .. } => $f(list),
            Expr::HashMapGetOrInit { map, key, .. } | Expr::MultiMapForeachAt { map, key, .. } => {
                $f(map);
                $f(key);
            }
            Expr::HashMapForeach { map, .. } => $f(map),
            Expr::MultiMapAdd { map, key, value } => {
                $f(map);
                $f(key);
                $f(value);
            }
            Expr::PoolNew { cap, .. } => $f(cap),
            Expr::PoolAlloc { pool } => $f(pool),
            Expr::While { .. }
            | Expr::ReadVar(_)
            | Expr::ListNew { .. }
            | Expr::HashMapNew { .. }
            | Expr::MultiMapNew { .. }
            | Expr::LoadTable { .. }
            | Expr::LoadIndexUnique { .. }
            | Expr::LoadIndexStarts { .. }
            | Expr::LoadIndexItems { .. }
            | Expr::LoadParam { .. } => {}
        }
    };
}

impl Expr {
    /// All sub-blocks (control-flow bodies) of this node.
    pub fn blocks(&self) -> Vec<&Block> {
        match self {
            Expr::If { then_b, else_b, .. } => vec![then_b, else_b],
            Expr::ForRange { body, .. } => vec![body],
            Expr::While { cond, body } => vec![cond, body],
            Expr::SortArray { cmp, .. } => vec![cmp],
            Expr::ListForeach { body, .. } => vec![body],
            Expr::HashMapGetOrInit { init, .. } => vec![init],
            Expr::HashMapForeach { body, .. } => vec![body],
            Expr::MultiMapForeachAt { body, .. } => vec![body],
            _ => vec![],
        }
    }

    /// [`Expr::blocks`], mutably and in the same order.
    pub fn blocks_mut(&mut self) -> Vec<&mut Block> {
        match self {
            Expr::If { then_b, else_b, .. } => vec![then_b, else_b],
            Expr::While { cond, body } => vec![cond, body],
            Expr::ForRange { body, .. }
            | Expr::ListForeach { body, .. }
            | Expr::HashMapForeach { body, .. }
            | Expr::MultiMapForeachAt { body, .. } => vec![body],
            Expr::SortArray { cmp, .. } => vec![cmp],
            Expr::HashMapGetOrInit { init, .. } => vec![init],
            _ => vec![],
        }
    }

    /// Symbols bound *by* this node (loop variables etc.), scoped to its
    /// blocks.
    pub fn bound_syms(&self) -> Vec<Sym> {
        match self {
            Expr::ForRange { var, .. }
            | Expr::ListForeach { var, .. }
            | Expr::MultiMapForeachAt { var, .. } => vec![*var],
            Expr::HashMapForeach { kvar, vvar, .. } => vec![*kvar, *vvar],
            Expr::SortArray { a, b, .. } => vec![*a, *b],
            _ => vec![],
        }
    }

    /// Visit every operand atom of this node (not descending into blocks).
    pub fn for_each_atom<F: FnMut(&Atom)>(&self, mut f: F) {
        visit_operands!(self, f)
    }

    /// [`Expr::for_each_atom`], mutably and in the same order.
    pub fn for_each_atom_mut<F: FnMut(&mut Atom)>(&mut self, mut f: F) {
        visit_operands!(self, f)
    }

    /// Visit every symbol *used* by this node, including uses inside nested
    /// blocks (bound symbols are reported too; callers that need free
    /// variables subtract [`Expr::bound_syms`]).
    pub fn for_each_used_sym<F: FnMut(Sym)>(&self, mut f: F) {
        self.for_each_used_sym_impl(&mut f);
    }

    fn for_each_used_sym_impl(&self, f: &mut dyn FnMut(Sym)) {
        self.for_each_atom(|a| {
            if let Atom::Sym(s) = a {
                f(*s)
            }
        });
        match self {
            Expr::ReadVar(v) | Expr::Assign { var: v, .. } => f(*v),
            _ => {}
        }
        for b in self.blocks() {
            b.for_each_used_sym_impl(f);
        }
    }
}

/// A statement: `val sym: ty = expr`. Unit-typed effectful statements use a
/// (never-referenced) symbol as well, keeping the representation uniform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    pub sym: Sym,
    pub ty: Type,
    pub expr: Expr,
}

/// A sequence of statements with a result atom (the block's value).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub result: Atom,
}

impl Block {
    pub fn unit(stmts: Vec<Stmt>) -> Block {
        Block {
            stmts,
            result: Atom::Unit,
        }
    }

    pub(crate) fn for_each_used_sym_impl(&self, f: &mut dyn FnMut(Sym)) {
        for st in &self.stmts {
            st.expr.for_each_used_sym_impl(f);
        }
        if let Atom::Sym(s) = self.result {
            f(s);
        }
    }

    /// Count uses of every symbol in this block (recursively).
    pub fn use_counts(&self) -> std::collections::HashMap<Sym, usize> {
        let mut counts = std::collections::HashMap::new();
        self.for_each_used_sym_impl(&mut |s| *counts.entry(s).or_insert(0) += 1);
        counts
    }

    /// Total number of statements, including statements in nested blocks.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.for_each_stmt(&mut |_| n += 1);
        n
    }

    /// Visit every statement, nested blocks included, in program order: a
    /// statement before the statements of its blocks.
    pub fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for st in &self.stmts {
            f(st);
            for nested in st.expr.blocks() {
                nested.for_each_stmt(f);
            }
        }
    }
}

/// A complete IR program: struct definitions, per-symbol types and the
/// body block. `level` records the DSL the program is currently
/// expressed in; [`crate::level::validate`] checks the body against it.
#[derive(Debug, Clone)]
pub struct Program {
    pub structs: crate::types::StructRegistry,
    pub body: Block,
    /// `sym_types[s.0]` is the type of symbol `s`.
    pub sym_types: Vec<Type>,
    pub level: crate::level::Level,
}

impl Program {
    pub fn type_of(&self, s: Sym) -> &Type {
        &self.sym_types[s.0 as usize]
    }

    pub fn atom_type(&self, a: &Atom) -> Type {
        match a {
            Atom::Sym(s) => self.sym_types[s.0 as usize].clone(),
            Atom::Unit => Type::Unit,
            Atom::Bool(_) => Type::Bool,
            Atom::Int(_) => Type::Int,
            Atom::Long(_) => Type::Long,
            Atom::Double(_) => Type::Double,
            Atom::Str(_) => Type::String,
            Atom::Null(t) => (**t).clone(),
        }
    }
}

/// Pool capacity of a [`Expr::StructNew`] site with no cardinality
/// estimate; such a pool doubles on overflow (App. D.1).
pub const DEFAULT_POOL: u64 = 1024;

/// Keys of a [`Expr::HashMapNew`] are dense integers in `[0, max]`, which
/// enables its dense-array specialization. `composite`: the key packs
/// several group columns, so no single field of the stored record
/// equals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseKey {
    pub max: u64,
    pub composite: bool,
}

/// Storage layouts for arrays of records (paper Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Array of pointers to separately allocated records.
    Boxed,
    /// Struct-of-arrays (one array per field).
    Columnar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_conversions() {
        assert_eq!(Atom::from(3i32), Atom::Int(3));
        assert_eq!(Atom::from(true), Atom::Bool(true));
        assert_eq!(Atom::double(1.5).as_double(), Some(1.5));
        assert!(Atom::Int(1).is_const());
        assert!(!Atom::Sym(Sym(0)).is_const());
    }

    #[test]
    fn expr_atom_visitor() {
        let e = Expr::Bin(BinOp::Add, Atom::Sym(Sym(1)), Atom::Int(2));
        let mut seen = vec![];
        e.for_each_atom(|a| seen.push(a.clone()));
        assert_eq!(seen, vec![Atom::Sym(Sym(1)), Atom::Int(2)]);
    }

    #[test]
    fn used_syms_descend_into_blocks() {
        let body = Block {
            stmts: vec![Stmt {
                sym: Sym(5),
                ty: Type::Int,
                expr: Expr::Bin(BinOp::Add, Atom::Sym(Sym(3)), Atom::Sym(Sym(4))),
            }],
            result: Atom::Unit,
        };
        let loop_e = Expr::ForRange {
            lo: Atom::Int(0),
            hi: Atom::Sym(Sym(2)),
            var: Sym(3),
            body,
        };
        let mut used = vec![];
        loop_e.for_each_used_sym(|s| used.push(s));
        assert!(used.contains(&Sym(2)));
        assert!(used.contains(&Sym(3)));
        assert!(used.contains(&Sym(4)));
        assert_eq!(loop_e.bound_syms(), vec![Sym(3)]);
    }

    #[test]
    fn block_size_counts_nested() {
        let inner = Block::unit(vec![Stmt {
            sym: Sym(1),
            ty: Type::Unit,
            expr: Expr::Atom(Atom::Unit),
        }]);
        let outer = Block::unit(vec![Stmt {
            sym: Sym(2),
            ty: Type::Unit,
            expr: Expr::ForRange {
                lo: Atom::Int(0),
                hi: Atom::Int(10),
                var: Sym(0),
                body: inner,
            },
        }]);
        assert_eq!(outer.size(), 2);
    }
}
