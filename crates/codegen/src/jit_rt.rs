//! # jit_rt — runtime state for the in-process closure JIT
//!
//! The execution half of [`crate::jit`]: the dynamic value representation,
//! the numbered-slot frame, cooperative-deadline bookkeeping, and the
//! read-only views of base data (table rows, indexes, dictionaries) that
//! borrow the resident [`Snapshot`] in place. Semantics mirror
//! `dblab-interp` exactly — the JIT's conformance story is "same
//! observable behaviour as the interpreter, reached without an environment
//! hash lookup per variable access and without copying a single base row".

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dblab_ir::types::StructDef;
use dblab_ir::Type;
use dblab_runtime::snapshot::ColumnRef;
use dblab_runtime::{Snapshot, Value};

/// A dynamic runtime value. Records, arrays and lists the *query*
/// allocates share reference semantics through `Cells`, like the
/// interpreter's `V`; base data is never copied into that form. A loaded
/// table is a `Table` view, one of its records a copyable `Row` handle,
/// and a unique/CSR index an `Ints` view — all read-only, all reading the
/// snapshot's columns in place.
#[derive(Debug, Clone)]
pub enum JV {
    Unit,
    Null,
    B(bool),
    I(i64),
    D(f64),
    S(Arc<str>),
    Cells(Rc<RefCell<Vec<JV>>>),
    Map(Rc<RefCell<HashMap<Key, JV>>>),
    MMap(Rc<RefCell<HashMap<Key, Vec<JV>>>>),
    /// A base table: index into [`Rt::views`].
    Table(u32),
    /// A base-table record: `(view, row)`.
    Row(u32, u32),
    /// A shared unique-index / CSR array.
    Ints(Arc<[i64]>),
}

impl JV {
    #[inline]
    pub fn as_i(&self) -> i64 {
        match self {
            JV::I(v) => *v,
            JV::B(b) => *b as i64,
            other => panic!("expected int, got {other:?}"),
        }
    }
    #[inline]
    pub fn as_d(&self) -> f64 {
        match self {
            JV::D(v) => *v,
            JV::I(v) => *v as f64,
            other => panic!("expected double, got {other:?}"),
        }
    }
    #[inline]
    pub fn as_b(&self) -> bool {
        match self {
            JV::B(v) => *v,
            other => panic!("expected bool, got {other:?}"),
        }
    }
    #[inline]
    pub fn as_s(&self) -> Arc<str> {
        match self {
            JV::S(v) => v.clone(),
            other => panic!("expected string, got {other:?}"),
        }
    }
    #[inline]
    pub fn cells(&self) -> Rc<RefCell<Vec<JV>>> {
        match self {
            JV::Cells(c) => c.clone(),
            other => panic!("expected record/array/list, got {other:?}"),
        }
    }
    #[inline]
    pub fn map(&self) -> Rc<RefCell<HashMap<Key, JV>>> {
        match self {
            JV::Map(m) => m.clone(),
            other => panic!("expected hashmap, got {other:?}"),
        }
    }
    #[inline]
    pub fn mmap(&self) -> Rc<RefCell<HashMap<Key, Vec<JV>>>> {
        match self {
            JV::MMap(m) => m.clone(),
            other => panic!("expected multimap, got {other:?}"),
        }
    }
}

/// Hashable key form of a value (records flattened by value). The variant
/// shapes — and their derived `Debug` strings, which order hash-map
/// iteration — match the interpreter's `Key` so both tiers print identical
/// rows in identical order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    B(bool),
    I(i64),
    D(u64),
    S(Arc<str>),
    Tuple(Vec<Key>),
}

pub fn key_back(k: &Key) -> JV {
    match k {
        Key::B(b) => JV::B(*b),
        Key::I(i) => JV::I(*i),
        Key::D(bits) => JV::D(f64::from_bits(*bits)),
        Key::S(s) => JV::S(s.clone()),
        Key::Tuple(items) => JV::Cells(Rc::new(RefCell::new(items.iter().map(key_back).collect()))),
    }
}

pub fn zero_of(t: &Type) -> JV {
    match t {
        Type::Double => JV::D(0.0),
        Type::Bool => JV::B(false),
        Type::Int | Type::Long => JV::I(0),
        Type::String => JV::S("".into()),
        _ => JV::Null,
    }
}

pub fn jv_of_value(v: &Value) -> JV {
    match v {
        Value::Null => JV::Null,
        Value::Bool(b) => JV::B(*b),
        Value::Int(i) => JV::I(*i as i64),
        Value::Long(l) => JV::I(*l),
        Value::Double(d) => JV::D(*d),
        Value::Str(s) => JV::S(s.clone()),
    }
}

/// How many loop back-edges run between two wall-clock reads (same
/// amortization constant as the interpreter).
const FUEL: u32 = 256;

/// A loaded base table as the query's record type sees it: one borrowed
/// column per struct field (after field pruning and dictionary encoding).
pub struct TableView<'d> {
    cols: Vec<ColumnRef<'d>>,
    rows: u32,
}

impl TableView<'_> {
    #[inline]
    fn get(&self, field: usize, row: u32) -> JV {
        let row = row as usize;
        match self.cols[field] {
            ColumnRef::I32(c) => JV::I(c[row] as i64),
            ColumnRef::I64(c) => JV::I(c[row]),
            ColumnRef::F64(c) => JV::D(c[row]),
            ColumnRef::Str(c) => JV::S(c[row].clone()),
        }
    }
}

/// Per-execution state threaded through every compiled closure: the slot
/// frame, parameter bindings, the views this run opened over the resident
/// snapshot, captured output, and the cooperative-deadline counters.
pub struct Rt<'d> {
    /// Numbered variable slots — `Sym(n)` lives at `frame[n]`, assigned at
    /// compile time. No per-access environment lookups.
    pub frame: Vec<JV>,
    pub params: Vec<JV>,
    pub db: &'d Snapshot,
    /// One per executed `LoadTable`; `JV::Table`/`JV::Row` index into it.
    pub views: Vec<TableView<'d>>,
    pub output: String,
    pub deadline: Option<Instant>,
    pub fuel: u32,
    pub interrupted: bool,
    /// `TimerStart` / `TimerStop` honoured in-process: query time excluding
    /// the data-loading phase, like the generated native binaries report.
    pub timer_start: Option<Instant>,
    pub query_ms: Option<f64>,
}

/// The one message for every attempt to write through a base-data view.
/// [`crate::jit::compile`] rejects the statically evident case; this is
/// for a handle that reached a store through a container.
fn read_only(what: &str, v: &JV) -> ! {
    panic!("{what} on read-only base data {v:?}: the snapshot is shared and immutable")
}

impl<'d> Rt<'d> {
    pub fn new(frame_size: usize, db: &'d Snapshot, params: &[Value]) -> Rt<'d> {
        Rt {
            frame: vec![JV::Unit; frame_size],
            params: params.iter().map(jv_of_value).collect(),
            db,
            views: Vec::new(),
            output: String::new(),
            deadline: None,
            // The first back-edge reads the clock, so a deadline already in
            // the past interrupts deterministically before real work starts.
            fuel: 1,
            interrupted: false,
            timer_start: None,
            query_ms: None,
        }
    }

    /// Loop back-edge check: `true` once the deadline has passed. Every
    /// compiled loop consults this and breaks; the remaining straight-line
    /// closures still run (each is O(1)), so the program drains in bounded
    /// time and the caller discards the partial output.
    #[inline]
    pub fn expired(&mut self) -> bool {
        if self.interrupted {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.fuel -= 1;
        if self.fuel == 0 {
            self.fuel = FUEL;
            if Instant::now() >= deadline {
                self.interrupted = true;
            }
        }
        self.interrupted
    }

    // ---- base data ------------------------------------------------------

    /// `LoadTable`: open a view whose fields follow the (possibly pruned)
    /// struct, matched to the table's columns by name; a string attribute
    /// typed `Int` reads the shared dictionary-code column. Nothing is
    /// copied.
    pub fn load_table(&mut self, table: &str, def: &StructDef) -> JV {
        let t = self.db.table(table);
        let cols = (def.fields.iter())
            .map(|f| t.field_column(&f.name, f.ty == Type::Int))
            .collect();
        let rows = u32::try_from(t.len()).expect("row handles index rows with 32 bits");
        self.views.push(TableView { cols, rows });
        JV::Table(self.views.len() as u32 - 1)
    }

    /// Read field `f` of the record in slot `s` — a record the query
    /// allocated, or a base-row handle — without cloning the record.
    #[inline]
    pub fn field_with<R>(&self, s: usize, f: usize, k: impl FnOnce(&JV) -> R) -> R {
        match &self.frame[s] {
            JV::Cells(c) => k(&c.borrow()[f]),
            JV::Row(v, r) => k(&self.views[*v as usize].get(f, *r)),
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[inline]
    pub fn field(&self, s: usize, f: usize) -> JV {
        match &self.frame[s] {
            JV::Row(v, r) => self.views[*v as usize].get(f, *r),
            _ => self.field_with(s, f, JV::clone),
        }
    }

    /// Fan `(field, slot)` pairs of one record out into the frame under a
    /// single lookup of the record.
    #[inline]
    pub fn fields_into(&mut self, rec: &JV, fields: &[(usize, usize)]) {
        match rec {
            JV::Cells(c) => {
                let cells = c.borrow();
                for &(f, out) in fields {
                    self.frame[out] = cells[f].clone();
                }
            }
            JV::Row(v, r) => {
                let view = &self.views[*v as usize];
                for &(f, out) in fields {
                    self.frame[out] = view.get(f, *r);
                }
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    /// Read element `i` of the array in slot `s`: an array the query
    /// allocated, a base table (yielding a row handle) or an index view.
    #[inline]
    pub fn elem_with<R>(&self, s: usize, i: usize, k: impl FnOnce(&JV) -> R) -> R {
        match &self.frame[s] {
            JV::Cells(c) => k(&c.borrow()[i]),
            JV::Ints(a) => k(&JV::I(a[i])),
            JV::Table(v) => {
                assert!(
                    i < self.views[*v as usize].rows as usize,
                    "row {i} out of bounds"
                );
                k(&JV::Row(*v, i as u32))
            }
            other => panic!("expected array/list, got {other:?}"),
        }
    }

    #[inline]
    pub fn elem(&self, s: usize, i: usize) -> JV {
        self.elem_with(s, i, JV::clone)
    }

    /// Length of the array or list in slot `s`.
    pub fn len_of(&self, s: usize) -> usize {
        match &self.frame[s] {
            JV::Cells(c) => c.borrow().len(),
            JV::Ints(a) => a.len(),
            JV::Table(v) => self.views[*v as usize].rows as usize,
            other => panic!("expected array/list, got {other:?}"),
        }
    }

    /// The heap cells behind slot `s`, for in-place mutation and for the
    /// container operations only query-allocated values support. Borrowed
    /// in place: no value clone, no `Rc` bump.
    #[inline]
    pub fn cells_at(&self, s: usize, what: &str) -> &Rc<RefCell<Vec<JV>>> {
        match &self.frame[s] {
            JV::Cells(c) => c,
            base @ (JV::Table(_) | JV::Row(..) | JV::Ints(_)) => read_only(what, base),
            other => panic!("expected record/array/list, got {other:?}"),
        }
    }

    /// Hashable form of a value; records — base rows included — flatten
    /// by value.
    pub fn key_of(&self, v: &JV) -> Key {
        match v {
            JV::B(b) => Key::B(*b),
            JV::I(i) => Key::I(*i),
            JV::D(d) => Key::D(d.to_bits()),
            JV::S(s) => Key::S(s.clone()),
            JV::Cells(c) => Key::Tuple(c.borrow().iter().map(|x| self.key_of(x)).collect()),
            JV::Row(v, r) => {
                let view = &self.views[*v as usize];
                Key::Tuple(
                    (0..view.cols.len())
                        .map(|f| self.key_of(&view.get(f, *r)))
                        .collect(),
                )
            }
            other => panic!("unhashable key {other:?}"),
        }
    }
}

/// One precompiled segment of a printf format string: the parse happens
/// once at JIT-compile time, not once per emitted row.
#[derive(Debug, Clone)]
pub enum PfSeg {
    Lit(Arc<str>),
    /// `%d` / `%ld`
    Int,
    /// `%c`
    Char,
    /// `%s`
    Str,
    /// `%.4f`
    F4,
}

/// Split a printf format into literal and specifier segments. Supports the
/// specifiers the pipeline emits (`%d %ld %c %s %.4f %%`), like the
/// interpreter.
pub fn compile_printf(fmt: &str) -> Vec<PfSeg> {
    let mut segs = Vec::new();
    let mut lit = String::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            lit.push(c);
            continue;
        }
        let mut spec = String::new();
        for c2 in chars.by_ref() {
            spec.push(c2);
            if matches!(c2, 'd' | 'c' | 's' | 'f' | '%') {
                break;
            }
        }
        let seg = match spec.as_str() {
            "%" => {
                lit.push('%');
                continue;
            }
            "d" | "ld" => PfSeg::Int,
            "c" => PfSeg::Char,
            "s" => PfSeg::Str,
            ".4f" => PfSeg::F4,
            other => panic!("unsupported printf spec %{other}"),
        };
        if !lit.is_empty() {
            segs.push(PfSeg::Lit(std::mem::take(&mut lit).into()));
        }
        segs.push(seg);
    }
    if !lit.is_empty() {
        segs.push(PfSeg::Lit(lit.into()));
    }
    segs
}

use std::fmt::Write as _;

/// Render precompiled segments against evaluated arguments into `out`.
pub fn format_segs(segs: &[PfSeg], args: &[JV], out: &mut String) {
    let mut ai = 0;
    for seg in segs {
        match seg {
            PfSeg::Lit(s) => out.push_str(s),
            PfSeg::Int => {
                let _ = write!(out, "{}", args[ai].as_i());
                ai += 1;
            }
            PfSeg::Char => {
                out.push(args[ai].as_i() as u8 as char);
                ai += 1;
            }
            PfSeg::Str => {
                out.push_str(&args[ai].as_s());
                ai += 1;
            }
            PfSeg::F4 => {
                let _ = write!(out, "{:.4}", args[ai].as_d());
                ai += 1;
            }
        }
    }
}
