//! # jit_rt — runtime state for the in-process closure JIT
//!
//! The execution half of [`crate::jit`]. Every value a compiled program
//! touches is one untyped 64-bit *word*; what a word means is fixed per
//! frame slot, record field and array element by the IR's static types
//! when [`crate::jit::compile`] runs, so nothing here carries or checks a
//! tag per value:
//!
//! | static type | word |
//! |---|---|
//! | `Bool` | `0` / `1` |
//! | `Int`, `Long` | the `i64`, two's complement |
//! | `Double` | the `f64`'s bits |
//! | `String` | index into [`Rt`]'s string table, or [`BASE`]` \| column << 32 \| row`: a string column of the snapshot read in place |
//! | `Record`, `Pointer`, `Array` | `0` = null; [`ARENA`]` \| offset` of something the query allocated; [`BASE`]` \| view << 32 \| row` for a base-table record; [`BASE`]` \| view << 32` for a loaded table or index |
//! | `List`, `HashMap`, `MultiMap` | index + 1 into the [`Objects`] table |
//!
//! Everything the query allocates at C.Scala level lives in one bump
//! [`Arena`] of words (record = one word per field, array = length word +
//! elements) and is freed by dropping it; base data is never copied — a
//! row handle reads the resident [`Snapshot`]'s typed column slices, which
//! `LoadTable` binds to column numbers [`crate::jit::compile`] assigned.
//! Nothing is reference-counted per value, nothing is interior-mutable and
//! nothing leaves safe Rust, so an [`Rt`] is `Send`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dblab_runtime::snapshot::ColumnRef;
use dblab_runtime::Snapshot;

use crate::jit_scan::Bufs;

/// Handle bit: base data — a `(view, row)` record, a view (table or index
/// array), or a string read in place from a snapshot column.
pub const BASE: u64 = 1 << 63;
/// Handle bit: an [`Arena`] offset. Set on every arena handle so that
/// dereferencing null (`0`) or a base handle through the arena lands out
/// of bounds instead of on a neighbouring object.
pub const ARENA: u64 = 1 << 62;

/// Low 32 bits of a base handle: the row.
#[inline]
pub fn row_of(h: u64) -> usize {
    h as u32 as usize
}

/// The word of a string read in place: row `row` of string column `col`.
#[inline]
pub fn base_str(col: usize, row: usize) -> u64 {
    BASE | (col as u64) << 32 | row as u64
}

/// Bits 32..63 of a base handle: the view or string column.
#[inline]
fn view_of(h: u64) -> usize {
    ((h & !BASE) >> 32) as usize
}

/// The per-run bump allocator behind `PoolAlloc`, `StructNew` and
/// `ArrayNew`. Nothing is freed before the run ends.
#[derive(Default)]
pub struct Arena {
    words: Vec<u64>,
}

#[cold]
fn bad_handle(h: u64, what: &str) -> ! {
    if h == 0 {
        panic!("{what} through a null handle")
    } else if h & BASE != 0 {
        panic!("{what} on read-only base data: the snapshot is shared and immutable")
    } else {
        panic!("{what} through dangling handle {h:#x}")
    }
}

impl Arena {
    /// A zeroed record of `n` fields. Zero is every type's initial value:
    /// `false`, `0`, `0.0`, the empty string, null.
    #[inline]
    pub fn alloc(&mut self, n: usize) -> u64 {
        let at = self.words.len();
        self.words.resize(at + n, 0);
        ARENA | at as u64
    }

    /// A zeroed array of `n` elements behind its length word.
    pub fn alloc_array(&mut self, n: usize) -> u64 {
        let h = self.alloc(n + 1);
        self.words[(h ^ ARENA) as usize] = n as u64;
        h
    }

    /// Word index of field `f` of the record at `h` (for an array: `0` is
    /// its length, element `i` is field `i + 1`).
    #[inline]
    fn at(&self, h: u64, f: usize, what: &str) -> usize {
        let i = ((h ^ ARENA) as usize).wrapping_add(f);
        if i >= self.words.len() {
            bad_handle(h, what)
        }
        i
    }

    #[inline]
    pub fn get(&self, h: u64, f: usize) -> u64 {
        self.words[self.at(h, f, "read")]
    }

    #[inline]
    pub fn set(&mut self, h: u64, f: usize, v: u64) {
        let i = self.at(h, f, "write");
        self.words[i] = v;
    }

    /// Read-modify-write of field `f` of each record `h` of `each`, in
    /// order, to `k(old, v)`; every handle is checked.
    #[inline]
    pub fn update_each<'v>(
        &mut self,
        f: usize,
        each: impl Iterator<Item = (&'v u64, &'v u64)>,
        k: impl Fn(u64, u64) -> u64,
    ) {
        for (&h, &v) in each {
            let i = self.at(h, f, "write");
            self.words[i] = k(self.words[i], v);
        }
    }

    /// The elements of the array at `h`.
    pub fn elems(&self, h: u64) -> &[u64] {
        let at = self.at(h, 0, "read");
        &self.words[at + 1..at + 1 + self.words[at] as usize]
    }

    pub fn elems_mut(&mut self, h: u64) -> &mut [u64] {
        let at = self.at(h, 0, "write");
        let n = self.words[at] as usize;
        &mut self.words[at + 1..at + 1 + n]
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

/// How to flatten a word of some static type into a [`Key`]; built once
/// per hash operation by [`crate::jit::compile`].
#[derive(Debug, Clone)]
pub enum KeyShape {
    B,
    I,
    D,
    S,
    /// A record: per field, its shape and — for a base record type — the
    /// column a row handle reads it from.
    Rec(Vec<(KeyShape, Option<Col>)>),
}

/// One generic container of the levels above C.Scala. Only the
/// conformance runs of partial stacks reach these; the full stack has
/// lowered them all to arena records and arrays.
pub enum Obj {
    List(Vec<u64>),
    /// key → (the key word first inserted, value).
    Map(HashMap<Key, (u64, u64)>),
    MMap(HashMap<Key, Vec<u64>>),
}

/// The side table of [`Obj`]s; a handle is index + 1.
#[derive(Default)]
pub struct Objects(Vec<Obj>);

impl Objects {
    pub fn new_obj(&mut self, o: Obj) -> u64 {
        self.0.push(o);
        self.0.len() as u64
    }

    fn at(&mut self, h: u64) -> &mut Obj {
        let n = self.0.len();
        (self.0.get_mut((h as usize).wrapping_sub(1)))
            .unwrap_or_else(|| panic!("container handle {h} of {n}"))
    }

    pub fn list(&mut self, h: u64) -> &mut Vec<u64> {
        match self.at(h) {
            Obj::List(l) => l,
            _ => panic!("container {h} is not a list"),
        }
    }

    pub fn map(&mut self, h: u64) -> &mut HashMap<Key, (u64, u64)> {
        match self.at(h) {
            Obj::Map(m) => m,
            _ => panic!("container {h} is not a hash map"),
        }
    }

    pub fn mmap(&mut self, h: u64) -> &mut HashMap<Key, Vec<u64>> {
        match self.at(h) {
            Obj::MMap(m) => m,
            _ => panic!("container {h} is not a multimap"),
        }
    }
}

/// A compile-time column number: which of [`Cols`]' slice tables a base
/// record field reads, and at what index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Col {
    I32(usize),
    I64(usize),
    F64(usize),
    Str(usize),
}

/// What one `LoadTable` statement binds: the table, and per record field
/// its name, whether it reads the dictionary-code column, and its number.
#[derive(Debug, Clone)]
pub struct TableBinding {
    pub table: Arc<str>,
    pub fields: Vec<(Arc<str>, bool, Col)>,
}

/// How many columns of each kind a program numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColCounts {
    pub i32s: usize,
    pub i64s: usize,
    pub f64s: usize,
    pub strs: usize,
}

/// The snapshot's typed column slices, by compile-time column number;
/// empty until the `LoadTable` that binds them runs.
pub struct Cols<'d> {
    pub i32s: Vec<&'d [i32]>,
    pub i64s: Vec<&'d [i64]>,
    pub f64s: Vec<&'d [f64]>,
    pub strs: Vec<&'d [Arc<str>]>,
}

/// An array handle with [`BASE`] set names one of these.
enum View<'d> {
    Table { rows: u32 },
    Ints(&'d [i64]),
}

/// How many loop back-edges run between two wall-clock reads (same
/// amortization constant as the interpreter).
const FUEL: u32 = 256;

/// Per-execution state threaded through every compiled closure: the word
/// frame, the arena, strings and containers this run made, the views it
/// opened over the resident snapshot, captured output, and the
/// cooperative-deadline counters.
pub struct Rt<'d> {
    /// `Sym(n)` lives at `frame[n]`, read according to `sym_types[n]`.
    pub frame: Vec<u64>,
    pub arena: Arena,
    pub objs: Objects,
    /// The program's string constants (the empty string first, so a zeroed
    /// `String` word is `""`), then every string this run produced.
    strs: Vec<Arc<str>>,
    /// The run's parameter bindings, each a word of the class its
    /// `LoadParam` declares.
    pub params: Vec<u64>,
    pub db: &'d Snapshot,
    pub cols: Cols<'d>,
    views: Vec<View<'d>>,
    pub output: String,
    pub deadline: Option<Instant>,
    pub fuel: u32,
    pub interrupted: bool,
    /// `TimerStart` / `TimerStop` honoured in-process: query time excluding
    /// the data-loading phase, like the generated native binaries report.
    pub timer_start: Option<Instant>,
    pub query_ms: Option<f64>,
    /// Buffers of finished chunked scans, for the next one to reuse.
    pub(crate) sels: Vec<Bufs>,
}

impl<'d> Rt<'d> {
    pub fn new(
        frame_size: usize,
        consts: &[Arc<str>],
        cols: ColCounts,
        db: &'d Snapshot,
    ) -> Rt<'d> {
        Rt {
            frame: vec![0; frame_size],
            arena: Arena::default(),
            objs: Objects::default(),
            strs: consts.to_vec(),
            params: Vec::new(),
            db,
            cols: Cols {
                i32s: vec![&[]; cols.i32s],
                i64s: vec![&[]; cols.i64s],
                f64s: vec![&[]; cols.f64s],
                strs: vec![&[]; cols.strs],
            },
            views: Vec::new(),
            output: String::new(),
            deadline: None,
            // The first back-edge reads the clock, so a deadline already in
            // the past interrupts deterministically before real work starts.
            fuel: 1,
            interrupted: false,
            timer_start: None,
            query_ms: None,
            sels: Vec::new(),
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

    /// [`Rt::expired`] for `n ≥ 1` back-edges at once — a chunk of rows:
    /// the clock is read when they use up the fuel.
    pub fn expired_by(&mut self, n: u32) -> bool {
        self.fuel = self.fuel.saturating_sub(n - 1).max(1);
        self.expired()
    }

    // ---- strings --------------------------------------------------------

    #[inline]
    fn str_arc(&self, h: u64) -> &Arc<str> {
        if h & BASE != 0 {
            &self.cols.strs[view_of(h)][row_of(h)]
        } else {
            &self.strs[h as usize]
        }
    }

    #[inline]
    pub fn str_at(&self, h: u64) -> &str {
        self.str_arc(h)
    }

    /// Handle of a string this run produced.
    pub fn new_str(&mut self, s: Arc<str>) -> u64 {
        self.strs.push(s);
        self.strs.len() as u64 - 1
    }

    // ---- base data ------------------------------------------------------

    fn open(&mut self, v: View<'d>) -> u64 {
        self.views.push(v);
        BASE | (self.views.len() as u64 - 1) << 32
    }

    /// `LoadTable`: bind the record type's columns — matched to the
    /// table's by name; an encoded field reads the shared dictionary-code
    /// column — and open a view of the rows. Nothing is copied.
    pub fn load_table(&mut self, b: &TableBinding) -> u64 {
        let db: &'d Snapshot = self.db;
        let t = db.table(&b.table);
        for (name, encoded, col) in &b.fields {
            match (*col, t.field_column(name, *encoded)) {
                (Col::I32(c), ColumnRef::I32(s)) => self.cols.i32s[c] = s,
                (Col::I64(c), ColumnRef::I64(s)) => self.cols.i64s[c] = s,
                (Col::F64(c), ColumnRef::F64(s)) => self.cols.f64s[c] = s,
                (Col::Str(c), ColumnRef::Str(s)) => self.cols.strs[c] = s,
                (want, _) => panic!(
                    "{}.{name} is not stored the way the program's record type reads it ({want:?})",
                    b.table
                ),
            }
        }
        let rows = u32::try_from(t.len()).expect("ResidentData::resolve bounds table rows");
        self.open(View::Table { rows })
    }

    /// `LoadIndex*`: a view of one of the snapshot's shared index arrays.
    pub fn load_ints(&mut self, ints: &'d [i64]) -> u64 {
        self.open(View::Ints(ints))
    }

    /// Field `f` of record `h` by its column number — the generic path
    /// (key flattening); compiled `FieldGet`s index their slice directly.
    pub fn field(&self, h: u64, f: usize, col: Option<Col>) -> u64 {
        if h & BASE == 0 {
            return self.arena.get(h, f);
        }
        let r = row_of(h);
        match col.expect("row handle of a record type no LoadTable yields") {
            Col::I32(c) => self.cols.i32s[c][r] as i64 as u64,
            Col::I64(c) => self.cols.i64s[c][r] as u64,
            Col::F64(c) => self.cols.f64s[c][r].to_bits(),
            Col::Str(c) => base_str(c, r),
        }
    }

    /// Element `i` of array `h`: an arena array, a loaded table (yielding
    /// a row handle) or an index view.
    #[inline]
    pub fn elem(&self, h: u64, i: usize) -> u64 {
        if h & BASE == 0 {
            return self.arena.elems(h)[i];
        }
        match self.views[view_of(h)] {
            View::Table { rows } => {
                assert!(i < rows as usize, "row {i} out of bounds");
                h | i as u64
            }
            View::Ints(a) => a[i] as u64,
        }
    }

    pub fn len_of(&self, h: u64) -> usize {
        if h & BASE == 0 {
            return self.arena.elems(h).len();
        }
        match self.views[view_of(h)] {
            View::Table { rows } => rows as usize,
            View::Ints(a) => a.len(),
        }
    }

    /// Hashable form of word `w`; records — base rows included — flatten
    /// by value.
    pub fn key_of(&self, w: u64, shape: &KeyShape) -> Key {
        match shape {
            KeyShape::B => Key::B(w != 0),
            KeyShape::I => Key::I(w as i64),
            KeyShape::D => Key::D(w),
            KeyShape::S => Key::S(self.str_arc(w).clone()),
            KeyShape::Rec(fields) => Key::Tuple(
                (fields.iter().enumerate())
                    .map(|(f, (shape, col))| self.key_of(self.field(w, f, *col), shape))
                    .collect(),
            ),
        }
    }
}

/// One precompiled segment of a printf format string: the parse happens
/// once at JIT-compile time, not once per emitted row.
#[derive(Debug, Clone, PartialEq)]
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
/// interpreter; anything else is the `Err`.
pub fn compile_printf(fmt: &str) -> Result<Vec<PfSeg>, String> {
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
            other => return Err(format!("unsupported printf spec %{other}")),
        };
        if !lit.is_empty() {
            segs.push(PfSeg::Lit(std::mem::take(&mut lit).into()));
        }
        segs.push(seg);
    }
    if !lit.is_empty() {
        segs.push(PfSeg::Lit(lit.into()));
    }
    Ok(segs)
}

impl Rt<'_> {
    /// Render precompiled segments against evaluated argument words (one
    /// per non-literal segment, each in its specifier's representation)
    /// onto the captured output.
    pub fn printf(&mut self, segs: &[PfSeg], args: &[u64]) {
        let mut out = std::mem::take(&mut self.output);
        let mut args = args.iter();
        for seg in segs {
            let mut arg = || *args.next().expect("one argument per specifier");
            match seg {
                PfSeg::Lit(s) => out.push_str(s),
                PfSeg::Int => {
                    let _ = write!(out, "{}", arg() as i64);
                }
                PfSeg::Char => out.push(arg() as u8 as char),
                PfSeg::Str => out.push_str(self.str_at(arg())),
                PfSeg::F4 => {
                    let _ = write!(out, "{:.4}", f64::from_bits(arg()));
                }
            }
        }
        self.output = out;
    }
}
