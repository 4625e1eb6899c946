//! # jit_scan — chunked selection-vector scans for the closure jit
//!
//! [`crate::jit::compile`] runs a filtered scan
//!
//! ```text
//! for (i <- lo until hi) { row = table(i) | table(index(i)); …; if (c₁ & c₂ & …) { then } }
//! ```
//!
//! [`CHUNK`] rows at a time when its condition reads nothing but base
//! columns of the loop's own rows, loop-invariant values and constants
//! (the recogniser is `Jc::chunked`). Per chunk: the row ids come from
//! the range or are gathered through the index; each top-level conjunct,
//! in IR order, narrows a selection vector of chunk offsets — as a column
//! kernel (`column ⋈ invariant`, `column ⋈ column`, and `&` / `|` / `!`
//! over those), or as a leaf that calls the conjunct's row getter for
//! each surviving row. A kernel reads its invariant operand once per
//! call, and is called only when some row reaches it, so a row sees
//! exactly the evaluations it would on the row path.
//!
//! Then the then-block runs over the survivors ([`Then`]): either its
//! closures once per survivor, in row order, or — when `Jc::then_kernels`
//! proves that gives the same result — as [`Step`]s, each over all
//! survivors in order: [`load`]s of the row columns it reads, [`value`]
//! kernels for its scalar arithmetic and comparisons, one [`insert`] per
//! get-or-insert of a group record (the insert's closures run for the
//! null slots only), a [`gather`] of the records' handles, and one
//! [`rmw`] kernel per updated field or [`fold`] per updated variable. A
//! field or variable has one writer in such a block, so it receives its
//! updates in row order and a double sum keeps its bits. Like
//! Copy-and-Patch's stencils, each kernel is one monomorphized loop per
//! operator, patched with its column numbers and invariant operands.
//!
//! The same chunk loop runs `for (i <- lo until hi) { e = arr(i); if (e != null)
//! { then } }` over an arena array (`Jc::non_null`): the chunk's ids are
//! the slots, one kernel ([`non_null`]) keeps the non-null ones, and the
//! then-block runs per survivor with `e` loaded at its head.

use crate::jit::{Seq, G};
use crate::jit_rt::{Col, Rt, BASE};

/// Rows per chunk.
pub(crate) const CHUNK: usize = 1024;

/// A column test: narrows a selection of chunk offsets, reading the
/// chunk's row ids and the snapshot's columns, never the frame.
pub(crate) type Kernel = Box<dyn Fn(&Rt<'_>, &[u32], &mut Vec<u32>) + Send + Sync>;

/// Keep the offsets `pass` accepts, in order, without a branch per row.
#[inline]
fn keep(sel: &mut Vec<u32>, mut pass: impl FnMut(usize) -> bool) {
    let mut n = 0;
    for i in 0..sel.len() {
        let k = sel[i];
        sel[n] = k;
        n += pass(k as usize) as usize;
    }
    sel.truncate(n);
}

/// The right side of a column test.
pub(crate) enum Rhs {
    /// An invariant word, read once per call.
    Word(G),
    /// A column of the same kind, at the same row.
    Col(Col),
}

/// `test(word of column a at the row, rhs)`, `test` being the row path's
/// word kernel for the comparison; `None` for strings or mixed kinds.
pub(crate) fn kernel(
    a: Col,
    rhs: Rhs,
    test: impl Fn(u64, u64) -> bool + Send + Sync + 'static,
) -> Option<Kernel> {
    macro_rules! kernel {
        ($cols:ident, $kind:ident, $a:expr, |$v:ident: $t:ty| $word:expr) => {{
            let (a, word) = ($a, |$v: $t| $word);
            let b = match rhs {
                Rhs::Word(s) => Err(s),
                Rhs::Col(Col::$kind(b)) => Ok(b),
                Rhs::Col(_) => return None,
            };
            Box::new(move |rt: &Rt<'_>, ids: &[u32], sel: &mut Vec<u32>| {
                let a = rt.cols.$cols[a];
                match &b {
                    Ok(b) => {
                        let b = rt.cols.$cols[*b];
                        keep(sel, |k| {
                            test(word(a[ids[k] as usize]), word(b[ids[k] as usize]))
                        })
                    }
                    Err(s) => {
                        let s = s.get(rt);
                        keep(sel, |k| test(word(a[ids[k] as usize]), s))
                    }
                }
            })
        }};
    }
    Some(match a {
        Col::I32(a) => kernel!(i32s, I32, a, |v: i32| v as i64 as u64),
        Col::I64(a) => kernel!(i64s, I64, a, |v: i64| v as u64),
        Col::F64(a) => kernel!(f64s, F64, a, |v: f64| v.to_bits()),
        Col::Str(_) => return None,
    })
}

/// Keep the offsets whose slot of array `arr` — read once per call — is
/// not null: the one kernel of a `Jc::non_null` loop. A
/// loaded table's rows are never null, but `Rt::elem` bounds them.
pub(crate) fn non_null(arr: G) -> Kernel {
    Box::new(move |rt: &Rt<'_>, ids: &[u32], sel: &mut Vec<u32>| {
        let h = arr.get(rt);
        if h & BASE == 0 {
            let words = rt.arena.elems(h);
            keep(sel, |k| words[ids[k] as usize] != 0)
        } else {
            keep(sel, |k| rt.elem(h, ids[k] as usize) != 0)
        }
    })
}

/// One conjunct of a chunked condition.
pub(crate) enum Pred {
    Kernel(Kernel),
    /// `&`: each narrows what the one before kept.
    All(Vec<Pred>),
    /// `|`: the right side sees only the rows the left side rejected.
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// No kernel: the conjunct's row getter, per surviving row.
    Leaf(G),
}

impl Pred {
    /// Narrow `sel`, offsets into the chunk whose row ids are `ids`; `at`
    /// is the loop variable's slot and its value at offset 0.
    fn narrow(&self, rt: &mut Rt<'_>, at: (usize, i64), ids: &[u32], sel: &mut Vec<u32>) {
        if sel.is_empty() {
            return;
        }
        match self {
            Pred::Kernel(k) => k(rt, ids, sel),
            Pred::All(ps) => ps.iter().for_each(|p| p.narrow(rt, at, ids, sel)),
            Pred::Or(a, b) => {
                let mut hit = mask(&a.kept(rt, at, ids, sel.clone()));
                let mut no = sel.clone();
                keep(&mut no, |k| !hit[k]);
                (b.kept(rt, at, ids, no).iter()).for_each(|&k| hit[k as usize] = true);
                keep(sel, |k| hit[k]);
            }
            Pred::Not(a) => {
                let hit = mask(&a.kept(rt, at, ids, sel.clone()));
                keep(sel, |k| !hit[k]);
            }
            Pred::Leaf(g) => keep(sel, |k| {
                rt.frame[at.0] = (at.1 + k as i64) as u64;
                g.get(rt) != 0
            }),
        }
    }

    fn kept(&self, rt: &mut Rt<'_>, at: (usize, i64), ids: &[u32], mut sel: Vec<u32>) -> Vec<u32> {
        self.narrow(rt, at, ids, &mut sel);
        sel
    }
}

/// The offsets in `sel`, as a mask over the chunk.
fn mask(sel: &[u32]) -> [bool; CHUNK] {
    let mut m = [false; CHUNK];
    sel.iter().for_each(|&k| m[k as usize] = true);
    m
}

/// A filtered scan loop compiled to chunks.
pub(crate) struct Scan {
    pub var: usize,
    pub lo: G,
    pub hi: G,
    /// The index view the row ids are gathered through; `None`: the
    /// range itself is the row ids.
    pub index: Option<G>,
    /// The condition: [`Pred::All`] of its top-level `&`-chain.
    pub filter: Pred,
    pub then: Then,
}

/// How a chunked loop runs its then-block over a chunk's survivors.
pub(crate) enum Then {
    /// The block's closures, once per survivor, with the loop variable set.
    Rows(Seq),
    /// Kernel steps, each over every survivor, in order.
    Kernels(Kernels),
}

/// A then-block as kernels: the steps, and how many value columns they
/// fill.
pub(crate) struct Kernels {
    pub steps: Vec<Step>,
    pub cols: usize,
}

/// One step of a then-block run as kernels.
pub(crate) type Step = Box<dyn Fn(&mut Rt<'_>, &mut Chunk<'_>) + Send + Sync>;

/// A chunk's survivors, as a then-block's kernels see them.
pub(crate) struct Chunk<'c> {
    /// The loop variable's slot and its value at offset 0.
    at: (usize, i64),
    /// The survivors' offsets into the chunk, in row order, and their rows.
    sel: &'c [u32],
    rows: &'c [u32],
    /// The value columns, [`CHUNK`] words apart: survivor `j`'s word of
    /// column `c` is `vals[c * CHUNK + j]`.
    vals: &'c mut [u64],
}

/// Column `c` of `vals` over `n` survivors.
fn col(vals: &[u64], c: usize, n: usize) -> &[u64] {
    &vals[c * CHUNK..][..n]
}

/// The columns before `out`, and `out` itself, over `n` survivors.
fn split(vals: &mut [u64], out: usize, n: usize) -> (&[u64], &mut [u64]) {
    let (done, rest) = vals.split_at_mut(out * CHUNK);
    (done, &mut rest[..n])
}

/// A kernel operand.
#[derive(Clone)]
pub(crate) enum Arg {
    /// An invariant word, read once per call.
    Word(G),
    /// A value column an earlier step filled.
    Val(usize),
}

/// Value column `out`: column `col` at each survivor's row, widened the
/// way the row path reads it — integers to an `i64`, or to a double's
/// bits if `dbl`. `None` for strings.
pub(crate) fn load(col: Col, dbl: bool, out: usize) -> Option<Step> {
    macro_rules! load {
        ($cols:ident, $c:expr, |$v:ident| $word:expr) => {{
            let c = $c;
            Box::new(move |rt: &mut Rt<'_>, ch: &mut Chunk<'_>| {
                let s = rt.cols.$cols[c];
                let (_, out) = split(ch.vals, out, ch.rows.len());
                for (o, &r) in out.iter_mut().zip(ch.rows) {
                    let $v = s[r as usize];
                    *o = $word;
                }
            })
        }};
    }
    Some(match (col, dbl) {
        (Col::I32(c), false) => load!(i32s, c, |v| v as i64 as u64),
        (Col::I32(c), true) => load!(i32s, c, |v| (v as f64).to_bits()),
        (Col::I64(c), false) => load!(i64s, c, |v| v as u64),
        (Col::I64(c), true) => load!(i64s, c, |v| (v as f64).to_bits()),
        (Col::F64(c), _) => load!(f64s, c, |v| v.to_bits()),
        (Col::Str(_), _) => return None,
    })
}

/// Value column `out`: `k(a, b)` per survivor, `k` being the row path's
/// word kernel for the operator.
pub(crate) fn value(
    a: Arg,
    b: Arg,
    out: usize,
    k: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
) -> Step {
    Box::new(move |rt, ch| {
        let n = ch.sel.len();
        let (done, out) = split(ch.vals, out, n);
        match (&a, &b) {
            (Arg::Val(x), Arg::Val(y)) => {
                let each = out.iter_mut().zip(col(done, *x, n)).zip(col(done, *y, n));
                each.for_each(|((o, &x), &y)| *o = k(x, y))
            }
            (Arg::Val(x), Arg::Word(y)) => {
                let y = y.get(rt);
                (out.iter_mut().zip(col(done, *x, n))).for_each(|(o, &x)| *o = k(x, y))
            }
            (Arg::Word(x), Arg::Val(y)) => {
                let x = x.get(rt);
                (out.iter_mut().zip(col(done, *y, n))).for_each(|(o, &y)| *o = k(x, y))
            }
            (Arg::Word(x), Arg::Word(y)) => out.fill(k(x.get(rt), y.get(rt))),
        }
    })
}

/// Value column `out`: element `slot` of array `arr` — read once per call
/// — per survivor: the handles of the records the [`rmw`] kernels update.
pub(crate) fn gather(arr: G, slot: Arg, out: usize) -> Step {
    Box::new(move |rt, ch| {
        let (n, h) = (ch.sel.len(), arr.get(rt));
        let (done, out) = split(ch.vals, out, n);
        let slots = match &slot {
            Arg::Val(s) => col(done, *s, n),
            Arg::Word(s) => return out.fill(rt.elem(h, s.get(rt) as usize)),
        };
        if h & BASE == 0 {
            let words = rt.arena.elems(h);
            (out.iter_mut().zip(slots)).for_each(|(o, &s)| *o = words[s as usize])
        } else {
            (out.iter_mut().zip(slots)).for_each(|(o, &s)| *o = rt.elem(h, s as usize))
        }
    })
}

/// Per survivor, in row order: if element `slot` of array `arr` — read
/// once per call — is null, run `insert`, which fills it, with the loop
/// variable and the `(frame slot, value column)` pairs of `frame` stored
/// first.
pub(crate) fn insert(arr: G, slot: Arg, frame: Vec<(usize, usize)>, insert: Seq) -> Step {
    Box::new(move |rt, ch| {
        let h = arr.get(rt);
        for (j, &k) in ch.sel.iter().enumerate() {
            let s = match &slot {
                Arg::Val(s) => ch.vals[s * CHUNK + j],
                Arg::Word(s) => s.get(rt),
            };
            if rt.elem(h, s as usize) == 0 {
                rt.frame[ch.at.0] = (ch.at.1 + k as i64) as u64;
                for &(slot, c) in &frame {
                    rt.frame[slot] = ch.vals[c * CHUNK + j];
                }
                insert.run_unit(rt);
            }
        }
    })
}

/// `h.f = h.f ⊕ v` per survivor, in row order, `h` from handle column
/// `hs`: `k(old, v)`, or `k(v, old)` if `swap`.
pub(crate) fn rmw(
    hs: usize,
    f: usize,
    v: Arg,
    swap: bool,
    k: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
) -> Step {
    Box::new(move |rt, ch| {
        let n = ch.sel.len();
        let hs = col(ch.vals, hs, n);
        let k = |old, v| if swap { k(v, old) } else { k(old, v) };
        match &v {
            Arg::Val(v) => rt
                .arena
                .update_each(f, hs.iter().zip(col(ch.vals, *v, n)), k),
            Arg::Word(v) => {
                let v = v.get(rt);
                rt.arena.update_each(f, hs.iter().map(|h| (h, &v)), k)
            }
        }
    })
}

/// `var = var ⊕ v` per survivor, in row order: `k(old, v)`, or `k(v, old)`
/// if `swap`.
pub(crate) fn fold(
    var: usize,
    v: Arg,
    swap: bool,
    k: impl Fn(u64, u64) -> u64 + Send + Sync + 'static,
) -> Step {
    Box::new(move |rt, ch| {
        let n = ch.sel.len();
        let k = |old, v| if swap { k(v, old) } else { k(old, v) };
        let old = rt.frame[var];
        rt.frame[var] = match &v {
            Arg::Val(v) => col(ch.vals, *v, n).iter().fold(old, |a, &v| k(a, v)),
            Arg::Word(v) => {
                let v = v.get(rt);
                (0..n).fold(old, |a, _| k(a, v))
            }
        };
    })
}

/// Row-id, selection, row and value buffers of a finished chunked loop,
/// for the next one to reuse.
#[derive(Default)]
pub(crate) struct Bufs {
    ids: Vec<u32>,
    sel: Vec<u32>,
    rows: Vec<u32>,
    vals: Vec<u64>,
}

impl Scan {
    pub fn run(&self, rt: &mut Rt<'_>) {
        let (lo, hi) = (self.lo.get(rt) as i64, self.hi.get(rt) as i64);
        let mut b = rt.sels.pop().unwrap_or_default();
        let mut base = lo;
        while base < hi {
            let n = (hi - base).min(CHUNK as i64);
            if rt.expired_by(n as u32) {
                break;
            }
            b.ids.clear();
            match &self.index {
                None => b.ids.extend((base..base + n).map(|r| r as u32)),
                Some(ix) => {
                    let ix = ix.get(rt);
                    b.ids
                        .extend((base..base + n).map(|i| rt.elem(ix, i as usize) as u32));
                }
            }
            b.sel.clear();
            b.sel.extend(0..n as u32);
            self.filter.narrow(rt, (self.var, base), &b.ids, &mut b.sel);
            match &self.then {
                Then::Rows(then) => {
                    for &k in &b.sel {
                        rt.frame[self.var] = (base + k as i64) as u64;
                        then.run_unit(rt);
                        if rt.interrupted {
                            break;
                        }
                    }
                }
                // No survivor, no step: an invariant operand is read only
                // when some row would read it.
                Then::Kernels(_) if b.sel.is_empty() => {}
                Then::Kernels(ks) => {
                    b.rows.clear();
                    b.rows.extend(b.sel.iter().map(|&k| b.ids[k as usize]));
                    b.vals.resize(ks.cols * CHUNK, 0);
                    let mut ch = Chunk {
                        at: (self.var, base),
                        sel: &b.sel,
                        rows: &b.rows,
                        vals: &mut b.vals,
                    };
                    ks.steps.iter().for_each(|step| step(rt, &mut ch));
                }
            }
            base += n;
        }
        rt.sels.push(b);
    }
}
