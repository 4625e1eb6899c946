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
//! each surviving row; then the unchanged then-block runs for each
//! surviving row, in row order. A kernel reads its invariant operand once
//! per call, and is called only when some row reaches it, so a row sees
//! exactly the evaluations it would on the row path.
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
    pub then: Seq,
}

impl Scan {
    pub fn run(&self, rt: &mut Rt<'_>) {
        let (lo, hi) = (self.lo.get(rt) as i64, self.hi.get(rt) as i64);
        let (mut ids, mut sel) = rt.sels.pop().unwrap_or_default();
        let mut base = lo;
        while base < hi {
            let n = (hi - base).min(CHUNK as i64);
            if rt.expired_by(n as u32) {
                break;
            }
            ids.clear();
            match &self.index {
                None => ids.extend((base..base + n).map(|r| r as u32)),
                Some(ix) => {
                    let ix = ix.get(rt);
                    ids.extend((base..base + n).map(|i| rt.elem(ix, i as usize) as u32));
                }
            }
            sel.clear();
            sel.extend(0..n as u32);
            self.filter.narrow(rt, (self.var, base), &ids, &mut sel);
            for &k in &sel {
                rt.frame[self.var] = (base + k as i64) as u64;
                self.then.run_unit(rt);
                if rt.interrupted {
                    break;
                }
            }
            base += n;
        }
        rt.sels.push((ids, sel));
    }
}
