//! Morsel-driven scan parallelization (DBLAB-style intra-query
//! parallelism; cf. the "morsel" scheme of Leis et al., SIGMOD'14).
//!
//! The pass rewrites top-level data-sized scan loops — `for (i <- 0 until
//! arr.length)` — into [`Expr::ParallelFor`] nodes, provided every side
//! effect of the loop body falls into one of two shapes it knows how to
//! privatize:
//!
//! * **Shape A — scalar sums.** An outer mutable variable only ever
//!   updated as `v = v + delta`. Each worker accumulates into a private
//!   copy initialised to zero; the merge adds the worker copies back into
//!   `v`. This covers the filter-aggregate queries (Q6-style).
//!
//! * **Shape B — privatized hash-table builds.** A bucket-array + memory-
//!   pool cluster (the residue of hash-table specialization + memory
//!   hoisting) that the body only mutates through fresh pool allocations,
//!   chain relinks on the bucket array, and associative self-reductions on
//!   fields of records *reached through* the bucket. Each worker builds a
//!   complete private table (same bucket count, so slot indices transfer
//!   without re-hashing); the merge walks every private chain and either
//!   relinks unseen keys into the shared table or folds the reduce fields
//!   of matching groups. This covers the group-by build loops (Q3-style).
//!   A *dense* slot array (records with no `next` field, one group per
//!   slot, inserted only under `if (slots(k) == null)`) is the same
//!   cluster without chains: the merge relinks a private record into a
//!   null shared slot or folds it into the one there (Q1's `Char` keys).
//!
//! Anything else — I/O, sorts, list/map operations that mutate shared
//! state, writes the analysis cannot prove private — vetoes the loop, and
//! it stays serial. A vetoed loop is never wrong, only not faster. In
//! particular a record field written through anything but this
//! iteration's own allocation must belong to the privatized cluster: a
//! dense table pre-filled before the loop (Appendix D.2) is updated with
//! no store into the array at all, so it has no cluster and vetoes.
//!
//! **Construction.** The analysis makes a plan per top-level scan loop;
//! a [`Rule`] run by [`run_rule`] then rebuilds the program through the
//! [`IrBuilder`], like every other pass. For a planned loop it binds each
//! worker copy with `bind`, maps the privatized variables, bucket array
//! and pools to those copies while the body is rebuilt, and maps them
//! back to the shared state for the merge, which it writes with the
//! builder's loops, `if`s and field accesses. No symbol is made by hand.
//! A program with no plan is returned as it came.
//!
//! With `threads <= 1` the pass is the identity (it is not even selected
//! by the registry), so serial pipelines are bit-for-bit what they were
//! before this pass existed.

use std::collections::{HashMap, HashSet};

use dblab_ir::expr::{Atom, Block, Expr, ParAcc, Stmt, Sym};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
use dblab_ir::types::{StructId, Type};
use dblab_ir::{BinOp, IrBuilder, PrimOp, Program};

/// Rewrite every eligible top-level scan loop of `p` into a morsel-driven
/// [`Expr::ParallelFor`] over `threads` workers.
pub fn apply(p: &Program, threads: usize) -> Program {
    if threads <= 1 {
        return p.clone();
    }
    // Defs over the whole body: candidate detection needs the defining
    // expression of loop bounds and of the outer arrays/pools the body
    // touches.
    let global_defs = collect_defs(&p.body);
    let mut plans = HashMap::new();
    for st in &p.body.stmts {
        let Expr::ForRange { hi, body, .. } = &st.expr else {
            continue;
        };
        // Only data-sized scans: the bound must be an `ArrayLen`. This is
        // what separates the hot per-tuple loops from small fixed-trip
        // loops (bucket collects, result copies) that are not worth — and
        // often not safe — to parallelize.
        let Some(h) = hi.as_sym() else { continue };
        if !matches!(global_defs.get(&h), Some(Expr::ArrayLen(_))) {
            continue;
        }
        if let Some(plan) = try_parallelize(p, &global_defs, body) {
            plans.insert(st.sym, plan);
        }
    }
    if plans.is_empty() {
        return p.clone();
    }
    run_rule(p, &mut Parallelize { threads, plans }, p.level)
}

// ---------------------------------------------------------------------
// analysis scaffolding
// ---------------------------------------------------------------------

/// Defining expression of every statement symbol, recursively.
fn collect_defs(b: &Block) -> HashMap<Sym, Expr> {
    let mut out = HashMap::new();
    b.for_each_stmt(&mut |st| {
        out.insert(st.sym, st.expr.clone());
    });
    out
}

// ---------------------------------------------------------------------
// the per-loop analysis
// ---------------------------------------------------------------------

/// Where a record pointer can originate, for the privacy analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Root {
    /// A pool allocation made *this iteration* — definitely fresh memory.
    Alloc,
    /// Private memory that may predate this iteration (reached through the
    /// privatized bucket array or through fields of private records).
    Priv,
    /// Anything the analysis cannot prove private (shared rows, outer
    /// state). Writing through this vetoes the loop.
    Other,
}

impl Root {
    fn join(self, other: Root) -> Root {
        use Root::*;
        match (self, other) {
            (Other, _) | (_, Other) => Other,
            (Priv, _) | (_, Priv) => Priv,
            (Alloc, Alloc) => Alloc,
        }
    }
}

struct LoopAnalysis<'a> {
    p: &'a Program,
    global_defs: &'a HashMap<Sym, Expr>,
    /// Defs inside the loop body only.
    defs: HashMap<Sym, Expr>,
    declared: HashSet<Sym>,
    uses: HashMap<Sym, usize>,
    stmts: Vec<&'a Stmt>,
    /// The one privatized bucket array (Shape B), if any.
    bucket: Option<Sym>,
    /// Outer pools the body allocates from (Shape B cluster).
    pools: Vec<Sym>,
    /// Memoized pointer-provenance results.
    roots: std::cell::RefCell<HashMap<Sym, Root>>,
}

impl<'a> LoopAnalysis<'a> {
    fn root_of_atom(&self, a: &Atom) -> Option<Root> {
        match a {
            Atom::Sym(s) => Some(self.root_of(*s)),
            Atom::Null(_) => None, // contributes nothing to provenance
            _ => Some(Root::Other),
        }
    }

    fn root_of(&self, s: Sym) -> Root {
        if let Some(r) = self.roots.borrow().get(&s) {
            return *r;
        }
        // Optimistic cycle handling: provenance through a cycle (a chain-
        // walk variable) contributes nothing on its own — any shared base
        // case still drives the join to `Other`.
        self.roots.borrow_mut().insert(s, Root::Priv);
        let r = self.root_of_uncached(s);
        self.roots.borrow_mut().insert(s, r);
        r
    }

    fn root_of_uncached(&self, s: Sym) -> Root {
        if !self.declared.contains(&s) {
            return Root::Other; // outer symbol: shared
        }
        let Some(def) = self.defs.get(&s) else {
            return Root::Other; // a binder (loop var / cursor): not a private pointer
        };
        match def {
            Expr::PoolAlloc { pool } => match pool.as_sym() {
                Some(pl) if self.pools.contains(&pl) => Root::Alloc,
                _ => Root::Other,
            },
            Expr::ArrayGet { arr, .. } => match (arr.as_sym(), self.bucket) {
                (Some(a), Some(b)) if a == b => Root::Priv,
                _ => Root::Other,
            },
            Expr::FieldGet { obj, sid, field } => {
                let obj_root = self
                    .root_of_atom(obj)
                    .unwrap_or(Root::Other /* fieldget on null would trap */);
                if obj_root == Root::Other {
                    return Root::Other;
                }
                if !matches!(self.p.structs.field_type(*sid, *field), Type::Record(_)) {
                    return Root::Other; // scalar loads have no provenance
                }
                // The field's contents are whatever the body ever stores
                // there: join the provenance of every such store. Reaching
                // through a field of a private record may yield a record
                // from an earlier iteration, hence at best `Priv`.
                let mut r: Option<Root> = None;
                for st in &self.stmts {
                    if let Expr::FieldSet {
                        sid: s2,
                        field: f2,
                        value,
                        ..
                    } = &st.expr
                    {
                        if s2 == sid && f2 == field {
                            if let Some(vr) = self.root_of_atom(value) {
                                r = Some(r.map_or(vr, |x| x.join(vr)));
                            }
                        }
                    }
                }
                match r {
                    Some(Root::Other) | None => Root::Other,
                    Some(_) => Root::Priv,
                }
            }
            Expr::ReadVar(v) => self.var_sources(*v),
            Expr::Atom(a) => self.root_of_atom(a).unwrap_or(Root::Alloc),
            Expr::If { then_b, else_b, .. } => {
                let t = self.root_of_atom(&then_b.result);
                let e = self.root_of_atom(&else_b.result);
                match (t, e) {
                    (None, None) => Root::Alloc,
                    (Some(r), None) | (None, Some(r)) => r,
                    (Some(a), Some(b)) => a.join(b),
                }
            }
            _ => Root::Other,
        }
    }

    /// Join the provenance of everything ever assigned to body-declared
    /// variable `v` (including its declaration).
    fn var_sources(&self, v: Sym) -> Root {
        let mut r: Option<Root> = None;
        let mut fold = |a: &Atom, slf: &Self| {
            if let Some(ar) = slf.root_of_atom(a) {
                r = Some(r.map_or(ar, |x| x.join(ar)));
            }
        };
        match self.defs.get(&v) {
            Some(Expr::DeclVar { init }) => fold(init, self),
            _ => return Root::Other,
        }
        for st in &self.stmts {
            if let Expr::Assign { var, value } = &st.expr {
                if *var == v {
                    fold(value, self);
                }
            }
        }
        r.unwrap_or(Root::Alloc) // only ever null: any deref would trap
    }
}

/// One Shape A sum over an outer variable.
struct ScalarRed {
    var: Sym,
    /// Worker-local initial value: zero of the variable's type.
    zero: Atom,
}

/// The Shape B cluster, fully resolved.
struct TableRed {
    bucket: Sym,
    bucket_len: Atom,
    /// Chain record type stored in the bucket.
    psid: StructId,
    /// Index of the intrusive `next` field on `psid`; `None` for a dense
    /// slot array, whose slot is the key.
    next_field: Option<usize>,
    /// Outer pools with their element type and capacity (each worker
    /// allocates from a private pool of the same shape).
    pools: Vec<(Sym, Type, Atom)>,
    /// `(sid, field) -> op` for every associative self-reduction the body
    /// performs on records reached through the bucket.
    reduce: HashMap<(StructId, usize), BinOp>,
    /// `true` for aggregation tables (the body probes for the key before
    /// inserting, so keys are unique per worker and the merge folds
    /// matches); `false` for multimap join builds (duplicate keys are
    /// data, the merge concatenates chains wholesale).
    keyed: bool,
}

/// What one scan loop privatizes: its Shape A reductions and, if it
/// builds a table, the Shape B cluster.
struct Plan {
    scalars: Vec<ScalarRed>,
    table: Option<TableRed>,
}

fn try_parallelize(p: &Program, global_defs: &HashMap<Sym, Expr>, body: &Block) -> Option<Plan> {
    let mut stmts = Vec::new();
    body.for_each_stmt(&mut |st| stmts.push(st));

    // ---- hard vetoes ---------------------------------------------------
    for st in &stmts {
        match &st.expr {
            Expr::Printf { .. }
            | Expr::Prim(PrimOp::TimerStart | PrimOp::TimerStop | PrimOp::PrintRusage, _)
            | Expr::LoadTable { .. }
            | Expr::LoadIndexUnique { .. }
            | Expr::LoadIndexStarts { .. }
            | Expr::LoadIndexItems { .. }
            | Expr::SortArray { .. }
            | Expr::StructNew { .. }
            | Expr::ListNew { .. }
            | Expr::ListAppend { .. }
            | Expr::HashMapNew { .. }
            | Expr::HashMapGetOrInit { .. }
            | Expr::MultiMapNew { .. }
            | Expr::MultiMapAdd { .. }
            | Expr::ParallelFor { .. } => return None,
            _ => {}
        }
    }

    // Symbols declared inside the body: statement symbols plus binders
    // (loop variables, foreach cursors).
    let mut declared = HashSet::new();
    body.for_each_stmt(&mut |st| {
        declared.insert(st.sym);
        declared.extend(st.expr.bound_syms());
    });
    let defs = collect_defs(body);
    // `use_counts` also counts `Assign` targets, but those are only ever
    // queried for outer variables, which the Shape A check never asks
    // about — the counts it does read (reduction intermediates) are exact.
    let uses = body.use_counts();

    // ---- collect the side-effect surface --------------------------------
    let mut outer_arrays: Vec<Sym> = Vec::new();
    let mut outer_pools: Vec<Sym> = Vec::new();
    let mut outer_vars: Vec<Sym> = Vec::new();
    for st in &stmts {
        match &st.expr {
            Expr::ArraySet { arr, .. } => {
                let a = arr.as_sym()?;
                if !declared.contains(&a) && !outer_arrays.contains(&a) {
                    outer_arrays.push(a);
                }
            }
            Expr::PoolAlloc { pool } => {
                let pl = pool.as_sym()?;
                if !declared.contains(&pl) && !outer_pools.contains(&pl) {
                    outer_pools.push(pl);
                }
            }
            Expr::Assign { var: v, .. } if !declared.contains(v) && !outer_vars.contains(v) => {
                outer_vars.push(*v);
            }
            _ => {}
        }
    }
    if outer_arrays.len() > 1 {
        return None;
    }
    let bucket = outer_arrays.first().copied();
    if bucket.is_none() && !outer_pools.is_empty() {
        // Pool allocations escaping without a bucket to relink through:
        // nothing to merge against.
        return None;
    }

    let analysis = LoopAnalysis {
        p,
        global_defs,
        defs,
        declared,
        uses,
        stmts,
        bucket,
        pools: outer_pools.clone(),
        roots: std::cell::RefCell::new(HashMap::new()),
    };

    // ---- Shape A: every written outer variable is a self-reduction ------
    let mut scalars = Vec::new();
    for v in outer_vars {
        scalars.push(scalar_reduction(&analysis, v)?);
    }

    // ---- Shape B: the bucket cluster, if present -------------------------
    let table = match bucket {
        Some(b) => Some(table_reduction(&analysis, body, b, &outer_pools)?),
        None => None,
    };
    // With no cluster the body allocates nothing (pools need a bucket,
    // `StructNew` vetoes above), so every record it writes predates
    // the loop: shared state written in place.
    let writes_field = |st: &&Stmt| matches!(st.expr, Expr::FieldSet { .. });
    if table.is_none() && analysis.stmts.iter().any(writes_field) {
        return None;
    }

    Some(Plan { scalars, table })
}

/// Check Shape A for outer variable `v` and describe its reduction.
fn scalar_reduction(a: &LoopAnalysis, v: Sym) -> Option<ScalarRed> {
    // Every assignment must be `v = g + d` where `g = readVar(v)` feeds
    // only this reduction.
    let mut consumed_reads: HashSet<Sym> = HashSet::new();
    for st in &a.stmts {
        let Expr::Assign { var, value } = &st.expr else {
            continue;
        };
        if *var != v {
            continue;
        }
        let s = value.as_sym()?;
        let Some(Expr::Bin(BinOp::Add, x, y)) = a.defs.get(&s) else {
            return None;
        };
        // Exactly one operand is the read-back of `v`.
        let is_read = |at: &Atom| -> Option<Sym> {
            let g = at.as_sym()?;
            match a.defs.get(&g) {
                Some(Expr::ReadVar(rv)) if *rv == v => Some(g),
                _ => None,
            }
        };
        let g = match (is_read(x), is_read(y)) {
            (Some(g), None) | (None, Some(g)) => g,
            _ => return None,
        };
        if a.uses.get(&g).copied().unwrap_or(0) != 1 || a.uses.get(&s).copied().unwrap_or(0) != 1 {
            return None;
        }
        consumed_reads.insert(g);
    }
    // No other reads of `v` may exist in the body: a read outside the
    // reduction would observe a partial, worker-local value.
    for st in &a.stmts {
        if let Expr::ReadVar(rv) = &st.expr {
            if *rv == v && !consumed_reads.contains(&st.sym) {
                return None;
            }
        }
    }
    let zero = match a.p.type_of(v) {
        Type::Int => Atom::Int(0),
        Type::Long => Atom::Long(0),
        Type::Double => Atom::double(0.0),
        _ => return None,
    };
    Some(ScalarRed { var: v, zero })
}

/// Check Shape B for the bucket array and describe the cluster.
fn table_reduction(a: &LoopAnalysis, body: &Block, bucket: Sym, pools: &[Sym]) -> Option<TableRed> {
    // The bucket must be a bucket array of chain records.
    let Some(Expr::ArrayNew {
        elem: Type::Record(psid),
        len: bucket_len,
    }) = a.global_defs.get(&bucket)
    else {
        return None;
    };
    let (psid, bucket_len) = (*psid, bucket_len.clone());
    // Exactly one intrusive next field (what makes the chain walkable),
    // or none: a dense slot array.
    let pdef = a.p.structs.get(psid);
    let next_fields: Vec<usize> = pdef
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| f.ty == Type::Record(psid))
        .map(|(i, _)| i)
        .collect();
    let next_field = match next_fields[..] {
        [f] => Some(f),
        [] => None,
        _ => return None,
    };
    // Each pool must be an outer PoolNew (copied per worker).
    let mut pool_defs = Vec::new();
    for pl in pools {
        let Some(Expr::PoolNew { ty, cap }) = a.global_defs.get(pl) else {
            return None;
        };
        pool_defs.push((*pl, ty.clone(), cap.clone()));
    }

    // Classify every write.
    let mut reduce: HashMap<(StructId, usize), BinOp> = HashMap::new();
    for st in &a.stmts {
        match &st.expr {
            Expr::ArraySet { arr, value, .. } => {
                // Only the bucket may be stored through, and only private
                // pointers may be linked into it. (A body-local scratch
                // array would be private too, but none of the generated
                // plans produce one — veto rather than reason about it.)
                if arr.as_sym() != Some(bucket) {
                    return None;
                }
                match a.root_of_atom(value) {
                    Some(Root::Alloc | Root::Priv) | None => {}
                    Some(Root::Other) => return None,
                }
            }
            Expr::FieldSet {
                obj,
                sid,
                field,
                value,
            } => {
                let o = obj.as_sym()?;
                match a.root_of(o) {
                    Root::Alloc => {
                        // Initialisation write on memory allocated this
                        // iteration: always private, any value shape.
                    }
                    Root::Priv => {
                        // May target a record from an earlier iteration:
                        // must be an associative self-reduction
                        // `o.f = o.f OP d` with `OP` one of `+`, `max`.
                        let s = value.as_sym()?;
                        let Some(Expr::Bin(op @ (BinOp::Add | BinOp::Max), x, y)) = a.defs.get(&s)
                        else {
                            return None;
                        };
                        let is_self_get = |at: &Atom| -> bool {
                            at.as_sym().is_some_and(|g| {
                                matches!(a.defs.get(&g),
                                    Some(Expr::FieldGet { obj: o2, sid: s2, field: f2 })
                                        if o2.as_sym() == Some(o) && s2 == sid && f2 == field)
                            })
                        };
                        match (is_self_get(x), is_self_get(y)) {
                            (true, false) | (false, true) => {}
                            _ => return None,
                        }
                        match reduce.insert((*sid, *field), *op) {
                            Some(prev) if prev != *op => return None,
                            _ => {}
                        }
                    }
                    Root::Other => return None,
                }
            }
            _ => {}
        }
    }

    // Reduce fields must start at the op's identity on freshly allocated
    // records, or the merge double-counts the seed. Verify every
    // fresh-init write to a reduce field stores that identity.
    for st in &a.stmts {
        if let Expr::FieldSet {
            obj,
            sid,
            field,
            value,
        } = &st.expr
        {
            let Some(op) = reduce.get(&(*sid, *field)) else {
                continue;
            };
            let o = obj.as_sym()?;
            if a.root_of(o) != Root::Alloc {
                continue;
            }
            let identity = *op == BinOp::Add
                && (matches!(value, Atom::Int(0) | Atom::Long(0))
                    || value.as_double() == Some(0.0));
            if !identity {
                return None;
            }
        }
    }

    // An empty reduce map means the cluster is a multimap join build:
    // duplicate keys are data and the merge concatenates chains. That is
    // only sound when the body never *probes* the bucket — the only reads
    // allowed are the ones feeding the relink's next-pointer store on a
    // fresh record (dedup-by-probe with no accumulator would be broken by
    // concatenation, so it vetoes).
    let keyed = !reduce.is_empty();
    if next_field.is_none() {
        // Dense: one record per key and worker, or the merge would fold a
        // record the serial loop overwrote.
        if !keyed || !inserts_once(&body.stmts, &a.defs, bucket, None) {
            return None;
        }
    } else if !keyed {
        for st in &a.stmts {
            if let Expr::ArrayGet { arr, .. } = &st.expr {
                if arr.as_sym() != Some(bucket) {
                    continue;
                }
                let feeds_relink_only = a.uses.get(&st.sym).copied().unwrap_or(0) == 1
                    && a.stmts.iter().any(|s2| {
                        matches!(&s2.expr,
                            Expr::FieldSet { sid, field, value, .. }
                                if *sid == psid
                                    && Some(*field) == next_field
                                    && value.as_sym() == Some(st.sym))
                    });
                if !feeds_relink_only {
                    return None;
                }
            }
        }
    }

    // Every reduce target must be a type the merge can reach: the chain
    // record itself, or a record stored in one of its fields.
    let reachable: HashSet<StructId> = std::iter::once(psid)
        .chain(pdef.fields.iter().filter_map(|f| match &f.ty {
            Type::Record(s) if *s != psid => Some(*s),
            _ => None,
        }))
        .collect();
    if reduce.keys().any(|(sid, _)| !reachable.contains(sid)) {
        return None;
    }
    // Key fields (compared in the chained keyed merge) must be
    // scalar-comparable.
    if let (Some(next_field), true) = (next_field, keyed) {
        for (i, f) in pdef.fields.iter().enumerate() {
            if i == next_field || reduce.contains_key(&(psid, i)) {
                continue;
            }
            match &f.ty {
                Type::Record(ksid) => {
                    let inner = a.p.structs.get(*ksid);
                    let is_value_rec = inner
                        .fields
                        .iter()
                        .enumerate()
                        .any(|(j, _)| reduce.contains_key(&(*ksid, j)));
                    if is_value_rec {
                        continue; // folded, not compared
                    }
                    if !inner.fields.iter().all(|kf| kf.ty.is_scalar()) {
                        return None;
                    }
                }
                t if t.is_scalar() => {}
                _ => return None,
            }
        }
    }

    Some(TableRed {
        bucket,
        bucket_len,
        psid,
        next_field,
        pools: pool_defs,
        reduce,
        keyed,
    })
}

/// Every store into dense slot array `bucket` in `stmts` sits directly
/// under `if (bucket(k) == null)`, `k` its own index (`guard`: the `k` of
/// the innermost such test around `stmts`) — hash-table specialization's
/// get-or-insert, which inserts each key once.
fn inserts_once(
    stmts: &[Stmt],
    defs: &HashMap<Sym, Expr>,
    bucket: Sym,
    guard: Option<&Atom>,
) -> bool {
    let def = |a: &Atom| a.as_sym().and_then(|s| defs.get(&s));
    let probe = |cond: &Atom| match def(cond) {
        Some(Expr::Bin(BinOp::Eq, x, Atom::Null(_)) | Expr::Bin(BinOp::Eq, Atom::Null(_), x)) => {
            match def(x) {
                Some(Expr::ArrayGet { arr, idx }) if arr.as_sym() == Some(bucket) => Some(idx),
                _ => None,
            }
        }
        _ => None,
    };
    stmts.iter().all(|st| match &st.expr {
        Expr::ArraySet { arr, idx, .. } if arr.as_sym() == Some(bucket) => guard == Some(idx),
        Expr::If {
            cond,
            then_b,
            else_b,
        } => {
            inserts_once(&then_b.stmts, defs, bucket, probe(cond).or(guard))
                && inserts_once(&else_b.stmts, defs, bucket, guard)
        }
        // A loop could store at one slot many times.
        e => (e.blocks().iter()).all(|b| inserts_once(&b.stmts, defs, bucket, None)),
    })
}

// ---------------------------------------------------------------------
// node construction
// ---------------------------------------------------------------------

/// The rewrite: every planned loop becomes a `ParallelFor`, everything
/// else is rebuilt as it was.
struct Parallelize {
    threads: usize,
    plans: HashMap<Sym, Plan>,
}

impl Rule for Parallelize {
    fn name(&self) -> &'static str {
        "parallelize-scans"
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, sym: Sym, _: &Type, expr: &Expr) -> Option<Atom> {
        let Plan { scalars, table } = self.plans.remove(&sym)?;
        let Expr::ForRange { lo, hi, var, body } = expr else {
            unreachable!("plans are made for scan loops")
        };
        let (lo, hi) = (rw.atom(lo), rw.atom(hi));

        // Each worker's copy of the privatized state: one accumulator per
        // reduced variable, then the bucket array and its pools. The body
        // is rebuilt with the shared symbols mapped to the copies.
        let mut accs = Vec::new();
        let mut restore = Vec::new();
        let mut privatize = |rw: &mut Rewriter<'_>, old: Sym, var: bool, init: Block| {
            let ty = rw.old.type_of(old).clone();
            let acc = rw.b.bind(ty.clone());
            restore.push((old, rw.atom(&Atom::Sym(old))));
            rw.map(old, Atom::Sym(acc));
            accs.push(ParAcc {
                sym: acc,
                ty,
                var,
                init,
            });
            Atom::Sym(acc)
        };
        let mut folds = Vec::new();
        for red in &scalars {
            let shared = rw.sym(red.var);
            let init = rw.b.block(|_| red.zero.clone());
            let acc = privatize(rw, red.var, true, init);
            folds.push((shared, acc));
        }
        let table = table.map(|t| {
            let (len, shared) = (rw.atom(&t.bucket_len), rw.atom(&Atom::Sym(t.bucket)));
            let init =
                rw.b.block(|b| b.array_new(Type::Record(t.psid), len.clone()));
            let private = privatize(rw, t.bucket, false, init);
            for (pool, ty, cap) in &t.pools {
                let cap = rw.atom(cap);
                let init = rw.b.block(|b| b.pool_new(ty.clone(), cap));
                privatize(rw, *pool, false, init);
            }
            (t, len, shared, private)
        });
        let var = rw.bind_fresh(*var, Type::Int);
        let body = rw.block(self, body);

        // The merge, and everything after the loop, works on the shared
        // state again.
        for (old, atom) in restore {
            rw.map(old, atom);
        }
        let merge = rw.b.block_unit(|b| {
            // v = v + acc
            for (v, acc) in folds {
                let cur = b.read_var(v);
                let next = b.add(cur, acc);
                b.assign(v, next);
            }
            if let Some((t, len, shared, private)) = table {
                table_merge(b, &t, len, shared, private);
            }
        });
        rw.b.emit_unit(Expr::ParallelFor {
            lo,
            hi,
            var,
            threads: self.threads,
            accs,
            body,
            merge,
        });
        Some(Atom::Unit)
    }
}

/// The Shape B merge: for every slot, walk the worker's private chain and
/// fold each record into the shared table — relink unseen keys, reduce
/// matched groups.
fn table_merge(b: &mut IrBuilder, t: &TableRed, len: Atom, shared: Atom, private: Atom) {
    let psid = t.psid;
    let null = Atom::Null(Box::new(Type::Record(psid)));
    let fields = b.structs.get(psid).fields.clone();
    b.for_range(Atom::Int(0), len, |b, slot| {
        let Some(nf) = t.next_field else {
            // Dense: if (pr != null) { sh = shared(slot); if (sh == null)
            // shared(slot) = pr else fold pr into sh }.
            let pr = b.array_get(private, slot.clone());
            let some = b.ne(pr.clone(), null.clone());
            b.if_then(some, |b| {
                let sh = b.array_get(shared.clone(), slot.clone());
                let miss = b.eq(sh.clone(), null);
                b.if_else(
                    miss,
                    |b| b.array_set(shared, slot, pr.clone()),
                    |b| fold_record(b, t, sh, pr.clone()),
                );
            });
            return;
        };

        if !t.keyed {
            // Multimap concatenation: splice each non-empty private chain in
            // front of the shared one (walk to its tail, point the tail at
            // the shared head, install the private head).
            let h = b.array_get(private, slot.clone());
            let some = b.ne(h.clone(), null.clone());
            b.if_then(some, |b| {
                let tail = b.decl_var(h.clone());
                b.while_loop(
                    |b| {
                        let tv = b.read_var(tail);
                        let next = b.field_get(tv, psid, nf);
                        b.ne(next, null)
                    },
                    |b| {
                        let tv = b.read_var(tail);
                        let next = b.field_get(tv, psid, nf);
                        b.assign(tail, next);
                    },
                );
                let tv = b.read_var(tail);
                let sh = b.array_get(shared.clone(), slot.clone());
                b.field_set(tv, psid, nf, sh);
                b.array_set(shared, slot, h);
            });
            return;
        }

        // Keyed: cur = private chain head; walk it.
        let head = b.array_get(private, slot.clone());
        let cur = b.decl_var(head);
        b.while_loop(
            |b| {
                let cv = b.read_var(cur);
                b.ne(cv, null.clone())
            },
            |b| {
                let pr = b.read_var(cur);
                // Save the private next pointer *before* any relink
                // clobbers it.
                let next = b.field_get(pr.clone(), psid, nf);
                // m = first shared-chain record with equal keys, else null.
                let m = b.decl_var(null.clone());
                let sh = b.array_get(shared.clone(), slot.clone());
                let walk = b.decl_var(sh);
                // The private record's keys (loop-invariant across the
                // shared-chain walk): scalar fields, and the fields of key
                // records — record fields that hold no reduce field.
                let keys: Vec<(usize, Atom)> = (fields.iter().enumerate())
                    .filter(|&(i, f)| {
                        i != nf
                            && !t.reduce.contains_key(&(psid, i))
                            && !matches!(f.ty, Type::Record(ksid) if t.reduces_into(ksid))
                    })
                    .map(|(i, _)| (i, b.field_get(pr.clone(), psid, i)))
                    .collect();
                // inner while (walk != null) { if (keys equal) m = walk;
                // walk = walk.next }
                b.while_loop(
                    |b| {
                        let wv = b.read_var(walk);
                        b.ne(wv, null.clone())
                    },
                    |b| {
                        let wp = b.read_var(walk);
                        // Key equality, AND-folded.
                        let mut eq: Option<Atom> = None;
                        let mut push_eq = |b: &mut IrBuilder, x: Atom, y: Atom| {
                            let e = if b.atom_type(&x) == Type::String {
                                b.prim(PrimOp::StrEq, vec![x, y])
                            } else {
                                b.eq(x, y)
                            };
                            eq = Some(match eq.take() {
                                None => e,
                                Some(prev) => b.bin(BinOp::BitAnd, prev, e),
                            });
                        };
                        for (i, pv) in keys {
                            let sv = b.field_get(wp.clone(), psid, i);
                            let Type::Record(ksid) = fields[i].ty else {
                                push_eq(b, pv, sv);
                                continue;
                            };
                            for j in 0..b.structs.get(ksid).fields.len() {
                                let pa = b.field_get(pv.clone(), ksid, j);
                                let sa = b.field_get(sv.clone(), ksid, j);
                                push_eq(b, pa, sa);
                            }
                        }
                        match eq {
                            Some(eq) => b.if_then(eq, |b| b.assign(m, wp.clone())),
                            // No key fields at all: every record "matches"
                            // the chain head — degenerate but well-defined
                            // (single-group tables).
                            None => b.assign(m, wp.clone()),
                        }
                        let wn = b.field_get(wp, psid, nf);
                        b.assign(walk, wn);
                    },
                );
                // if (m == null) { pr.next = shared head; shared(slot) = pr }
                // else fold pr into m.
                let mv = b.read_var(m);
                let miss = b.eq(mv.clone(), null.clone());
                b.if_else(
                    miss,
                    |b| {
                        let h = b.array_get(shared.clone(), slot.clone());
                        b.field_set(pr.clone(), psid, nf, h);
                        b.array_set(shared.clone(), slot.clone(), pr.clone());
                    },
                    |b| fold_record(b, t, mv, pr.clone()),
                );
                b.assign(cur, next);
            },
        );
    });
}

impl TableRed {
    /// Does the body reduce a field of record type `sid`?
    fn reduces_into(&self, sid: StructId) -> bool {
        self.reduce.keys().any(|(s, _)| *s == sid)
    }
}

/// Fold every reduce field of record `from` into record `into`, both of
/// the cluster's record type: fields of the record itself, then fields
/// of the value records it holds.
fn fold_record(b: &mut IrBuilder, t: &TableRed, into: Atom, from: Atom) {
    let psid = t.psid;
    let fields = b.structs.get(psid).fields.clone();
    for i in 0..fields.len() {
        if let Some(op) = t.reduce.get(&(psid, i)) {
            fold_field(b, into.clone(), from.clone(), psid, i, *op);
        }
    }
    for (i, f) in fields.iter().enumerate() {
        // The chain link is not a value record: folding through it would
        // fold the next group (or dereference null).
        let Type::Record(vsid) = f.ty else { continue };
        if vsid == psid || !t.reduces_into(vsid) {
            continue;
        }
        let (sv, pv) = (
            b.field_get(into.clone(), psid, i),
            b.field_get(from.clone(), psid, i),
        );
        for j in 0..b.structs.get(vsid).fields.len() {
            if let Some(op) = t.reduce.get(&(vsid, j)) {
                fold_field(b, sv.clone(), pv.clone(), vsid, j, *op);
            }
        }
    }
}

/// `into.f = into.f OP from.f`
fn fold_field(b: &mut IrBuilder, into: Atom, from: Atom, sid: StructId, field: usize, op: BinOp) {
    let x = b.field_get(into.clone(), sid, field);
    let y = b.field_get(from, sid, field);
    let folded = b.bin(op, x, y);
    b.field_set(into, sid, field, folded);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::hash::program_hash;
    use dblab_ir::Level;

    /// `var acc = 0.0; for (i <- 0 until arr.length) acc = acc + arr(i)`
    /// — the minimal Shape A loop.
    fn sum_loop() -> Program {
        let mut b = IrBuilder::new();
        let arr = b.array_new(Type::Double, Atom::Int(64));
        let acc = b.decl_var(Atom::double(0.0));
        let n = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), n, |bb, i| {
            let v = bb.array_get(arr.clone(), i);
            let g = bb.read_var(acc);
            let s = bb.add(g, v);
            bb.assign(acc, s);
        });
        let r = b.read_var(acc);
        b.finish(r, Level::CScala)
    }

    fn top_level_parallel_for(p: &Program) -> Option<&Expr> {
        p.body
            .stmts
            .iter()
            .map(|st| &st.expr)
            .find(|e| matches!(e, Expr::ParallelFor { .. }))
    }

    #[test]
    fn scalar_sum_becomes_a_parallel_for() {
        let p = sum_loop();
        let q = apply(&p, 4);
        match top_level_parallel_for(&q) {
            Some(Expr::ParallelFor {
                threads,
                accs,
                merge,
                ..
            }) => {
                assert_eq!(*threads, 4);
                assert_eq!(accs.len(), 1, "one private accumulator");
                assert!(accs[0].var, "Shape A privatizes a mutable var");
                // The merge folds the worker copy back with the same op.
                assert!(merge
                    .stmts
                    .iter()
                    .any(|st| matches!(st.expr, Expr::Bin(BinOp::Add, _, _))));
            }
            other => panic!("expected a top-level ParallelFor, got {other:?}"),
        }
        assert!(
            !p.body
                .stmts
                .iter()
                .any(|st| matches!(st.expr, Expr::ParallelFor { .. })),
            "input must be untouched"
        );
    }

    #[test]
    fn threads_one_is_the_identity() {
        let p = sum_loop();
        let q = apply(&p, 1);
        assert_eq!(program_hash(&p), program_hash(&q));
    }

    /// `acc = arr(i)` is a plain overwrite, not a reduction — the loop
    /// must stay serial (order-dependent final value).
    #[test]
    fn non_reduction_assignment_stays_serial() {
        let mut b = IrBuilder::new();
        let arr = b.array_new(Type::Double, Atom::Int(64));
        let acc = b.decl_var(Atom::double(0.0));
        let n = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), n, |bb, i| {
            let v = bb.array_get(arr.clone(), i);
            bb.assign(acc, v);
        });
        let r = b.read_var(acc);
        let p = b.finish(r, Level::CScala);
        let q = apply(&p, 4);
        assert_eq!(program_hash(&p), program_hash(&q));
    }

    /// Printing inside the loop is I/O in loop order — an immediate veto.
    #[test]
    fn printf_in_the_body_vetoes() {
        let mut b = IrBuilder::new();
        let arr = b.array_new(Type::Double, Atom::Int(64));
        let acc = b.decl_var(Atom::double(0.0));
        let n = b.array_len(arr.clone());
        b.for_range(Atom::Int(0), n, |bb, i| {
            let v = bb.array_get(arr.clone(), i);
            bb.printf("%f\n", vec![v.clone()]);
            let g = bb.read_var(acc);
            let s = bb.add(g, v);
            bb.assign(acc, s);
        });
        let r = b.read_var(acc);
        let p = b.finish(r, Level::CScala);
        let q = apply(&p, 4);
        assert_eq!(program_hash(&p), program_hash(&q));
    }

    /// TPC-H query `n` at level 5 and two threads, over generated
    /// statistics (the dense-table decisions read `int_max`).
    fn tpch_two_threads(n: usize) -> Program {
        let dir = std::env::temp_dir().join("dblab_par_stats");
        let schema = dblab_tpch::generate(0.002, &dir).schema;
        let mut cfg = crate::StackConfig::level5();
        cfg.threads = 2;
        crate::compile(&dblab_tpch::queries::query(n), &schema, &cfg).program
    }

    fn record_of(t: &Type) -> Option<StructId> {
        match t {
            Type::Record(s) => Some(*s),
            Type::Pointer(e) | Type::Array(e) | Type::Pool(e) => record_of(e),
            _ => None,
        }
    }

    /// Over the 22 queries at two threads, every field a `ParallelFor`
    /// body writes is on a record type its workers hold privately (a
    /// private array's or pool's records, or records those hold). A table
    /// pre-filled before the loop and updated in place has none: the loop
    /// stays serial (Q11, Q13, Q15 twice, Q17, Q18). A join whose build
    /// side is a keyed base table reads an index and runs no loop of its
    /// own, so Q2, Q5, Q7–Q11, Q16 and Q21 have fewer loops than joins.
    #[test]
    fn every_parallel_for_privatizes_the_fields_it_writes() {
        let mut loops = 0;
        for n in 1..=22 {
            let p = tpch_two_threads(n);
            for st in &p.body.stmts {
                let Expr::ParallelFor { accs, body, .. } = &st.expr else {
                    continue;
                };
                loops += 1;
                let mut owned: HashSet<StructId> =
                    accs.iter().filter_map(|a| record_of(&a.ty)).collect();
                for sid in owned.clone() {
                    owned.extend(
                        p.structs
                            .get(sid)
                            .fields
                            .iter()
                            .filter_map(|f| record_of(&f.ty)),
                    );
                }
                let mut stmts = Vec::new();
                body.for_each_stmt(&mut |st| stmts.push(st));
                for w in stmts {
                    if let Expr::FieldSet { sid, .. } = &w.expr {
                        let name = &p.structs.get(*sid).name;
                        assert!(
                            owned.contains(sid),
                            "Q{n}: a worker writes shared `{name}` records"
                        );
                    }
                }
            }
        }
        assert_eq!(loops, 28, "ParallelFor count over the 22 queries");
    }

    /// Q1 at two threads: its scan is a `ParallelFor` whose private table
    /// is a 65,536-slot dense array, merged slot by slot — no chain walk.
    #[test]
    fn q1_privatizes_its_dense_table() {
        let p = tpch_two_threads(1);
        let Some(Expr::ParallelFor { accs, merge, .. }) = top_level_parallel_for(&p) else {
            panic!("Q1's scan stays serial");
        };
        let dense = |b: &Block| {
            matches!(
                b.stmts[..],
                [Stmt {
                    expr: Expr::ArrayNew {
                        len: Atom::Int(65_536),
                        ..
                    },
                    ..
                }]
            )
        };
        assert!(accs.iter().any(|a| dense(&a.init)), "a private dense array");
        let mut stmts = Vec::new();
        merge.for_each_stmt(&mut |st| stmts.push(st));
        assert!(stmts.iter().any(|st| matches!(
            st.expr,
            Expr::ForRange {
                hi: Atom::Int(65_536),
                ..
            }
        )));
        assert!(!stmts.iter().any(|st| matches!(st.expr, Expr::While { .. })));
    }

    /// A count per `i % 16` in a dense 16-slot array of `Agg(cnt)`
    /// records from a pool; `guarded`: inserted under `if (slots(k) ==
    /// null)`, else stored over every row.
    fn dense_count(guarded: bool) -> Program {
        let mut b = IrBuilder::new();
        let agg = b.structs.register(dblab_ir::types::StructDef {
            name: "Agg".into(),
            fields: vec![dblab_ir::types::FieldDef {
                name: "cnt".into(),
                ty: Type::Long,
            }],
        });
        let pool = b.pool_new(Type::Record(agg), Atom::Int(16));
        let slots = b.array_new(Type::Record(agg), Atom::Int(16));
        let src = b.array_new(Type::Int, Atom::Int(64));
        let n = b.array_len(src);
        b.for_range(Atom::Int(0), n, |b, i| {
            let k = b.bin(BinOp::BitAnd, i, Atom::Int(15));
            let insert = |b: &mut IrBuilder| {
                let v = b.pool_alloc(pool.clone());
                b.field_set(v.clone(), agg, 0, Atom::Long(0));
                b.array_set(slots.clone(), k.clone(), v);
            };
            if guarded {
                let r = b.array_get(slots.clone(), k.clone());
                let miss = b.eq(r, Atom::Null(Box::new(Type::Record(agg))));
                b.if_then(miss, insert);
            } else {
                insert(b);
            }
            let r = b.array_get(slots.clone(), k.clone());
            let c = b.field_get(r.clone(), agg, 0);
            let c1 = b.add(c, Atom::Long(1));
            b.field_set(r, agg, 0, c1);
        });
        b.finish(Atom::Unit, Level::CScala)
    }

    /// A dense table is privatized only when each worker inserts a key
    /// once: a row that replaces the slot's record restarts its count, and
    /// folding the workers' last records would not.
    #[test]
    fn a_dense_table_privatizes_only_a_get_or_insert() {
        assert!(top_level_parallel_for(&apply(&dense_count(true), 2)).is_some());
        let p = dense_count(false);
        assert_eq!(program_hash(&p), program_hash(&apply(&p, 2)));
    }

    /// A fixed-trip loop (`for (i <- 0 until 64)`) is not a data scan;
    /// the pass only fires on `ArrayLen`-bounded loops.
    #[test]
    fn fixed_trip_loops_stay_serial() {
        let mut b = IrBuilder::new();
        let acc = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(64), |bb, i| {
            let g = bb.read_var(acc);
            let s = bb.add(g, i);
            bb.assign(acc, s);
        });
        let r = b.read_var(acc);
        let p = b.finish(r, Level::CScala);
        let q = apply(&p, 4);
        assert_eq!(program_hash(&p), program_hash(&q));
    }
}
