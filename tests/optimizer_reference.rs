//! The framework optimizer (`dblab::ir::opt`) against two references
//! kept here unchanged:
//!
//! * [`dce_reference`], the clone-per-statement DCE that `dce` replaced.
//!   It deep-cloned every statement at every nesting level and
//!   recomputed a compound statement's effects from its whole subtree, so
//!   one sweep cost size × depth; the optimizer's DCE cleans in place in
//!   one linear walk.
//! * [`optimize_reference`], the fixpoint that rebuilt the whole program
//!   (`inline_aliases`) before every DCE. `optimize` is one DCE and one
//!   in-place renumbering (`compact`): the front-end and every pass emit
//!   through the builder, so a rebuild has nothing left to simplify.
//!
//! Each pair must return the same program on every input the compiler
//! hands it while compiling the 22 TPC-H queries, and on seeded random
//! programs nested up to depth 6.

use std::collections::{HashMap, HashSet};

use dblab::ir::effects::effects_of;
use dblab::ir::expr::{Atom, BinOp, Block, Expr, Program, Stmt, Sym};
use dblab::ir::hash::program_hash;
use dblab::ir::opt::{compact, dce, inline_aliases, optimize};
use dblab::ir::{Level, StructRegistry, Type};
use dblab::tpch;
use dblab::tpch::rng::Rng64;
use dblab::transform::pass::{self, Frontend, PassCtx, PlanLowering};
use dblab::transform::stack::compile_with_snapshots;
use dblab::transform::StackConfig;

// -------------------------------------------------------------------
// The reference: the earlier clone-per-statement DCE
// -------------------------------------------------------------------

fn dce_reference(p: &Program) -> Program {
    let mut p = p.clone();
    loop {
        let uses = body_uses(&p.body);
        let write_only = write_only_vars(&p.body, &uses);
        let mut changed = false;
        p.body = dce_block(&p.body, &uses, &write_only, &mut changed);
        if !changed {
            return p;
        }
    }
}

/// Collect every symbol that is *read* (used as an operand, a block result,
/// or read as a variable) anywhere in the body. `Assign { var }` does not
/// count as a read of `var`.
fn body_uses(b: &Block) -> HashMap<Sym, usize> {
    let mut counts = HashMap::new();
    fn visit(b: &Block, counts: &mut HashMap<Sym, usize>) {
        for st in &b.stmts {
            st.expr.for_each_atom(|a| {
                if let Atom::Sym(s) = a {
                    *counts.entry(*s).or_insert(0) += 1;
                }
            });
            if let Expr::ReadVar(v) = &st.expr {
                *counts.entry(*v).or_insert(0) += 1;
            }
            for blk in st.expr.blocks() {
                visit(blk, counts);
            }
        }
        if let Atom::Sym(s) = b.result {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    visit(b, &mut counts);
    counts
}

/// Variables declared with `DeclVar` whose only uses are assignments.
fn write_only_vars(b: &Block, reads: &HashMap<Sym, usize>) -> HashSet<Sym> {
    let mut vars = HashSet::new();
    fn collect(b: &Block, vars: &mut HashSet<Sym>) {
        for st in &b.stmts {
            if matches!(st.expr, Expr::DeclVar { .. }) {
                vars.insert(st.sym);
            }
            for blk in st.expr.blocks() {
                collect(blk, vars);
            }
        }
    }
    collect(b, &mut vars);
    vars.retain(|v| reads.get(v).copied().unwrap_or(0) == 0);
    vars
}

fn dce_block(
    b: &Block,
    uses: &HashMap<Sym, usize>,
    write_only: &HashSet<Sym>,
    changed: &mut bool,
) -> Block {
    let mut stmts = Vec::with_capacity(b.stmts.len());
    for st in &b.stmts {
        // Assignments to write-only variables are dead stores.
        if let Expr::Assign { var, .. } = &st.expr {
            if write_only.contains(var) {
                *changed = true;
                continue;
            }
        }
        if matches!(st.expr, Expr::DeclVar { .. }) && write_only.contains(&st.sym) {
            *changed = true;
            continue;
        }
        let used = uses.get(&st.sym).copied().unwrap_or(0) > 0;
        let eff = effects_of(&st.expr);
        if !used && eff.is_removable() {
            *changed = true;
            continue;
        }
        // Recurse into sub-blocks.
        let mut st = st.clone();
        st.expr = map_blocks(&st.expr, |blk| dce_block(blk, uses, write_only, changed));
        stmts.push(st);
    }
    Block {
        stmts,
        result: b.result.clone(),
    }
}

/// Clone an expression with its sub-blocks transformed.
fn map_blocks<F: FnMut(&Block) -> Block>(e: &Expr, mut f: F) -> Expr {
    let mut e = e.clone();
    match &mut e {
        Expr::If { then_b, else_b, .. } => {
            *then_b = f(then_b);
            *else_b = f(else_b);
        }
        Expr::ForRange { body, .. }
        | Expr::ListForeach { body, .. }
        | Expr::HashMapForeach { body, .. }
        | Expr::MultiMapForeachAt { body, .. } => *body = f(body),
        Expr::While { cond, body } => {
            *cond = f(cond);
            *body = f(body);
        }
        Expr::SortArray { cmp, .. } => *cmp = f(cmp),
        Expr::HashMapGetOrInit { init, .. } => *init = f(init),
        _ => {}
    }
    e
}

/// The fixpoint `optimize` replaced: a whole-program identity rebuild
/// (alias inlining, CSE and folding) before every DCE, until the program
/// stops shrinking or `max_iters` rounds have run.
fn optimize_reference(mut p: Program, max_iters: usize) -> Program {
    let mut last_size = usize::MAX;
    for _ in 0..max_iters {
        p = dce(inline_aliases(&p));
        let size = p.body.size();
        if size >= last_size {
            break;
        }
        last_size = size;
    }
    p
}

// -------------------------------------------------------------------
// Comparison
// -------------------------------------------------------------------

fn assert_same(label: &str, got: &Program, want: &Program) {
    // Plain `assert!`: a failing `assert_eq!` would print two whole bodies.
    assert!(got.body == want.body, "{label}: bodies differ");
    assert_eq!(got.sym_types, want.sym_types, "{label}: sym_types");
    assert_eq!(got.level, want.level, "{label}: level");
}

/// Run both DCEs on `input` and require equal programs; returns the
/// optimizer's output.
fn check(label: &str, input: Program) -> Program {
    let want = dce_reference(&input);
    let got = dce(input);
    assert_same(&format!("{label} (DCE)"), &got, &want);
    got
}

/// Rounds the reference fixpoint may run (the earlier per-pass budget).
const ROUNDS: usize = 4;

/// Run both fixpoints on `input` and require equal programs; returns the
/// optimizer's output.
fn check_optimize(label: &str, input: Program) -> Program {
    let want = optimize_reference(input.clone(), ROUNDS);
    let got = optimize(input);
    assert_same(&format!("{label} (fixpoint)"), &got, &want);
    got
}

/// Check every DCE input of one reference fixpoint: the rewrite's raw
/// output, then each round's alias-inlined program, mirroring
/// [`optimize_reference`] (same size-based stop).
fn check_fixpoint(label: &str, raw: Program) -> usize {
    let mut checked = 1;
    check(&format!("{label} (raw)"), raw.clone());
    let mut cur = raw;
    let mut last_size = usize::MAX;
    for round in 0..ROUNDS {
        cur = check(&format!("{label} round {round}"), inline_aliases(&cur));
        checked += 1;
        let size = cur.body.size();
        if size >= last_size {
            break;
        }
        last_size = size;
    }
    checked
}

// -------------------------------------------------------------------
// (a) What the compiler hands DCE on the 22 queries
// -------------------------------------------------------------------

fn schema_with_stats() -> dblab::catalog::Schema {
    let mut s = tpch::tpch_schema();
    for t in &mut s.tables {
        t.stats.row_count = 500;
        t.stats.int_max = vec![500; t.columns.len()];
        t.stats.distinct = vec![25; t.columns.len()];
    }
    s
}

/// Replay every stage's rewrite and hand `f` the program the following
/// fixpoint starts from: the front-end's lowering, then each selected
/// pass over the previous stage's snapshot, for the 22 queries under
/// every Table 3 configuration and LegoBase's.
fn replay_fixpoint_inputs(mut f: impl FnMut(&str, Program)) {
    let schema = schema_with_stats();
    let registry = pass::registry();
    for cfg in StackConfig::table3()
        .into_iter()
        .chain([StackConfig::legobase()])
    {
        let ctx = PassCtx {
            schema: &schema,
            cfg: &cfg,
        };
        let selected = pass::check_pipeline(&registry, &cfg).expect("valid stack");
        for n in 1..=22 {
            let prog = tpch::queries::query(n);
            let label = format!("Q{n}@{}", cfg.name);
            f(
                &format!("{label} front-end"),
                PlanLowering(&prog).lower(&ctx),
            );
            let (_, stages) = compile_with_snapshots(&prog, &schema, &cfg, true);
            assert_eq!(stages.len(), selected.len() + 1, "{label}: stage count");
            for (ps, (_, input)) in selected.iter().zip(&stages) {
                f(&format!("{label} {}", ps.name()), ps.run(input, &ctx));
            }
        }
    }
}

/// Every program the reference fixpoint would give DCE goes to both
/// implementations.
#[test]
fn dce_matches_the_reference_on_every_stage_input_of_the_22_queries() {
    let mut checked = 0;
    replay_fixpoint_inputs(|label, raw| checked += check_fixpoint(label, raw));
    assert!(checked > 1900, "only {checked} DCE inputs compared");
}

#[test]
fn optimize_matches_the_rebuild_per_round_fixpoint_on_every_stage_input_of_the_22_queries() {
    let mut checked = 0;
    replay_fixpoint_inputs(|label, raw| {
        checked += 1;
        check_optimize(label, raw);
    });
    assert!(checked > 640, "only {checked} fixpoint inputs compared");
}

/// The front-end and every pass emit through `IrBuilder`, so what they
/// hand the fixpoint has no alias, foldable node or duplicate pure
/// expression in scope: an identity rebuild changes at most its symbol
/// numbers, the way `compact` does. A rewrite that emits around the
/// builder is named here (and trips `optimize`'s debug assertion).
#[test]
fn every_fixpoint_input_is_its_own_rebuild_up_to_numbering() {
    let (mut checked, mut differ) = (0, Vec::new());
    replay_fixpoint_inputs(|label, raw| {
        checked += 1;
        if program_hash(&inline_aliases(&raw)) != program_hash(&compact(raw)) {
            differ.push(label.to_string());
        }
    });
    assert!(checked > 640, "only {checked} fixpoint inputs compared");
    assert!(differ.is_empty(), "rewrites a rebuild changes: {differ:?}");
}

// -------------------------------------------------------------------
// (b) Seeded random programs
// -------------------------------------------------------------------

/// Random nested programs: `If`/`ForRange`/`While` to depth 6 over pure
/// arithmetic, mutable variables, arrays and `Printf`. Writes are common
/// and IO is rare, so the corpus is full of write-only variables,
/// variables read only inside dead code, dead pure loops, and writes
/// inside blocks whose results nobody uses.
struct Gen {
    rng: Rng64,
    sym_types: Vec<Type>,
}

const MAX_DEPTH: usize = 6;

impl Gen {
    fn fresh(&mut self, ty: Type) -> Sym {
        self.sym_types.push(ty);
        Sym(self.sym_types.len() as u32 - 1)
    }

    fn pick(&mut self, from: &[Sym]) -> Option<Sym> {
        (!from.is_empty()).then(|| from[self.rng.gen_range(0..from.len())])
    }

    fn atom(&mut self, vals: &[Sym]) -> Atom {
        match self.pick(vals) {
            Some(s) if self.rng.gen_bool(0.75) => Atom::Sym(s),
            _ => Atom::Int(self.rng.gen_range(0..10i64)),
        }
    }

    /// A block that sees the enclosing `vals`, `vars` and `arrays`; what
    /// it binds stays inside it.
    fn block(&mut self, depth: usize, vals: &[Sym], vars: &[Sym], arrays: &[Sym]) -> Block {
        let (mut vals, mut vars, mut arrays) = (vals.to_vec(), vars.to_vec(), arrays.to_vec());
        let mut local = Vec::new();
        let n = self.rng.gen_range(1..=5usize);
        let mut stmts = Vec::with_capacity(n);
        for _ in 0..n {
            let nested = depth < MAX_DEPTH && self.rng.gen_bool(0.3);
            let kind = if nested {
                self.rng.gen_range(0..3usize)
            } else {
                self.rng.gen_range(3..12usize)
            };
            let (ty, expr) = match kind {
                0 => {
                    let cond = self.atom(&vals);
                    let then_b = self.block(depth + 1, &vals, &vars, &arrays);
                    let else_b = self.block(depth + 1, &vals, &vars, &arrays);
                    (
                        Type::Int,
                        Expr::If {
                            cond,
                            then_b,
                            else_b,
                        },
                    )
                }
                1 => {
                    let (lo, hi) = (self.atom(&vals), self.atom(&vals));
                    let var = self.fresh(Type::Int);
                    let mut inner = vals.clone();
                    inner.push(var);
                    let body = self.block(depth + 1, &inner, &vars, &arrays);
                    (Type::Unit, Expr::ForRange { lo, hi, var, body })
                }
                2 => {
                    let cond = self.block(depth + 1, &vals, &vars, &arrays);
                    let body = self.block(depth + 1, &vals, &vars, &arrays);
                    (Type::Unit, Expr::While { cond, body })
                }
                3 | 4 => {
                    let (a, b) = (self.atom(&vals), self.atom(&vals));
                    (Type::Int, Expr::Bin(BinOp::Add, a, b))
                }
                5 => (
                    Type::Int,
                    Expr::DeclVar {
                        init: self.atom(&vals),
                    },
                ),
                6 | 7 => match self.pick(&vars) {
                    Some(v) if kind == 6 => (Type::Int, Expr::ReadVar(v)),
                    Some(var) => (
                        Type::Unit,
                        Expr::Assign {
                            var,
                            value: self.atom(&vals),
                        },
                    ),
                    None => (Type::Int, Expr::DeclVar { init: Atom::Int(0) }),
                },
                8 => (
                    Type::array(Type::Int),
                    Expr::ArrayNew {
                        elem: Type::Int,
                        len: Atom::Int(4),
                    },
                ),
                9 | 10 => match self.pick(&arrays) {
                    Some(arr) if kind == 9 => (
                        Type::Int,
                        Expr::ArrayGet {
                            arr: Atom::Sym(arr),
                            idx: Atom::Int(0),
                        },
                    ),
                    Some(arr) => (
                        Type::Unit,
                        Expr::ArraySet {
                            arr: Atom::Sym(arr),
                            idx: Atom::Int(0),
                            value: self.atom(&vals),
                        },
                    ),
                    None => (Type::Int, Expr::Bin(BinOp::Mul, Atom::Int(2), Atom::Int(3))),
                },
                _ if self.rng.gen_bool(0.3) => (
                    Type::Unit,
                    Expr::Printf {
                        fmt: "%d\n".into(),
                        args: vec![self.atom(&vals)],
                    },
                ),
                _ => (
                    Type::Int,
                    Expr::Bin(BinOp::Sub, self.atom(&vals), Atom::Int(1)),
                ),
            };
            let sym = self.fresh(ty.clone());
            match &expr {
                Expr::DeclVar { .. } => vars.push(sym),
                Expr::ArrayNew { .. } => arrays.push(sym),
                _ if ty == Type::Int => {
                    vals.push(sym);
                    local.push(sym);
                }
                _ => {}
            }
            stmts.push(Stmt { sym, ty, expr });
        }
        let result = match self.pick(&local) {
            Some(s) if self.rng.gen_bool(0.4) => Atom::Sym(s),
            _ => Atom::Unit,
        };
        Block { stmts, result }
    }
}

fn random_program(seed: u64) -> Program {
    let mut g = Gen {
        rng: Rng64::seed_from_u64(seed),
        sym_types: Vec::new(),
    };
    let body = g.block(0, &[], &[], &[]);
    Program {
        structs: StructRegistry::new(),
        body,
        sym_types: g.sym_types,
        level: Level::CScala,
    }
}

#[test]
fn dce_matches_the_reference_on_random_nested_programs() {
    let (mut shrunk, mut deepest) = (0, 0);
    for seed in 0..400u64 {
        let p = random_program(0xdce0_0000 + seed);
        let before = p.body.size();
        deepest = deepest.max(depth(&p.body));
        let out = check(&format!("random program {seed}"), p);
        shrunk += usize::from(out.body.size() < before);
    }
    // The corpus must exercise removal, and at full nesting depth.
    assert!(shrunk > 200, "only {shrunk} of 400 programs lost code");
    assert_eq!(
        deepest,
        MAX_DEPTH + 1,
        "no program nests to depth {MAX_DEPTH}"
    );
}

/// The seeded corpus above, as the builder emits it. A rebuild also
/// re-infers every declared type, and the corpus declares each `If` an
/// `Int` whatever its branches return; `optimize` never retypes, so it is
/// compared on programs whose declared types are the builder's, as every
/// program the compiler builds is (debug builds assert that `optimize`'s
/// result survives a rebuild unchanged, types included).
#[test]
fn optimize_matches_the_reference_on_random_nested_programs() {
    let mut shrunk = 0;
    for seed in 0..400u64 {
        let p = inline_aliases(&random_program(0xdce0_0000 + seed));
        let before = p.body.size();
        let out = check_optimize(&format!("random program {seed}"), p);
        shrunk += usize::from(out.body.size() < before);
    }
    assert!(shrunk > 200, "only {shrunk} of 400 programs lost code");
}

fn depth(b: &Block) -> usize {
    1 + b
        .stmts
        .iter()
        .flat_map(|st| st.expr.blocks())
        .map(depth)
        .max()
        .unwrap_or(0)
}
