//! Cross-crate invariants of the DSL stack itself: level discipline,
//! monotone lowering, stage-by-stage interpretability, and the formal
//! stack-construction principles.

use std::collections::{HashMap, HashSet};

use dblab::catalog::Schema;
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::ir::expr::{Atom, Block, DictOp, Expr, Layout, Sym, DEFAULT_POOL};
use dblab::ir::hash::program_hash;
use dblab::ir::level::{validate, validate_window, Level};
use dblab::ir::{BinOp, PrimOp, Program, StructId, Type, UnOp};
use dblab::tpch;
use dblab::transform::config::dblab_stack;
use dblab::transform::schedule::Scheduler;
use dblab::transform::stack::{compile_scheduled, compile_with_snapshots};
use dblab::transform::{pass, StackConfig};

fn schema_with_stats() -> dblab::catalog::Schema {
    let mut s = tpch::tpch_schema();
    for t in &mut s.tables {
        t.stats.row_count = 500;
        t.stats.int_max = vec![500; t.columns.len()];
        t.stats.distinct = vec![25; t.columns.len()];
    }
    s
}

#[test]
fn declared_stack_satisfies_both_principles() {
    let chain = dblab_stack().check().expect("principled stack");
    // The unique lowering path runs MapList -> List -> ScaLite -> CScala.
    let levels: Vec<(Level, Level)> = chain.iter().map(|e| (e.source, e.target)).collect();
    assert_eq!(
        levels,
        vec![
            (Level::MapList, Level::List),
            (Level::List, Level::ScaLite),
            (Level::ScaLite, Level::CScala),
        ]
    );
}

/// A registered pass has to earn its place: over the 22 TPC-H queries
/// at level 5, every pass in the registry changes the
/// program (its stage's output hash differs from its input's) for at least
/// one query. A pass that rewrites nothing only widens the schedule space
/// and costs compile time.
#[test]
fn every_registry_pass_rewrites_some_program() {
    let schema = schema_with_stats();
    let mut selected = HashSet::new();
    let mut rewrote = HashSet::new();
    let cfg = StackConfig::level5();
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let (_, stages) = compile_with_snapshots(&prog, &schema, &cfg, true);
        for w in stages.windows(2) {
            let (name, after) = (&w[1].0, &w[1].1);
            selected.insert(name.clone());
            if program_hash(&w[0].1) != program_hash(after) {
                rewrote.insert(name.clone());
            }
        }
    }
    let registry: Vec<&str> = pass::registry().iter().map(|p| p.name()).collect();
    let unselected: Vec<&str> = registry
        .iter()
        .copied()
        .filter(|n| !selected.contains(*n))
        .collect();
    assert!(unselected.is_empty(), "never selected: {unselected:?}");
    let identity: Vec<&str> = registry
        .iter()
        .copied()
        .filter(|n| !rewrote.contains(*n))
        .collect();
    assert!(
        identity.is_empty(),
        "registry passes that rewrote no query: {identity:?}"
    );
}

/// Compile every query through every valid order of `sched`'s DAG. One
/// line per (query, order) whose stage trace does not follow the order or
/// whose program differs from the baseline order's, naming the pass pairs
/// the order runs the other way round from the baseline.
fn order_divergences(
    sched: &Scheduler,
    queries: &[(String, QueryProgram)],
    schema: &Schema,
) -> Vec<String> {
    let cfg = sched.config().name;
    let baseline = sched.baseline();
    let hashes: Vec<u64> = (queries.iter())
        .map(|(_, prog)| {
            let cq = compile_scheduled(sched, prog, schema, &baseline).expect("baseline is valid");
            program_hash(&cq.program)
        })
        .collect();
    let mut out = Vec::new();
    for order in sched.orders() {
        let at = |name: &str| order.iter().position(|n| *n == name).unwrap();
        let mut inverted = Vec::new();
        for (i, a) in baseline.iter().enumerate() {
            for b in &baseline[i + 1..] {
                if at(a) > at(b) {
                    inverted.push(format!("`{b}` before `{a}`"));
                }
            }
        }
        for ((tag, prog), &want) in queries.iter().zip(&hashes) {
            let cq = compile_scheduled(sched, prog, schema, &order)
                .unwrap_or_else(|e| panic!("{cfg} {tag}: valid order {order:?} refused: {e}"));
            let trace: Vec<&str> = cq.stages[1..].iter().map(|s| s.name.as_str()).collect();
            if trace != order {
                out.push(format!("{cfg} {tag}: ran {trace:?} for {order:?}"));
            } else if program_hash(&cq.program) != want {
                out.push(format!(
                    "{cfg} {tag}: order {order:?} compiles another program than the baseline; \
                     it inverts {}",
                    inverted.join(", ")
                ));
            }
        }
    }
    out
}

/// Everything the pass-commutation DAG leaves unordered is declared
/// commuting, and the claim is checked whole: every valid order of every
/// Table 3 configuration and LegoBase compiles
/// each of the 22 queries to the baseline's `program_hash`, through a
/// stage trace that follows the order. The programs are the same, so
/// whatever holds the baseline to the oracle holds every order. The
/// number of valid orders per configuration is pinned: a new pass or
/// edge moves it.
#[test]
fn every_valid_pass_order_compiles_to_the_baseline_program() {
    let schema = schema_with_stats();
    let queries: Vec<(String, QueryProgram)> = (1..=22)
        .map(|n| (format!("Q{n}"), tpch::queries::query(n)))
        .collect();
    let configs = [
        (StackConfig::level2(), 1),
        (StackConfig::level3(), 1),
        (StackConfig::level4(), 3),
        (StackConfig::level5(), 8),
        (StackConfig::compliant(), 8),
        (StackConfig::legobase(), 3),
    ];
    let mut failures = Vec::new();
    for (cfg, orders) in &configs {
        let sched = Scheduler::from_registry(cfg).expect("DAG builds");
        assert_eq!(
            sched.orders().len(),
            *orders,
            "{}: {:?}",
            cfg.name,
            sched.orders()
        );
        failures.extend(order_divergences(&sched, &queries, &schema));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A deliberately mis-declared pair — two passes that visibly do not
/// commute, left unordered in the DAG — fails the order check, which
/// names the pair; declaring the missing edge leaves one order, and the
/// check passes.
#[test]
fn an_undeclared_non_commuting_pass_order_is_caught() {
    use dblab::ir::expr::Stmt;
    use dblab::transform::{Pass, PassCtx, PassKind};

    /// Appends `printf(v op rhs)` for a fresh variable `v = lhs`: printed,
    /// so the post-pass DCE keeps it, and with a variable operand, so the
    /// `Bin` is what the builder would emit (`lhs op rhs` would fold).
    fn append_stmt(p: &Program, op: BinOp, lhs: i64, rhs: i64) -> Program {
        let mut q = p.clone();
        let mut push = |ty: Type, expr: Expr| {
            let sym = Sym(q.sym_types.len() as u32);
            q.sym_types.push(ty.clone());
            q.body.stmts.push(Stmt { sym, ty, expr });
            sym
        };
        let init = Atom::Int(lhs);
        let var = push(Type::Int, Expr::DeclVar { init });
        let x = push(Type::Int, Expr::ReadVar(var));
        let y = push(Type::Int, Expr::Bin(op, Atom::Sym(x), Atom::Int(rhs)));
        let (fmt, args) = ("%d\n".into(), vec![Atom::Sym(y)]);
        push(Type::Unit, Expr::Printf { fmt, args });
        q
    }

    macro_rules! rogue_pass {
        ($name:ident, $label:literal, $op:expr, $after:expr) => {
            struct $name;
            impl Pass for $name {
                fn name(&self) -> &'static str {
                    $label
                }
                fn kind(&self) -> PassKind {
                    PassKind::Optimization
                }
                fn source(&self) -> Level {
                    Level::MapList
                }
                fn target(&self) -> Level {
                    Level::MapList
                }
                fn after(&self) -> &'static [&'static str] {
                    $after
                }
                fn run(&self, p: &Program, _ctx: &PassCtx) -> Program {
                    append_stmt(p, $op, 1, 2)
                }
            }
        };
    }
    rogue_pass!(AppendAdd, "append-add", BinOp::Add, &[]);
    rogue_pass!(AppendMul, "append-mul", BinOp::Mul, &[]);
    // The honest variant: the same rewrite, with its dependency declared.
    rogue_pass!(AppendMulOrdered, "append-mul", BinOp::Mul, &["append-add"]);

    let schema = schema_with_stats();
    let cfg = StackConfig::level2();
    let queries = vec![(
        "nation-count".to_string(),
        QueryProgram::new(QPlan::scan("nation").agg(vec![], vec![("n", AggFunc::Count)])),
    )];

    // Mis-declared: both passes append their statements, so the order
    // decides the program, yet the DAG leaves them unordered.
    let sched = Scheduler::from_passes(vec![Box::new(AppendAdd), Box::new(AppendMul)], &cfg)
        .expect("DAG builds — nothing *declares* the conflict");
    assert_eq!(sched.orders().len(), 2);
    let failures = order_divergences(&sched, &queries, &schema);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("inverts `append-mul` before `append-add`"),
        "{}",
        failures[0]
    );

    // Declaring the edge leaves the baseline as the only order.
    let sched = Scheduler::from_passes(vec![Box::new(AppendAdd), Box::new(AppendMulOrdered)], &cfg)
        .expect("DAG builds");
    assert_eq!(sched.orders(), [sched.baseline()]);
    assert!(order_divergences(&sched, &queries, &schema).is_empty());
}

#[test]
fn every_stage_of_the_full_stack_validates_at_its_level() {
    let schema = schema_with_stats();
    for n in [1, 3, 6, 13, 16] {
        let prog = tpch::queries::query(n);
        let (_, stages) = compile_with_snapshots(&prog, &schema, &StackConfig::level5(), true);
        assert!(stages.len() >= 5, "Q{n}: expected full stage chain");
        let mut last = Level::MapList;
        for (name, p) in &stages {
            // Levels never go back up (expressibility principle).
            assert!(p.level >= last, "Q{n}: {name} raised the level");
            last = p.level;
            // Dialect validation (pools make the final stages C.Scala;
            // mixed-down stages must be clean at their declared level).
            let violations = validate(p);
            assert!(violations.is_empty(), "Q{n} after {name}: {violations:?}");
        }
    }
}

#[test]
fn declared_stack_is_derived_from_the_pass_registry() {
    // The checked stack and the executable pipeline cannot drift: the
    // StackBuilder edges are the registry's own declarations.
    let edges = pass::declared_edges();
    assert!(edges
        .iter()
        .any(|(n, s, t)| *n == "hash-table-specialization"
            && *s == Level::MapList
            && *t == Level::List));
    assert!(edges
        .iter()
        .any(|(n, s, t)| *n == "memory-hoisting" && *s == Level::ScaLite && *t == Level::CScala));
    // And the derived stack still satisfies both §2 principles.
    dblab_stack().check().expect("principled stack");
}

#[test]
fn partial_stacks_validate_within_their_dialect_window() {
    // Level 4 disables list specialization: lists legitimately survive to
    // the C.Scala program, so the final stage validates in the window
    // [ScaLite[List], C.Scala] but not at C.Scala alone. Level 3 disables
    // both collection lowerings, widening the window to the whole stack.
    let schema = schema_with_stats();
    let prog = tpch::queries::query(3);
    for (cfg, ceiling) in [
        (StackConfig::level3(), Level::MapList),
        (StackConfig::level4(), Level::List),
    ] {
        let (cq, _) = compile_with_snapshots(&prog, &schema, &cfg, false);
        assert_eq!(cq.program.level, Level::CScala);
        let v = validate_window(&cq.program, ceiling, cq.program.level);
        assert!(v.is_empty(), "{}: {v:?}", cfg.name);
    }
    // The full stack collapses the window: exact dialect conformance.
    let (cq, _) = compile_with_snapshots(&prog, &schema, &StackConfig::level5(), false);
    assert!(validate(&cq.program).is_empty());
}

/// Over the 22 level-5 queries the trace matches the retained programs
/// and is contiguous: each stage starts at the level and size the stage
/// before it ended (`run_pipeline` hands each pass the size its predecessor
/// counted rather than counting again).
#[test]
fn stage_trace_is_instrumented_end_to_end() {
    let schema = schema_with_stats();
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let (cq, programs) = compile_with_snapshots(&prog, &schema, &StackConfig::level5(), true);
        assert_eq!(cq.stages.len(), programs.len());
        for (snap, (name, p)) in cq.stages.iter().zip(&programs) {
            assert_eq!(&snap.name, name);
            assert_eq!(snap.level, p.level);
            assert_eq!(snap.size, p.body.size(), "Q{n}: {name}");
        }
        for w in cq.stages.windows(2) {
            assert_eq!(w[1].level_before, w[0].level);
            assert_eq!(w[1].size_before, w[0].size, "Q{n}: {}", w[1].name);
        }
        assert!(cq.stage_time_total() <= cq.gen_time);
    }
}

/// Each stage reports how much of its time went to the post-pass
/// `optimize` fixpoint: on a cold level-5 compile that share is part of
/// every stage's time and some stage spends some. The warm recompile is
/// one compile-cache hit, whose pass stages ran nothing and read 0.
#[test]
fn stage_trace_splits_the_fixpoint_from_the_rewrite() {
    use std::time::Duration;
    let schema = schema_with_stats();
    let prog = tpch::queries::query(8);
    let cfg = StackConfig::level5();
    // Keeping the stage programs bypasses the compile cache: always cold.
    let (cold, _) = compile_with_snapshots(&prog, &schema, &cfg, true);
    assert!(!cold.cached);
    for s in &cold.stages {
        assert!(
            s.fixpoint <= s.time,
            "{}: fixpoint exceeds stage time",
            s.name
        );
    }
    assert!(
        cold.stages.iter().any(|s| s.fixpoint > Duration::ZERO),
        "no stage of a cold compile spent time in the fixpoint"
    );
    let _fill = dblab::transform::compile(&prog, &schema, &cfg);
    let warm = dblab::transform::compile(&prog, &schema, &cfg);
    assert!(warm.cached, "warm recompile missed the compile cache");
    for s in &warm.stages[1..] {
        assert_eq!(s.time, Duration::ZERO, "{}: cached", s.name);
        assert_eq!(s.fixpoint, Duration::ZERO, "{}: cached", s.name);
    }
}

#[test]
fn deeper_stacks_never_produce_slower_shapes() {
    // Structural proxy for Table 3's "performance is never negatively
    // affected": deeper stacks must eliminate the generic containers.
    let schema = schema_with_stats();
    for n in [3, 4, 10] {
        let prog = tpch::queries::query(n);
        let l2 = dblab::transform::compile(&prog, &schema, &StackConfig::level2());
        let l5 = dblab::transform::compile(&prog, &schema, &StackConfig::level5());
        let has =
            |p: &dblab::ir::Program, pat: &str| dblab::ir::printer::print_program(p).contains(pat);
        assert!(
            has(&l2.program, "MultiMap") || has(&l2.program, "HashMap"),
            "Q{n}: L2 should use generic hash tables"
        );
        assert!(
            !has(&l5.program, "MultiMap") && !has(&l5.program, "HashMap"),
            "Q{n}: L5 must specialize every hash table away"
        );
        assert!(
            !has(&l5.program, "new List["),
            "Q{n}: L5 must specialize every list away"
        );
    }
}

#[test]
fn compliant_config_avoids_noncompliant_artifacts() {
    let schema = schema_with_stats();
    let prog = tpch::queries::query(14); // uses startsWith => dictionary bait
    let compliant = dblab::transform::compile(&prog, &schema, &StackConfig::compliant());
    let text = dblab::ir::printer::print_program(&compliant.program);
    assert!(!text.contains("dict["), "no dictionaries when compliant");
    assert!(
        !text.contains("loadIndex"),
        "no index inference when compliant"
    );
    let l5 = dblab::transform::compile(&prog, &schema, &StackConfig::level5());
    let text5 = dblab::ir::printer::print_program(&l5.program);
    assert!(text5.contains("dict["), "level 5 dictionary-encodes p_type");
}

#[test]
fn generated_c_is_self_contained_and_stable() {
    let schema = schema_with_stats();
    let prog = tpch::queries::query(6);
    let cq = dblab::transform::compile(&prog, &schema, &StackConfig::level5());
    let src1 = dblab::codegen::emit(&cq.program, &schema);
    let src2 = dblab::codegen::emit(&cq.program, &schema);
    assert_eq!(src1, src2, "emission is deterministic");
    assert!(src1.contains("#include \"dblab_runtime.h\""));
    assert!(src1.contains("load_lineitem"));
    assert!(src1.contains("dblab_timer_start"));
}

/// Field removal (paper App. C) decides liveness through copies. A field
/// is live when a value read from it reaches something other than another
/// record field, or when it is copied into a live field; a record with no
/// live field keeps field 0 (C structs cannot be empty), and index key
/// columns are read by the loader. Recomputed here by plain iteration on
/// the final level-5 programs, every field of every record is live: no
/// join record and no base-table load carries a column only to copy it
/// into a dead one. Q7's `lineitem` record keeps the five columns it
/// reads, and every executor's loader reads exactly those.
#[test]
fn no_level5_record_field_is_only_copied_into_dead_fields() {
    let schema = schema_with_stats();
    let mut failures = Vec::new();
    for n in 1..=22 {
        let cq =
            dblab::transform::compile(&tpch::queries::query(n), &schema, &StackConfig::level5());
        for (sid, field) in dead_fields(&cq.program, &schema) {
            let def = cq.program.structs.get(sid);
            failures.push(format!("Q{n}: {}.{}", def.name, def.fields[field].name));
        }
    }
    assert!(
        failures.is_empty(),
        "{} record fields are only copied into dead fields: {failures:?}",
        failures.len()
    );

    let cq = dblab::transform::compile(&tpch::queries::query(7), &schema, &StackConfig::level5());
    let mut read = Vec::new();
    cq.program.body.for_each_stmt(&mut |st| {
        if let Expr::LoadTable { table, sid, .. } = &st.expr {
            if &**table == "lineitem" {
                let fields = &cq.program.structs.get(*sid).fields;
                read.push(
                    fields
                        .iter()
                        .map(|f| f.name.to_string())
                        .collect::<Vec<_>>(),
                );
            }
        }
    });
    let q7 = [
        "l_orderkey",
        "l_suppkey",
        "l_extendedprice",
        "l_discount",
        "l_shipdate",
    ];
    assert_eq!(read, vec![q7]);
}

/// The fields of `p`'s records that copy-aware liveness finds dead. A
/// `StructNew` argument counts as a copy whether or not the record is
/// read; level-5 programs build their records in pools, through
/// `FieldSet`s, anyway.
fn dead_fields(p: &Program, schema: &dblab::catalog::Schema) -> Vec<(StructId, usize)> {
    #[derive(Default)]
    struct Uses {
        getter: HashMap<Sym, (StructId, usize)>,
        escaping: HashSet<Sym>,
        copies: Vec<((StructId, usize), Sym)>,
        live: HashSet<(StructId, usize)>,
        /// Base tables, and the index key columns.
        tables: Vec<(StructId, String)>,
        index_cols: Vec<(String, usize)>,
        /// Records used as hash-table keys, compared field-wise.
        keys: Vec<StructId>,
    }
    fn walk(b: &Block, u: &mut Uses) {
        for st in &b.stmts {
            if let Type::HashMap(k, _) | Type::MultiMap(k, _) = &st.ty {
                if let Type::Record(sid) = &**k {
                    u.keys.push(*sid);
                }
            }
            let escape = |a: &Atom, u: &mut Uses| {
                if let Atom::Sym(s) = a {
                    u.escaping.insert(*s);
                }
            };
            match &st.expr {
                Expr::FieldGet { obj, sid, field } => {
                    u.getter.insert(st.sym, (*sid, *field));
                    escape(obj, u);
                }
                Expr::StructNew { sid, args, .. } => {
                    for (j, a) in args.iter().enumerate() {
                        if let Atom::Sym(s) = a {
                            u.copies.push(((*sid, j), *s));
                        }
                    }
                }
                Expr::FieldSet {
                    obj,
                    sid,
                    field,
                    value,
                } => {
                    escape(obj, u);
                    if let Atom::Sym(s) = value {
                        u.copies.push(((*sid, *field), *s));
                    }
                }
                Expr::LoadTable { sid, table, .. } => u.tables.push((*sid, table.to_string())),
                Expr::LoadIndexUnique { table, field }
                | Expr::LoadIndexStarts { table, field }
                | Expr::LoadIndexItems { table, field } => {
                    u.index_cols.push((table.to_string(), *field))
                }
                e => e.for_each_atom(|a| escape(a, u)),
            }
            for blk in st.expr.blocks() {
                walk(blk, u);
            }
        }
        if let Atom::Sym(s) = b.result {
            u.escaping.insert(s);
        }
    }
    let mut u = Uses::default();
    walk(&p.body, &mut u);
    for (g, f) in &u.getter {
        if u.escaping.contains(g) {
            u.live.insert(*f);
        }
    }
    for (sid, table) in &u.tables {
        for (i, f) in p.structs.get(*sid).fields.iter().enumerate() {
            // A base field reads the column it is named after; index
            // columns count in the table's original column space.
            let col = schema.table(table).col_index(&f.name);
            if u.index_cols.contains(&(table.clone(), col)) {
                u.live.insert((*sid, i));
            }
        }
    }
    for sid in &u.keys {
        for i in 0..p.structs.get(*sid).fields.len() {
            u.live.insert((*sid, i));
        }
    }
    loop {
        let before = u.live.len();
        for (dst, g) in &u.copies {
            if let Some(src) = u.getter.get(g) {
                if u.live.contains(dst) {
                    u.live.insert(*src);
                }
            }
        }
        if u.live.len() == before {
            // A record with no live field keeps field 0.
            for (sid, def) in p.structs.iter() {
                if !def.fields.is_empty()
                    && !(0..def.fields.len()).any(|i| u.live.contains(&(sid, i)))
                {
                    u.live.insert((sid, 0));
                }
            }
            if u.live.len() == before {
                break;
            }
        }
    }
    let mut dead = Vec::new();
    for (sid, def) in p.structs.iter() {
        dead.extend(
            (0..def.fields.len())
                .map(|i| (sid, i))
                .filter(|f| !u.live.contains(f)),
        );
    }
    dead
}

/// `$all` lists every variant of `$ty` and `$f` names a value's variant.
/// Both come from one list, and `$f` matches it exhaustively, so a new
/// variant does not compile until it is listed here.
macro_rules! variants {
    ($ty:ident, $f:ident, $all:ident, [$($v:ident),* $(,)?]) => {
        const $all: &[&str] = &[$(stringify!($v)),*];
        fn $f(x: &$ty) -> &'static str {
            match x {
                $($ty::$v { .. } => stringify!($v)),*
            }
        }
    };
}

variants! {Expr, expr_variant, EXPR, [
    Atom, Bin, Un, Prim, Dict, If, ForRange, While, DeclVar, ReadVar, Assign,
    StructNew, FieldGet, FieldSet, ArrayNew, ArrayGet, ArraySet, ArrayLen, SortArray,
    ListNew, ListAppend, ListSize, ListForeach, HashMapNew, HashMapGetOrInit,
    HashMapForeach, MultiMapNew, MultiMapAdd, MultiMapForeachAt, PoolNew, PoolAlloc,
    LoadTable, LoadIndexUnique, LoadIndexStarts, LoadIndexItems, Printf, LoadParam,
]}
variants! {BinOp, bin_variant, BIN_OP, [
    Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or, BitAnd, BitOr, Max,
]}
variants! {UnOp, un_variant, UN_OP, [Neg, Not, I2D, L2D, L2I, Year, HashInt, HashDouble]}
variants! {PrimOp, prim_variant, PRIM_OP, [
    StrEq, StrNe, StrCmp, StrStartsWith, StrEndsWith, StrContains, StrLike, StrSubstr,
    HashStr, TimerStart, TimerStop, PrintRusage,
]}
variants! {DictOp, dict_variant, DICT_OP, [Lookup, RangeStart, RangeEnd, Decode]}
variants! {Layout, layout_variant, LAYOUT, [Boxed, Columnar]}

/// The decisions allocation nodes carry, each of which some pass reads:
/// a dense `HashMapNew` with a single and with a composite key, one
/// whose aggregates include a min or max, a bounded `ListNew` and a
/// `StructNew` with an estimated (non-default) pool.
const FIELDS: &[&str] = &["dense", "dense composite", "has_minmax", "bound", "pool"];

/// The IR keeps only vocabulary the stack emits: every variant of the
/// node, operator and layout enums (a layout on some `LoadTable`), and
/// every value of [`FIELDS`], occurs in some stage program of the
/// `ir_digest` corpus (the 22 queries and the three QMonad queries at
/// every Table 3 configuration), the parameterized
/// templates, or one of two small plans (a negated column, the average
/// of an `Int` column). `Expr::Atom` is the exception the other way: the
/// builder folds every alias, so no program holds one.
#[test]
fn every_ir_variant_is_emitted_by_some_compile() {
    use dblab::frontend::expr::col;
    use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
    use dblab::transform::pass::{Frontend, MonadLowering, PlanLowering};
    use dblab::transform::stack::compile_frontend;

    let schema = tpch::generate(0.002, &std::env::temp_dir().join("dblab_census")).schema;
    let mut plans: Vec<QueryProgram> = (1..=22).map(tpch::queries::query).collect();
    plans.extend((1..=22).filter_map(tpch::queries::template));
    let lineitem = || QPlan::scan("lineitem");
    plans.push(QueryProgram::new(
        lineitem().project(vec![("neg", col("l_linenumber").neg())]),
    ));
    plans.push(QueryProgram::new(
        lineitem().agg(vec![], vec![("avg", AggFunc::Avg(col("l_linenumber")))]),
    ));
    let monads = dblab_bench::qmonad_queries();
    let mut frontends: Vec<Box<dyn Frontend + '_>> = Vec::new();
    frontends.extend(
        plans
            .iter()
            .map(|p| Box::new(PlanLowering(p)) as Box<dyn Frontend>),
    );
    frontends.extend(
        monads
            .iter()
            .map(|(_, q)| Box::new(MonadLowering(q)) as Box<dyn Frontend>),
    );

    let mut seen = HashSet::new();
    for cfg in dblab_bench::table3_configs() {
        for fe in &frontends {
            for (_, p) in compile_frontend(fe.as_ref(), &schema, &cfg, true).1 {
                p.body.for_each_stmt(&mut |st| {
                    seen.insert(("Expr", expr_variant(&st.expr)));
                    seen.insert(match &st.expr {
                        Expr::Bin(op, ..) => ("BinOp", bin_variant(op)),
                        Expr::Un(op, _) => ("UnOp", un_variant(op)),
                        Expr::Prim(op, _) => ("PrimOp", prim_variant(op)),
                        Expr::Dict { op, .. } => ("DictOp", dict_variant(op)),
                        Expr::LoadTable { layout, .. } => ("Layout", layout_variant(layout)),
                        _ => ("Expr", expr_variant(&st.expr)),
                    });
                    let field = match &st.expr {
                        Expr::HashMapNew { dense: Some(d), .. } if d.composite => {
                            Some("dense composite")
                        }
                        Expr::HashMapNew { dense: Some(_), .. } => Some("dense"),
                        Expr::ListNew { bound: Some(_), .. } => Some("bound"),
                        Expr::StructNew { pool, .. } if *pool != DEFAULT_POOL => Some("pool"),
                        _ => None,
                    };
                    seen.extend(field.map(|f| ("field", f)));
                    if let Expr::HashMapNew {
                        has_minmax: true, ..
                    } = st.expr
                    {
                        seen.insert(("field", "has_minmax"));
                    }
                });
            }
        }
    }
    let every = [
        ("Expr", EXPR),
        ("BinOp", BIN_OP),
        ("UnOp", UN_OP),
        ("PrimOp", PRIM_OP),
        ("DictOp", DICT_OP),
        ("Layout", LAYOUT),
        ("field", FIELDS),
    ];
    let missing: Vec<String> = (every.iter())
        .flat_map(|(ty, vs)| vs.iter().map(move |v| (*ty, *v)))
        .filter(|k| *k != ("Expr", "Atom") && !seen.contains(k))
        .map(|(ty, v)| format!("{ty}::{v}"))
        .collect();
    assert!(missing.is_empty(), "no compile emits {missing:?}");
    assert!(
        !seen.contains(&("Expr", "Atom")),
        "a stage program holds an alias"
    );
}

/// A map a level-5 lowering may hash, in the order pipelining emits it:
/// `sized` is the plan whose expected rows size the map, `truth` the
/// plan whose oracle row count is the number of entries it holds.
struct MapSite<'p> {
    join: bool,
    sized: &'p dblab::frontend::qplan::QPlan,
    truth: dblab::frontend::qplan::QPlan,
}

/// Every join build and group-by of `plan`, map emission order: a join's
/// map before its build and probe sides, a group-by's before its input,
/// and a `COUNT(DISTINCT)`'s pair map before its input and its group map
/// after. Joins one of whose inputs an index replaces (§4.3, decided by
/// `index_inference::join_index`, which the lowering asks too) hold no
/// map and emit only the other input.
fn map_sites<'p>(
    plan: &'p dblab::frontend::qplan::QPlan,
    schema: &dblab::catalog::Schema,
    out: &mut Vec<MapSite<'p>>,
) {
    use dblab::frontend::qplan::{AggFunc, JoinKind, QPlan};
    match plan {
        QPlan::Scan { .. } => {}
        QPlan::Select { child, .. }
        | QPlan::Project { child, .. }
        | QPlan::Sort { child, .. }
        | QPlan::Limit { child, .. } => map_sites(child, schema, out),
        QPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            ..
        } => {
            use dblab::transform::index_inference::{join_index, Side};
            match join_index(*kind, left, right, left_keys, right_keys, schema) {
                Some((_, Side::Left)) => map_sites(right, schema, out),
                Some((_, Side::Right)) => map_sites(left, schema, out),
                None => {
                    let (build, probe) = match kind {
                        JoinKind::Inner => (left, right),
                        _ => (right, left),
                    };
                    out.push(MapSite {
                        join: true,
                        sized: build,
                        truth: (**build).clone(),
                    });
                    map_sites(build, schema, out);
                    map_sites(probe, schema, out);
                }
            }
        }
        QPlan::Agg {
            child,
            group_by,
            aggs,
        } if !group_by.is_empty() => {
            let grouped = MapSite {
                join: false,
                sized: plan,
                truth: plan.clone(),
            };
            match aggs.iter().find_map(|(_, a)| match a {
                AggFunc::CountDistinct(e) => Some(e),
                _ => None,
            }) {
                Some(d) => {
                    let mut pair = group_by.clone();
                    pair.push(("__d".into(), d.clone()));
                    out.push(MapSite {
                        join: false,
                        sized: child,
                        truth: QPlan::Agg {
                            child: child.clone(),
                            group_by: pair,
                            aggs: vec![],
                        },
                    });
                    map_sites(child, schema, out);
                    out.push(grouped);
                }
                None => {
                    out.push(grouped);
                    map_sites(child, schema, out);
                }
            }
        }
        QPlan::Agg { child, .. } => map_sites(child, schema, out),
    }
}

/// Every inner join of `plan`, outermost first.
fn inner_joins<'p>(
    plan: &'p dblab::frontend::qplan::QPlan,
    out: &mut Vec<&'p dblab::frontend::qplan::QPlan>,
) {
    use dblab::frontend::qplan::{JoinKind, QPlan};
    match plan {
        QPlan::Scan { .. } => {}
        QPlan::Select { child, .. }
        | QPlan::Project { child, .. }
        | QPlan::Sort { child, .. }
        | QPlan::Limit { child, .. }
        | QPlan::Agg { child, .. } => inner_joins(child, out),
        QPlan::HashJoin {
            left, right, kind, ..
        } => {
            if *kind == JoinKind::Inner {
                out.push(plan);
            }
            inner_joins(left, out);
            inner_joins(right, out);
        }
    }
}

/// A (filtered, possibly aliased) base scan keyed by `key` on its table's
/// single-column primary key, read from the plan alone.
fn keyed_on_primary_key(
    side: &dblab::frontend::qplan::QPlan,
    key: &dblab::frontend::expr::ScalarExpr,
    schema: &dblab::catalog::Schema,
) -> Option<String> {
    use dblab::frontend::{expr::ScalarExpr, qplan::QPlan};
    let mut cur = side;
    while let QPlan::Select { child, .. } = cur {
        cur = child;
    }
    let (QPlan::Scan { table, alias }, ScalarExpr::Col(k)) = (cur, key) else {
        return None;
    };
    let def = schema.table(table);
    let [pk] = def.primary_key[..] else {
        return None;
    };
    let name = match alias {
        Some(a) => format!("{a}_{}", def.columns[pk].name),
        None => def.columns[pk].name.to_string(),
    };
    (**k == *name).then(|| table.to_string())
}

/// Index inference (§5.2) over the 22 level-5 queries, join by join. Each
/// inner join is printed with the input an index replaces, or "hashed"
/// and why. No join whose right input is a (filtered) base scan keyed on
/// its single-column primary key keeps a hash table: the lowering probes
/// that table's unique index with the left input's rows. The lowered
/// program holds one `MultiMapNew` per join (of any kind) that
/// `join_index` leaves hashed, and the final program's `LoadIndexUnique`
/// count per query is pinned.
#[test]
fn primary_key_joins_probe_a_unique_index() {
    use dblab::frontend::qplan::QPlan;
    use dblab::transform::index_inference::{analyze, join_index, Side};
    use dblab::transform::pipeline::lower_program;

    /// Unique indexes of Q1..Q22 at level 5, one per (table, key): Q7
    /// reads supplier, orders, customer and nation (both of its nation
    /// joins) through them, Q8 six tables.
    const UNIQUE: [usize; 22] = [
        0, 2, 1, 0, 3, 0, 4, 6, 4, 2, 1, 1, 0, 0, 1, 2, 0, 1, 0, 1, 3, 0,
    ];
    let db = tpch::generate(0.002, &std::env::temp_dir().join("dblab_pk_joins"));
    let schema = &db.schema;
    let cfg = StackConfig::level5();
    let (mut failures, mut unique) = (Vec::new(), Vec::new());
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let mut joins = Vec::new();
        for plan in prog.lets.iter().map(|(_, p)| p).chain([&prog.main]) {
            inner_joins(plan, &mut joins);
        }
        for join in joins {
            let QPlan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                ..
            } = join
            else {
                unreachable!()
            };
            let on = format!("{:?} = {:?}", left_keys, right_keys);
            let verdict = match join_index(*kind, left, right, left_keys, right_keys, schema) {
                Some((ix, side)) => {
                    let shape = if ix.unique { "unique" } else { "CSR" };
                    let side = if side == Side::Left { "left" } else { "right" };
                    format!("{side} indexed ({shape} on {})", ix.table)
                }
                None => {
                    if let (1, Some(t)) = (
                        right_keys.len(),
                        keyed_on_primary_key(right, &right_keys[0], schema),
                    ) {
                        failures.push(format!("Q{n}: {on} hashes primary-key scan {t}"));
                    }
                    match (left_keys.len(), analyze(right, &right_keys[0], schema)) {
                        (1, Some(r)) => format!("hashed: right keyed on non-unique {}", r.table),
                        (1, None) => "hashed: neither input is a keyed base scan".to_string(),
                        _ => "hashed: composite key".to_string(),
                    }
                }
            };
            println!("Q{n:<3} {on:<56} {verdict}");
        }
        let lowered = lower_program(&prog, schema, &cfg);
        let mut maps = 0;
        lowered.body.for_each_stmt(&mut |st| {
            maps += matches!(st.expr, Expr::MultiMapNew { .. }) as usize;
        });
        let mut sites = Vec::new();
        for plan in prog.lets.iter().map(|(_, p)| p).chain([&prog.main]) {
            map_sites(plan, schema, &mut sites);
        }
        let hashed = sites.iter().filter(|s| s.join).count();
        if maps != hashed {
            failures.push(format!(
                "Q{n}: {maps} join maps lowered, {hashed} joins hashed"
            ));
        }
        let compiled = dblab::transform::compile(&prog, schema, &cfg).program;
        let mut count = 0;
        compiled.body.for_each_stmt(&mut |st| {
            count += matches!(st.expr, Expr::LoadIndexUnique { .. }) as usize;
        });
        unique.push(count);
    }
    assert!(failures.is_empty(), "{failures:#?}");
    assert_eq!(unique, UNIQUE, "LoadIndexUnique per query, Q1..Q22");
}

/// The expected-case estimate that sizes each hashed map holds a q-error
/// bound ("Query Optimization in the Wild": `max(est/true, true/est)`)
/// against the true entry count at SF 0.01: for every join and group-by
/// map of the 22 level-5 queries, the Volcano oracle runs the build side,
/// or counts the groups. The map sites are matched to the lowered
/// program's `MultiMapNew`/`HashMapNew`s in emission order, and each
/// `expected` size must equal `pipeline::expected_rows` of its plan. Dense
/// group-bys (arrays indexed by key) are not hashed, so not checked.
///
/// An over-estimate only leaves slots empty; an under-estimate lengthens
/// every chain, so it has the tighter bound. Q9's join results over its
/// `partsupp` join (the left inputs of the joins above it) are held to
/// q ≤ 4: without the cap on a side's `d`, `partsupp`'s composite key
/// (2,000 × 100 distinct pairs over 8,000 rows) makes every estimate
/// above it ~25× too small. Index inference probes the tables joined
/// above it (orders, nation) by their primary keys, so no map is sized
/// by these estimates at level 5; they are checked all the same, as the
/// sizes any configuration that hashes those joins gets.
#[test]
fn hashed_map_estimates_hold_a_q_error_bound() {
    use dblab::frontend::qplan::QueryProgram;
    use dblab::transform::pipeline::{expected_rows, lower_program};

    /// Measured at SF 0.01: the largest q-error is 60 (Q13's group-by on
    /// a count, which has no distinct count, so it keeps its input's
    /// estimate), the largest under-estimate 5.5 (a Q2 join build of 44
    /// rows estimated at 8).
    const MAX_Q: f64 = 64.0;
    const MAX_UNDER: f64 = 6.0;
    let db = tpch::generate(0.01, &std::env::temp_dir().join("dblab_qerror"));
    let schema = &db.schema;
    let (mut worst, mut under) = ((0.0f64, String::new()), (0.0f64, String::new()));
    println!(
        "{:<6}{:<7}{:>9}{:>9}{:>8}",
        "query", "map", "est", "true", "q"
    );
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let mut sites = Vec::new();
        for plan in prog.lets.iter().map(|(_, p)| p).chain([&prog.main]) {
            map_sites(plan, schema, &mut sites);
        }
        let lowered = lower_program(&prog, schema, &StackConfig::level5());
        let mut maps = [Vec::new(), Vec::new()];
        lowered.body.for_each_stmt(&mut |st| match st.expr {
            Expr::MultiMapNew { expected, .. } => maps[1].push((expected, false)),
            Expr::HashMapNew {
                expected, dense, ..
            } => maps[0].push((expected, dense.is_some())),
            _ => {}
        });
        for join in [false, true] {
            let of_kind: Vec<&MapSite> = sites.iter().filter(|s| s.join == join).collect();
            assert_eq!(of_kind.len(), maps[join as usize].len(), "Q{n}: map sites");
            for (site, &(expected, dense)) in of_kind.into_iter().zip(&maps[join as usize]) {
                let est = expected_rows(site.sized, schema);
                assert_eq!(expected, est, "Q{n}: expected size");
                if dense {
                    continue;
                }
                let truth = dblab::engine::execute_program(
                    &QueryProgram {
                        main: site.truth.clone(),
                        ..prog.clone()
                    },
                    &db,
                )
                .rows
                .len()
                .max(1) as f64;
                let q = (est as f64 / truth).max(truth / est as f64);
                let kind = if join { "join" } else { "group" };
                println!("Q{n:<5}{kind:<7}{est:>9}{truth:>9}{q:>8.2}");
                let at = || format!("Q{n} {kind}: est {est}, true {truth}");
                if q > worst.0 {
                    worst = (q, at());
                }
                if (est as f64) < truth && q > under.0 {
                    under = (q, at());
                }
            }
        }
    }
    println!("max q-error {:.2} ({})", worst.0, worst.1);
    println!("max under-estimate {:.2} ({})", under.0, under.1);
    assert!(
        worst.0 <= MAX_Q,
        "q-error {:.2} > {MAX_Q}: {}",
        worst.0,
        worst.1
    );
    assert!(
        under.0 <= MAX_UNDER,
        "under-estimate {:.2} > {MAX_UNDER}: {}",
        under.0,
        under.1
    );
    let q9 = tpch::queries::query(9);
    let mut joins = Vec::new();
    inner_joins(&q9.main, &mut joins);
    let mut q9_partsupp = Vec::new();
    for join in joins {
        let dblab::frontend::qplan::QPlan::HashJoin { left, .. } = join else {
            unreachable!()
        };
        if left.tables().iter().any(|t| &**t == "partsupp") {
            let est = expected_rows(left, schema) as f64;
            let truth = dblab::engine::execute_program(
                &QueryProgram {
                    main: (**left).clone(),
                    ..q9.clone()
                },
                &db,
            )
            .rows
            .len()
            .max(1) as f64;
            println!("Q9 over partsupp: est {est}, true {truth}");
            q9_partsupp.push((est / truth).max(truth / est));
        }
    }
    assert!(!q9_partsupp.is_empty(), "Q9 joins nothing over partsupp");
    assert!(
        q9_partsupp.iter().all(|q| *q <= 4.0),
        "Q9 join results over the partsupp join: q-errors {q9_partsupp:?}"
    );
}
