//! Randomized property tests over the core invariants (no external
//! framework: a seeded [`Rng64`] drives hand-rolled generators, so the
//! suite is deterministic and dependency-free):
//!
//! * scalar-expression lowering + ANF construction (CSE, constant folding)
//!   preserve evaluation semantics — random expression trees are evaluated
//!   by the Volcano evaluator and by the IR interpreter over the lowered
//!   program, and must agree;
//! * ordered string dictionaries preserve `<`, equality and `startsWith`;
//! * the Volcano hash join equals a naïve nested-loop join;
//! * the structural IR hasher (the compile-cache key) is printer-faithful:
//!   printer-equal programs hash equal, any single-node mutation changes
//!   the hash, and two process-independent constructions of the same
//!   query plan agree.

use dblab::catalog::{ColType, Schema, TableDef};
use dblab::frontend::expr::{Lit, ScalarExpr};
use dblab::runtime::{Database, StringDict, Table, Value};
use dblab::tpch::rng::Rng64;

const CASES: usize = 128;

// ---------------------------------------------------------------------
// Random scalar expressions
// ---------------------------------------------------------------------

fn arb_expr(rng: &mut Rng64, depth: usize) -> ScalarExpr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        match rng.gen_range(0..5u8) {
            0 => ScalarExpr::Lit(Lit::Int(rng.gen_range(-50..50i32))),
            1 => ScalarExpr::Lit(Lit::Double(rng.gen_range(-50..50i32) as f64 / 4.0)),
            2 => ScalarExpr::Col("a".into()),
            3 => ScalarExpr::Col("b".into()),
            _ => ScalarExpr::Col("d".into()),
        }
    } else {
        let x = arb_expr(rng, depth - 1);
        match rng.gen_range(0..5u8) {
            0 => x.add(arb_expr(rng, depth - 1)),
            1 => x.sub(arb_expr(rng, depth - 1)),
            2 => x.mul(arb_expr(rng, depth - 1)),
            3 => ScalarExpr::case_when(
                // comparisons wrapped back into arithmetic via CASE
                x.lt(arb_expr(rng, depth - 1)),
                ScalarExpr::Lit(Lit::Int(1)),
                ScalarExpr::Lit(Lit::Int(0)),
            ),
            _ => x.neg(),
        }
    }
}

fn tiny_db(a: i32, b: i32, d: f64) -> Database {
    let schema = Schema::new(vec![TableDef::new(
        "t",
        vec![
            ("a", ColType::Int),
            ("b", ColType::Int),
            ("d", ColType::Double),
        ],
    )]);
    let mut t = Table::empty(schema.table("t"));
    t.push_row(vec![Value::Int(a), Value::Int(b), Value::Double(d)]);
    Database {
        schema,
        tables: vec![t],
        dir: std::env::temp_dir(),
    }
}

/// Lowered-and-interpreted == directly evaluated, for arbitrary
/// arithmetic over a one-row table. Exercises the builder's constant
/// folding and hash-consing on every tree.
#[test]
fn scalar_lowering_preserves_semantics() {
    let mut rng = Rng64::seed_from_u64(0xdb1ab001);
    for _ in 0..CASES {
        let e = arb_expr(&mut rng, 4);
        let a = rng.gen_range(-20..20i32);
        let b = rng.gen_range(-20..20i32);
        let d = rng.gen_range(-8..8i32) as f64 / 2.0;
        let db = tiny_db(a, b, d);
        // Reference: Volcano expression evaluator.
        let plan = dblab::frontend::qplan::QPlan::scan("t").project(vec![("out", e.clone())]);
        let oracle = dblab::engine::execute_plan(&plan, &db);
        let want = oracle.rows[0][0].as_f64();

        // Lowered through the pipeline (level-2 config) and interpreted.
        let prog = dblab::frontend::qplan::QueryProgram::new(plan.clone());
        let mut schema = db.schema.clone();
        schema.table_mut("t").stats.row_count = 1;
        let p = dblab::transform::pipeline::lower_program(
            &prog,
            &schema,
            &dblab::transform::StackConfig::level2(),
        );
        let out = dblab::interp::run(&p, &db.into());
        let got: f64 = out.trim().parse().expect("one numeric cell");
        assert!(
            (got - want).abs() <= 1e-4_f64.max(want.abs() * 1e-9),
            "got {got}, want {want}, expr {e:?}"
        );
    }
}

/// The ANF builder never changes results when CSE/folding are toggled.
#[test]
fn cse_and_folding_are_semantics_preserving() {
    let mut rng = Rng64::seed_from_u64(0xdb1ab002);
    for _ in 0..CASES {
        let e = arb_expr(&mut rng, 4);
        let db = tiny_db(3, -7, 1.5);
        let plan = dblab::frontend::qplan::QPlan::scan("t").project(vec![("out", e)]);
        let prog = dblab::frontend::qplan::QueryProgram::new(plan);
        let mut schema = db.schema.clone();
        schema.table_mut("t").stats.row_count = 1;
        let cfg = dblab::transform::StackConfig::level2();
        let p1 = dblab::transform::pipeline::lower_program(&prog, &schema, &cfg);
        let p2 = dblab::ir::opt::optimize(p1.clone());
        let db = dblab::runtime::Snapshot::from(db);
        assert_eq!(dblab::interp::run(&p1, &db), dblab::interp::run(&p2, &db));
        assert!(
            p2.body.size() <= p1.body.size(),
            "optimize must not grow programs"
        );
    }
}

// -------------------------------------------------------------------
// String dictionaries (paper Table 2 semantics)
// -------------------------------------------------------------------

fn abc_string(rng: &mut Rng64, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..3u8)) as char)
        .collect()
}

#[test]
fn ordered_dictionary_is_order_preserving() {
    let mut rng = Rng64::seed_from_u64(0xdb1ab006);
    for _ in 0..CASES {
        let n = rng.gen_range(1..40usize);
        let mut words: Vec<String> = (0..n).map(|_| abc_string(&mut rng, 5)).collect();
        let probe = abc_string(&mut rng, 3);
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let d = StringDict::build(refs.iter().copied(), true);
        // order preservation
        words.sort();
        words.dedup();
        for w in words.windows(2) {
            assert!(d.code(&w[0]) < d.code(&w[1]));
        }
        // startsWith == range membership, for every stored word
        let (s, e) = d.prefix_range(&probe);
        for w in &words {
            let c = d.code(w);
            assert_eq!(
                w.starts_with(&probe),
                c >= s && c <= e,
                "word {w} probe {probe}"
            );
        }
    }
}

// -------------------------------------------------------------------
// Structural IR hashing (the compile-cache key)
// -------------------------------------------------------------------

/// Lower an arbitrary expression program through the level-2 stack —
/// everything fresh per call, so two calls share no allocation.
fn lower_fresh(e: &ScalarExpr, cfg: &dblab::transform::StackConfig) -> dblab::ir::Program {
    let db = tiny_db(3, -7, 1.5);
    let plan = dblab::frontend::qplan::QPlan::scan("t").project(vec![("out", e.clone())]);
    let prog = dblab::frontend::qplan::QueryProgram::new(plan);
    let mut schema = db.schema.clone();
    schema.table_mut("t").stats.row_count = 1;
    dblab::transform::compile(&prog, &schema, cfg).program
}

/// Printer-equal programs hash equal, and independent constructions of
/// the same plan are printer-equal — over random expression trees.
#[test]
fn printer_equal_programs_hash_equal() {
    use dblab::ir::hash::program_hash;
    use dblab::ir::printer::print_program;
    let mut rng = Rng64::seed_from_u64(0xdb1ab008);
    let cfg = dblab::transform::StackConfig::level2();
    for _ in 0..CASES {
        let e = arb_expr(&mut rng, 4);
        let p1 = lower_fresh(&e, &cfg);
        let p2 = lower_fresh(&e, &cfg);
        assert_eq!(
            print_program(&p1),
            print_program(&p2),
            "lowering is deterministic"
        );
        assert_eq!(
            program_hash(&p1),
            program_hash(&p2),
            "printer-equal programs must hash equal: {e:?}"
        );
    }
}

/// Any single-node mutation — operator, literal, struct field name —
/// changes the hash.
#[test]
fn single_node_mutations_change_the_hash() {
    use dblab::ir::expr::{Atom, BinOp, Expr};
    use dblab::ir::hash::program_hash;

    let schema = {
        let mut s = dblab::tpch::tpch_schema();
        for t in &mut s.tables {
            t.stats.row_count = 100;
            t.stats.int_max = vec![100; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        s
    };
    let prog = dblab::tpch::queries::q6();
    let p =
        dblab::transform::compile(&prog, &schema, &dblab::transform::StackConfig::level5()).program;
    let base = program_hash(&p);

    // (a) flip one binary operator
    let mut op_flipped = p.clone();
    let mut flipped = false;
    fn flip_first_bin(b: &mut dblab::ir::Block, done: &mut bool) {
        for st in &mut b.stmts {
            if *done {
                return;
            }
            if let Expr::Bin(op, _, _) = &mut st.expr {
                *op = if *op == BinOp::Add {
                    BinOp::Sub
                } else {
                    BinOp::Add
                };
                *done = true;
                return;
            }
            match &mut st.expr {
                Expr::If { then_b, else_b, .. } => {
                    flip_first_bin(then_b, done);
                    flip_first_bin(else_b, done);
                }
                Expr::ForRange { body, .. }
                | Expr::While { body, .. }
                | Expr::ListForeach { body, .. }
                | Expr::HashMapForeach { body, .. }
                | Expr::MultiMapForeachAt { body, .. } => flip_first_bin(body, done),
                _ => {}
            }
        }
    }
    flip_first_bin(&mut op_flipped.body, &mut flipped);
    assert!(flipped, "q6 contains a binary operator");
    assert_ne!(base, program_hash(&op_flipped), "operator flip must rehash");

    // (b) nudge one literal
    let mut lit_nudged = p.clone();
    let mut nudged = false;
    fn nudge_first_int(b: &mut dblab::ir::Block, done: &mut bool) {
        for st in &mut b.stmts {
            if *done {
                return;
            }
            if let Expr::Bin(_, a, b) = &mut st.expr {
                for atom in [a, b] {
                    if let Atom::Int(v) = atom {
                        *v += 1;
                        *done = true;
                        return;
                    }
                }
            }
            if let Expr::ForRange { lo, hi, .. } = &mut st.expr {
                for atom in [lo, hi] {
                    if let Atom::Int(v) = atom {
                        *v += 1;
                        *done = true;
                        return;
                    }
                }
            }
            for blk in match &mut st.expr {
                Expr::If { then_b, else_b, .. } => vec![then_b, else_b],
                Expr::While { cond, body } => vec![cond, body],
                Expr::ForRange { body, .. }
                | Expr::ListForeach { body, .. }
                | Expr::HashMapForeach { body, .. }
                | Expr::MultiMapForeachAt { body, .. } => vec![body],
                _ => vec![],
            } {
                nudge_first_int(blk, done);
            }
        }
    }
    nudge_first_int(&mut lit_nudged.body, &mut nudged);
    assert!(nudged, "q6 contains an integer literal operand");
    assert_ne!(base, program_hash(&lit_nudged), "literal nudge must rehash");

    // (c) rename one struct field
    let mut field_renamed = p.clone();
    let sid = field_renamed
        .structs
        .iter()
        .map(|(id, _)| id)
        .next()
        .expect("q6 registers at least one struct");
    field_renamed.structs.get_mut(sid).fields[0].name = "mutated_field_name".into();
    assert_ne!(
        base,
        program_hash(&field_renamed),
        "field rename must rehash"
    );
}

/// The hash is stable across two process-independent constructions of
/// the same query plan: nothing address- or iteration-order-dependent
/// leaks into the fingerprint (the passes' own HashMaps iterate in a
/// different order in each of the two compiles).
#[test]
fn hash_is_stable_across_independent_constructions() {
    use dblab::ir::hash::program_hash;
    let build = || {
        let mut schema = dblab::tpch::tpch_schema();
        for t in &mut schema.tables {
            t.stats.row_count = 100;
            t.stats.int_max = vec![100; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        let prog = dblab::tpch::queries::query(3);
        dblab::transform::compile(&prog, &schema, &dblab::transform::StackConfig::level5()).program
    };
    assert_eq!(program_hash(&build()), program_hash(&build()));
}

// -------------------------------------------------------------------
// Pass-commutation DAG soundness
// -------------------------------------------------------------------

fn tpch_schema_with_stats() -> Schema {
    let mut s = dblab::tpch::tpch_schema();
    for t in &mut s.tables {
        t.stats.row_count = 100;
        t.stats.int_max = vec![100; t.columns.len()];
        t.stats.distinct = vec![10; t.columns.len()];
    }
    s
}

/// Every pair of passes the DAG declares commuting (leaves unordered)
/// yields `program_hash`-equal IR when swapped adjacently — over all 22
/// TPC-H queries, at the full stack and the partial stacks the benches
/// publish numbers for. A pair is unordered when the valid orders place
/// it both ways round; its adjacent swap is a valid order holding the two
/// side by side, compared with the same order with just the two swapped.
#[test]
fn declared_commuting_pairs_hash_equal_when_swapped() {
    use dblab::ir::hash::program_hash;
    use dblab::transform::stack::compile_scheduled;
    use dblab::transform::{schedule::Scheduler, StackConfig};
    let schema = tpch_schema_with_stats();
    let corpus: Vec<_> = (1..=22).map(dblab::tpch::queries::query).collect();
    // Each DAG's exact number of unordered pairs: a new edge or pass
    // moves it, and the soundness check below covers every pair.
    for (cfg, pairs) in [
        (StackConfig::level5(), 4),
        (StackConfig::level4(), 2),
        (StackConfig::compliant(), 4),
    ] {
        let sched = Scheduler::from_registry(&cfg).expect("DAG builds");
        let orders = sched.orders();
        let baseline = sched.baseline();
        let at = |o: &[&str], x: &str| o.iter().position(|n| *n == x).unwrap();
        let mut commuting = Vec::new();
        for (i, a) in baseline.iter().enumerate() {
            for b in &baseline[i + 1..] {
                if orders.iter().any(|o| at(o, a) > at(o, b)) {
                    commuting.push((*a, *b));
                }
            }
        }
        assert_eq!(
            commuting.len(),
            pairs,
            "{}: unordered pairs {commuting:?}",
            cfg.name
        );
        let mut violations = Vec::new();
        for &(a, b) in &commuting {
            // An unordered pair sits side by side in some valid order,
            // and swapping the two there keeps the order valid.
            let first = (orders.iter())
                .find(|o| at(o, b) == at(o, a) + 1)
                .unwrap_or_else(|| panic!("{}: `{a}`, `{b}` never adjacent", cfg.name));
            let mut swapped = first.clone();
            swapped.swap(at(first, a), at(first, b));
            assert!(orders.contains(&swapped), "{}: {swapped:?}", cfg.name);
            for (n, prog) in (1..).zip(&corpus) {
                let hash = |o: &[&str]| {
                    let cq = compile_scheduled(&sched, prog, &schema, o)
                        .unwrap_or_else(|e| panic!("{} Q{n} @ {o:?}: {e}", cfg.name));
                    program_hash(&cq.program)
                };
                if hash(first) != hash(&swapped) {
                    violations.push(format!("Q{n}: `{a}` and `{b}` do not commute"));
                }
            }
        }
        assert!(
            violations.is_empty(),
            "{}: {} commutation violations:\n{}",
            cfg.name,
            violations.len(),
            violations.join("\n")
        );
    }
}

// -------------------------------------------------------------------
// Join equivalence
// -------------------------------------------------------------------

#[test]
fn hash_join_equals_nested_loop() {
    let mut rng = Rng64::seed_from_u64(0xdb1ab007);
    for _ in 0..CASES {
        let pairs = |rng: &mut Rng64| -> Vec<(i32, i32)> {
            let n = rng.gen_range(0..30usize);
            (0..n)
                .map(|_| (rng.gen_range(0..8i32), rng.gen_range(-50..50i32)))
                .collect()
        };
        let left = pairs(&mut rng);
        let right = pairs(&mut rng);
        let schema = Schema::new(vec![
            TableDef::new("l", vec![("lk", ColType::Int), ("lv", ColType::Int)]),
            TableDef::new("r", vec![("rk", ColType::Int), ("rv", ColType::Int)]),
        ]);
        let mut lt = Table::empty(schema.table("l"));
        for (k, v) in &left {
            lt.push_row(vec![Value::Int(*k), Value::Int(*v)]);
        }
        let mut rt = Table::empty(schema.table("r"));
        for (k, v) in &right {
            rt.push_row(vec![Value::Int(*k), Value::Int(*v)]);
        }
        let db = Database {
            schema,
            tables: vec![lt, rt],
            dir: std::env::temp_dir(),
        };

        use dblab::frontend::expr::col;
        use dblab::frontend::qplan::{JoinKind, QPlan};
        let plan = QPlan::scan("l").hash_join(
            QPlan::scan("r"),
            JoinKind::Inner,
            vec![col("lk")],
            vec![col("rk")],
        );
        let got = dblab::engine::execute_plan(&plan, &db);

        let mut want = 0usize;
        let mut want_sum = 0i64;
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    want += 1;
                    want_sum += (*lv as i64) + (*rv as i64);
                }
            }
        }
        assert_eq!(got.rows.len(), want);
        let got_sum: i64 = got.rows.iter().map(|r| r[1].as_i64() + r[3].as_i64()).sum();
        assert_eq!(got_sum, want_sum);
    }
}
