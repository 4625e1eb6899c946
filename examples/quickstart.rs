//! Quickstart: the paper's running example (Figure 4) through the whole
//! stack.
//!
//! Builds `SELECT COUNT(*) FROM R, S WHERE R.name = 'R1' AND R.sid = S.rid`
//! over a small two-table schema, compiles it through every DSL level, and
//! prints the pass manager's instrumented stage trace (per-pass wall time,
//! IR-size delta and level transition). With `--show-ir` it also prints
//! the intermediate program after each stage — the textual equivalents of
//! Figures 4d–4g — plus the final C and its result.
//!
//! ```text
//! cargo run --example quickstart -- [--show-ir]
//! ```

use dblab::catalog::{ColType, Schema, TableDef};
use dblab::frontend::expr::{col, lit_s};
use dblab::frontend::qplan::{AggFunc, JoinKind, QPlan, QueryProgram};
use dblab::ir::printer::print_program;
use dblab::runtime::{Database, Table, Value};
use dblab::transform::config::dblab_stack;
use dblab::transform::stack::compile_with_snapshots;
use dblab::transform::StackConfig;

fn main() {
    // ---- schema and data (the paper's R and S) -------------------------
    let mut schema = Schema::new(vec![
        TableDef::new(
            "r",
            vec![
                ("r_id", ColType::Int),
                ("r_name", ColType::String),
                ("r_sid", ColType::Int),
            ],
        )
        .with_primary_key(&["r_id"]),
        TableDef::new("s", vec![("s_id", ColType::Int), ("s_rid", ColType::Int)])
            .with_primary_key(&["s_id"]),
    ]);
    let dir = std::env::temp_dir().join("dblab_quickstart");
    let mut r = Table::empty(schema.table("r"));
    for (id, name, sid) in [(1, "R1", 1), (2, "R2", 1), (3, "R1", 2), (4, "R3", 3)] {
        r.push_row(vec![Value::Int(id), Value::str(name), Value::Int(sid)]);
    }
    let mut s = Table::empty(schema.table("s"));
    for (id, rid) in [(1, 1), (2, 1), (3, 2), (4, 9)] {
        s.push_row(vec![Value::Int(id), Value::Int(rid)]);
    }
    for t in [&r, &s] {
        let def = schema.table_mut(&t.def.name.clone());
        def.stats.row_count = t.len() as u64;
        def.stats.int_max = vec![4; def.columns.len()];
        def.stats.distinct = vec![4; def.columns.len()];
    }
    let db = Database {
        schema: schema.clone(),
        tables: vec![r, s],
        dir: dir.clone(),
    };
    db.write_all().expect("write .tbl files");

    // ---- the query (Figure 4b) -----------------------------------------
    let plan = QPlan::scan("r")
        .select(col("r_name").eq(lit_s("R1")))
        .hash_join(
            QPlan::scan("s"),
            JoinKind::Inner,
            vec![col("r_sid")],
            vec![col("s_rid")],
        )
        .agg(vec![], vec![("count", AggFunc::Count)]);
    let prog = QueryProgram::new(plan);

    // ---- the declared stack passes the two principles (§2) --------------
    let chain = dblab_stack().check().expect("principled stack");
    println!("## lowering chain");
    for e in &chain {
        println!("  {}  :  {} -> {}", e.name, e.source, e.target);
    }

    // ---- progressive lowering, instrumented by the pass manager ---------
    let show_ir = std::env::args().any(|a| a == "--show-ir");
    let cfg = StackConfig::level5();
    let (cq, stages) = compile_with_snapshots(&prog, &schema, &cfg, true);
    println!("\n## stage trace (per-pass time, IR-size delta, level)");
    for line in cq.stage_report().lines() {
        println!("  {line}");
    }
    if show_ir {
        for (name, p) in &stages {
            println!("\n## after {name} — {} ({} stmts)", p.level, p.body.size());
            let text = print_program(p);
            for line in text.lines().take(28) {
                println!("    {line}");
            }
            if text.lines().count() > 28 {
                println!("    … ({} more lines)", text.lines().count() - 28);
            }
        }
    }

    // ---- hand the lowered program to a backend through the facade -------
    let gen = std::env::temp_dir().join("dblab_quickstart_gen");
    let art = dblab::codegen::Compiler::new(&schema)
        .config(&cfg)
        .out_dir(&gen)
        .build_staged(cq, "quickstart")
        .expect("gcc");
    println!(
        "\n## generated {} source: {} lines",
        art.backend,
        art.source.lines().count()
    );
    let out = art.run(&dir).expect("run");
    println!("## compiled result: {}", out.stdout.trim());

    // ---- cross-check against the Volcano oracle -------------------------
    let oracle = dblab::engine::execute_program(&prog, &db);
    println!("## volcano oracle : {}", oracle.to_text().trim());
    assert_eq!(out.stdout.trim(), oracle.to_text().trim());
    println!("\nresults agree — the stack preserved semantics at every level");

    // ---- recompile warm: the caches at work ------------------------------
    // Same query, same configuration: the compile cache serves every
    // registry pass with one hit and the build cache skips gcc entirely.
    // The snapshot compile above kept its stage programs, so it bypassed
    // the compile cache; one plain compile fills it.
    let _ = dblab::transform::compile(&prog, &schema, &cfg);
    let warm = dblab::codegen::Compiler::new(&schema)
        .config(&cfg)
        .out_dir(&gen)
        .compile_named(&prog, "quickstart")
        .expect("warm compile");
    println!("\n## warm recompile (compile cache + source-level build cache)");
    for line in warm.stack.stage_report().lines() {
        println!("  {line}");
    }
    println!(
        "  build: {} (was {:.1} ms cold)",
        if warm.build_cached {
            "artifact reused, 0.0 ms"
        } else {
            "rebuilt"
        },
        art.exe.build_time().as_secs_f64() * 1e3
    );
    assert!(warm.stack.cached, "warm compile hits the compile cache");
}
