//! Collection-programming front-end (paper §4.5): an analytics session in
//! QMonad against TPC-H data, compiled through the same lower stack levels
//! the plan front-end uses — the extensibility claim of §4.6 in action.
//!
//! ```text
//! cargo run --example qmonad_analytics
//! ```

use dblab::codegen::Compiler;
use dblab::transform::StackConfig;

fn main() {
    let dir = std::env::temp_dir().join("dblab_qmonad_data");
    let db = dblab::tpch::generate(0.01, &dir);
    db.write_all().expect("write data");
    let schema = db.schema.clone();

    // Three increasingly involved collection queries, the session that
    // `ir_digest` and the IR census compile too.
    let gen = std::env::temp_dir().join("dblab_qmonad_gen");
    for (name, q) in &dblab_bench::qmonad_queries() {
        // Oracle through the QPlan translation (the expressibility witness).
        let oracle = dblab::engine::execute_plan(&q.to_qplan(), &db);
        // Compiled through shortcut fusion + the full stack, via the facade.
        let art = Compiler::new(&schema)
            .config(&StackConfig::level5())
            .out_dir(&gen)
            .compile_qmonad(q, name)
            .expect("gcc");
        let out = art.run(&dir).expect("run");
        let lowerings: Vec<&str> = art
            .stack
            .stages
            .iter()
            .filter(|s| s.lowered())
            .map(|s| s.name.as_str())
            .collect();
        println!(
            "== {name} (query time {:.2} ms; {} stack stages, lowered via {})",
            out.query_ms,
            art.stack.stages.len(),
            lowerings.join(" -> ")
        );
        for line in out.stdout.lines() {
            println!("   {line}");
        }
        assert_eq!(
            out.stdout.trim(),
            oracle.to_text().trim(),
            "{name}: compiled result must match the oracle"
        );
    }
    println!("\nall QMonad queries verified against the Volcano oracle");
}
