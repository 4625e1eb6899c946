//! Parameterized-query differential suite: every TPC-H template, every
//! available backend, at least three distinct literal bindings — all
//! checked against the Volcano oracle evaluating the same bindings.
//!
//! The contract: parameter values never enter the compiled program.
//! One artifact per template serves every binding; the values travel as
//! runtime inputs (argv for the native backends, the interpreter's
//! parameter vector). The lowering-invariant tests at the bottom pin
//! exactly that — the lowered IR is binding-independent and carries
//! `param` slots, not literals.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use dblab::catalog::dates;
use dblab::codegen::{backend, backends, same_normalized, Compiler};
use dblab::engine;
use dblab::frontend::qplan::QueryProgram;
use dblab::runtime::Value;
use dblab::tpch;
use dblab::transform::StackConfig;

fn setup(tag: &str) -> (dblab::runtime::Database, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dblab_param_data_{tag}"));
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

type Binding = Vec<(&'static str, Value)>;

/// At least three distinct bindings per template, the first one empty —
/// the defaults must reproduce the plain (literal-baked) query — then one
/// whose filter keeps no row and one whose window keeps every row.
fn bindings_for(n: usize) -> Vec<Binding> {
    let (first, last) = (
        Value::Int(dates::encode(1990, 1, 1)),
        Value::Int(dates::encode(2000, 1, 1)),
    );
    match n {
        1 => vec![
            vec![],
            vec![("ship_hi", Value::Int(dates::encode(1995, 6, 17)))],
            vec![("ship_hi", Value::Int(dates::encode(1993, 3, 31)))],
            vec![("ship_hi", first)],
            vec![("ship_hi", last)],
        ],
        6 => vec![
            vec![],
            vec![
                ("discount", Value::Double(0.03)),
                ("quantity", Value::Double(30.0)),
            ],
            vec![
                ("date_lo", Value::Int(dates::encode(1993, 1, 1))),
                ("date_hi", Value::Int(dates::encode(1997, 1, 1))),
                ("discount", Value::Double(0.07)),
                ("quantity", Value::Double(50.0)),
            ],
            vec![("date_lo", last.clone()), ("date_hi", first.clone())],
            vec![
                ("date_lo", first),
                ("date_hi", last),
                ("quantity", Value::Double(1e9)),
            ],
        ],
        14 => vec![
            vec![],
            vec![
                ("date_lo", Value::Int(dates::encode(1994, 1, 1))),
                ("date_hi", Value::Int(dates::encode(1994, 7, 1))),
            ],
            vec![
                ("date_lo", Value::Int(dates::encode(1992, 1, 1))),
                ("date_hi", Value::Int(dates::encode(1998, 12, 31))),
            ],
            vec![("date_lo", last.clone()), ("date_hi", first.clone())],
            vec![("date_lo", first), ("date_hi", last)],
        ],
        other => panic!("no binding set for template {other}"),
    }
}

fn as_map(b: &Binding) -> HashMap<Arc<str>, Value> {
    b.iter().map(|(k, v)| ((*k).into(), v.clone())).collect()
}

/// The positional vector an executable wants: declaration order,
/// overrides by name, defaults elsewhere.
fn positional(template: &QueryProgram, b: &[(&'static str, Value)]) -> Vec<Value> {
    template
        .params
        .iter()
        .map(|d| {
            b.iter()
                .find(|(k, _)| *k == &*d.name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| engine::eval::lit_value(&d.default))
        })
        .collect()
}

/// Every template x every available backend x >=3 bindings, one compile
/// per (template, backend) — the same artifact must serve every binding
/// with oracle-correct rows.
#[test]
fn every_backend_serves_every_binding_from_one_artifact() {
    let (db, data) = setup("diff");
    let schema = db.schema.clone();
    let out = std::env::temp_dir().join("dblab_param_gen");
    let mut failures = Vec::new();
    for n in [1usize, 6, 14] {
        let template = tpch::queries::template(n).expect("template");
        let cases = bindings_for(n);
        let oracles: Vec<String> = cases
            .iter()
            .map(|b| engine::execute_program_bound(&template, &db, &as_map(b)).to_text())
            .collect();
        for b in backends() {
            if !b.available() {
                eprintln!("SKIP backend `{}` (requires {})", b.name(), b.requirement());
                continue;
            }
            let art = Compiler::new(&schema)
                .config(&StackConfig::level5())
                .backend(backend(b.name()).expect("registered"))
                .out_dir(&out)
                .compile_named(&template, &format!("pd_q{n}_{}", b.name()))
                .expect("compile template");
            for (i, (case, oracle)) in cases.iter().zip(&oracles).enumerate() {
                let params = positional(&template, case);
                match art.exe.run_bound(&data, &params, None) {
                    Ok(run) if same_normalized(oracle, &run.stdout) => {}
                    Ok(run) => failures.push(format!(
                        "Q{n} [{}] binding {i}: mismatch\noracle:\n{oracle}\ngot:\n{}",
                        b.name(),
                        run.stdout
                    )),
                    Err(e) => failures.push(format!("Q{n} [{}] binding {i}: {e}", b.name())),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// With default bindings, a template is row-for-row the plain query —
/// on the oracle and on every backend. Q6 is exempt: its discount band
/// is computed at runtime as `0.06 ± 0.01`, which floating point does
/// not evaluate to the literal query's baked `0.05`/`0.07` endpoints
/// (its defaults are instead pinned against the oracle by the binding-0
/// case of the suite above).
#[test]
fn default_bindings_reproduce_the_literal_query() {
    let (db, data) = setup("defaults");
    let schema = db.schema.clone();
    let out = std::env::temp_dir().join("dblab_param_gen");
    for n in [1usize, 14] {
        let template = tpch::queries::template(n).expect("template");
        let plain = engine::execute_program(&tpch::queries::query(n), &db).to_text();
        let templated = engine::execute_program_bound(&template, &db, &HashMap::new()).to_text();
        assert!(
            same_normalized(&plain, &templated),
            "Q{n}: template defaults diverge from the literal query on the oracle"
        );
        for b in backends() {
            if !b.available() {
                continue;
            }
            let art = Compiler::new(&schema)
                .config(&StackConfig::level5())
                .backend(backend(b.name()).expect("registered"))
                .out_dir(&out)
                .compile_named(&template, &format!("pd_def_q{n}_{}", b.name()))
                .expect("compile template");
            let params = positional(&template, &[]);
            let run = art.exe.run_bound(&data, &params, None).expect("run");
            assert!(
                same_normalized(&plain, &run.stdout),
                "Q{n} [{}]: template defaults diverge from the literal query",
                b.name()
            );
        }
    }
}

/// The in-process executables refuse a run whose bindings leave a
/// parameter slot unbound, or bind it to a value its type does not take:
/// `InvalidInput` naming the slot — the native binary's "missing query
/// parameter", not a panic inside the evaluator.
#[test]
fn in_process_executables_refuse_missing_or_mistyped_bindings() {
    let (db, data) = setup("refused");
    let template = tpch::queries::template(6).expect("template");
    let out = std::env::temp_dir().join("dblab_param_gen");
    for name in ["jit", "interp"] {
        let art = Compiler::new(&db.schema)
            .config(&StackConfig::level5())
            .backend(backend(name).expect("registered"))
            .out_dir(&out)
            .compile_named(&template, &format!("pd_refused_{name}"))
            .expect("compile template");
        let mut mistyped = positional(&template, &[]);
        mistyped[0] = Value::str("1994-01-01");
        for (params, what) in [(vec![], "unbound"), (mistyped, "bound to Str")] {
            let err = art.exe.run_bound(&data, &params, None).expect_err(what);
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidInput,
                "[{name}] {err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("query parameter 0") && msg.contains(what),
                "[{name}] {msg}"
            );
        }
        let err = art.exe.run(&data).expect_err("run(dir) binds nothing");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "[{name}] {err}"
        );
    }
}

/// Binding values must never reach the IR: lowering a template yields
/// `param` slots, the lowered program is trivially binding-independent
/// (bindings are not a compile input), and a parameter-free program's
/// emitted source carries no parameter runtime at all — so pre-existing
/// build-cache entries stay byte-valid.
#[test]
fn lowered_templates_carry_param_slots_not_literals() {
    let schema = tpch::schema::tpch_schema();
    let cfg = StackConfig::level5();
    for n in [1usize, 6, 14] {
        let template = tpch::queries::template(n).expect("template");
        let cq = dblab::transform::compile(&template, &schema, &cfg);
        let printed = dblab::ir::printer::print_program(&cq.program);
        assert!(
            printed.contains("param("),
            "Q{n}: lowered template lost its parameter slots:\n{printed}"
        );
        // The parameter prelude is emitted exactly when the program
        // loads parameters.
        // Native backends emit the parameter runtime; the in-process
        // backends (interp, jit) emit printed IR, where the slot shows up
        // as `param(idx)`.
        for b in backends() {
            let src = b.emit(&cq.program, &schema);
            assert!(
                src.contains("dblab_param") || src.contains("param_") || src.contains("param("),
                "Q{n} [{}]: parameterized emission lacks the parameter runtime",
                b.name()
            );
        }
        let plain = dblab::transform::compile(&tpch::queries::query(n), &schema, &cfg);
        for b in backends() {
            let src = b.emit(&plain.program, &schema);
            assert!(
                !src.contains("dblab_param(") && !src.contains("fn param("),
                "Q{n} [{}]: parameter-free emission gained the parameter runtime",
                b.name()
            );
        }
    }
}

/// The template's program hash — the compile-cache and build-cache key
/// component — is a function of the template alone. Two compiles are
/// hash-identical, and the hash differs from the literal query's (they
/// are different programs: slots vs baked constants).
#[test]
fn program_hash_keys_on_the_template_not_the_bindings() {
    let schema = tpch::schema::tpch_schema();
    let cfg = StackConfig::level5();
    for n in [1usize, 6, 14] {
        let template = tpch::queries::template(n).expect("template");
        let a = dblab::transform::compile(&template, &schema, &cfg);
        let b = dblab::transform::compile(&template, &schema, &cfg);
        assert_eq!(
            dblab::ir::hash::program_hash(&a.program),
            dblab::ir::hash::program_hash(&b.program),
            "Q{n}: recompiling the template must be hash-stable"
        );
        let plain = dblab::transform::compile(&tpch::queries::query(n), &schema, &cfg);
        assert_ne!(
            dblab::ir::hash::program_hash(&a.program),
            dblab::ir::hash::program_hash(&plain.program),
            "Q{n}: template and literal query are distinct programs"
        );
    }
}
