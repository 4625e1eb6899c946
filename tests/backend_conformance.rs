//! Backend conformance: every registered backend, run over the TPC-H
//! differential query set through the [`Compiler`] facade, must produce
//! output identical (normalized) to the Volcano oracle.
//!
//! The in-process backends (jit, interp) always run — they need no
//! toolchain; the gcc backend runs whenever gcc is present and is skipped
//! (loudly) otherwise.

use std::path::PathBuf;

use dblab::catalog::{ColType, Schema, TableDef};
use dblab::codegen::{backends, same_normalized, Compiler};
use dblab::engine;
use dblab::frontend::expr::{col, lit_c, lit_i};
use dblab::frontend::qplan::{AggFunc, QPlan, QueryProgram};
use dblab::runtime::{ColData, Database, Table, Value};
use dblab::tpch;
use dblab::transform::StackConfig;

/// Per-test data directories: the tests in this binary run on parallel
/// threads, so sharing one `.tbl` directory would let one test's
/// `write_all` truncate files another test's query binary is reading.
fn setup(tag: &str) -> (Database, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dblab_conf_data_{tag}"));
    let db = tpch::generate(0.002, &dir);
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// Run every available backend over all 22 queries at `cfg`. Data and
/// per-query oracle results are computed once and shared across backends.
fn conformance_suite(cfg: &StackConfig, tag: &str) -> Vec<String> {
    let (db, data) = setup(tag);
    let schema = db.schema.clone();
    let out = std::env::temp_dir().join("dblab_conf_gen");
    let programs: Vec<_> = (1..=22).map(tpch::queries::query).collect();
    let oracles: Vec<String> = programs
        .iter()
        .map(|p| engine::execute_program(p, &db).to_text())
        .collect();
    let mut failures = Vec::new();
    for b in backends() {
        if !b.available() {
            eprintln!("SKIP backend `{}` (requires {})", b.name(), b.requirement());
            continue;
        }
        for (i, (prog, oracle)) in programs.iter().zip(&oracles).enumerate() {
            let n = i + 1;
            let name = format!("bc_q{n}_l{}_t{}_{}", cfg.levels, cfg.threads, b.name());
            let verdict = Compiler::new(&schema)
                .config(cfg)
                .backend(dblab::codegen::backend(b.name()).expect("registered"))
                .out_dir(&out)
                .compile_named(prog, &name)
                .and_then(|art| art.run(&data))
                .map(|r| same_normalized(oracle, &r.stdout));
            match verdict {
                Ok(true) => {}
                Ok(false) => failures.push(format!("Q{n} @ {} [{}]: mismatch", cfg.name, b.name())),
                Err(e) => failures.push(format!("Q{n} @ {} [{}]: {e}", cfg.name, b.name())),
            }
        }
    }
    failures
}

/// Every backend × the full five-level stack × all 22 queries.
#[test]
fn every_backend_matches_the_oracle_on_the_full_stack() {
    let failures = conformance_suite(&StackConfig::level5(), "l5");
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The two-level stack exercises the generic (unspecialized) container
/// path of each backend — the code the specialized levels bypass.
#[test]
fn every_backend_matches_the_oracle_on_the_generic_stack() {
    let failures = conformance_suite(&StackConfig::level2(), "l2");
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The morsel-parallel plans (`threads = 2`): every backend — the
/// interpreter executes `ParallelFor` as one logical worker, the native
/// backends spawn real threads — must still conform on all 22 queries.
#[test]
fn every_backend_matches_the_oracle_with_two_threads() {
    let mut cfg = StackConfig::level5();
    cfg.threads = 2;
    let failures = conformance_suite(&cfg, "l5t2");
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Same axis at `threads = 4`: more partitions, more merge interleavings.
#[test]
fn every_backend_matches_the_oracle_with_four_threads() {
    let mut cfg = StackConfig::level5();
    cfg.threads = 4;
    let failures = conformance_suite(&cfg, "l5t4");
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `t(a, b: Char, v: Int)`, 3,000 rows whose `Char`s are the bytes 0xC3
/// (`é`'s first byte in UTF-8), `~` and `A`, written as `.tbl` files.
fn char_table(tag: &str) -> (Database, PathBuf) {
    let mut def = TableDef::new(
        "t",
        vec![
            ("a", ColType::Char),
            ("b", ColType::Char),
            ("v", ColType::Int),
        ],
    );
    let rows = 3000;
    def.stats.row_count = rows as u64;
    def.stats.int_max = vec![255, 255, rows as u64];
    def.stats.distinct = vec![3, 3, rows as u64];
    let bytes = [0xC3, b'~' as i32, b'A' as i32];
    let mut t = Table::empty(&def);
    for i in 0..rows {
        let (a, b) = (bytes[i % 3], bytes[i / 3 % 3]);
        t.push_row(vec![Value::Int(a), Value::Int(b), Value::Int(i as i32)]);
    }
    let dir = std::env::temp_dir().join(format!("dblab_conf_chars_{tag}"));
    let db = Database {
        schema: Schema::new(vec![def]),
        tables: vec![t],
        dir: dir.clone(),
    };
    db.write_all().expect("write .tbl");
    (db, dir)
}

/// A `Char` is its byte, 0–255, on every backend: `a > 'Z'` keeps 0xC3
/// and `~`, and grouping by two `Char`s — one dense key `a·256 + b` —
/// finds the nine groups, printed as integers (a lone 0xC3 byte is not
/// text). Serial and with two workers.
#[test]
fn char_bytes_above_0x7f_compare_and_group_on_every_backend() {
    let (db, data) = char_table("bytes");
    let count = QueryProgram::new(
        QPlan::scan("t")
            .select(col("a").gt(lit_c('Z')))
            .agg(vec![], vec![("n", AggFunc::Count)]),
    );
    let grouped = QueryProgram::new(
        QPlan::scan("t")
            .agg(
                vec![("a", col("a")), ("b", col("b"))],
                vec![("n", AggFunc::Count), ("s", AggFunc::Sum(col("v")))],
            )
            .project(vec![
                ("ka", lit_i(0).add(col("a"))),
                ("kb", lit_i(0).add(col("b"))),
                ("n", col("n")),
                ("s", col("s")),
            ]),
    );
    let oracles = [&count, &grouped].map(|p| engine::execute_program(p, &db).to_text());
    assert_eq!(oracles[0], "2000\n");
    assert!(oracles[1].contains("195|126|333|"), "{}", oracles[1]);
    let out = std::env::temp_dir().join("dblab_conf_gen");
    let mut failures = Vec::new();
    for threads in [1, 2] {
        let mut cfg = StackConfig::level5();
        cfg.threads = threads;
        for b in backends().into_iter().filter(|b| b.available()) {
            for (i, (prog, oracle)) in [&count, &grouped].iter().zip(&oracles).enumerate() {
                let name = format!("bc_chars{i}_t{threads}_{}", b.name());
                let run = Compiler::new(&db.schema)
                    .config(&cfg)
                    .backend(dblab::codegen::backend(b.name()).expect("registered"))
                    .out_dir(&out)
                    .compile_named(prog, &name)
                    .and_then(|art| art.run(&data));
                match run {
                    Ok(r) if same_normalized(oracle, &r.stdout) => {}
                    Ok(r) => failures.push(format!("{name}: got\n{}want\n{oracle}", r.stdout)),
                    Err(e) => failures.push(format!("{name}: {e}")),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `threads = 1` must be invisible end to end: the `parallelize-scans`
/// pass never enters the schedule, the config fingerprint (the
/// compile-cache key component) is unchanged, and the emitted source is
/// exactly the serial text — no parallel runtime anywhere.
#[test]
fn threads_one_is_exactly_the_serial_stack() {
    let serial = StackConfig::level5();
    let mut explicit = StackConfig::level5();
    explicit.threads = 1;
    assert_eq!(serial.fingerprint(), explicit.fingerprint());

    let db = tpch::generate(0.002, &std::env::temp_dir().join("dblab_conf_t1"));
    let schema = db.schema.clone();
    for n in 1..=22 {
        let prog = tpch::queries::query(n);
        let cq = dblab::transform::compile(&prog, &schema, &explicit);
        assert!(
            cq.stages.iter().all(|st| st.name != "parallelize-scans"),
            "Q{n}: parallelize-scans ran at threads = 1"
        );
        for b in backends() {
            let src = b.emit(&cq.program, &schema);
            assert!(
                !src.contains("dblab_par_"),
                "Q{n} [{}]: serial emission references the parallel runtime",
                b.name()
            );
        }
    }
}

/// A key column no index can be built over is outside input the gcc
/// binary refuses, as `Snapshot::index_keys` does for the in-process
/// tiers (`server_resident`'s `an_unindexable_key_column_answers_internal_then_recovers`):
/// Q3 probes `customer` through its unique `c_custkey` index, and with
/// row 5's key negated the binary exits non-zero naming the table, the
/// column and the row instead of writing before the index array. Once
/// the file is repaired the same binary answers like the oracle.
#[test]
fn gcc_refuses_an_unindexable_key_column_then_recovers() {
    let gcc = dblab::codegen::backend("gcc").expect("registered");
    if !gcc.available() {
        eprintln!("SKIP backend `gcc` (requires {})", gcc.requirement());
        return;
    }
    let (db, data) = setup("badkey");
    let q3 = tpch::queries::query(3);
    let art = Compiler::new(&db.schema)
        .backend(gcc)
        .out_dir(&std::env::temp_dir().join("dblab_conf_gen"))
        .compile_named(&q3, "bc_badkey_q3")
        .expect("build");
    assert!(
        art.source.contains("build_uidx_customer_0"),
        "Q3 indexes c_custkey"
    );

    let customer = db.table("customer");
    let mut broken = customer.clone();
    let ColData::Int(keys) = &mut broken.cols[0] else {
        panic!("c_custkey is an int column")
    };
    keys[4] = -keys[4];
    let path = data.join("customer.tbl");
    broken.write_tbl(&path).expect("break customer.tbl");
    let msg = art
        .run(&data)
        .expect_err("no index over a negative key")
        .to_string();
    assert!(msg.contains("customer.tbl column `c_custkey`"), "{msg}");
    assert!(
        msg.contains("negative index key") && msg.contains("row 5"),
        "{msg}"
    );

    customer.write_tbl(&path).expect("repair customer.tbl");
    let expect = engine::execute_program(&q3, &db).to_text();
    let out = art.run(&data).expect("run after the repair");
    assert!(same_normalized(&expect, &out.stdout), "rows diverge");
}

/// `text` with field `col` of 1-based row `row` replaced by `value`.
fn with_field(text: &str, row: usize, col: usize, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let mut fields: Vec<&str> = lines[row - 1].split('|').collect();
    fields[col] = value;
    lines[row - 1] = fields.join("|");
    lines.join("\n") + "\n"
}

/// A number or date field that is not a value of its column's type is
/// outside input the gcc binary refuses, as the in-process reader does
/// (`table::tests::malformed_rows_are_typed_errors_naming_the_place`):
/// Q3 reads `c_custkey` (an index key and an `Int`), `l_extendedprice`
/// (a `Double`) and `o_orderdate` (a `Date`), and with any of them broken
/// the binary exits non-zero naming the table, the column, the text and
/// the row instead of reading the text's leading digits or fixed offsets.
/// Once the file is repaired the same binary answers like the oracle.
#[test]
fn gcc_refuses_a_malformed_number_then_recovers() {
    let gcc = dblab::codegen::backend("gcc").expect("registered");
    if !gcc.available() {
        eprintln!("SKIP backend `gcc` (requires {})", gcc.requirement());
        return;
    }
    let (db, data) = setup("badnum");
    let q3 = tpch::queries::query(3);
    let art = Compiler::new(&db.schema)
        .backend(gcc)
        .out_dir(&std::env::temp_dir().join("dblab_conf_gen"))
        .compile_named(&q3, "bc_badnum_q3")
        .expect("build");
    let expect = engine::execute_program(&q3, &db).to_text();
    for (table, col, row, text, ty) in [
        ("customer", 0, 5, "x5", "Int"),
        ("lineitem", 5, 3, "inf", "Double"),
        ("lineitem", 5, 7, "12.5.0", "Double"),
        ("orders", 4, 5, "1995-3", "Date"),
    ] {
        let path = data.join(format!("{table}.tbl"));
        let good = std::fs::read_to_string(&path).expect("read .tbl");
        std::fs::write(&path, with_field(&good, row, col, text)).expect("break .tbl");
        let msg = art
            .run(&data)
            .expect_err("a malformed number is refused")
            .to_string();
        let name = &db.table(table).def.columns[col].name;
        assert!(
            msg.contains(&format!("{table}.tbl column `{name}`")),
            "{msg}"
        );
        assert!(
            msg.contains(&format!("`{text}` is not a valid {ty} in row {row}")),
            "{msg}"
        );
        std::fs::write(&path, good).expect("repair .tbl");
        let out = art.run(&data).expect("run after the repair");
        assert!(same_normalized(&expect, &out.stdout), "rows diverge");
    }
}

/// A `.tbl` whose last row has no `\n` keeps that row on every backend,
/// as the in-process reader does: `nation.tbl` without its final byte
/// still lists all 25 nations, the last one's `n_comment` (the table's
/// final column) included.
#[test]
fn a_last_row_without_its_newline_is_kept() {
    let (db, data) = setup("nonewline");
    let path = data.join("nation.tbl");
    let mut text = std::fs::read(&path).expect("read nation.tbl");
    assert_eq!(text.pop(), Some(b'\n'));
    std::fs::write(&path, text).expect("strip the final newline");
    let prog = QueryProgram::new(QPlan::scan("nation").project(vec![
        ("k", col("n_nationkey")),
        ("name", col("n_name")),
        ("comment", col("n_comment")),
    ]));
    let counted = QueryProgram::new(QPlan::scan("nation").agg(vec![], vec![("n", AggFunc::Count)]));
    let out = std::env::temp_dir().join("dblab_conf_gen");
    let mut failures = Vec::new();
    for (i, p) in [&prog, &counted].into_iter().enumerate() {
        let oracle = engine::execute_program(p, &db).to_text();
        assert_eq!(oracle.lines().count(), if i == 0 { 25 } else { 1 });
        for b in backends().into_iter().filter(|b| b.available()) {
            let name = format!("bc_nonl{i}_{}", b.name());
            let run = Compiler::new(&db.schema)
                .backend(dblab::codegen::backend(b.name()).expect("registered"))
                .out_dir(&out)
                .compile_named(p, &name)
                .and_then(|art| art.run(&data));
            match run {
                Ok(r) if same_normalized(&oracle, &r.stdout) => {}
                Ok(r) => failures.push(format!("{name}: got\n{}want\n{oracle}", r.stdout)),
                Err(e) => failures.push(format!("{name}: {e}")),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
