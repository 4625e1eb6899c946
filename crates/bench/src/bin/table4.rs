//! Regenerates the paper's **Table 4**: lines of code per transformation
//! (the productivity claim, §7.3). Counted over this repository's
//! transformation sources — non-blank, non-comment lines, tests excluded —
//! with the module-to-paper-row mapping below.
//!
//! The paper's Horizontal Fusion row has no module here: the QMonad
//! lowering already emits one loop for a multi-aggregate `fold`, so the
//! pass never had sibling loops to merge and was deleted.

use std::path::Path;

/// (paper row, our module file(s)).
const ROWS: &[(&str, &[&str])] = &[
    ("Column Store Transformer", &["layout.rs"]),
    ("Automatic Index Inference", &["index_inference.rs"]),
    ("Memory Allocation Hoisting", &["mem_hoist.rs"]),
    ("Pipelining in QPlan", &["pipeline.rs"]),
    ("Pipelining in QMonad", &["fusion.rs"]),
    ("Hash-Table Specialization", &["hash_spec.rs"]),
    ("List Specialization", &["list_spec.rs"]),
    ("String Dictionaries", &["string_dict.rs"]),
    ("Unused Field Removal", &["field_removal.rs"]),
    ("Fine-Grained Optimizations", &["fine.rs"]),
    (
        "Scala Constructs to C Transformer",
        &["../../codegen/src/emit.rs"],
    ),
];

fn main() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("../transform/src");
    println!("# Table 4 — lines of code per transformation");
    let mut total = 0;
    for (row, files) in ROWS {
        let mut loc = 0;
        for f in *files {
            let path = base.join(f);
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|_| panic!("missing {}", path.display()));
            loc += count_loc(&src);
        }
        total += loc;
        println!("{row:<38}{loc:>6}");
    }
    println!("{:<38}{total:>6}", "Total");
}

/// Non-blank, non-comment lines, with `#[cfg(test)]` modules excluded
/// (the paper counts transformation code, not its tests).
fn count_loc(src: &str) -> usize {
    let mut loc = 0;
    let mut in_tests = false;
    let mut depth = 0i32;
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("#[cfg(test)]") {
            in_tests = true;
            depth = 0;
            continue;
        }
        if in_tests {
            depth += (t.matches('{').count() as i32) - (t.matches('}').count() as i32);
            if depth <= 0 && t.contains('}') {
                in_tests = false;
            }
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        loc += 1;
    }
    loc
}
