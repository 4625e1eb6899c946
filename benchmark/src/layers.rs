//! Probes that belong to no request: lines of code per crate (ROADMAP
//! aim 2 treats code size as a result) and the QMonad programs that
//! exercise the second front-end.

use std::path::Path;

use dblab_frontend::expr::{col, date, lit_d, lit_s};
use dblab_frontend::qmonad::QMonad;
use dblab_frontend::qplan::{AggFunc, SortDir};

use crate::env::repo_root;
use crate::metrics::{Metrics, CRATES};

/// Non-blank lines that are not `//` comments. Block comments and doc
/// tests count as code; the rule is crude on purpose — it must give the
/// same number on every machine, and a trajectory needs nothing finer.
pub fn count_loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

fn loc_under(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            if p.is_dir() {
                loc_under(p)
            } else if p.extension().is_some_and(|e| e == "rs") {
                std::fs::read_to_string(p).map_or(0, |s| count_loc(&s))
            } else {
                0
            }
        })
        .sum()
}

/// `loc.<crate>` for every crate under `crates/` plus `loc.total`.
pub fn loc(m: &mut Metrics) {
    let crates = repo_root().join("crates");
    let mut total = 0;
    for name in CRATES {
        let n = loc_under(&crates.join(name).join("src"));
        m.set(&format!("loc.{name}"), n as f64);
        total += n;
    }
    m.set("loc.total", total as f64);
}

/// Three collection-style queries over TPC-H (a filtered join-sum, a
/// filtered count, a grouped top-k) for timing the QMonad front-end; the
/// 22 TPC-H queries only ever enter through QPlan.
pub fn qmonad_queries() -> Vec<QMonad> {
    vec![
        QMonad::source("customer")
            .filter(col("c_mktsegment").eq(lit_s("BUILDING")))
            .hash_join(
                QMonad::source("orders"),
                vec![col("c_custkey")],
                vec![col("o_custkey")],
            )
            .map(vec![("price", col("o_totalprice"))])
            .sum(col("price")),
        QMonad::source("lineitem")
            .filter(
                col("l_shipdate")
                    .ge(date(1994, 1, 1))
                    .and(col("l_shipdate").lt(date(1995, 1, 1)))
                    .and(col("l_discount").gt(lit_d(0.05))),
            )
            .count(),
        QMonad::source("customer")
            .hash_join(
                QMonad::source("nation"),
                vec![col("c_nationkey")],
                vec![col("n_nationkey")],
            )
            .group_by(
                vec![("nation", col("n_name"))],
                vec![("balance", AggFunc::Sum(col("c_acctbal")))],
            )
            .sort_by(vec![(col("balance"), SortDir::Desc)])
            .take(5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        let src = "// header\n\nfn main() {\n    // note\n    let x = 1; // trailing\n}\n";
        assert_eq!(count_loc(src), 3);
    }

    #[test]
    fn loc_counts_every_crate() {
        let mut m = Metrics::default();
        loc(&mut m);
        let total: f64 = CRATES
            .iter()
            .map(|c| m.get(&format!("loc.{c}")).unwrap())
            .sum();
        assert!(CRATES
            .iter()
            .all(|c| m.get(&format!("loc.{c}")).unwrap() > 0.0));
        assert_eq!(m.get("loc.total"), Some(total));
    }
}
