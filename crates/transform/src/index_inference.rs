//! Automatic index inference and data-structure partitioning (§5.2,
//! Appendix B.1, Figure 7).
//!
//! When a hash join builds its table by scanning an *input relation*
//! (possibly through a pure filter) keyed on one of that relation's own
//! integer columns, the intermediate MultiMap can be elided: at data-loading
//! time the relation is partitioned by that column (a CSR index of row
//! positions, or a direct row-position array when the column is the primary
//! key — Figures 7c/7d), and the probe reads the partition directly, with
//! the build-side filter re-applied inside the probe loop ("the iteration
//! over the first relation is moved to the next step").
//!
//! Which input an index may replace ([`join_index`]):
//!
//! * semi and anti joins: the right input, the side they build;
//! * inner joins: the left input (the side they build) with either index
//!   shape; when the left input does not qualify, the right input, but only
//!   through a *unique* index on its single-column primary key. The left
//!   input then becomes the probe stream, so the join builds no map and
//!   never scans the keyed table. A unique lookup emits at most one row per
//!   probe row, which is what a hash join on a primary key emits too, and
//!   the index is O(rows) of the keyed table. A non-unique (CSR) right side
//!   would trade a hash build over the left input for an index over the
//!   whole right table and a walk of one partition per left row; whether
//!   that pays depends on the sides' sizes, which this rule does not weigh;
//! * left outer joins: none (they need the preserved-row branch).
//!
//! The analysis here answers *whether* and *where*; the pipelining
//! lowering consults it to make the paper's "informed materialization
//! decision" (§4.3) and to push the index construction into the
//! pre-processing phase.

use std::sync::Arc;

use dblab_catalog::{ColType, Schema};
use dblab_frontend::expr::ScalarExpr;
use dblab_frontend::qplan::{JoinKind, QPlan};

/// Result of a successful analysis.
#[derive(Debug, Clone)]
pub struct IndexableBuild<'p> {
    /// The input relation being materialized.
    pub table: Arc<str>,
    /// Scan alias (affects the column names the re-applied filter sees).
    pub alias: Option<Arc<str>>,
    /// Filters to re-apply inside the probe (innermost first).
    pub filters: Vec<&'p ScalarExpr>,
    /// The key column position in the base table.
    pub key_col: usize,
    /// Key values are unique (single-column primary key) — Figure 7d.
    pub unique: bool,
    /// Upper bound of the key's value range (sizes the index arrays; the
    /// paper makes "an aggressive system memory trade-off" here, App. B.1).
    pub key_max: u64,
}

/// Maximum key range we are willing to trade memory for.
const MAX_KEY_RANGE: u64 = 1 << 26;

/// Does `plan`, used as a hash-join build side keyed by `key`, qualify for
/// index inference?
pub fn analyze<'p>(
    plan: &'p QPlan,
    key: &ScalarExpr,
    schema: &Schema,
) -> Option<IndexableBuild<'p>> {
    // Peel Select layers off a base-table scan.
    let mut filters = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            QPlan::Select { child, pred } => {
                filters.push(pred);
                cur = child;
            }
            QPlan::Scan { table, alias } => {
                filters.reverse();
                let key_name = match key {
                    ScalarExpr::Col(n) => n,
                    _ => return None,
                };
                let def = schema.table(table);
                // Undo alias prefixing to find the base column.
                let base_name: &str = match alias {
                    Some(a) => key_name.strip_prefix(&format!("{a}_")).unwrap_or(key_name),
                    None => key_name,
                };
                let col = def.columns.iter().position(|c| &*c.name == base_name)?;
                if !matches!(def.columns[col].ty, ColType::Int) {
                    return None;
                }
                let key_max = *def.stats.int_max.get(col)?;
                if key_max == 0 || key_max > MAX_KEY_RANGE {
                    return None;
                }
                let unique = def.is_primary_key(col);
                // Non-unique columns must reference *something* keyed —
                // a foreign key or the leading column of a composite
                // primary key (partitioning, App. B.1).
                if !unique
                    && def.foreign_key_target(col).is_none()
                    && def.primary_key.first() != Some(&col)
                {
                    return None;
                }
                return Some(IndexableBuild {
                    table: table.clone(),
                    alias: alias.clone(),
                    filters,
                    key_col: col,
                    unique,
                    key_max,
                });
            }
            // Anything else is an intermediate relation; the paper requires
            // an input relation ("First, we make sure R is not an
            // intermediate relation", §5.2).
            _ => return None,
        }
    }
}

/// The join input a load-time index replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// The index decision for one hash join (see the module doc): the
/// indexable input and its side, or `None` when the join keeps its hash
/// table. Lowering, index preloading and the tests that count map sites
/// all ask this one function.
pub fn join_index<'p>(
    kind: JoinKind,
    left: &'p QPlan,
    right: &'p QPlan,
    left_keys: &[ScalarExpr],
    right_keys: &[ScalarExpr],
    schema: &Schema,
) -> Option<(IndexableBuild<'p>, Side)> {
    if left_keys.len() != 1 {
        return None;
    }
    let right_ix = || analyze(right, &right_keys[0], schema).map(|ix| (ix, Side::Right));
    match kind {
        JoinKind::Inner => match analyze(left, &left_keys[0], schema) {
            Some(ix) => Some((ix, Side::Left)),
            None => right_ix().filter(|(ix, _)| ix.unique),
        },
        JoinKind::LeftSemi | JoinKind::LeftAnti => right_ix(),
        JoinKind::LeftOuter => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_frontend::expr::*;
    use dblab_tpch::tpch_schema;

    fn schema_with_stats() -> Schema {
        let mut s = tpch_schema();
        for t in &mut s.tables {
            t.stats.row_count = 1000;
            t.stats.int_max = vec![1000; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        s
    }

    #[test]
    fn base_scan_on_primary_key_is_unique_index() {
        let s = schema_with_stats();
        let plan = QPlan::scan("customer");
        let r = analyze(&plan, &col("c_custkey"), &s).expect("qualifies");
        assert!(r.unique);
        assert_eq!(r.key_col, 0);
        assert!(r.filters.is_empty());
    }

    #[test]
    fn filtered_scan_on_foreign_key_is_partition_index() {
        let s = schema_with_stats();
        let plan = QPlan::scan("lineitem").select(col("l_commitdate").lt(col("l_receiptdate")));
        let r = analyze(&plan, &col("l_orderkey"), &s).expect("qualifies");
        assert!(!r.unique, "l_orderkey is not unique in lineitem");
        assert_eq!(r.filters.len(), 1);
    }

    #[test]
    fn intermediate_relations_do_not_qualify() {
        let s = schema_with_stats();
        let joined = QPlan::scan("customer").hash_join(
            QPlan::scan("orders"),
            dblab_frontend::qplan::JoinKind::Inner,
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        );
        assert!(analyze(&joined, &col("c_custkey"), &s).is_none());
    }

    #[test]
    fn string_or_computed_keys_do_not_qualify() {
        let s = schema_with_stats();
        let plan = QPlan::scan("customer");
        assert!(analyze(&plan, &col("c_name"), &s).is_none());
        assert!(analyze(&plan, &col("c_custkey").add(lit_i(1)), &s).is_none());
    }

    #[test]
    fn aliased_scan_resolves_prefixed_key() {
        let s = schema_with_stats();
        let plan = QPlan::scan_as("lineitem", "l2");
        let r = analyze(&plan, &col("l2_l_orderkey"), &s).expect("qualifies");
        assert_eq!(r.key_col, 0);
    }

    #[test]
    fn huge_key_ranges_are_rejected() {
        let mut s = schema_with_stats();
        s.table_mut("customer").stats.int_max[0] = u64::MAX;
        assert!(analyze(&QPlan::scan("customer"), &col("c_custkey"), &s).is_none());
    }
}
