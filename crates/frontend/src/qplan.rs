//! QPlan — the physical-plan front-end DSL (§4.1).
//!
//! Operators cover what the 22 TPC-H queries need: scans (with aliases for
//! self joins), selections, projections, hash joins (inner / left-semi /
//! left-anti / left-outer, composite keys, residual predicates for the
//! decorrelated `EXISTS` subqueries), group-by aggregation (including
//! `COUNT(DISTINCT …)`), sorting and limits. Scalar subqueries are
//! expressed as a [`QueryProgram`]: a list of named single-value plans whose
//! results later plans reference via [`ScalarExpr::Param`].
//!
//! Left-outer joins append an implicit `__matched: Bool` column instead of
//! introducing SQL `NULL`s; `COUNT(col)`-over-nullable patterns (TPC-H Q13)
//! become `SUM(CASE WHEN __matched …)`, which keeps every lower DSL level —
//! and the generated C — null-free.

use std::sync::Arc;

use dblab_catalog::{ColType, Schema};

use crate::expr::{Lit, ScalarExpr};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    Asc,
    Desc,
}

/// Join flavours (paper §4.1: "including semi-, anti- and outer joins").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Keep left rows with at least one match.
    LeftSemi,
    /// Keep left rows with no match.
    LeftAnti,
    /// Keep all left rows; unmatched rows get zero/empty right columns and
    /// `__matched = false`.
    LeftOuter,
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    Sum(ScalarExpr),
    Count,
    Avg(ScalarExpr),
    Min(ScalarExpr),
    Max(ScalarExpr),
    CountDistinct(ScalarExpr),
}

impl AggFunc {
    pub fn ty(&self, cols: &[(Arc<str>, ColType)]) -> ColType {
        match self {
            AggFunc::Sum(e) => match e.ty(cols) {
                ColType::Double => ColType::Double,
                _ => ColType::Long,
            },
            AggFunc::Count | AggFunc::CountDistinct(_) => ColType::Long,
            AggFunc::Avg(_) => ColType::Double,
            AggFunc::Min(e) | AggFunc::Max(e) => e.ty(cols),
        }
    }
}

/// A physical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum QPlan {
    Scan {
        table: Arc<str>,
        /// Optional alias for self joins; column `c` is exposed as
        /// `<alias>_c`.
        alias: Option<Arc<str>>,
    },
    Select {
        child: Box<QPlan>,
        pred: ScalarExpr,
    },
    Project {
        child: Box<QPlan>,
        cols: Vec<(Arc<str>, ScalarExpr)>,
    },
    HashJoin {
        left: Box<QPlan>,
        right: Box<QPlan>,
        kind: JoinKind,
        left_keys: Vec<ScalarExpr>,
        right_keys: Vec<ScalarExpr>,
        /// Extra non-equi predicate over the concatenated row (used by the
        /// decorrelated TPC-H subqueries, e.g. Q21's `l_suppkey <>`).
        residual: Option<ScalarExpr>,
    },
    Agg {
        child: Box<QPlan>,
        group_by: Vec<(Arc<str>, ScalarExpr)>,
        aggs: Vec<(Arc<str>, AggFunc)>,
    },
    Sort {
        child: Box<QPlan>,
        keys: Vec<(ScalarExpr, SortDir)>,
    },
    Limit {
        child: Box<QPlan>,
        n: u64,
    },
}

impl QPlan {
    pub fn scan(table: &str) -> QPlan {
        QPlan::Scan {
            table: table.into(),
            alias: None,
        }
    }

    /// Aliased scan for self joins: all columns are exposed with the prefix
    /// `<alias>_`.
    pub fn scan_as(table: &str, alias: &str) -> QPlan {
        QPlan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    pub fn select(self, pred: ScalarExpr) -> QPlan {
        QPlan::Select {
            child: Box::new(self),
            pred,
        }
    }

    pub fn project(self, cols: Vec<(&str, ScalarExpr)>) -> QPlan {
        QPlan::Project {
            child: Box::new(self),
            cols: cols.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    pub fn hash_join(
        self,
        right: QPlan,
        kind: JoinKind,
        left_keys: Vec<ScalarExpr>,
        right_keys: Vec<ScalarExpr>,
    ) -> QPlan {
        assert_eq!(left_keys.len(), right_keys.len(), "key arity mismatch");
        assert!(!left_keys.is_empty(), "hash join requires at least one key");
        QPlan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            left_keys,
            right_keys,
            residual: None,
        }
    }

    /// Attach a residual predicate to the nearest enclosing join.
    pub fn join_residual(self, pred: ScalarExpr) -> QPlan {
        match self {
            QPlan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => {
                assert!(residual.is_none(), "residual already set");
                QPlan::HashJoin {
                    left,
                    right,
                    kind,
                    left_keys,
                    right_keys,
                    residual: Some(pred),
                }
            }
            other => panic!("join_residual on non-join {other:?}"),
        }
    }

    pub fn agg(self, group_by: Vec<(&str, ScalarExpr)>, aggs: Vec<(&str, AggFunc)>) -> QPlan {
        QPlan::Agg {
            child: Box::new(self),
            group_by: group_by.into_iter().map(|(n, e)| (n.into(), e)).collect(),
            aggs: aggs.into_iter().map(|(n, a)| (n.into(), a)).collect(),
        }
    }

    pub fn sort(self, keys: Vec<(ScalarExpr, SortDir)>) -> QPlan {
        QPlan::Sort {
            child: Box::new(self),
            keys,
        }
    }

    pub fn limit(self, n: u64) -> QPlan {
        QPlan::Limit {
            child: Box::new(self),
            n,
        }
    }

    /// The implicit flag column appended by left-outer joins.
    pub const MATCHED: &'static str = "__matched";

    /// Names and types of this plan's output columns.
    pub fn output_cols(&self, schema: &Schema) -> Vec<(Arc<str>, ColType)> {
        match self {
            QPlan::Scan { table, alias } => {
                let t = schema.table(table);
                t.columns
                    .iter()
                    .map(|c| {
                        let name: Arc<str> = match alias {
                            Some(a) => format!("{a}_{}", c.name).into(),
                            None => c.name.clone(),
                        };
                        (name, c.ty)
                    })
                    .collect()
            }
            QPlan::Select { child, .. }
            | QPlan::Sort { child, .. }
            | QPlan::Limit { child, .. } => child.output_cols(schema),
            QPlan::Project { child, cols } => {
                let input = child.output_cols(schema);
                cols.iter()
                    .map(|(n, e)| (n.clone(), e.ty(&input)))
                    .collect()
            }
            QPlan::HashJoin {
                left, right, kind, ..
            } => {
                let mut out = left.output_cols(schema);
                match kind {
                    JoinKind::Inner => out.extend(right.output_cols(schema)),
                    JoinKind::LeftSemi | JoinKind::LeftAnti => {}
                    JoinKind::LeftOuter => {
                        out.extend(right.output_cols(schema));
                        out.push((Self::MATCHED.into(), ColType::Bool));
                    }
                }
                out
            }
            QPlan::Agg {
                child,
                group_by,
                aggs,
            } => {
                let input = child.output_cols(schema);
                let mut out: Vec<(Arc<str>, ColType)> = group_by
                    .iter()
                    .map(|(n, e)| (n.clone(), e.ty(&input)))
                    .collect();
                out.extend(aggs.iter().map(|(n, a)| (n.clone(), a.ty(&input))));
                out
            }
        }
    }

    /// All base tables referenced (with multiplicity), for loader planning.
    pub fn tables(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<Arc<str>>) {
        match self {
            QPlan::Scan { table, .. } => out.push(table.clone()),
            QPlan::Select { child, .. }
            | QPlan::Project { child, .. }
            | QPlan::Agg { child, .. }
            | QPlan::Sort { child, .. }
            | QPlan::Limit { child, .. } => child.collect_tables(out),
            QPlan::HashJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }
}

/// A declared query parameter: a typed hole in the plan, referenced by
/// name via [`ScalarExpr::Param`] and bound to a concrete value per
/// execution. The default literal doubles as the type declaration, and
/// the engine binds it for a parameter a request leaves out; an
/// executable run without a binding is refused (`InvalidInput` in
/// process, "missing query parameter" from a native binary). The compiled
/// template stays one artifact across every binding.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    pub name: Arc<str>,
    pub default: Lit,
}

/// A query with optional scalar-subquery prologue: every `let` is a plan
/// producing a single row whose first column's value is bound to the name,
/// usable in later plans as [`ScalarExpr::Param`]. Declared parameters
/// (see [`ParamDecl`]) share that reference mechanism but are bound per
/// execution rather than computed by a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProgram {
    pub params: Vec<ParamDecl>,
    pub lets: Vec<(Arc<str>, QPlan)>,
    pub main: QPlan,
}

impl QueryProgram {
    pub fn new(main: QPlan) -> QueryProgram {
        QueryProgram {
            params: Vec::new(),
            lets: Vec::new(),
            main,
        }
    }

    /// Declare a typed, defaulted query parameter. Position in the
    /// declaration order is the parameter's wire slot.
    pub fn with_param(mut self, name: &str, default: Lit) -> QueryProgram {
        self.params.push(ParamDecl {
            name: name.into(),
            default,
        });
        self
    }

    /// Prepend a scalar subquery binding.
    pub fn with_let(mut self, name: &str, plan: QPlan) -> QueryProgram {
        self.lets.push((name.into(), plan));
        self
    }

    /// All base tables used by any part of the program.
    pub fn tables(&self) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        for (_, p) in &self.lets {
            for t in p.tables() {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        for t in self.main.tables() {
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use dblab_catalog::TableDef;

    fn schema() -> Schema {
        Schema::new(vec![
            TableDef::new(
                "r",
                vec![
                    ("r_id", ColType::Int),
                    ("r_name", ColType::String),
                    ("r_v", ColType::Double),
                ],
            )
            .with_primary_key(&["r_id"]),
            TableDef::new("s", vec![("s_rid", ColType::Int), ("s_w", ColType::Double)])
                .with_foreign_key("s_rid", "r"),
        ])
    }

    #[test]
    fn scan_and_alias_schemas() {
        let s = schema();
        let cols = QPlan::scan("r").output_cols(&s);
        assert_eq!(cols.len(), 3);
        assert_eq!(&*cols[0].0, "r_id");
        let aliased = QPlan::scan_as("r", "x").output_cols(&s);
        assert_eq!(&*aliased[1].0, "x_r_name");
    }

    #[test]
    fn join_schema_concatenates_and_semi_keeps_left() {
        let s = schema();
        let inner = QPlan::scan("r").hash_join(
            QPlan::scan("s"),
            JoinKind::Inner,
            vec![col("r_id")],
            vec![col("s_rid")],
        );
        assert_eq!(inner.output_cols(&s).len(), 5);

        let semi = QPlan::scan("r").hash_join(
            QPlan::scan("s"),
            JoinKind::LeftSemi,
            vec![col("r_id")],
            vec![col("s_rid")],
        );
        assert_eq!(semi.output_cols(&s).len(), 3);

        let outer = QPlan::scan("r").hash_join(
            QPlan::scan("s"),
            JoinKind::LeftOuter,
            vec![col("r_id")],
            vec![col("s_rid")],
        );
        let cols = outer.output_cols(&s);
        assert_eq!(cols.len(), 6);
        assert_eq!(&*cols[5].0, QPlan::MATCHED);
        assert_eq!(cols[5].1, ColType::Bool);
    }

    #[test]
    fn agg_schema_and_types() {
        let s = schema();
        let plan = QPlan::scan("s").agg(
            vec![("k", col("s_rid"))],
            vec![
                ("total", AggFunc::Sum(col("s_w"))),
                ("n", AggFunc::Count),
                ("avg_w", AggFunc::Avg(col("s_w"))),
                ("cnt_int", AggFunc::Sum(col("s_rid"))),
            ],
        );
        let cols = plan.output_cols(&s);
        assert_eq!(
            cols.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![
                ColType::Int,
                ColType::Double,
                ColType::Long,
                ColType::Double,
                ColType::Long
            ]
        );
    }

    #[test]
    fn tables_collects_with_multiplicity_and_program_dedupes() {
        let plan = QPlan::scan("r").hash_join(
            QPlan::scan_as("r", "x"),
            JoinKind::Inner,
            vec![col("r_id")],
            vec![col("x_r_id")],
        );
        assert_eq!(plan.tables().len(), 2);
        let prog = QueryProgram::new(plan).with_let("m", QPlan::scan("r"));
        assert_eq!(prog.tables().len(), 1);
    }

    #[test]
    #[should_panic(expected = "key arity")]
    fn mismatched_join_keys_panic() {
        QPlan::scan("r").hash_join(
            QPlan::scan("s"),
            JoinKind::Inner,
            vec![col("r_id"), col("r_v")],
            vec![col("s_rid")],
        );
    }
}
