//! # dblab-catalog — schemas, key annotations and statistics
//!
//! The paper's data-structure specializations depend on schema-level
//! knowledge that "developers must annotate … at schema definition time"
//! (Appendix B.1): primary keys, foreign keys, and cardinality statistics.
//! This crate is that shared vocabulary; the front-ends, the engine, the
//! transformations and the code generator all consume it.

use std::sync::Arc;

/// SQL-level column types. `Date` is stored as an `i32` `yyyymmdd`;
/// `Decimal` is carried as `f64` (LegoBase does the same).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    Bool,
    Int,
    Long,
    Double,
    String,
    Date,
    Char,
}

impl ColType {
    pub fn is_string(self) -> bool {
        matches!(self, ColType::String)
    }
}

/// A table column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: Arc<str>,
    pub ty: ColType,
}

/// A foreign-key annotation: `table.column` references `ref_table`'s
/// primary key. Used by automatic index inference and partitioning (§5.2,
/// Appendix B.1).
#[derive(Debug, Clone)]
pub struct ForeignKey {
    pub column: usize,
    pub ref_table: Arc<str>,
}

/// Statistics available at data-loading time (Appendix D.1 sizes memory
/// pools from a "worst-case estimate of the cardinality").
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Exact or estimated row count for the working scale factor.
    pub row_count: u64,
    /// Upper bound of each integer column's value range (dense-key
    /// detection); indexed by column position, 0 when unknown.
    pub int_max: Vec<u64>,
    /// Number of distinct values per column, 0 when unknown (string
    /// dictionaries are avoided for high-cardinality attributes, §5.3).
    pub distinct: Vec<u64>,
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: Arc<str>,
    pub columns: Vec<Column>,
    /// Column positions forming the primary key (possibly composite).
    pub primary_key: Vec<usize>,
    pub foreign_keys: Vec<ForeignKey>,
    pub stats: TableStats,
}

impl TableDef {
    pub fn new(name: &str, columns: Vec<(&str, ColType)>) -> TableDef {
        TableDef {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(n, t)| Column {
                    name: n.into(),
                    ty: t,
                })
                .collect(),
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
            stats: TableStats::default(),
        }
    }

    pub fn with_primary_key(mut self, cols: &[&str]) -> TableDef {
        self.primary_key = cols.iter().map(|c| self.col_index(c)).collect();
        self
    }

    pub fn with_foreign_key(mut self, col: &str, ref_table: &str) -> TableDef {
        let column = self.col_index(col);
        self.foreign_keys.push(ForeignKey {
            column,
            ref_table: ref_table.into(),
        });
        self
    }

    /// Position of a column by name; panics on unknown names (schema
    /// definitions are static, so this is a programming error).
    pub fn col_index(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| &*c.name == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
    }

    /// Is `col` a single-column primary key?
    pub fn is_primary_key(&self, col: usize) -> bool {
        self.primary_key == [col]
    }

    /// The referenced table if `col` is a foreign key.
    pub fn foreign_key_target(&self, col: usize) -> Option<&Arc<str>> {
        self.foreign_keys
            .iter()
            .find(|fk| fk.column == col)
            .map(|fk| &fk.ref_table)
    }
}

/// A database schema: an ordered collection of table definitions.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    pub tables: Vec<TableDef>,
}

impl Schema {
    pub fn new(tables: Vec<TableDef>) -> Schema {
        Schema { tables }
    }

    pub fn table(&self, name: &str) -> &TableDef {
        self.tables
            .iter()
            .find(|t| &*t.name == name)
            .unwrap_or_else(|| panic!("no table named {name}"))
    }

    pub fn table_mut(&mut self, name: &str) -> &mut TableDef {
        self.tables
            .iter_mut()
            .find(|t| &*t.name == name)
            .unwrap_or_else(|| panic!("no table named {name}"))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.iter().any(|t| &*t.name == name)
    }
}

/// Calendar helpers for `yyyymmdd`-encoded dates (leap years handled; TPC-H
/// date arithmetic like `date '1994-01-01' + interval '1' year` is
/// constant-folded through these at plan-construction time).
pub mod dates {
    const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

    pub fn is_leap(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    fn month_len(year: i32, month: i32) -> i32 {
        if month == 2 && is_leap(year) {
            29
        } else {
            DAYS_IN_MONTH[(month - 1) as usize]
        }
    }

    pub fn encode(year: i32, month: i32, day: i32) -> i32 {
        year * 10000 + month * 100 + day
    }

    pub fn decode(d: i32) -> (i32, i32, i32) {
        (d / 10000, d / 100 % 100, d % 100)
    }

    /// Add whole days to an encoded date.
    pub fn add_days(date: i32, mut days: i32) -> i32 {
        let (mut y, mut m, mut d) = decode(date);
        while days > 0 {
            let rest = month_len(y, m) - d;
            if days <= rest {
                d += days;
                days = 0;
            } else {
                days -= rest + 1;
                d = 1;
                m += 1;
                if m > 12 {
                    m = 1;
                    y += 1;
                }
            }
        }
        while days < 0 {
            if d + days >= 1 {
                d += days;
                days = 0;
            } else {
                days += d;
                m -= 1;
                if m < 1 {
                    m = 12;
                    y -= 1;
                }
                d = month_len(y, m);
            }
        }
        encode(y, m, d)
    }

    pub fn add_months(date: i32, months: i32) -> i32 {
        let (mut y, mut m, d) = decode(date);
        let total = (m - 1) + months;
        y += total.div_euclid(12);
        m = total.rem_euclid(12) + 1;
        encode(y, m, d.min(month_len(y, m)))
    }

    pub fn add_years(date: i32, years: i32) -> i32 {
        add_months(date, years * 12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            TableDef::new("r", vec![("id", ColType::Int), ("name", ColType::String)])
                .with_primary_key(&["id"]),
            TableDef::new("s", vec![("rid", ColType::Int), ("v", ColType::Double)])
                .with_foreign_key("rid", "r"),
        ])
    }

    #[test]
    fn key_annotations() {
        let s = schema();
        assert!(s.table("r").is_primary_key(0));
        assert!(!s.table("r").is_primary_key(1));
        assert_eq!(s.table("s").foreign_key_target(0).map(|t| &**t), Some("r"));
        assert_eq!(s.table("s").foreign_key_target(1), None);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        schema().table("r").col_index("nope");
    }

    #[test]
    fn date_add_days_handles_month_and_year_rollover() {
        use dates::*;
        assert_eq!(add_days(encode(1998, 12, 1), 30), encode(1998, 12, 31));
        assert_eq!(add_days(encode(1998, 12, 1), 31), encode(1999, 1, 1));
        assert_eq!(add_days(encode(1996, 2, 28), 1), encode(1996, 2, 29)); // leap
        assert_eq!(add_days(encode(1900, 2, 28), 1), encode(1900, 3, 1)); // not leap
        assert_eq!(add_days(encode(1995, 1, 10), -10), encode(1994, 12, 31));
    }

    #[test]
    fn date_add_months_clamps_day() {
        use dates::*;
        assert_eq!(add_months(encode(1995, 1, 31), 1), encode(1995, 2, 28));
        assert_eq!(add_months(encode(1995, 11, 15), 3), encode(1996, 2, 15));
        assert_eq!(add_years(encode(1995, 2, 28), 1), encode(1996, 2, 28));
    }
}
