//! Columnar in-memory tables and `.tbl` IO.
//!
//! The on-disk format is the TPC-H `dbgen` text format: one row per line,
//! `|`-separated fields, dates as `yyyy-mm-dd`. Our generator writes it and
//! both the Rust loaders and the generated C loaders read it, so the system
//! can also be pointed at official `dbgen` output.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dblab_catalog::{ColType, Schema, TableDef};

use crate::value::Value;

/// One column of data. `Date`/`Char` columns are carried as `Int`
/// (`yyyymmdd` / ASCII code).
#[derive(Debug, Clone)]
pub enum ColData {
    Int(Vec<i32>),
    Long(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<Arc<str>>),
}

impl ColData {
    fn new(ty: ColType) -> ColData {
        match ty {
            ColType::Int | ColType::Date | ColType::Char | ColType::Bool => {
                ColData::Int(Vec::new())
            }
            ColType::Long => ColData::Long(Vec::new()),
            ColType::Double => ColData::Double(Vec::new()),
            ColType::String => ColData::Str(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColData::Int(v) => v.len(),
            ColData::Long(v) => v.len(),
            ColData::Double(v) => v.len(),
            ColData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, row: usize) -> Value {
        match self {
            ColData::Int(v) => Value::Int(v[row]),
            ColData::Long(v) => Value::Long(v[row]),
            ColData::Double(v) => Value::Double(v[row]),
            ColData::Str(v) => Value::Str(v[row].clone()),
        }
    }

    fn push(&mut self, v: Value) {
        match (self, v) {
            (ColData::Int(c), Value::Int(x)) => c.push(x),
            (ColData::Long(c), Value::Long(x)) => c.push(x),
            (ColData::Long(c), Value::Int(x)) => c.push(x as i64),
            (ColData::Double(c), Value::Double(x)) => c.push(x),
            (ColData::Double(c), Value::Int(x)) => c.push(x as f64),
            (ColData::Str(c), Value::Str(x)) => c.push(x),
            (col, v) => panic!("pushed {v:?} into column {col:?}"),
        }
    }
}

/// A columnar table with its schema definition.
#[derive(Debug, Clone)]
pub struct Table {
    pub def: TableDef,
    pub cols: Vec<ColData>,
}

impl Table {
    pub fn empty(def: &TableDef) -> Table {
        Table {
            def: def.clone(),
            cols: def.columns.iter().map(|c| ColData::new(c.ty)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cols.first().map(|c| c.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, row: usize, col: usize) -> Value {
        self.cols[col].get(row)
    }

    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    pub fn row(&self, i: usize) -> Vec<Value> {
        (0..self.cols.len()).map(|c| self.get(i, c)).collect()
    }

    /// Serialize in `dbgen` `.tbl` format. The rows go to a sibling temp
    /// file that is renamed over `path`, so a concurrent reader (the
    /// resident-snapshot store re-validating the directory under a live
    /// server) sees the old complete file or the new complete file, never
    /// a truncated one — and the new file has a new inode, which is what
    /// moves its [`crate::snapshot`] fingerprint.
    pub fn write_tbl(&self, path: &Path) -> io::Result<()> {
        // Unique per writer: two threads rewriting the same table must not
        // share a temp file either.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = std::path::PathBuf::from(tmp);
        self.write_rows(&tmp)
            .and_then(|()| std::fs::rename(&tmp, path))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
    }

    fn write_rows(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let n = self.len();
        let mut field = String::new();
        for row in 0..n {
            for (i, col) in self.cols.iter().enumerate() {
                field.clear();
                format_field(&mut field, col, self.def.columns[i].ty, row);
                out.write_all(field.as_bytes())?;
                out.write_all(b"|")?;
            }
            out.write_all(b"\n")?;
        }
        out.flush()
    }

    /// Parse a `.tbl` file for the given table definition. The file is
    /// outside input: a short row or an unparsable field is an
    /// [`io::ErrorKind::InvalidData`] error naming table, line and column.
    pub fn read_tbl(def: &TableDef, path: &Path) -> io::Result<Table> {
        Table::read_tbl_file(def, std::fs::File::open(path)?)
    }

    /// [`Table::read_tbl`] over an already opened file, so a caller can
    /// `fstat` the very handle whose bytes were parsed.
    pub(crate) fn read_tbl_file(def: &TableDef, file: std::fs::File) -> io::Result<Table> {
        let mut table = Table::empty(def);
        let mut reader = io::BufReader::new(file);
        let mut line = String::new();
        let mut lineno = 0;
        while reader.read_line(&mut line)? != 0 {
            lineno += 1;
            let trimmed = line.trim_end_matches('\n');
            if !trimmed.is_empty() {
                push_tbl_line(&mut table, trimmed, lineno)?;
            }
            line.clear();
        }
        Ok(table)
    }
}

fn format_field(out: &mut String, col: &ColData, ty: ColType, row: usize) {
    use std::fmt::Write as _;
    match (col, ty) {
        (ColData::Int(v), ColType::Date) => {
            let d = v[row];
            let _ = write!(out, "{:04}-{:02}-{:02}", d / 10000, d / 100 % 100, d % 100);
        }
        (ColData::Int(v), ColType::Char) => out.push(v[row] as u8 as char),
        (ColData::Int(v), _) => {
            let _ = write!(out, "{}", v[row]);
        }
        (ColData::Long(v), _) => {
            let _ = write!(out, "{}", v[row]);
        }
        (ColData::Double(v), _) => {
            let _ = write!(out, "{:.2}", v[row]);
        }
        (ColData::Str(v), _) => out.push_str(&v[row]),
    }
}

fn push_tbl_line(table: &mut Table, line: &str, lineno: usize) -> io::Result<()> {
    let mut fields = line.split('|');
    for (col, data) in table.def.columns.iter().zip(&mut table.cols) {
        let bad = |what: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}.tbl line {lineno}, column `{}`: {what}",
                    table.def.name, col.name
                ),
            )
        };
        let raw = fields.next().ok_or_else(|| bad("field missing".into()))?;
        let v = parse_field(raw, col.ty)
            .ok_or_else(|| bad(format!("`{raw}` is not a valid {:?}", col.ty)))?;
        data.push(v);
    }
    Ok(())
}

/// Parse a single `.tbl` field of the given type; `None` when the text is
/// not a value of that type. Doubles must be finite: no executor orders
/// a `NaN`, so one must never get past loading.
pub fn parse_field(raw: &str, ty: ColType) -> Option<Value> {
    Some(match ty {
        ColType::Int => Value::Int(raw.parse().ok()?),
        ColType::Bool => Value::Int(if raw == "1" || raw == "true" { 1 } else { 0 }),
        ColType::Long => Value::Long(raw.parse().ok()?),
        ColType::Double => Value::Double(raw.parse().ok().filter(|v: &f64| v.is_finite())?),
        ColType::String => Value::str(raw),
        ColType::Char => Value::Int(raw.as_bytes().first().copied().unwrap_or(b' ') as i32),
        // Exactly three `-`-separated integers, year 0–9999, month 1–12,
        // day 1–31 (the generated C's `dblab_parse_date` has the same rule).
        ColType::Date => {
            let mut it = raw.split('-').map(|s| s.parse::<i32>().ok());
            let (y, m, d) = (it.next()??, it.next()??, it.next()??);
            let valid = it.next().is_none()
                && (0..=9999).contains(&y)
                && (1..=12).contains(&m)
                && (1..=31).contains(&d);
            Value::Int(valid.then(|| y * 10000 + m * 100 + d)?)
        }
    })
}

/// An in-memory database: all tables of a schema, plus the directory the
/// `.tbl` files live in (the generated C loads from the same directory).
#[derive(Debug, Clone)]
pub struct Database {
    pub schema: Schema,
    pub tables: Vec<Table>,
    pub dir: std::path::PathBuf,
}

impl Database {
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .iter()
            .find(|t| &*t.def.name == name)
            .unwrap_or_else(|| panic!("no table {name} in database"))
    }

    /// Write every table as `<dir>/<name>.tbl`.
    pub fn write_all(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        for t in &self.tables {
            t.write_tbl(&self.dir.join(format!("{}.tbl", t.def.name)))?;
        }
        Ok(())
    }

    /// Load every table of `schema` from `<dir>/<name>.tbl`.
    pub fn read_all(schema: &Schema, dir: &Path) -> std::io::Result<Database> {
        let mut tables = Vec::new();
        for def in &schema.tables {
            tables.push(Table::read_tbl(
                def,
                &dir.join(format!("{}.tbl", def.name)),
            )?);
        }
        Ok(Database {
            schema: schema.clone(),
            tables,
            dir: dir.to_path_buf(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def() -> TableDef {
        TableDef::new(
            "t",
            vec![
                ("a", ColType::Int),
                ("b", ColType::Double),
                ("c", ColType::String),
                ("d", ColType::Date),
                ("e", ColType::Char),
            ],
        )
    }

    fn sample() -> Table {
        let mut t = Table::empty(&def());
        t.push_row(vec![
            Value::Int(1),
            Value::Double(2.5),
            Value::str("hello"),
            Value::Int(19980902),
            Value::Int('R' as i32),
        ]);
        t.push_row(vec![
            Value::Int(2),
            Value::Double(-1.0),
            Value::str("world"),
            Value::Int(19951231),
            Value::Int('A' as i32),
        ]);
        t
    }

    #[test]
    fn tbl_roundtrip() {
        let dir = std::env::temp_dir().join("dblab_tbl_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tbl");
        let t = sample();
        t.write_tbl(&path).unwrap();
        // Written via a renamed temp file, which must not linger.
        t.write_tbl(&path).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let txt = std::fs::read_to_string(&path).unwrap();
        assert!(txt.starts_with("1|2.50|hello|1998-09-02|R|"));
        let back = Table::read_tbl(&def(), &path).unwrap();
        assert_eq!(back.len(), 2);
        for r in 0..2 {
            for c in 0..5 {
                assert_eq!(back.get(r, c), t.get(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn date_field_roundtrip() {
        assert_eq!(
            parse_field("1998-09-02", ColType::Date),
            Some(Value::Int(19980902))
        );
        assert_eq!(parse_field("R", ColType::Char), Some(Value::Int(82)));
        assert_eq!(
            parse_field("3.25", ColType::Double),
            Some(Value::Double(3.25))
        );
    }

    /// A row cut mid-line (a writer caught half way, a damaged file) or a
    /// non-finite double is an `InvalidData` error that says where, not a
    /// panic.
    #[test]
    fn malformed_rows_are_typed_errors_naming_the_place() {
        let dir = std::env::temp_dir().join("dblab_tbl_malformed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tbl");
        for (text, line, col) in [
            ("1|2.50|hello|1998-09-02|R|\n2|", 2, "b"),
            ("1|2.50|hello|1998-09-02|R|\n2|-1.00|world", 2, "d"),
            ("x|2.50|hello|1998-09-02|R|\n", 1, "a"),
            ("1|2.50|hello|1998-09|R|\n", 1, "d"),
            ("1|2.50|hello|999999-01-01|R|\n", 1, "d"),
            ("1|2.50|hello|1995-03-05-07|R|\n", 1, "d"),
            ("1|2.50|hello|1995-13-05|R|\n", 1, "d"),
            ("1|2.50|hello|1995-00-05|R|\n", 1, "d"),
            ("1|2.50|hello|1995-03-32|R|\n", 1, "d"),
            ("1|2.50|hello|1995-03-00|R|\n", 1, "d"),
            ("1|2.50|hello|10000-03-05|R|\n", 1, "d"),
            (
                "1|2.50|hello|1998-09-02|R|\n2|NaN|x|1998-09-02|R|\n",
                2,
                "b",
            ),
            ("1|inf|hello|1998-09-02|R|\n", 1, "b"),
            ("1|-infinity|hello|1998-09-02|R|\n", 1, "b"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = Table::read_tbl(&def(), &path).expect_err(text);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("t.tbl line {line}, column `{col}`")),
                "{text:?}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = sample();
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn row_accessor() {
        let t = sample();
        let row = t.row(1);
        assert_eq!(row[0], Value::Int(2));
        assert_eq!(row[2], Value::str("world"));
    }
}
