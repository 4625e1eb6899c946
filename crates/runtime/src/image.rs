//! The data image: a data directory's columns in C widths, written once
//! per data version for the gcc-built binaries to read.
//!
//! A generated binary parses no `.tbl` text. Its `argv[1]` names an image
//! directory, and each `LoadTable` reads the files of the columns its
//! record type names ([`Request`]) whole, before the query timer starts.
//! This module owns the format — the emitter asks it for file names
//! ([`Part::files`], [`rows_file`]) and element types ([`Elem`]) — and
//! the only writer. The writer's rows come through
//! `table`'s row loop (so `parse_field` and its error text), its index
//! keys through the snapshot's key rule, and its dictionaries in
//! [`StringDict`]'s order: the image holds exactly what the in-process
//! executors read from their [`crate::Snapshot`].
//!
//! ## Format
//!
//! Every file is a flat native-endian array without a header, named
//! `<table>.<column index>.<kind>`:
//!
//! - `<table>.rows`: the row count, one `i64`;
//! - `.i32`, `.i64`, `.f64`: a column of that width (`Int`, `Date`,
//!   `Char` and `Bool` are `i32`);
//! - `.off` + `.str`: a string column, `n + 1` `i64` offsets into its
//!   bytes, each value NUL-terminated;
//! - `.codes` + `.dict.off` + `.dict.str`: a dictionary-encoded string
//!   column, `i32` codes and the sorted distinct values as a string
//!   column;
//! - `.unique`: a unique index, `i32`, `max_key + 2` slots, `-1` where no
//!   row has the key;
//! - `.starts` + `.items`: a CSR partition, `max_key + 2` `i32` starts
//!   and `n` `i32` row positions.
//!
//! ## Key and atomicity
//!
//! An image directory is `<root>/<key>`, the key a hash of the canonical
//! data directory, the schema's table and column definitions and every
//! table file's `(inode, length, mtime)`: a rewritten `.tbl` moves the
//! key, so no binary reads a stale image. A file is written under a name
//! unique to its writer and renamed into place, so a reader sees it whole
//! or not at all; two writers of one file write the same bytes. A table's
//! parts are written in one pass over its `.tbl`, from the very handle
//! whose fingerprint is the key's, and only the columns they need are
//! parsed. Within a process one writer runs at a time, and each re-checks
//! what is missing first, so concurrent first runs write once.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use dblab_catalog::{ColType, Schema, TableDef};

use crate::snapshot::{csr_index, index_keys, signature, unique_index, Fingerprint};
use crate::table::{temp_path, visit_rows, Field};
use crate::{StringDict, Value};

/// The element type of a column file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elem {
    I32,
    I64,
    F64,
    Str,
}

impl Elem {
    /// How a column of type `ty` is stored.
    pub fn of(ty: ColType) -> Elem {
        match ty {
            ColType::Int | ColType::Date | ColType::Char | ColType::Bool => Elem::I32,
            ColType::Long => Elem::I64,
            ColType::Double => Elem::F64,
            ColType::String => Elem::Str,
        }
    }

    /// The C type a binary reads one element as.
    pub fn c_type(self) -> &'static str {
        match self {
            Elem::I32 => "int32_t",
            Elem::I64 => "int64_t",
            Elem::F64 => "double",
            Elem::Str => "const char*",
        }
    }
}

/// One thing a binary reads of a table, by column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Part {
    /// The column in its own [`Elem`].
    Column(usize),
    /// A string column's dictionary codes and sorted values.
    Dict(usize),
    /// A unique index over an integer column.
    Unique(usize),
    /// A CSR partition by an integer column.
    Csr(usize),
}

impl Part {
    pub fn col(self) -> usize {
        match self {
            Part::Column(c) | Part::Dict(c) | Part::Unique(c) | Part::Csr(c) => c,
        }
    }

    /// The files that hold this part of table `def`, in the order listed
    /// in the module docs.
    pub fn files(self, def: &TableDef) -> Vec<String> {
        let file = |kind: &str| format!("{}.{}.{kind}", def.name, self.col());
        match self {
            Part::Column(c) => match Elem::of(def.columns[c].ty) {
                Elem::I32 => vec![file("i32")],
                Elem::I64 => vec![file("i64")],
                Elem::F64 => vec![file("f64")],
                Elem::Str => vec![file("off"), file("str")],
            },
            Part::Dict(_) => vec![file("codes"), file("dict.off"), file("dict.str")],
            Part::Unique(_) => vec![file("unique")],
            Part::Csr(_) => vec![file("starts"), file("items")],
        }
    }
}

/// The file that holds `table`'s row count.
pub fn rows_file(table: &str) -> String {
    format!("{table}.rows")
}

/// What one binary reads: for each table it loads, the parts its program
/// names. Built once per executable; [`resolve`] makes them present.
#[derive(Debug, Clone)]
pub struct Request {
    signature: String,
    /// Every table of the schema: the image is keyed on all their files.
    tables: Vec<Arc<str>>,
    parts: Vec<(TableDef, Vec<Part>)>,
}

impl Request {
    pub fn new(schema: &Schema, parts: Vec<(Arc<str>, Vec<Part>)>) -> Request {
        Request {
            signature: signature(schema),
            tables: schema.tables.iter().map(|t| t.name.clone()).collect(),
            parts: parts
                .into_iter()
                .map(|(t, p)| (schema.table(&t).clone(), p))
                .collect(),
        }
    }

    /// Every file of every part, with the table's row count.
    fn files(&self) -> impl Iterator<Item = String> + '_ {
        self.parts.iter().flat_map(|(def, parts)| {
            let rows = std::iter::once(rows_file(&def.name));
            rows.chain(parts.iter().flat_map(|p| p.files(def)))
        })
    }
}

/// One image writer per process at a time: a concurrent first run waits,
/// then finds the files written.
static WRITER: Mutex<()> = Mutex::new(());

/// The image directory of `data_dir` under `root` that holds every part
/// `req` names, writing whichever of them are missing. An unreadable or
/// malformed table, or a key column no index can be built over, is the
/// same typed error [`crate::Table::read_tbl`] and the snapshot's indexes
/// return, and leaves no file behind.
pub fn resolve(req: &Request, data_dir: &Path, root: &Path) -> io::Result<PathBuf> {
    let data_dir = (data_dir.canonicalize())
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", data_dir.display())))?;
    // A table rewritten between the key's `stat` and the writer's `open`
    // moves the key: start over under the new one.
    for _ in 0..3 {
        let prints: Vec<Option<Fingerprint>> = (req.tables.iter())
            .map(|t| std::fs::metadata(tbl(&data_dir, t)).ok())
            .map(|m| m.as_ref().map(Fingerprint::of))
            .collect();
        let dir = root.join(key(req, &data_dir, &prints));
        if req.files().all(|f| dir.join(f).exists()) {
            return Ok(dir);
        }
        let _one = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
        std::fs::create_dir_all(&dir)?;
        if write(req, &data_dir, &dir, &prints)? {
            return Ok(dir);
        }
    }
    Err(io::Error::other(format!(
        "{}: tables kept changing while their image was written",
        data_dir.display()
    )))
}

fn tbl(dir: &Path, table: &str) -> PathBuf {
    dir.join(format!("{table}.tbl"))
}

/// FNV-1a of everything an image's bytes depend on.
fn key(req: &Request, data_dir: &Path, prints: &[Option<Fingerprint>]) -> String {
    let text = format!(
        "image v1\x1f{}\x1f{}\x1f{prints:?}",
        data_dir.display(),
        req.signature
    );
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Write every missing part of every requested table into `dir`; `false`
/// when a table's file no longer has the fingerprint `dir` is keyed on.
fn write(
    req: &Request,
    data_dir: &Path,
    dir: &Path,
    prints: &[Option<Fingerprint>],
) -> io::Result<bool> {
    for (def, parts) in &req.parts {
        let missing: Vec<Part> = (parts.iter().copied())
            .filter(|p| !p.files(def).iter().all(|f| dir.join(f).exists()))
            .collect();
        if missing.is_empty() && dir.join(rows_file(&def.name)).exists() {
            continue;
        }
        let path = tbl(data_dir, &def.name);
        let file = File::open(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let keyed = req.tables.iter().position(|t| *t == def.name);
        if keyed.and_then(|i| prints[i]) != Some(Fingerprint::of(&file.metadata()?)) {
            return Ok(false);
        }
        write_table(def, &missing, file, dir)?;
    }
    Ok(true)
}

/// One pass over a table's rows into the files of `parts` and its row
/// count, committed together once every file is complete.
fn write_table(def: &TableDef, parts: &[Part], file: File, dir: &Path) -> io::Result<()> {
    let mut staged = Staged::new(dir);
    let mut read = vec![false; def.columns.len()];
    let mut writers = Vec::with_capacity(parts.len());
    for &part in parts {
        read[part.col()] = true;
        writers.push(Writer::new(part, def, &mut staged)?);
    }
    let rows = visit_rows(def, file, &read, |col, field| {
        for w in writers.iter_mut().filter(|w| w.part.col() == col) {
            w.push(&field)?;
        }
        Ok(())
    })?;
    for w in writers {
        w.finish(def, rows)?;
    }
    let mut count = staged.create(&rows_file(&def.name))?;
    count.write_all(&(rows as i64).to_ne_bytes())?;
    count.flush()?;
    drop(count);
    staged.commit()
}

type Out = BufWriter<File>;

/// Files being written under temporary names; removed on drop unless
/// [`Staged::commit`] renamed them into place.
struct Staged<'d> {
    dir: &'d Path,
    files: Vec<(PathBuf, PathBuf)>,
}

impl<'d> Staged<'d> {
    fn new(dir: &'d Path) -> Staged<'d> {
        Staged {
            dir,
            files: Vec::new(),
        }
    }

    fn create(&mut self, name: &str) -> io::Result<Out> {
        let done = self.dir.join(name);
        let tmp = temp_path(&done);
        let file = File::create(&tmp)?;
        self.files.push((tmp, done));
        Ok(BufWriter::with_capacity(1 << 16, file))
    }

    fn commit(mut self) -> io::Result<()> {
        for (tmp, done) in std::mem::take(&mut self.files) {
            std::fs::rename(&tmp, &done)?;
        }
        Ok(())
    }
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        for (tmp, _) in &self.files {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// `n + 1` offsets and the NUL-terminated bytes of a string column.
struct Strings {
    offsets: Out,
    bytes: Out,
    at: i64,
}

impl Strings {
    fn new(staged: &mut Staged, offsets: &str, bytes: &str) -> io::Result<Strings> {
        let mut offsets = staged.create(offsets)?;
        offsets.write_all(&0i64.to_ne_bytes())?;
        let bytes = staged.create(bytes)?;
        Ok(Strings {
            offsets,
            bytes,
            at: 0,
        })
    }

    fn push(&mut self, s: &str) -> io::Result<()> {
        self.bytes.write_all(s.as_bytes())?;
        self.bytes.write_all(&[0])?;
        self.at += s.len() as i64 + 1;
        self.offsets.write_all(&self.at.to_ne_bytes())
    }

    fn finish(mut self) -> io::Result<()> {
        self.offsets.flush()?;
        self.bytes.flush()
    }
}

/// The writer of one part while the rows stream past.
struct Writer {
    part: Part,
    sink: Sink,
}

enum Sink {
    /// A numeric column, element by element.
    Numbers(Out),
    Strings(Strings),
    /// Each row's first-seen id of its value; codes need every value.
    Dict {
        seen: HashMap<Box<str>, u32>,
        ids: Vec<u32>,
        codes: Out,
        values: Strings,
    },
    /// The key column; an index needs every key.
    Keys {
        keys: Vec<i64>,
        outs: Vec<Out>,
    },
}

impl Writer {
    fn new(part: Part, def: &TableDef, staged: &mut Staged) -> io::Result<Writer> {
        let files = part.files(def);
        let sink = match part {
            Part::Column(c) if Elem::of(def.columns[c].ty) == Elem::Str => {
                Sink::Strings(Strings::new(staged, &files[0], &files[1])?)
            }
            Part::Column(_) => Sink::Numbers(staged.create(&files[0])?),
            Part::Dict(_) => Sink::Dict {
                seen: HashMap::new(),
                ids: Vec::new(),
                codes: staged.create(&files[0])?,
                values: Strings::new(staged, &files[1], &files[2])?,
            },
            Part::Unique(_) | Part::Csr(_) => Sink::Keys {
                keys: Vec::new(),
                outs: (files.iter().map(|f| staged.create(f))).collect::<io::Result<_>>()?,
            },
        };
        Ok(Writer { part, sink })
    }

    fn push(&mut self, field: &Field) -> io::Result<()> {
        match (&mut self.sink, field) {
            (Sink::Numbers(out), Field::Value(v)) => match v {
                Value::Int(x) => out.write_all(&x.to_ne_bytes()),
                Value::Long(x) => out.write_all(&x.to_ne_bytes()),
                Value::Double(x) => out.write_all(&x.to_ne_bytes()),
                other => unreachable!("a number column parsed to {other:?}"),
            },
            (Sink::Strings(s), Field::Text(t)) => s.push(t),
            (Sink::Dict { seen, ids, .. }, Field::Text(t)) => {
                let next = seen.len() as u32;
                ids.push(*seen.entry(Box::from(*t)).or_insert(next));
                Ok(())
            }
            (Sink::Keys { keys, .. }, Field::Value(Value::Int(k))) => {
                keys.push(*k as i64);
                Ok(())
            }
            (Sink::Keys { keys, .. }, Field::Value(Value::Long(k))) => {
                keys.push(*k);
                Ok(())
            }
            _ => panic!("{:?} does not take this column's values", self.part),
        }
    }

    fn finish(self, def: &TableDef, rows: usize) -> io::Result<()> {
        match self.sink {
            Sink::Numbers(mut out) => out.flush(),
            Sink::Strings(s) => s.finish(),
            Sink::Dict {
                seen,
                ids,
                mut codes,
                mut values,
            } => {
                let dict = StringDict::build(seen.keys().map(|s| &**s), true);
                let mut rank = vec![0i32; seen.len()];
                for (s, &id) in &seen {
                    rank[id as usize] = dict.code(s);
                }
                for id in ids {
                    codes.write_all(&rank[id as usize].to_ne_bytes())?;
                }
                for v in dict.iter() {
                    values.push(v)?;
                }
                codes.flush()?;
                values.finish()
            }
            Sink::Keys { keys, mut outs } => {
                let col = self.part.col();
                let (keys, slots) = index_keys(def, col, keys.into_iter())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if i32::try_from(rows).is_err() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}.tbl has {rows} rows; an index holds 32-bit rows",
                            def.name
                        ),
                    ));
                }
                let arrays = match self.part {
                    Part::Unique(_) => vec![unique_index(&keys, slots)],
                    _ => {
                        let (starts, items) = csr_index(&keys, slots);
                        vec![starts, items]
                    }
                };
                for (out, array) in outs.iter_mut().zip(arrays) {
                    for v in array {
                        out.write_all(&(v as i32).to_ne_bytes())?;
                    }
                    out.flush()?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Snapshot, Table};

    fn schema() -> Schema {
        Schema::new(vec![TableDef::new(
            "r",
            vec![
                ("id", ColType::Int),
                ("name", ColType::String),
                ("v", ColType::Double),
                ("c", ColType::Char),
            ],
        )])
    }

    fn write_r(dir: &Path, rows: &[(i32, &str, f64)]) -> Database {
        let schema = schema();
        let mut t = Table::empty(&schema.tables[0]);
        for &(id, name, v) in rows {
            t.push_row(vec![
                Value::Int(id),
                Value::str(name),
                Value::Double(v),
                Value::Int(b'x' as i32),
            ]);
        }
        let db = Database {
            schema,
            tables: vec![t],
            dir: dir.to_path_buf(),
        };
        db.write_all().expect("write .tbl");
        db
    }

    fn all_parts() -> Vec<Part> {
        vec![
            Part::Column(0),
            Part::Column(1),
            Part::Column(2),
            Part::Column(3),
            Part::Dict(1),
            Part::Unique(0),
            Part::Csr(0),
        ]
    }

    fn read<T: Copy>(dir: &Path, name: &str, from: fn([u8; 8]) -> T, width: usize) -> Vec<T> {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        (bytes.chunks(width))
            .map(|c| {
                let mut w = [0u8; 8];
                w[..width].copy_from_slice(c);
                from(w)
            })
            .collect()
    }

    fn i32s(dir: &Path, name: &str) -> Vec<i32> {
        read(
            dir,
            name,
            |w| i32::from_ne_bytes(w[..4].try_into().unwrap()),
            4,
        )
    }

    fn strings(dir: &Path, off: &str, bytes: &str) -> Vec<String> {
        let off = read(dir, off, i64::from_ne_bytes, 8);
        let bytes = std::fs::read(dir.join(bytes)).unwrap();
        (off.windows(2))
            .map(|w| String::from_utf8(bytes[w[0] as usize..w[1] as usize - 1].to_vec()).unwrap())
            .collect()
    }

    /// Every part holds what the resident snapshot holds for the same
    /// file: the columns, the dictionary in `StringDict`'s order, and the
    /// indexes the one key rule built.
    #[test]
    fn every_part_is_what_the_snapshot_reads() {
        let data = std::env::temp_dir().join("dblab_image_parts_data");
        let root = std::env::temp_dir().join("dblab_image_parts_root");
        let _ = std::fs::remove_dir_all(&root);
        let db = write_r(&data, &[(3, "cy", 0.5), (0, "al", 1.25), (1, "cy", -2.0)]);
        let req = Request::new(&db.schema, vec![("r".into(), all_parts())]);
        let dir = resolve(&req, &data, &root).unwrap();
        let snap = Snapshot::from(Database::read_all(&db.schema, &data).unwrap());
        let r = snap.table("r");
        let def = &db.schema.tables[0];
        let file = |p: Part, i: usize| p.files(def)[i].clone();
        assert_eq!(read(&dir, "r.rows", i64::from_ne_bytes, 8), [3]);
        assert_eq!(i32s(&dir, &file(Part::Column(0), 0)), [3, 0, 1]);
        assert_eq!(i32s(&dir, &file(Part::Column(3), 0)), [120; 3]);
        assert_eq!(
            read(&dir, &file(Part::Column(2), 0), f64::from_ne_bytes, 8),
            [0.5, 1.25, -2.0]
        );
        let names = Part::Column(1).files(def);
        assert_eq!(strings(&dir, &names[0], &names[1]), ["cy", "al", "cy"]);
        let dict = Part::Dict(1).files(def);
        assert_eq!(i32s(&dir, &dict[0]), r.dict(1).codes);
        let values: Vec<String> = r.dict(1).dict.iter().map(|s| s.to_string()).collect();
        assert_eq!(strings(&dir, &dict[1], &dict[2]), values);
        let unique: Vec<i64> = i32s(&dir, &file(Part::Unique(0), 0))
            .iter()
            .map(|&v| v as i64)
            .collect();
        assert_eq!(unique, &r.index_unique(0).unwrap()[..]);
        let csr = r.csr(0).unwrap();
        let widen = |v: Vec<i32>| v.into_iter().map(i64::from).collect::<Vec<_>>();
        assert_eq!(widen(i32s(&dir, &file(Part::Csr(0), 0))), &csr.starts[..]);
        assert_eq!(widen(i32s(&dir, &file(Part::Csr(0), 1))), &csr.items[..]);
        // Nothing but the parts and the row count, no temporary left.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 12);
    }

    /// A rewritten table moves the key; the old image stays whole for
    /// whoever still reads it. A refused key leaves no file behind and
    /// refuses again on the next call.
    #[test]
    fn a_rewrite_moves_the_key_and_a_refusal_writes_nothing() {
        let data = std::env::temp_dir().join("dblab_image_key_data");
        let root = std::env::temp_dir().join("dblab_image_key_root");
        let _ = std::fs::remove_dir_all(&root);
        let db = write_r(&data, &[(0, "a", 1.0)]);
        let req = Request::new(&db.schema, vec![("r".into(), vec![Part::Unique(0)])]);
        let first = resolve(&req, &data, &root).unwrap();
        assert_eq!(resolve(&req, &data, &root).unwrap(), first);
        write_r(&data, &[(0, "a", 1.0), (-4, "b", 2.0)]);
        for _ in 0..2 {
            let err = resolve(&req, &data, &root).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("r.tbl column `id`: negative index key -4 in row 2"),
                "{msg}"
            );
        }
        let dirs: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
        assert_eq!(dirs.len(), 2, "the refused image is an empty directory");
        assert!(dirs
            .iter()
            .map(|d| d.as_ref().unwrap().path())
            .filter(|d| *d != first)
            .all(|d| std::fs::read_dir(d).unwrap().count() == 0));
        assert!(first.join("r.0.unique").exists());
    }
}
