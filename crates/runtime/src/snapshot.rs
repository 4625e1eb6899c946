//! Resident data: the parsed database, held once per process.
//!
//! The paper builds its indexes, partitions and string dictionaries once,
//! at load time (§5.2, §5.3, App. C), and times queries over data that is
//! already in memory. A [`Snapshot`] is that state for the in-process
//! executors: the columnar [`Table`]s plus, per table, the load-time side
//! structures — string dictionaries with their code columns, unique
//! indexes, CSR partitions — each built lazily, exactly once, and shared
//! by every thread that reads the snapshot. Everything here is immutable
//! after construction and `Send + Sync`.
//!
//! [`resident`] resolves a data directory to its snapshot through a small
//! process-wide store. An entry is keyed by the canonical directory and
//! the schema's table/column *definitions* (statistics and key
//! annotations do not change what a `.tbl` file parses to), and is
//! re-validated on every call by one `stat` per table against the
//! `(inode, length, mtime)` that `fstat` reported on the very handle the
//! table was parsed from. Only tables whose fingerprint moved are parsed
//! again; the rest — and their side structures — carry over. Concurrent
//! first touches of one directory load it once. A failed load is returned
//! to its caller and leaves the entry as it was, so the next call tries
//! again. [`Database::read_all`] stays the plain, uncached parser.

use std::io;
use std::ops::Deref;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use dblab_catalog::{Schema, TableDef};

use crate::{ColData, Database, StringDict, Table};

/// A borrowed, typed view of one stored column (or of a string column's
/// dictionary codes) — what an executor reads a record field from.
#[derive(Debug, Clone, Copy)]
pub enum ColumnRef<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
    Str(&'a [Arc<str>]),
}

/// An ordered string dictionary over one column together with the column
/// re-expressed in its codes (paper §5.3: strings become integers at
/// loading time).
#[derive(Debug)]
pub struct DictColumn {
    pub dict: StringDict,
    pub codes: Vec<i32>,
}

/// A CSR partition of a table by one integer column (Fig. 7c): rows with
/// key `k` are `items[starts[k]..starts[k + 1]]`.
#[derive(Debug)]
pub struct Csr {
    pub starts: Arc<[i64]>,
    pub items: Arc<[i64]>,
}

/// `fstat` of a `.tbl` file at the moment it was parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    ino: u64,
    len: u64,
    mtime: (i64, i64),
}

impl Fingerprint {
    pub(crate) fn of(m: &std::fs::Metadata) -> Fingerprint {
        Fingerprint {
            ino: m.ino(),
            len: m.len(),
            mtime: (m.mtime(), m.mtime_nsec()),
        }
    }
}

/// Largest key an index may span beyond [`KEY_RANGE_PER_ROW`] × rows: lets
/// small tables carry sparse keys without letting one stray key size an
/// allocation. [`index_keys`] applies it for every index of every executor.
pub const KEY_RANGE_SLACK: usize = 1 << 16;
/// TPC-H's sparsest indexed key (`o_orderkey`) spans 4× its row count.
pub const KEY_RANGE_PER_ROW: usize = 64;

/// One table of a [`Snapshot`] and its lazily built side structures.
/// Dereferences to the [`Table`] itself.
#[derive(Debug)]
pub struct TableSnapshot {
    table: Table,
    /// `None` for a table that never touched disk.
    fingerprint: Option<Fingerprint>,
    /// Approximate heap bytes of `table` plus every side structure built
    /// so far (each adds itself once, when it is built).
    bytes: AtomicU64,
    dicts: Vec<OnceLock<DictColumn>>,
    unique: Vec<OnceLock<Result<Arc<[i64]>, String>>>,
    csr: Vec<OnceLock<Result<Csr, String>>>,
}

impl Deref for TableSnapshot {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.table
    }
}

fn slots<T>(n: usize) -> Vec<OnceLock<T>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

impl TableSnapshot {
    fn new(table: Table, fingerprint: Option<Fingerprint>) -> TableSnapshot {
        let bytes = table
            .cols
            .iter()
            .map(|c| match c {
                ColData::Int(v) => v.len() * 4,
                ColData::Long(v) => v.len() * 8,
                ColData::Double(v) => v.len() * 8,
                ColData::Str(v) => v.iter().map(str_bytes).sum(),
            })
            .sum::<usize>();
        let n = table.cols.len();
        TableSnapshot {
            table,
            fingerprint,
            bytes: AtomicU64::new(bytes as u64),
            dicts: slots(n),
            unique: slots(n),
            csr: slots(n),
        }
    }

    /// Parse `path`, fingerprinting the handle the rows are read from.
    fn load(def: &TableDef, path: &Path) -> io::Result<TableSnapshot> {
        let file = std::fs::File::open(path)?;
        let fingerprint = Fingerprint::of(&file.metadata()?);
        let table = Table::read_tbl_file(def, file)?;
        Ok(TableSnapshot::new(table, Some(fingerprint)))
    }

    /// Does `path` still hold the bytes this table was parsed from?
    fn is_current(&self, path: &Path) -> bool {
        match (self.fingerprint, std::fs::metadata(path)) {
            (Some(seen), Ok(now)) => seen == Fingerprint::of(&now),
            _ => false,
        }
    }

    /// The ordered dictionary over string column `col` and the column in
    /// its codes. Panics on a non-string column: dictionaries are named by
    /// the compiler, not by outside input.
    pub fn dict(&self, col: usize) -> &DictColumn {
        self.dicts[col].get_or_init(|| {
            let ColData::Str(values) = &self.table.cols[col] else {
                panic!(
                    "dictionary over non-string column {}.{}",
                    self.table.def.name, self.table.def.columns[col].name
                )
            };
            let dict = StringDict::build(values.iter().map(|s| &**s), true);
            let codes = values.iter().map(|s| dict.code(s)).collect();
            // Each distinct string once more, plus its hash-index entry.
            self.grew(values.len() * 4 + dict.iter().map(|s| str_bytes(s) + 24).sum::<usize>());
            DictColumn { dict, codes }
        })
    }

    /// The column a record field named `name` reads: the stored column, or
    /// — when the field is `encoded` (a string attribute the compiler
    /// lowered to `Int`) — its dictionary codes.
    pub fn field_column(&self, name: &str, encoded: bool) -> ColumnRef<'_> {
        let col = self.table.def.col_index(name);
        match &self.table.cols[col] {
            ColData::Str(_) if encoded => ColumnRef::I32(&self.dict(col).codes),
            ColData::Str(v) => ColumnRef::Str(v),
            ColData::Int(v) => ColumnRef::I32(v),
            ColData::Long(v) => ColumnRef::I64(v),
            ColData::Double(v) => ColumnRef::F64(v),
        }
    }

    /// Unique index over integer column `col` (Fig. 7d): key → row
    /// position, `-1` where no row has the key; `max_key + 2` slots.
    pub fn index_unique(&self, col: usize) -> io::Result<&Arc<[i64]>> {
        self.unique[col]
            .get_or_init(|| {
                let (keys, slots) = self.index_keys(col)?;
                let idx = unique_index(&keys, slots);
                self.grew(idx.len() * 8);
                Ok(idx.into())
            })
            .as_ref()
            .map_err(|e| invalid(e))
    }

    /// CSR partition of the rows by integer column `col` (Fig. 7c).
    pub fn csr(&self, col: usize) -> io::Result<&Csr> {
        self.csr[col]
            .get_or_init(|| {
                let (keys, slots) = self.index_keys(col)?;
                let (starts, items) = csr_index(&keys, slots);
                self.grew((starts.len() + items.len()) * 8);
                Ok(Csr {
                    starts: starts.into(),
                    items: items.into(),
                })
            })
            .as_ref()
            .map_err(|e| invalid(e))
    }

    fn index_keys(&self, col: usize) -> Result<(Vec<usize>, usize), String> {
        match &self.table.cols[col] {
            ColData::Int(v) => index_keys(&self.table.def, col, v.iter().map(|&x| x as i64)),
            ColData::Long(v) => index_keys(&self.table.def, col, v.iter().copied()),
            other => panic!("index key over non-int column {other:?}"),
        }
    }

    /// A side structure of `bytes` heap bytes was just built.
    fn grew(&self, bytes: usize) {
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The keys of integer column `col` of `def` as array positions, and how
/// many slots (`max_key + 2`) an index over them needs: the one key rule
/// of every index, the resident snapshot's and the data image's. The
/// values are outside input: a negative key, or a key range out of all
/// proportion to the row count, is refused here rather than indexed with.
pub(crate) fn index_keys(
    def: &TableDef,
    col: usize,
    keys: impl ExactSizeIterator<Item = i64>,
) -> Result<(Vec<usize>, usize), String> {
    let place = || format!("{}.tbl column `{}`", def.name, def.columns[col].name);
    let rows = keys.len();
    let limit = KEY_RANGE_SLACK + KEY_RANGE_PER_ROW * rows;
    let mut max = 0;
    let mut out = Vec::with_capacity(rows);
    for (row, k) in keys.enumerate() {
        let k = usize::try_from(k)
            .map_err(|_| format!("{}: negative index key {k} in row {}", place(), row + 1))?;
        if k > limit {
            return Err(format!(
                "{}: index key {k} in row {} is out of proportion to {rows} rows",
                place(),
                row + 1
            ));
        }
        max = max.max(k);
        out.push(k);
    }
    Ok((out, max + 2))
}

/// Unique index over checked `keys` (Fig. 7d): key → row position, `-1`
/// where no row has the key.
pub(crate) fn unique_index(keys: &[usize], slots: usize) -> Vec<i64> {
    let mut idx = vec![-1i64; slots];
    for (row, &k) in keys.iter().enumerate() {
        idx[k] = row as i64;
    }
    idx
}

/// CSR partition over checked `keys` (Fig. 7c): `(starts, items)`.
pub(crate) fn csr_index(keys: &[usize], slots: usize) -> (Vec<i64>, Vec<i64>) {
    let mut starts = vec![0i64; slots];
    for &k in keys {
        starts[k] += 1;
    }
    let mut acc = 0;
    for s in &mut starts {
        acc += std::mem::replace(s, acc);
    }
    let mut next = starts.clone();
    let mut items = vec![0i64; keys.len()];
    for (row, &k) in keys.iter().enumerate() {
        items[next[k] as usize] = row as i64;
        next[k] += 1;
    }
    (starts, items)
}

/// Fat pointer + `Arc` header + the text itself.
fn str_bytes(s: &Arc<str>) -> usize {
    32 + s.len()
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// An immutable in-memory database with shared side structures. Get one
/// for a data directory with [`resident`], or wrap an in-memory
/// [`Database`] that never touched disk with [`Snapshot::from`].
#[derive(Debug)]
pub struct Snapshot {
    tables: Vec<Arc<TableSnapshot>>,
}

impl From<Database> for Snapshot {
    fn from(db: Database) -> Snapshot {
        Snapshot {
            tables: db
                .tables
                .into_iter()
                .map(|t| Arc::new(TableSnapshot::new(t, None)))
                .collect(),
        }
    }
}

impl Snapshot {
    pub fn tables(&self) -> impl Iterator<Item = &TableSnapshot> {
        self.tables.iter().map(|t| &**t)
    }

    pub fn table(&self, name: &str) -> &TableSnapshot {
        self.tables()
            .find(|t| &*t.def.name == name)
            .unwrap_or_else(|| panic!("no table {name} in database"))
    }

    /// The dictionary the compiler named `"<table>__<column index>"`.
    pub fn dict(&self, name: &str) -> &DictColumn {
        let (table, col) = name.rsplit_once("__").expect("dict name");
        self.table(table)
            .dict(col.parse().expect("dict column index"))
    }

    /// Approximate heap bytes held: every table plus the side structures
    /// built so far.
    pub fn resident_bytes(&self) -> u64 {
        self.tables().map(|t| t.bytes.load(Ordering::Relaxed)).sum()
    }
}

/// What the store did for one (data directory, schema definitions) key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SnapshotStats {
    /// Whole-directory loads (first touch, or first touch after eviction).
    pub loads: u64,
    /// Calls answered by the resident snapshot after validation alone.
    pub hits: u64,
    /// Tables parsed again because their file's fingerprint moved.
    pub tables_reloaded: u64,
    /// Wall time spent in loads and reloads (ms).
    pub load_ms_total: f64,
    /// Approximate heap bytes of the current snapshot.
    pub resident_bytes: u64,
}

impl std::ops::AddAssign for SnapshotStats {
    fn add_assign(&mut self, o: SnapshotStats) {
        self.loads += o.loads;
        self.hits += o.hits;
        self.tables_reloaded += o.tables_reloaded;
        self.load_ms_total += o.load_ms_total;
        self.resident_bytes += o.resident_bytes;
    }
}

struct Entry {
    dir: PathBuf,
    /// The schema's table and column definitions, rendered.
    signature: String,
    /// `<dir>/<table>.tbl` per table, in schema order.
    paths: Vec<PathBuf>,
    /// Held across re-validation and parsing: the single flight.
    flight: Mutex<()>,
    current: Mutex<Option<Arc<Snapshot>>>,
    loads: AtomicU64,
    hits: AtomicU64,
    tables_reloaded: AtomicU64,
    load_ns: AtomicU64,
}

/// One entry per (directory, schema definitions) the process has touched,
/// never evicted: a serving process reads one directory.
static STORE: Mutex<Vec<Arc<Entry>>> = Mutex::new(Vec::new());

pub(crate) fn signature(schema: &Schema) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for t in &schema.tables {
        let _ = write!(s, "{}(", t.name);
        for c in &t.columns {
            let _ = write!(s, "{}:{:?},", c.name, c.ty);
        }
        s.push(')');
    }
    s
}

/// Every critical section below leaves its data valid at each step, so a
/// lock poisoned by a panicking holder is simply taken.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn entry(schema: &Schema, dir: &Path, create: bool) -> Option<Arc<Entry>> {
    let signature = signature(schema);
    let mut store = lock(&STORE);
    if let Some(e) = store
        .iter()
        .find(|e| e.dir == dir && e.signature == signature)
    {
        return Some(Arc::clone(e));
    }
    if !create {
        return None;
    }
    let e = Arc::new(Entry {
        dir: dir.to_path_buf(),
        signature,
        paths: schema
            .tables
            .iter()
            .map(|t| dir.join(format!("{}.tbl", t.name)))
            .collect(),
        flight: Mutex::new(()),
        current: Mutex::new(None),
        loads: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        tables_reloaded: AtomicU64::new(0),
        load_ns: AtomicU64::new(0),
    });
    store.push(Arc::clone(&e));
    Some(e)
}

impl Entry {
    /// The current snapshot, if any, and the tables whose files no longer
    /// match it (every table while there is none).
    fn validate(&self) -> (Option<Arc<Snapshot>>, Vec<usize>) {
        let current = lock(&self.current).clone();
        let moved = (0..self.paths.len())
            .filter(|&i| match &current {
                Some(s) => !s.tables[i].is_current(&self.paths[i]),
                None => true,
            })
            .collect();
        (current, moved)
    }
}

/// The resident snapshot of `<dir>/<table>.tbl` for every table of
/// `schema`: validated against the files' fingerprints, (re)loading
/// exactly the tables that moved. See the module docs for the contract.
pub fn resident(schema: &Schema, dir: &Path) -> io::Result<Arc<Snapshot>> {
    let e = entry(schema, &dir.canonicalize()?, true).expect("created when absent");
    let hit = |s: Arc<Snapshot>| {
        e.hits.fetch_add(1, Ordering::Relaxed);
        Ok(s)
    };
    let (current, moved) = e.validate();
    if let (Some(s), true) = (current, moved.is_empty()) {
        return hit(s);
    }
    let _flight = lock(&e.flight);
    // Whoever held the flight before us may have loaded what we need.
    let (stale, moved) = e.validate();
    let mut tables = match stale {
        Some(s) if moved.is_empty() => return hit(s),
        Some(ref s) => s.tables.clone(),
        None => Vec::with_capacity(moved.len()),
    };
    let t0 = Instant::now();
    for &i in &moved {
        let t = Arc::new(TableSnapshot::load(&schema.tables[i], &e.paths[i])?);
        match tables.get_mut(i) {
            Some(slot) => *slot = t,
            None => tables.push(t),
        }
    }
    let fresh = Arc::new(Snapshot { tables });
    *lock(&e.current) = Some(Arc::clone(&fresh));
    match stale {
        None => e.loads.fetch_add(1, Ordering::Relaxed),
        Some(_) => e
            .tables_reloaded
            .fetch_add(moved.len() as u64, Ordering::Relaxed),
    };
    e.load_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(fresh)
}

/// What the store has done so far for this directory and schema — all
/// zeros when it holds no such entry.
pub fn stats(schema: &Schema, dir: &Path) -> SnapshotStats {
    let Some(e) = dir
        .canonicalize()
        .ok()
        .and_then(|d| entry(schema, &d, false))
    else {
        return SnapshotStats::default();
    };
    let current = lock(&e.current).clone();
    SnapshotStats {
        loads: e.loads.load(Ordering::Relaxed),
        hits: e.hits.load(Ordering::Relaxed),
        tables_reloaded: e.tables_reloaded.load(Ordering::Relaxed),
        load_ms_total: e.load_ns.load(Ordering::Relaxed) as f64 / 1e6,
        resident_bytes: current.map_or(0, |s| s.resident_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use dblab_catalog::ColType;

    fn schema() -> Schema {
        Schema::new(vec![
            TableDef::new("r", vec![("id", ColType::Int), ("name", ColType::String)])
                .with_primary_key(&["id"]),
            TableDef::new("s", vec![("rid", ColType::Int), ("v", ColType::Double)])
                .with_foreign_key("rid", "r"),
        ])
    }

    fn table(def: &TableDef, rows: &[(i32, Value)]) -> Table {
        let mut t = Table::empty(def);
        for (k, v) in rows {
            t.push_row(vec![Value::Int(*k), v.clone()]);
        }
        t
    }

    /// Both tables written under a directory private to one test (the
    /// tests of this module run on parallel threads of one process).
    fn dir(test: &str, r: &[(i32, Value)]) -> (Schema, PathBuf) {
        let schema = schema();
        let dir = std::env::temp_dir().join(format!("dblab_snapshot_{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        Database {
            tables: vec![
                table(&schema.tables[0], r),
                table(
                    &schema.tables[1],
                    &[(2, Value::Double(0.5)), (0, Value::Double(1.5))],
                ),
            ],
            schema: schema.clone(),
            dir: dir.clone(),
        }
        .write_all()
        .expect("write .tbl");
        (schema, dir)
    }

    fn names() -> Vec<(i32, Value)> {
        vec![
            (2, Value::str("cy")),
            (0, Value::str("al")),
            (1, Value::str("bo")),
        ]
    }

    #[test]
    fn everything_shared_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<TableSnapshot>();
        assert_send_sync::<DictColumn>();
        assert_send_sync::<Csr>();
        assert_send_sync::<ColumnRef<'static>>();
        assert_send_sync::<StringDict>();
        assert_send_sync::<Entry>();
    }

    #[test]
    fn side_structures_match_their_definitions() {
        let db = Snapshot::from(Database {
            schema: schema(),
            tables: vec![table(&schema().tables[0], &names())],
            dir: PathBuf::new(),
        });
        let r = db.table("r");
        assert_eq!(&r.index_unique(0).unwrap()[..], [1, 2, 0, -1]);
        let csr = r.csr(0).unwrap();
        assert_eq!(
            (&csr.starts[..], &csr.items[..]),
            (&[0, 1, 2, 3][..], &[1, 2, 0][..])
        );
        // Built once: the same allocation answers every later call.
        assert!(Arc::ptr_eq(
            r.index_unique(0).unwrap(),
            r.index_unique(0).unwrap()
        ));
        let d = db.dict("r__1");
        assert_eq!(d.codes, [2, 0, 1]);
        assert_eq!(d.dict.decode(2), "cy");
        assert!(matches!(
            r.field_column("name", true),
            ColumnRef::I32([2, 0, 1])
        ));
        assert!(matches!(r.field_column("name", false), ColumnRef::Str(_)));
    }

    /// Key columns are outside input: the builders refuse what they
    /// cannot index instead of wrapping a negative key into a huge slot
    /// number or sizing an allocation from one stray value.
    #[test]
    fn malformed_keys_are_invalid_data_naming_table_and_column() {
        for (bad, what) in [
            (-3, "negative index key -3"),
            (i32::MAX, "out of proportion"),
        ] {
            let db = Snapshot::from(Database {
                schema: schema(),
                tables: vec![table(
                    &schema().tables[0],
                    &[(1, Value::str("a")), (bad, Value::str("b"))],
                )],
                dir: PathBuf::new(),
            });
            let errs = [
                db.table("r").index_unique(0).map(|_| ()).unwrap_err(),
                db.table("r").csr(0).map(|_| ()).unwrap_err(),
            ];
            for err in errs {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let msg = err.to_string();
                assert!(msg.contains("r.tbl column `id`"), "{msg}");
                assert!(msg.contains(what) && msg.contains("row 2"), "{msg}");
            }
        }
        let mut long = Table::empty(&TableDef::new("l", vec![("k", ColType::Long)]));
        long.push_row(vec![Value::Long(1_099_511_627_776)]);
        let t = TableSnapshot::new(long, None);
        assert_eq!(t.csr(0).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eight_threads_first_touching_one_directory_load_it_once() {
        let (schema, dir) = dir("single_flight", &names());
        let barrier = std::sync::Barrier::new(8);
        let snaps: Vec<Arc<Snapshot>> = std::thread::scope(|s| {
            let touch = || {
                barrier.wait();
                resident(&schema, &dir).expect("load")
            };
            let threads: Vec<_> = (0..8).map(|_| s.spawn(touch)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(snaps.iter().all(|s| Arc::ptr_eq(s, &snaps[0])));
        let st = stats(&schema, &dir);
        assert_eq!((st.loads, st.hits, st.tables_reloaded), (1, 7, 0), "{st:?}");
        assert!(st.resident_bytes > 0 && st.load_ms_total > 0.0, "{st:?}");
    }

    #[test]
    fn the_key_is_the_definitions_not_the_statistics() {
        let (schema, dir) = dir("key", &names());
        let mut restated = schema.clone();
        restated.table_mut("r").stats.row_count = 1_000_000;
        restated.table_mut("r").stats.int_max = vec![7, 0];
        let a = resident(&schema, &dir).unwrap();
        let b = resident(&restated, &dir).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "statistics must not split the snapshot"
        );
        assert_eq!(stats(&restated, &dir).loads, 1);

        let mut retyped = schema.clone();
        retyped.table_mut("r").columns[0].ty = ColType::Long;
        let c = resident(&retyped, &dir).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "a column type changes what parses");
        assert!(matches!(c.table("r").cols[0], ColData::Long(_)));
        assert_eq!(
            (stats(&retyped, &dir).loads, stats(&schema, &dir).loads),
            (1, 1)
        );
        // A relative spelling of the directory is the same directory.
        let spelled = dir.join("..").join(dir.file_name().unwrap());
        assert!(Arc::ptr_eq(&a, &resident(&schema, &spelled).unwrap()));
    }

    #[test]
    fn only_a_rewritten_table_is_parsed_again() {
        let (schema, dir) = dir("reload", &names());
        let before = resident(&schema, &dir).unwrap();
        before.table("s").csr(0).unwrap();
        let mut rows = names();
        rows[1].1 = Value::str("zed");
        // `write_tbl` renames a new file into place: a new inode.
        table(&schema.tables[0], &rows)
            .write_tbl(&dir.join("r.tbl"))
            .unwrap();
        let after = resident(&schema, &dir).unwrap();
        assert_eq!(after.table("r").get(1, 1), Value::str("zed"));
        assert_eq!(
            before.table("r").get(1, 1),
            Value::str("al"),
            "old readers keep old data"
        );
        // The untouched table — side structures included — carried over.
        assert!(Arc::ptr_eq(&before.tables[1], &after.tables[1]));
        let st = stats(&schema, &dir);
        assert_eq!((st.loads, st.hits, st.tables_reloaded), (1, 0, 1), "{st:?}");
        assert!(Arc::ptr_eq(&after, &resident(&schema, &dir).unwrap()));
        assert_eq!(stats(&schema, &dir).hits, 1);
    }

    /// An in-place overwrite keeps the inode; length and mtime carry the
    /// fingerprint. A load that fails is its caller's error and nothing
    /// else: the entry keeps what it had and the next call tries again.
    #[test]
    fn a_failed_reload_is_not_cached_and_poisons_nothing() {
        let (schema, dir) = dir("failed", &names());
        let path = dir.join("r.tbl");
        let whole = std::fs::read(&path).unwrap();
        let first = resident(&schema, &dir).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 5]).unwrap();
        for _ in 0..2 {
            let err = resident(&schema, &dir).expect_err("cut mid-line");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("r.tbl line 3"), "{err}");
        }
        let st = stats(&schema, &dir);
        assert_eq!((st.loads, st.hits, st.tables_reloaded), (1, 0, 0), "{st:?}");
        std::fs::write(&path, &whole).unwrap();
        let healed = resident(&schema, &dir).unwrap();
        assert_eq!(healed.table("r").len(), 3);
        assert!(Arc::ptr_eq(&first.tables[1], &healed.tables[1]));
        let st = stats(&schema, &dir);
        assert_eq!((st.loads, st.hits, st.tables_reloaded), (1, 0, 1), "{st:?}");

        // A directory that was never loadable leaves no snapshot behind.
        let missing = dir.join("nowhere");
        assert_eq!(
            resident(&schema, &missing).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        std::fs::create_dir_all(&missing).unwrap();
        assert_eq!(
            resident(&schema, &missing).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(stats(&schema, &missing), SnapshotStats::default());
    }
}
