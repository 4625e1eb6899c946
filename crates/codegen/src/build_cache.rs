//! Source-level build caching — layer three of the memoized compilation
//! pipeline.
//!
//! `Backend::emit` is a pure `Program -> String` function (a trait
//! contract since the backend seam landed), so the emitted source text is
//! a complete key for the toolchain invocation that follows — together
//! with the runtime header every generated C file includes
//! ([`crate::runtime::DBLAB_RUNTIME_H`], the `.tbl` loader's helpers among
//! it): identical source and header through the same backend yield an
//! identical binary. This module memoizes `Backend::build` on `(backend
//! name, header hash, source hash)` and hands back the previously built
//! artifact on a hit — the gcc
//! fork+exec is the dominant cost of Figure 9, and benches rebuild
//! byte-identical programs constantly (repetitions, overlapping
//! configurations that lower to the same C.Scala program).
//!
//! Zero-build backends (the interpreter) opt out via
//! [`crate::Backend::cacheable`] — there is no toolchain call to skip, so
//! they never touch the cache or its counters.
//!
//! The cache is process-wide and `Sync`: the bench harness fans
//! independent builds out across scoped threads, and all of them consult
//! one artifact table.
//!
//! ## The on-disk index
//!
//! The key — `(backend name, FNV-1a of the runtime header, FNV-1a of
//! emitted source)` — contains no pointers, no timestamps and no process
//! state, so it is just as valid in the *next* process as in this one.
//! [`enable_persistence`] attaches a hand-rolled index file
//! (`build_cache.index`, one `v2` line per artifact, tab-separated — see
//! [`INDEX_FILE`]) next to the gen dir: entries built against this
//! header whose artifact still exists on disk are restored into the
//! in-memory table at attach time (a binary built against an older
//! loader never is), and every subsequent toolchain build
//! appends its line. A warm start after a restart therefore skips
//! gcc exactly like a warm compile within one process; hits served
//! from restored entries are additionally counted in [`disk_stats`] so
//! benches can report honest *disk*-hit rates, separate from same-process
//! reuse.

use std::collections::HashMap;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use dblab_ir::hash::str_hash;

use crate::backend::{Backend, BuildInput, Executable, NativeExecutable};

/// One previously built artifact.
#[derive(Debug, Clone)]
struct CachedBuild {
    binary: PathBuf,
    /// Restored from the on-disk index (a previous process built it).
    from_disk: bool,
}

/// Index file name, kept next to the artifacts it describes. Format, one
/// entry per line:
///
/// ```text
/// v2<TAB>backend<TAB>header-hash-hex<TAB>source-hash-hex<TAB>artifact-path
/// ```
///
/// `artifact-path` is relative to the index's directory when the artifact
/// lives under it (the normal case), absolute otherwise. Unknown versions
/// (`v1` lines carry no header hash) or backends, entries built against
/// another runtime header and entries whose artifact vanished are skipped
/// on load — the index is a cache, never a source of truth.
pub const INDEX_FILE: &str = "build_cache.index";

/// `(backend name, header hash, source hash)`.
type Key = (&'static str, u64, u64);

static CACHE: OnceLock<Mutex<HashMap<Key, CachedBuild>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
/// Hits served by entries restored from the on-disk index.
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
/// Entries restored across all [`enable_persistence`] calls.
static DISK_LOADED: AtomicU64 = AtomicU64::new(0);
/// Where the attached index lives, when persistence is on.
static PERSIST: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Index appends that failed (see [`persist_entry`]) — the compile still
/// succeeds, but the artifact will not survive a restart.
static WRITE_FAILURES: AtomicU64 = AtomicU64::new(0);
/// One warning per process for failed index appends; after that only the
/// [`DiskCacheStats::write_failures`] counter moves.
static WARNED_WRITE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn cache() -> &'static Mutex<HashMap<Key, CachedBuild>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// FNV-1a of the runtime header this build of the crate writes next to
/// every generated program.
fn header_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| str_hash(crate::runtime::DBLAB_RUNTIME_H))
}

/// Cumulative process-wide counters (monotone; callers assert on deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl BuildCacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn since(&self, earlier: &BuildCacheStats) -> BuildCacheStats {
        BuildCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Current build-cache counters.
pub fn stats() -> BuildCacheStats {
    BuildCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Forget every tracked artifact (the files themselves stay on disk;
/// counters are cumulative and left alone; an attached on-disk index
/// stays attached and can be re-loaded with [`enable_persistence`]).
/// Benches use this to measure genuinely cold builds from a warm process
/// — and, with a reload, to simulate a process restart.
pub fn clear() {
    cache().lock().unwrap().clear();
}

// ---------------------------------------------------------------------
// On-disk persistence
// ---------------------------------------------------------------------

/// Disk-side counters (monotone, like [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Entries restored from index files into the in-memory table.
    pub loaded: u64,
    /// Cache hits served by restored entries — the toolchain runs a
    /// previous *process* saved this one.
    pub hits: u64,
    /// Index appends that failed. Persistence stays best-effort — the
    /// compile that produced the artifact still succeeded — but the
    /// failure is counted here (and warned once) instead of vanishing.
    pub write_failures: u64,
}

impl DiskCacheStats {
    pub fn since(&self, earlier: &DiskCacheStats) -> DiskCacheStats {
        DiskCacheStats {
            loaded: self.loaded - earlier.loaded,
            hits: self.hits - earlier.hits,
            write_failures: self.write_failures - earlier.write_failures,
        }
    }
}

/// Current disk-persistence counters.
pub fn disk_stats() -> DiskCacheStats {
    DiskCacheStats {
        loaded: DISK_LOADED.load(Ordering::Relaxed),
        hits: DISK_HITS.load(Ordering::Relaxed),
        write_failures: WRITE_FAILURES.load(Ordering::Relaxed),
    }
}

/// Attach (or re-attach) the on-disk index under `dir`: restore every
/// entry whose artifact still exists, and append future builds to
/// `dir/build_cache.index`. Returns how many entries were actually
/// restored into the in-memory table this call (duplicate lines and keys
/// already live are not counted). Idempotent — re-attaching reloads
/// entries dropped by [`clear`] without disturbing live ones — and
/// self-maintaining: the index is compacted on attach, so dead and
/// duplicate lines accumulated by append-only writes do not grow it
/// without bound.
pub fn enable_persistence(dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let index = dir.join(INDEX_FILE);
    // Hold the persistence lock for the whole attach: a concurrent
    // `persist_entry` append between our read and the compacting write
    // would otherwise be lost. (Lock order is PERSIST -> cache here;
    // nothing takes them in the other order — `build_with_cache` drops
    // its cache guard before appending.)
    let mut persist = PERSIST.lock().unwrap();
    let mut loaded = 0usize;
    if index.exists() {
        let text = std::fs::read_to_string(&index)?;
        // Parse first (first line per key wins, matching the in-memory
        // insert below), then restore, then compact.
        let mut entries: Vec<(Key, PathBuf)> = Vec::new();
        for line in text.lines() {
            let mut f = line.split('\t');
            let (Some("v2"), Some(bname), Some(header), Some(hex), Some(path)) =
                (f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                continue; // unknown version / torn line: skip, never fail
            };
            let (Ok(header), Ok(hash)) = (
                u64::from_str_radix(header, 16),
                u64::from_str_radix(hex, 16),
            ) else {
                continue;
            };
            // Built against another loader: the same source no longer
            // makes that binary.
            if header != header_hash() {
                continue;
            }
            // Resolve through the registry so the key's backend name is
            // the canonical `&'static str`; an index entry for a backend
            // this build doesn't know is skipped.
            let Some(backend) = crate::backend::backend(bname) else {
                continue;
            };
            let binary = {
                let p = PathBuf::from(path);
                if p.is_absolute() {
                    p
                } else {
                    dir.join(p)
                }
            };
            let key = (backend.name(), header, hash);
            if binary.exists() && !entries.iter().any(|(k, _)| *k == key) {
                entries.push((key, binary));
            }
        }
        {
            let mut map = cache().lock().unwrap();
            for (key, binary) in &entries {
                if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(*key) {
                    slot.insert(CachedBuild {
                        binary: binary.clone(),
                        from_disk: true,
                    });
                    loaded += 1;
                }
            }
        }
        // Compaction: rewrite the file as exactly the deduplicated live
        // entries. Best-effort — a read-only dir keeps the stale file
        // and everything still works, it just stays append-only.
        let compacted: String = entries
            .iter()
            .map(|(key, binary)| index_line(*key, binary.strip_prefix(dir).unwrap_or(binary)))
            .collect();
        let _ = std::fs::write(&index, compacted);
    }
    DISK_LOADED.fetch_add(loaded as u64, Ordering::Relaxed);
    *persist = Some(index);
    Ok(loaded)
}

/// Detach the on-disk index: builds stop being appended and nothing is
/// reloaded. The index file itself is left in place.
pub fn disable_persistence() {
    *PERSIST.lock().unwrap() = None;
}

/// Whether an index is currently attached.
pub fn persistence_enabled() -> bool {
    PERSIST.lock().unwrap().is_some()
}

/// Append one freshly built artifact to the attached index, if any. A
/// write failure never fails the compile that just succeeded — persistence
/// is an optimization, and a read-only gen dir must keep working — but it
/// is no longer silent either: each failure bumps
/// [`DiskCacheStats::write_failures`], and the first one per process warns
/// on stderr so an operator learns the cache stopped surviving restarts.
/// One index line for `key`'s artifact at `path`.
fn index_line((backend, header, hash): Key, path: &Path) -> String {
    format!(
        "v2\t{backend}\t{header:016x}\t{hash:016x}\t{}\n",
        path.display()
    )
}

fn persist_entry(key: Key, binary: &Path) {
    let guard = PERSIST.lock().unwrap();
    let Some(index) = guard.as_ref() else {
        return;
    };
    let rel = index
        .parent()
        .and_then(|d| binary.strip_prefix(d).ok())
        .unwrap_or(binary);
    let line = index_line(key, rel);
    let wrote = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(index)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = wrote {
        WRITE_FAILURES.fetch_add(1, Ordering::Relaxed);
        if !WARNED_WRITE.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: build-cache index {} is not writable ({e}); \
                 artifacts built from here on will not survive a restart",
                index.display()
            );
        }
    }
}

/// Build through the cache: skip the toolchain when this backend has
/// already built byte-identical source, otherwise build and remember the
/// artifact. Returns the executable and whether it was a cache hit.
pub fn build_with_cache(
    backend: &dyn Backend,
    input: BuildInput<'_>,
) -> io::Result<(Box<dyn Executable>, bool)> {
    if !backend.cacheable() {
        return backend.build(input).map(|exe| (exe, false));
    }
    let key = (backend.name(), header_hash(), str_hash(input.source));
    // Bind the lookup before touching the mutex again: an if-let scrutinee
    // keeps its MutexGuard alive for the whole block, so re-locking inside
    // would self-deadlock on the stale-entry path.
    let entry = cache().lock().unwrap().get(&key).cloned();
    if let Some(entry) = entry {
        // The artifact lives in a temp dir; tolerate outside deletion by
        // falling through to a rebuild instead of failing the compile.
        if entry.binary.exists() {
            HITS.fetch_add(1, Ordering::Relaxed);
            if entry.from_disk {
                DISK_HITS.fetch_add(1, Ordering::Relaxed);
            }
            // No toolchain time was spent *this* compile: `build_time` is
            // zero, which is what warm-compile measurements should see.
            return Ok((
                Box::new(NativeExecutable {
                    binary: entry.binary,
                    build_time: Duration::ZERO,
                }),
                true,
            ));
        }
        cache().lock().unwrap().remove(&key);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let exe = backend.build(input)?;
    if let Some(binary) = exe.artifact() {
        cache().lock().unwrap().insert(
            key,
            CachedBuild {
                binary: binary.to_path_buf(),
                from_disk: false,
            },
        );
        persist_entry(key, binary);
    }
    Ok((exe, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InterpBackend;

    /// Tests that attach/detach the process-global index must not overlap.
    static PERSIST_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn index_load_skips_malformed_and_missing_entries() {
        let _serial = PERSIST_TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("dblab_bc_index_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let art = dir.join("idx_unit_artifact");
        std::fs::write(&art, b"binary bytes").unwrap();
        let h = format!("{:016x}", header_hash());
        std::fs::write(
            dir.join(INDEX_FILE),
            [
                // Valid, relative path.
                format!("v2\tgcc\t{h}\t00000000deadbeef\tidx_unit_artifact"),
                // Valid but the artifact is gone.
                format!("v2\tgcc\t{h}\t00000000deadbee0\tidx_unit_gone"),
                // Unknown version, unknown backend, bad hex, torn line.
                "v1\tgcc\t00000000deadbee1\tidx_unit_artifact".to_string(),
                format!("v2\tcranelift\t{h}\t00000000deadbee2\tidx_unit_artifact"),
                format!("v2\tgcc\t{h}\tnot-hex\tidx_unit_artifact"),
                "v2\tgcc".to_string(),
                // Valid, absolute path.
                format!("v2\tgcc\t{h}\t00000000deadbee3\t{}", art.display()),
            ]
            .join("\n"),
        )
        .unwrap();
        let before = disk_stats();
        let loaded = enable_persistence(&dir).expect("load index");
        assert_eq!(loaded, 2, "exactly the two well-formed live entries");
        assert_eq!(disk_stats().since(&before).loaded, 2);
        assert!(persistence_enabled());
        disable_persistence();
        assert!(!persistence_enabled());
        // The index file itself is left alone by detaching.
        assert!(dir.join(INDEX_FILE).exists());
    }

    /// A binary built against another runtime header is another loader:
    /// its entry is not revived, although its artifact exists and its
    /// source hash is one this process would build; the same entry under
    /// this header is.
    #[test]
    fn entries_built_against_another_header_are_not_revived() {
        let _serial = PERSIST_TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("dblab_bc_header_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hdr_artifact"), b"binary bytes").unwrap();
        let source = "/* entries_built_against_another_header_are_not_revived */";
        let entry =
            |header: u64| index_line(("gcc", header, str_hash(source)), Path::new("hdr_artifact"));
        std::fs::write(dir.join(INDEX_FILE), entry(header_hash() ^ 1)).unwrap();
        assert_eq!(enable_persistence(&dir).expect("load index"), 0);
        assert_eq!(
            std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap(),
            "",
            "compaction drops the stale entry"
        );
        std::fs::write(dir.join(INDEX_FILE), entry(header_hash())).unwrap();
        assert_eq!(enable_persistence(&dir).expect("load index"), 1);
        disable_persistence();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_index_appends_are_counted_not_swallowed() {
        let _serial = PERSIST_TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("dblab_bc_wfail_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        enable_persistence(&dir).expect("attach");
        // Make the append fail deterministically (even as root, where
        // permission bits don't bite): a *directory* squats on the index
        // path, so open-for-append errors with EISDIR.
        let index = dir.join(INDEX_FILE);
        let _ = std::fs::remove_file(&index);
        std::fs::create_dir_all(&index).unwrap();
        let art = dir.join("wfail_artifact");
        std::fs::write(&art, b"bytes").unwrap();
        let before = disk_stats();
        persist_entry(("gcc", header_hash(), 0xfeed), &art);
        assert_eq!(
            disk_stats().since(&before).write_failures,
            1,
            "failed append surfaces in disk_stats()"
        );
        // The compile path itself must stay unaffected: counting is the
        // whole fix, not new failure modes.
        persist_entry(("gcc", header_hash(), 0xfeee), &art);
        assert_eq!(disk_stats().since(&before).write_failures, 2);
        disable_persistence();
        let _ = std::fs::remove_dir_all(&dir);
    }

    use dblab_catalog::Schema;
    use dblab_ir::types::StructRegistry;
    use dblab_ir::{Block, Level, Program};

    #[test]
    fn interp_backend_bypasses_the_cache() {
        let p = Program {
            structs: StructRegistry::new(),
            body: Block::default(),
            sym_types: vec![],
            level: Level::MapList,
        };
        let schema = Schema::default();
        let dir = std::env::temp_dir().join("dblab_bc_test");
        let before = stats();
        let (exe, hit) = build_with_cache(
            &InterpBackend,
            BuildInput {
                program: &p,
                schema: &schema,
                source: "irrelevant",
                dir: &dir,
                name: "bc_interp",
            },
        )
        .expect("interp build");
        assert!(!hit);
        assert!(exe.artifact().is_none());
        // Counters untouched: there was no toolchain call to skip.
        assert_eq!(stats().since(&before).hits, 0);
        assert_eq!(stats().since(&before).misses, 0);
    }
}
