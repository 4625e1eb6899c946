//! The compile cache: one entry per compiled query.
//!
//! A compile is the front-end lowering followed by the selected passes.
//! The passes are a pure function of their input program, their order,
//! the configuration and the schema (the [`crate::pass::Pass`]
//! contract), which is what licenses caching the stack's result.
//! [`crate::stack`] lowers the front-end (it must: the lowered program
//! is part of the key) and then looks up
//!
//! ```text
//! (front-end program hash, ordered pass names, config fingerprint, schema fingerprint)
//! ```
//!
//! * the **program hash** is [`dblab_ir::hash::program_hash`] —
//!   structural, pointer-free, stable across runs;
//! * the **pass order** is the names in the order they run, so a
//!   permuted schedule has its own entry;
//! * the **config fingerprint** is [`StackConfig::fingerprint`], every
//!   semantic flag: two configurations that differ only in `name`
//!   (`level4()` and `legobase()`) share entries;
//! * the **schema fingerprint** covers table/column definitions, keys and
//!   the cardinality statistics that drive specialization, so two scale
//!   factors never share entries.
//!
//! Only a compile whose every stage passed its level contract (and, in
//! debug builds, its dialect window) is inserted, so a hit never returns
//! an unchecked program. The cache is process-wide and `Sync` (the bench
//! harness compiles queries from scoped threads), bounded by [`CAPACITY`]
//! queries with a wholesale clear on overflow.
//!
//! [`StackConfig::fingerprint`]: crate::config::StackConfig::fingerprint

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dblab_catalog::{Column, ForeignKey, Schema, TableDef, TableStats};
use dblab_ir::hash::{program_hash, StableHasher};
use dblab_ir::Program;

use crate::config::StackConfig;
use crate::pass::Pass;
use crate::stack::CompiledQuery;

/// Compiled queries retained before the cache is cleared wholesale.
pub const CAPACITY: usize = 1024;

/// The key of running `passes`, in order, over the front-end's lowered
/// `program` (see the module docs).
pub(crate) fn key(
    program: &Program,
    passes: &[&dyn Pass],
    cfg: &StackConfig,
    schema: &Schema,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(program_hash(program));
    h.write_usize(passes.len());
    for p in passes {
        p.name().hash(&mut h);
    }
    h.write_u64(cfg.fingerprint());
    h.write_u64(schema_fingerprint(schema));
    h.finish()
}

static CACHE: OnceLock<Mutex<HashMap<u64, CompiledQuery>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

const POISONED: &str = "a thread panicked while holding the compile cache";

fn cache() -> &'static Mutex<HashMap<u64, CompiledQuery>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cumulative process-wide counters (monotone; tests assert on deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a share of all lookups, 0.0 on an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Current compile-cache counters: one lookup per cached compile.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Scoped statistics: per-sweep counters
// ---------------------------------------------------------------------

/// An independent hit/miss tally for one sweep of compiles.
///
/// The global [`stats`] counters are process-wide: two sweeps compiling
/// concurrently would each see the *sum* of both sweeps' traffic and report
/// dishonest per-sweep hit rates. A `StatsScope` fixes that: install it on
/// a thread with [`StatsScope::enter`] and every lookup made while the
/// guard lives is tallied into this scope *as well as* the global
/// counters. One scope may be entered from several worker threads at once
/// (the counters are atomics behind an `Arc`), and scopes nest — a lookup
/// counts into every scope installed on its thread.
#[derive(Debug, Default)]
pub struct StatsScope {
    hits: AtomicU64,
    misses: AtomicU64,
}

thread_local! {
    static SCOPES: RefCell<Vec<Arc<StatsScope>>> = const { RefCell::new(Vec::new()) };
}

impl StatsScope {
    pub fn new() -> Arc<StatsScope> {
        Arc::new(StatsScope::default())
    }

    /// Install this scope on the current thread until the guard drops.
    pub fn enter(self: &Arc<Self>) -> ScopeGuard {
        SCOPES.with(|s| s.borrow_mut().push(Arc::clone(self)));
        ScopeGuard {
            scope: self.clone(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// This scope's own tally (unaffected by other concurrent scopes).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Keeps a [`StatsScope`] installed on the entering thread; un-installs
/// (the most recent matching scope) on drop. Deliberately `!Send`: the
/// install lives in the entering thread's local state, so dropping the
/// guard on another thread could never un-install it — share the
/// `Arc<StatsScope>` across threads and `enter()` on each instead.
pub struct ScopeGuard {
    scope: Arc<StatsScope>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            let mut v = s.borrow_mut();
            if let Some(pos) = v.iter().rposition(|x| Arc::ptr_eq(x, &self.scope)) {
                v.remove(pos);
            }
        });
    }
}

fn tally(hit: bool) {
    let (global, pick): (&AtomicU64, fn(&StatsScope) -> &AtomicU64) = if hit {
        (&HITS, |s| &s.hits)
    } else {
        (&MISSES, |s| &s.misses)
    };
    global.fetch_add(1, Ordering::Relaxed);
    SCOPES.with(|s| {
        for scope in s.borrow().iter() {
            pick(scope).fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Drop every cached compile (counters are left alone — they are
/// cumulative by contract). Benches use this to measure genuinely cold
/// compiles from a warm process.
pub fn clear() {
    cache().lock().expect(POISONED).clear();
}

/// Look a compile up, counting the hit or miss (globally and into every
/// [`StatsScope`] installed on this thread).
pub(crate) fn lookup(key: u64) -> Option<CompiledQuery> {
    let got = cache().lock().expect(POISONED).get(&key).cloned();
    tally(got.is_some());
    got
}

/// Record a finished, contract-checked compile.
pub(crate) fn insert(key: u64, cq: &CompiledQuery) {
    let mut map = cache().lock().expect(POISONED);
    if map.len() >= CAPACITY {
        map.clear();
    }
    map.insert(key, cq.clone());
}

/// Fingerprint of everything a pass can read off the schema: names,
/// column types, key annotations and the cardinality statistics that
/// drive pool sizing, dense-key detection and dictionary decisions.
///
/// Every struct is destructured exhaustively, so a new catalog field does
/// not compile until someone decides whether it is keyed.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let Schema { tables } = schema;
    let mut h = StableHasher::new();
    h.write_usize(tables.len());
    for t in tables {
        let TableDef {
            name,
            columns,
            primary_key,
            foreign_keys,
            stats,
        } = t;
        name.hash(&mut h);
        h.write_usize(columns.len());
        for Column { name, ty } in columns {
            name.hash(&mut h);
            ty.hash(&mut h);
        }
        primary_key.hash(&mut h);
        h.write_usize(foreign_keys.len());
        for ForeignKey { column, ref_table } in foreign_keys {
            column.hash(&mut h);
            ref_table.hash(&mut h);
        }
        let TableStats {
            row_count,
            int_max,
            distinct,
        } = stats;
        row_count.hash(&mut h);
        int_max.hash(&mut h);
        distinct.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_catalog::ColType;

    fn table() -> TableDef {
        TableDef::new("t", vec![("a", ColType::Int), ("s", ColType::String)])
            .with_primary_key(&["a"])
    }

    fn schema() -> Schema {
        Schema::new(vec![table()])
    }

    fn compiled() -> CompiledQuery {
        CompiledQuery {
            program: Program {
                structs: dblab_ir::types::StructRegistry::new(),
                body: dblab_ir::Block::default(),
                sym_types: vec![],
                level: dblab_ir::Level::MapList,
            },
            stages: vec![],
            gen_time: std::time::Duration::ZERO,
            config: StackConfig::level5(),
            cached: false,
        }
    }

    #[test]
    fn schema_fingerprint_sees_stats() {
        let a = schema();
        let mut b = schema();
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&b));
        b.table_mut("t").stats.row_count = 99;
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&b));
    }

    #[test]
    fn schema_fingerprint_sees_keys_and_types() {
        let a = schema();
        let b = Schema::new(vec![TableDef::new(
            "t",
            vec![("a", ColType::Int), ("s", ColType::String)],
        )]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&b), "pk");
        let c = Schema::new(vec![TableDef::new(
            "t",
            vec![("a", ColType::Long), ("s", ColType::String)],
        )
        .with_primary_key(&["a"])]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&c), "type");
        let d = Schema::new(vec![table().with_foreign_key("s", "u")]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&d), "fk");
    }

    #[test]
    fn every_part_of_the_key_is_keyed() {
        let program = compiled().program;
        let registry = crate::pass::registry();
        let passes: Vec<&dyn Pass> = registry.iter().map(|p| p.as_ref()).collect();
        let cfg = StackConfig::level5();
        let base = key(&program, &passes, &cfg, &schema());
        let renamed = StackConfig {
            name: "renamed",
            ..cfg.clone()
        };
        assert_eq!(key(&program, &passes, &renamed, &schema()), base);

        let mut lowered = program.clone();
        lowered.level = dblab_ir::Level::List;
        let mut swapped = passes.clone();
        swapped.swap(0, 1);
        let mut bigger = schema();
        bigger.table_mut("t").stats.row_count = 7;
        for (what, k) in [
            ("program", key(&lowered, &passes, &cfg, &schema())),
            ("pass order", key(&program, &swapped, &cfg, &schema())),
            ("pass list", key(&program, &passes[1..], &cfg, &schema())),
            (
                "config",
                key(&program, &passes, &StackConfig::level4(), &schema()),
            ),
            ("schema", key(&program, &passes, &cfg, &bigger)),
        ] {
            assert_ne!(k, base, "{what} is not keyed");
        }
    }

    #[test]
    fn stats_move_on_lookup() {
        let k = 0xdead_beef;
        let before = stats();
        assert!(lookup(k).is_none());
        let mid = stats();
        assert!(mid.misses > before.misses);
        insert(k, &compiled());
        assert!(lookup(k).is_some());
        let after = stats();
        assert!(after.hits > mid.hits);
        assert!(after.since(&before).hits >= 1);
    }

    #[test]
    fn scoped_stats_tally_only_their_own_lookups() {
        let k = 0xfeed_f00d;
        insert(k, &compiled());
        let a = StatsScope::new();
        let b = StatsScope::new();
        {
            let _ga = a.enter();
            assert!(lookup(k).is_some());
        }
        {
            let _gb = b.enter();
            assert!(lookup(k).is_some());
            assert!(lookup(k).is_some());
        }
        // Outside any scope: global only.
        assert!(lookup(k).is_some());
        assert_eq!(a.stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(b.stats(), CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn concurrent_scopes_are_independent() {
        // Two sweeps on two threads, each with its own scope: per-sweep
        // tallies must not bleed into one another even though the cache
        // and the global counters are shared.
        let mk = |i: u64| 0xc0c0_0000 + i;
        insert(mk(1), &compiled());
        let a = StatsScope::new();
        let b = StatsScope::new();
        std::thread::scope(|s| {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                let _g = a.enter();
                for _ in 0..50 {
                    assert!(lookup(mk(1)).is_some());
                }
            });
            s.spawn(move || {
                let _g = b.enter();
                for i in 0..30 {
                    assert!(lookup(mk(1000 + i)).is_none());
                }
            });
        });
        assert_eq!(
            a.stats(),
            CacheStats {
                hits: 50,
                misses: 0
            }
        );
        assert_eq!(
            b.stats(),
            CacheStats {
                hits: 0,
                misses: 30
            }
        );
    }

    #[test]
    fn scopes_nest_and_uninstall_on_drop() {
        let k = 42;
        let outer = StatsScope::new();
        let inner = StatsScope::new();
        let _go = outer.enter();
        {
            let _gi = inner.enter();
            assert!(lookup(k).is_none());
        }
        assert!(lookup(k).is_none());
        assert_eq!(inner.stats().misses, 1, "inner guard dropped");
        assert_eq!(outer.stats().misses, 2, "outer sees both");
    }
}
