//! Stable structural hashing of IR programs — the program half of the
//! compile-cache key.
//!
//! The pass manager makes the whole stack a pure function of
//! `(program, pass order, config, schema)`; what turns that purity into
//! speed is a *cache key*. [`program_hash`] folds a [`Program`]'s entire observable
//! structure — level, struct registry, body and symbol types — into one
//! 64-bit fingerprint with these guarantees:
//!
//! * **no pointer identity** — `Arc<str>` contents are hashed, never
//!   addresses, so two independently constructed programs that print the
//!   same hash the same;
//! * **stable across runs** — the hasher is an in-tree FNV-1a, not the
//!   randomly-keyed `std` SipHash, so fingerprints can key on-disk build
//!   artifacts between processes;
//! * **decisions included** — sizes, dense-key ranges and layouts are
//!   fields of the nodes they describe, so hashing the body covers them.
//!
//! [`str_hash`] is the same FNV-1a over raw text, used by the
//! source-level build cache in `dblab-codegen` (`Backend::emit` is pure
//! `Program -> String`, so emitted source is the natural key for skipping
//! a toolchain invocation).

use std::hash::{Hash, Hasher};

use crate::expr::Program;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a. Deliberately *not* `DefaultHasher`: cache keys must be
/// reproducible across processes, and `std` documents its hasher as
/// randomly seeded / unspecified.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher(FNV_OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// FNV-1a of a byte slice (helper for free-standing keys).
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a of a text blob — the source-cache key for emitted C/Rust.
pub fn str_hash(s: &str) -> u64 {
    bytes_hash(s.as_bytes())
}

/// Structural fingerprint of a whole program. Everything a pass (or a
/// backend emitter) can observe contributes; nothing address-dependent
/// does.
pub fn program_hash(p: &Program) -> u64 {
    let mut h = StableHasher::new();
    p.level.hash(&mut h);
    // Struct registry: ids are positional, so in-order hashing covers them.
    h.write_usize(p.structs.len());
    for (_, def) in p.structs.iter() {
        def.hash(&mut h);
    }
    p.body.hash(&mut h);
    p.sym_types.hash(&mut h);
    h.finish()
}

// The cache layers park Programs in process-wide `Sync` caches and
// the bench harness fans builds out across scoped threads — keep the IR
// thread-portable by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Atom, Block, DenseKey, Expr, Stmt, Sym};
    use crate::types::{StructRegistry, Type};
    use crate::Level;

    fn prog(lit: i64) -> Program {
        Program {
            structs: StructRegistry::new(),
            body: Block::unit(vec![Stmt {
                sym: Sym(0),
                ty: Type::Int,
                expr: Expr::Bin(crate::BinOp::Add, Atom::Int(lit), Atom::Int(2)),
            }]),
            sym_types: vec![Type::Int],
            level: Level::MapList,
        }
    }

    #[test]
    fn equal_structure_hashes_equal() {
        assert_eq!(program_hash(&prog(1)), program_hash(&prog(1)));
    }

    #[test]
    fn literal_change_changes_the_hash() {
        assert_ne!(program_hash(&prog(1)), program_hash(&prog(2)));
    }

    #[test]
    fn level_is_part_of_the_key() {
        let a = prog(1);
        let mut b = prog(1);
        b.level = Level::CScala;
        assert_ne!(program_hash(&a), program_hash(&b));
    }

    #[test]
    fn sizing_fields_are_part_of_the_key() {
        let map = |expected, max| Program {
            structs: StructRegistry::new(),
            body: Block::unit(vec![Stmt {
                sym: Sym(0),
                ty: Type::hash_map(Type::Int, Type::Int),
                expr: Expr::HashMapNew {
                    key: Type::Int,
                    value: Type::Int,
                    expected,
                    dense: Some(DenseKey {
                        max,
                        composite: false,
                    }),
                    has_minmax: false,
                },
            }]),
            sym_types: vec![Type::hash_map(Type::Int, Type::Int)],
            level: Level::MapList,
        };
        assert_eq!(program_hash(&map(7, 3)), program_hash(&map(7, 3)));
        assert_ne!(program_hash(&map(7, 3)), program_hash(&map(8, 3)));
        assert_ne!(program_hash(&map(7, 3)), program_hash(&map(7, 4)));
    }

    #[test]
    fn fnv_is_process_independent() {
        // Golden value: FNV-1a of "dblab" — pins the hasher itself so an
        // accidental switch to a seeded hasher fails loudly.
        assert_eq!(str_hash("dblab"), 0x3101_ad4c_3c12_6082);
    }
}
