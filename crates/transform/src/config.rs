//! Stack configurations — the experiment axis of the paper's Table 3 — and
//! the formal stack-construction checker (§2.3).

use dblab_ir::Level;

/// Which optimizations/lowerings a compiler build enables. Each
/// constructor mirrors one column group of Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackConfig {
    /// Number of DSL levels (2–5), reporting only.
    pub levels: u8,
    /// Human-readable configuration name.
    pub name: &'static str,

    // ---- level 3 (ScaLite) ------------------------------------------------
    /// Hoist record allocations into pre-sized memory pools (App. D.1).
    pub mem_pools: bool,
    /// Columnar storage for base tables instead of boxed rows (App. C).
    pub columnar_layout: bool,
    /// Remove unused base-table attributes (App. C; not TPC-H compliant).
    pub table_field_removal: bool,

    // ---- level 4 (ScaLite[Map, List]) --------------------------------------
    /// Specialize hash tables to bucket arrays / dense arrays (§5.2).
    pub hash_spec: bool,
    /// String dictionaries (§5.3; not TPC-H compliant).
    pub string_dict: bool,
    /// Hoist data-structure initialization out of the hot loop (App. D.2).
    pub init_hoist: bool,

    // ---- level 5 (ScaLite[List]) -------------------------------------------
    /// Automatic index inference + data-structure partitioning
    /// (§5.2/App. B.1; not TPC-H compliant).
    pub index_inference: bool,
    /// Intrusive linked lists / static arrays for lists (§4.4).
    pub list_spec: bool,

    // ---- fine-grained (App. E) ---------------------------------------------
    /// `&&` → `&` branch optimization.
    pub branchless: bool,
}

impl StackConfig {
    /// The naïve two-level stack: pipelining plus operator inlining, then
    /// straight to C with generic data structures (what the paper calls a
    /// template-expander-grade compiler).
    pub fn level2() -> StackConfig {
        StackConfig {
            levels: 2,
            name: "DBLAB/LB 2",
            mem_pools: false,
            columnar_layout: false,
            table_field_removal: false,
            hash_spec: false,
            string_dict: false,
            init_hoist: false,
            index_inference: false,
            list_spec: false,
            branchless: false,
        }
    }

    /// Three levels: + ScaLite (memory management and layout, §4.2).
    pub fn level3() -> StackConfig {
        StackConfig {
            levels: 3,
            name: "DBLAB/LB 3",
            mem_pools: true,
            columnar_layout: true,
            table_field_removal: true,
            ..Self::level2()
        }
    }

    /// Four levels: + ScaLite\[Map, List\] (data-structure specialization
    /// and string dictionaries, §4.3).
    pub fn level4() -> StackConfig {
        StackConfig {
            levels: 4,
            name: "DBLAB/LB 4",
            hash_spec: true,
            string_dict: true,
            init_hoist: true,
            branchless: true,
            ..Self::level3()
        }
    }

    /// The full five-level stack: + ScaLite\[List\] (list specialization,
    /// index inference, partitioning, §4.4).
    pub fn level5() -> StackConfig {
        StackConfig {
            levels: 5,
            name: "DBLAB/LB 5",
            index_inference: true,
            list_spec: true,
            ..Self::level4()
        }
    }

    /// The TPC-H-compliant configuration (paper footnote 11): the full
    /// stack minus string dictionaries, partitioning/index inference, and
    /// unused-attribute removal.
    pub fn compliant() -> StackConfig {
        StackConfig {
            name: "TPC-H Compliant",
            string_dict: false,
            index_inference: false,
            table_field_removal: false,
            ..Self::level5()
        }
    }

    /// The LegoBase baseline's optimization set (Table 3 row 1): the
    /// four-level stack's fused optimizations under the baseline's name.
    /// Shared by `dblab-legobase` and the benchmark harness so the two
    /// sides of the comparison can never drift apart.
    pub fn legobase() -> StackConfig {
        StackConfig {
            name: "LegoBase",
            ..Self::level4()
        }
    }

    /// Fingerprint of every *semantic* flag (name and level count are
    /// presentation-only): the configuration part of the compile-cache
    /// key ([`crate::memo`]). The destructuring is exhaustive, so a new
    /// field does not compile until someone decides whether it is keyed.
    pub fn fingerprint(&self) -> u64 {
        let StackConfig {
            levels: _,
            name: _,
            mem_pools,
            columnar_layout,
            table_field_removal,
            hash_spec,
            string_dict,
            init_hoist,
            index_inference,
            list_spec,
            branchless,
        } = *self;
        [
            mem_pools,
            columnar_layout,
            table_field_removal,
            hash_spec,
            string_dict,
            init_hoist,
            index_inference,
            list_spec,
            branchless,
        ]
        .iter()
        .fold(0u64, |acc, &b| (acc << 1) | b as u64)
    }

    /// All Table 3 configurations in presentation order.
    pub fn table3() -> Vec<StackConfig> {
        vec![
            Self::level2(),
            Self::level3(),
            Self::level4(),
            Self::level5(),
            Self::compliant(),
        ]
    }
}

/// A declared transformation edge for the stack checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub name: &'static str,
    pub source: Level,
    pub target: Level,
}

/// Validates a declared DSL stack against the paper's two principles
/// (§2.2–2.3):
///
/// * **expressibility** — a transformation never targets a *higher* level
///   (that would create a loop and infinitely many lowering paths);
/// * **transformation cohesion** — between any two distinct levels there is
///   exactly one path of lowerings, which for a linear stack means exactly
///   one lowering out of every non-bottom level.
pub struct StackBuilder {
    edges: Vec<Edge>,
}

impl Default for StackBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StackBuilder {
    pub fn new() -> StackBuilder {
        StackBuilder { edges: Vec::new() }
    }

    pub fn add(mut self, name: &'static str, source: Level, target: Level) -> StackBuilder {
        self.edges.push(Edge {
            name,
            source,
            target,
        });
        self
    }

    /// Check the principles; `Ok` returns the lowering chain top-to-bottom.
    pub fn check(&self) -> Result<Vec<Edge>, String> {
        let mut lowerings: Vec<Edge> = Vec::new();
        for e in &self.edges {
            if e.target < e.source {
                return Err(format!(
                    "transformation {} goes upward ({} -> {}), violating the \
                     expressibility principle",
                    e.name, e.source, e.target
                ));
            }
            if e.target > e.source {
                lowerings.push(*e);
            }
            // source == target: an optimization, always fine.
        }
        for level in Level::ALL {
            let out: Vec<&Edge> = lowerings.iter().filter(|e| e.source == level).collect();
            if level != Level::CScala && out.len() > 1 {
                return Err(format!(
                    "{} has {} outgoing lowerings ({}), violating transformation \
                     cohesion — split the level (§2.3)",
                    level,
                    out.len(),
                    out.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
                ));
            }
        }
        let mut chain = lowerings;
        chain.sort_by_key(|e| e.source);
        Ok(chain)
    }
}

/// The stack this crate implements, as declared edges (used by tests and
/// the quickstart example to demonstrate the checker). Built directly from
/// the pass registry's declarations, so the checked stack can never drift
/// from the pipeline that actually runs.
pub fn dblab_stack() -> StackBuilder {
    crate::pass::declared_edges()
        .into_iter()
        .fold(StackBuilder::new(), |b, (name, source, target)| {
            b.add(name, source, target)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_monotone() {
        let l2 = StackConfig::level2();
        let l5 = StackConfig::level5();
        assert!(!l2.hash_spec && l5.hash_spec);
        assert!(!l2.mem_pools && l5.mem_pools);
        assert_eq!(StackConfig::table3().len(), 5);
    }

    #[test]
    fn compliant_disables_the_four_optimizations() {
        let c = StackConfig::compliant();
        assert!(!c.string_dict);
        assert!(!c.index_inference);
        assert!(!c.table_field_removal);
        assert!(c.hash_spec, "compliant keeps data-structure specialization");
    }

    #[test]
    fn fingerprint_sees_every_semantic_field_and_only_those() {
        let base = StackConfig::level2();
        let fp = base.fingerprint();
        let flips = [
            StackConfig {
                mem_pools: true,
                ..base.clone()
            },
            StackConfig {
                columnar_layout: true,
                ..base.clone()
            },
            StackConfig {
                table_field_removal: true,
                ..base.clone()
            },
            StackConfig {
                hash_spec: true,
                ..base.clone()
            },
            StackConfig {
                string_dict: true,
                ..base.clone()
            },
            StackConfig {
                init_hoist: true,
                ..base.clone()
            },
            StackConfig {
                index_inference: true,
                ..base.clone()
            },
            StackConfig {
                list_spec: true,
                ..base.clone()
            },
            StackConfig {
                branchless: true,
                ..base.clone()
            },
        ];
        for (i, flipped) in flips.iter().enumerate() {
            assert_ne!(flipped.fingerprint(), fp, "flip {i} is not keyed");
        }
        let renamed = StackConfig {
            levels: 5,
            name: "renamed",
            ..base.clone()
        };
        assert_eq!(renamed.fingerprint(), fp, "name and levels are not keyed");
        assert_eq!(
            StackConfig::legobase().fingerprint(),
            StackConfig::level4().fingerprint()
        );
    }

    #[test]
    fn dblab_stack_satisfies_the_principles() {
        let chain = dblab_stack().check().expect("valid stack");
        assert_eq!(chain.len(), 3); // MapList→List→ScaLite→CScala
        assert_eq!(chain[0].source, Level::MapList);
        assert_eq!(chain[2].target, Level::CScala);
    }

    #[test]
    fn upward_edges_are_rejected() {
        let err = StackBuilder::new()
            .add("bad", Level::ScaLite, Level::MapList)
            .check()
            .unwrap_err();
        assert!(err.contains("expressibility"));
    }

    #[test]
    fn double_lowerings_are_rejected() {
        // The paper's §2.3 scenario: two lowerings from the same level mean
        // the level must be split.
        let err = StackBuilder::new()
            .add("pipelining", Level::MapList, Level::CScala)
            .add("ds-specialization", Level::MapList, Level::CScala)
            .check()
            .unwrap_err();
        assert!(err.contains("cohesion"));
    }
}
