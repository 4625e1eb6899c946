//! DSL levels (dialects) and the expressibility validator.
//!
//! The paper's *expressibility principle* (§2.2): anything expressible at a
//! level must remain expressible at every lower level. We realise this by
//! assigning every IR node a *level range* — the highest level it may appear
//! at and the lowest — and checking programs against their declared level.
//! ScaLite is the common core: its nodes are legal at every IR level.
//! Collection nodes are legal only at the levels that still possess them,
//! and memory-management nodes only at C.Scala.

use crate::expr::{Atom, Block, Expr, Program, Sym};
use crate::types::Type;

/// The DSL levels of the stack, ordered from **highest** abstraction to
/// lowest (paper Figure 2). The two front-ends (QPlan, QMonad) are separate
/// ASTs in `dblab-frontend`; IR programs start at `MapList`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// ScaLite\[Map, List\] — hash tables, lists, no nested mutability.
    MapList,
    /// ScaLite\[List\] — lists only; MultiMaps have become `Array[List[T]]`.
    List,
    /// ScaLite — loops, records, arrays; GC-managed memory.
    ScaLite,
    /// C.Scala — explicit memory management; unparses 1:1 to C.
    CScala,
}

impl Level {
    pub const ALL: [Level; 4] = [Level::MapList, Level::List, Level::ScaLite, Level::CScala];

    /// The next lower level, if any.
    pub fn lower(self) -> Option<Level> {
        match self {
            Level::MapList => Some(Level::List),
            Level::List => Some(Level::ScaLite),
            Level::ScaLite => Some(Level::CScala),
            Level::CScala => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Level::MapList => "ScaLite[Map, List]",
            Level::List => "ScaLite[List]",
            Level::ScaLite => "ScaLite",
            Level::CScala => "C.Scala",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A violation found by [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub sym: Sym,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.sym, self.message)
    }
}

/// Inclusive level range `[highest, lowest]` at which a node kind may occur.
fn level_range(e: &Expr) -> (Level, Level) {
    use Level::*;
    match e {
        // Hash tables exist only at the top IR level.
        Expr::HashMapNew { .. }
        | Expr::HashMapGetOrInit { .. }
        | Expr::HashMapForeach { .. }
        | Expr::MultiMapNew { .. }
        | Expr::MultiMapAdd { .. }
        | Expr::MultiMapForeachAt { .. } => (MapList, MapList),
        // Lists survive one level further down.
        Expr::ListNew { .. }
        | Expr::ListAppend { .. }
        | Expr::ListSize(_)
        | Expr::ListForeach { .. } => (MapList, List),
        // Memory management appears only at the bottom.
        Expr::PoolNew { .. } | Expr::PoolAlloc { .. } => (CScala, CScala),
        // Everything else is core ScaLite, legal everywhere.
        _ => (MapList, CScala),
    }
}

/// Does `ty` fit inside the dialect window `[hi, lo]`? (Type-level mirror
/// of [`level_range`]: a type is admissible when the window still contains
/// a level possessing it.)
fn type_ok(ty: &Type, hi: Level, lo: Level) -> bool {
    match ty {
        Type::HashMap(k, v) | Type::MultiMap(k, v) => {
            hi == Level::MapList && type_ok(k, hi, lo) && type_ok(v, hi, lo)
        }
        Type::List(e) => hi <= Level::List && type_ok(e, hi, lo),
        Type::Pointer(e) | Type::Pool(e) => lo == Level::CScala && type_ok(e, hi, lo),
        Type::Array(e) => type_ok(e, hi, lo),
        _ => true,
    }
}

/// Validate that `p.body` only uses vocabulary available at `p.level`, and
/// that the ScaLite\[Map, List\] *no-nested-mutability* invariant holds
/// (§4.3): records reached through a MultiMap iteration must not be
/// field-mutated.
pub fn validate(p: &Program) -> Vec<Violation> {
    validate_window(p, p.level, p.level)
}

/// Validate `p.body` against a dialect *window* `[hi, lo]` (both
/// inclusive, `hi` the more abstract end): every node must be legal at
/// **some** level inside the window.
///
/// The pass manager uses this for partial stacks (the Table 3 experiment
/// axis): when a lowering is disabled, vocabulary of the levels it would
/// have discharged legitimately survives below its home level, so the
/// post-pass contract is "nothing outside `[highest undischarged level,
/// current level]`". With the full stack enabled the window collapses to a
/// single level and this is exact dialect conformance, i.e. [`validate`].
pub fn validate_window(p: &Program, hi: Level, lo: Level) -> Vec<Violation> {
    assert!(hi <= lo, "window is ordered most-abstract first");
    let mut out = Vec::new();
    let mut mm_elems: Vec<Sym> = Vec::new();
    validate_block(&p.body, hi, lo, &mut mm_elems, &mut out);
    out
}

/// The post-pass validation rule in its **schedule-order-stable** form:
/// a program under a (possibly partial, possibly permuted) stack is
/// entitled to the window `[ceiling, program level]`, where `ceiling` is
/// the most abstract level whose exclusive vocabulary has not yet been
/// discharged by a lowering. The window depends only on *which lowerings
/// have run* — never on where floating optimizations sit in the schedule
/// — so permuting commuting passes can neither widen nor narrow what a
/// stage is allowed to emit. (A floating pass may run while the program
/// is still *above* its home level, in which case the program level caps
/// the window: `hi = min(ceiling, level)`.)
pub fn validate_stage(p: &Program, ceiling: Level) -> Vec<Violation> {
    validate_window(p, ceiling.min(p.level), p.level)
}

fn validate_block(
    b: &Block,
    hi: Level,
    lo: Level,
    mm_elems: &mut Vec<Sym>,
    out: &mut Vec<Violation>,
) {
    for st in &b.stmts {
        let (nhi, nlo) = level_range(&st.expr);
        if lo < nhi || hi > nlo {
            out.push(Violation {
                sym: st.sym,
                message: format!(
                    "node {:?} is only legal between {} and {}, program window is [{}, {}]",
                    discriminant_name(&st.expr),
                    nhi,
                    nlo,
                    hi,
                    lo
                ),
            });
        }
        if !type_ok(&st.ty, hi, lo) {
            out.push(Violation {
                sym: st.sym,
                message: format!(
                    "type {} is not expressible between {} and {}",
                    st.ty, hi, lo
                ),
            });
        }
        // No-nested-mutability check, only meaningful while MultiMaps may
        // still be present.
        if hi == Level::MapList {
            if let Expr::FieldSet {
                obj: Atom::Sym(s), ..
            } = &st.expr
            {
                if mm_elems.contains(s) {
                    out.push(Violation {
                        sym: st.sym,
                        message: format!(
                            "nested mutability: field write to {s}, an element obtained \
                             from a MultiMap (forbidden at {})",
                            Level::MapList
                        ),
                    });
                }
            }
        }
        let pushed = if let Expr::MultiMapForeachAt { var, .. } = &st.expr {
            mm_elems.push(*var);
            true
        } else {
            false
        };
        for blk in st.expr.blocks() {
            validate_block(blk, hi, lo, mm_elems, out);
        }
        if pushed {
            mm_elems.pop();
        }
    }
}

fn discriminant_name(e: &Expr) -> &'static str {
    match e {
        Expr::Atom(_) => "Atom",
        Expr::Bin(..) => "Bin",
        Expr::Un(..) => "Un",
        Expr::Prim(..) => "Prim",
        Expr::Dict { .. } => "Dict",
        Expr::If { .. } => "If",
        Expr::ForRange { .. } => "ForRange",
        Expr::While { .. } => "While",
        Expr::DeclVar { .. } => "DeclVar",
        Expr::ReadVar(_) => "ReadVar",
        Expr::Assign { .. } => "Assign",
        Expr::StructNew { .. } => "StructNew",
        Expr::FieldGet { .. } => "FieldGet",
        Expr::FieldSet { .. } => "FieldSet",
        Expr::ArrayNew { .. } => "ArrayNew",
        Expr::ArrayGet { .. } => "ArrayGet",
        Expr::ArraySet { .. } => "ArraySet",
        Expr::ArrayLen(_) => "ArrayLen",
        Expr::SortArray { .. } => "SortArray",
        Expr::ListNew { .. } => "ListNew",
        Expr::ListAppend { .. } => "ListAppend",
        Expr::ListSize(_) => "ListSize",
        Expr::ListForeach { .. } => "ListForeach",
        Expr::HashMapNew { .. } => "HashMapNew",
        Expr::HashMapGetOrInit { .. } => "HashMapGetOrInit",
        Expr::HashMapForeach { .. } => "HashMapForeach",
        Expr::MultiMapNew { .. } => "MultiMapNew",
        Expr::MultiMapAdd { .. } => "MultiMapAdd",
        Expr::MultiMapForeachAt { .. } => "MultiMapForeachAt",
        Expr::PoolNew { .. } => "PoolNew",
        Expr::PoolAlloc { .. } => "PoolAlloc",
        Expr::LoadTable { .. } => "LoadTable",
        Expr::LoadIndexUnique { .. } => "LoadIndexUnique",
        Expr::LoadIndexStarts { .. } => "LoadIndexStarts",
        Expr::LoadIndexItems { .. } => "LoadIndexItems",
        Expr::Printf { .. } => "Printf",
        Expr::LoadParam { .. } => "LoadParam",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Stmt;
    use crate::types::StructRegistry;

    fn prog(level: Level, stmts: Vec<Stmt>, ntypes: usize) -> Program {
        Program {
            structs: StructRegistry::new(),
            body: Block::unit(stmts),
            sym_types: vec![Type::Unit; ntypes],
            level,
        }
    }

    #[test]
    fn level_ordering() {
        assert!(Level::MapList < Level::List);
        assert!(Level::List < Level::ScaLite);
        assert!(Level::ScaLite < Level::CScala);
        assert_eq!(Level::MapList.lower(), Some(Level::List));
        assert_eq!(Level::CScala.lower(), None);
    }

    #[test]
    fn multimap_illegal_below_maplist() {
        let st = Stmt {
            sym: Sym(0),
            ty: Type::multi_map(Type::Int, Type::Int),
            expr: Expr::MultiMapNew {
                key: Type::Int,
                value: Type::Int,
                expected: 8,
            },
        };
        assert!(validate(&prog(Level::MapList, vec![st.clone()], 1)).is_empty());
        let v = validate(&prog(Level::List, vec![st], 1));
        assert_eq!(v.len(), 2); // node violation + type violation
    }

    #[test]
    fn pools_only_at_cscala() {
        let st = Stmt {
            sym: Sym(0),
            ty: Type::pool(Type::Int),
            expr: Expr::PoolNew {
                ty: Type::Int,
                cap: Atom::Int(4),
            },
        };
        assert!(validate(&prog(Level::CScala, vec![st.clone()], 1)).is_empty());
        assert!(!validate(&prog(Level::ScaLite, vec![st], 1)).is_empty());
    }

    #[test]
    fn nested_mutability_detected() {
        // for (e <- mm.at(k)) { e.f = 1 }  -- illegal at MapList
        let body = Block::unit(vec![Stmt {
            sym: Sym(3),
            ty: Type::Unit,
            expr: Expr::FieldSet {
                obj: Atom::Sym(Sym(2)),
                sid: crate::types::StructId(0),
                field: 0,
                value: Atom::Int(1),
            },
        }]);
        let st = Stmt {
            sym: Sym(1),
            ty: Type::Unit,
            expr: Expr::MultiMapForeachAt {
                map: Atom::Sym(Sym(0)),
                key: Atom::Int(7),
                var: Sym(2),
                body,
            },
        };
        let violations = validate(&prog(Level::MapList, vec![st], 4));
        assert!(violations
            .iter()
            .any(|v| v.message.contains("nested mutability")));
    }

    /// Every level rejects the vocabulary it does not possess: hash tables
    /// below ScaLite\[Map, List\], lists below ScaLite\[List\], memory
    /// management anywhere above C.Scala.
    #[test]
    fn each_level_rejects_out_of_vocabulary_nodes() {
        let hash_node = Stmt {
            sym: Sym(0),
            ty: Type::hash_map(Type::Int, Type::Int),
            expr: Expr::HashMapNew {
                key: Type::Int,
                value: Type::Int,
                expected: 8,
                dense: None,
                has_minmax: false,
            },
        };
        let list_node = Stmt {
            sym: Sym(0),
            ty: Type::list(Type::Int),
            expr: Expr::ListNew {
                elem: Type::Int,
                bound: None,
            },
        };
        let mem_node = Stmt {
            sym: Sym(0),
            ty: Type::pool(Type::Int),
            expr: Expr::PoolNew {
                ty: Type::Int,
                cap: Atom::Int(1),
            },
        };
        for lvl in Level::ALL {
            let hash_ok = lvl == Level::MapList;
            let list_ok = lvl <= Level::List;
            let mem_ok = lvl == Level::CScala;
            assert_eq!(
                validate(&prog(lvl, vec![hash_node.clone()], 1)).is_empty(),
                hash_ok,
                "hash vocabulary at {lvl}"
            );
            assert_eq!(
                validate(&prog(lvl, vec![list_node.clone()], 1)).is_empty(),
                list_ok,
                "list vocabulary at {lvl}"
            );
            assert_eq!(
                validate(&prog(lvl, vec![mem_node.clone()], 1)).is_empty(),
                mem_ok,
                "memory vocabulary at {lvl}"
            );
        }
    }

    #[test]
    fn window_admits_residual_higher_level_vocabulary() {
        // A list surviving down to C.Scala (list specialization disabled)
        // is legal in the window [List, CScala] but not at CScala alone.
        let st = Stmt {
            sym: Sym(0),
            ty: Type::list(Type::Int),
            expr: Expr::ListNew {
                elem: Type::Int,
                bound: None,
            },
        };
        let p = prog(Level::CScala, vec![st], 1);
        assert!(!validate(&p).is_empty());
        assert!(validate_window(&p, Level::List, Level::CScala).is_empty());
        // But vocabulary already discharged stays illegal: a hash table is
        // outside [List, CScala].
        let st = Stmt {
            sym: Sym(0),
            ty: Type::hash_map(Type::Int, Type::Int),
            expr: Expr::HashMapNew {
                key: Type::Int,
                value: Type::Int,
                expected: 8,
                dense: None,
                has_minmax: false,
            },
        };
        let p = prog(Level::CScala, vec![st], 1);
        assert_eq!(validate_window(&p, Level::List, Level::CScala).len(), 2);
    }

    #[test]
    fn point_window_equals_validate() {
        let st = Stmt {
            sym: Sym(0),
            ty: Type::list(Type::Int),
            expr: Expr::ListNew {
                elem: Type::Int,
                bound: None,
            },
        };
        for lvl in Level::ALL {
            let p = prog(lvl, vec![st.clone()], 1);
            assert_eq!(validate(&p), validate_window(&p, lvl, lvl));
        }
    }

    #[test]
    fn scalite_core_legal_everywhere() {
        let st = Stmt {
            sym: Sym(0),
            ty: Type::Int,
            expr: Expr::Bin(crate::expr::BinOp::Add, Atom::Int(1), Atom::Int(2)),
        };
        for lvl in Level::ALL {
            assert!(validate(&prog(lvl, vec![st.clone()], 1)).is_empty());
        }
    }
}
