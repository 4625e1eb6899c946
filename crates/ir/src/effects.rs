//! A conservative effect system.
//!
//! The paper (§3.2): "our framework allows the expression of effectful
//! computations, but can still reason about code that is known to be pure".
//! Effects gate the framework optimizations: only `PURE` expressions are
//! hash-consed (CSE), and dead-code elimination may only drop statements
//! whose effects are invisible (`WRITE`/`IO`-free).

use crate::expr::Expr;

/// Bit-set of effects an expression may perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects(u8);

impl Effects {
    pub const PURE: Effects = Effects(0);
    /// Reads mutable memory (vars, arrays, data structures).
    pub const READ: Effects = Effects(1);
    /// Writes mutable memory.
    pub const WRITE: Effects = Effects(2);
    /// Allocates (observable identity; never CSE'd, but removable if dead).
    pub const ALLOC: Effects = Effects(4);
    /// Input/output — never removable, never reorderable.
    pub const IO: Effects = Effects(8);

    pub fn union(self, other: Effects) -> Effects {
        Effects(self.0 | other.0)
    }
    pub fn contains(self, other: Effects) -> bool {
        self.0 & other.0 == other.0
    }
    pub fn intersects(self, other: Effects) -> bool {
        self.0 & other.0 != 0
    }
    pub fn is_pure(self) -> bool {
        self.0 == 0
    }
    /// May this statement be removed when its result is unused?
    pub fn is_removable(self) -> bool {
        !self.intersects(Effects::WRITE.union(Effects::IO))
    }
}

impl std::ops::BitOr for Effects {
    type Output = Effects;
    fn bitor(self, rhs: Effects) -> Effects {
        self.union(rhs)
    }
}

/// Effects of one expression, including everything inside its sub-blocks.
pub fn effects_of(e: &Expr) -> Effects {
    e.blocks()
        .into_iter()
        .fold(own_effects(e), |acc, b| acc.union(block_effects(b)))
}

/// Effects of the node itself, not counting its sub-blocks: what a
/// compound statement does beyond running its blocks.
pub fn own_effects(e: &Expr) -> Effects {
    match e {
        Expr::Atom(_) | Expr::Bin(..) | Expr::Un(..) => Effects::PURE,
        // String primitives are pure except the instrumentation intrinsics.
        Expr::Prim(op, _) => match op {
            crate::expr::PrimOp::TimerStart
            | crate::expr::PrimOp::TimerStop
            | crate::expr::PrimOp::PrintRusage => Effects::IO,
            crate::expr::PrimOp::StrSubstr => Effects::ALLOC,
            _ => Effects::PURE,
        },
        // Dictionaries are frozen after loading; lookups are pure.
        Expr::Dict { .. } => Effects::PURE,
        Expr::If { .. } | Expr::ForRange { .. } | Expr::While { .. } => Effects::PURE,
        Expr::DeclVar { .. } => Effects::ALLOC,
        Expr::ReadVar(_) => Effects::READ,
        Expr::Assign { .. } => Effects::WRITE,
        Expr::StructNew { .. } => Effects::ALLOC,
        Expr::FieldGet { .. } => Effects::READ,
        Expr::FieldSet { .. } => Effects::WRITE,
        Expr::ArrayNew { .. } => Effects::ALLOC,
        Expr::ArrayGet { .. } | Expr::ArrayLen(_) => Effects::READ,
        Expr::ArraySet { .. } => Effects::WRITE,
        Expr::SortArray { .. } => Effects::READ | Effects::WRITE,
        Expr::ListNew { .. } => Effects::ALLOC,
        Expr::ListAppend { .. } => Effects::WRITE,
        Expr::ListSize(_) | Expr::ListForeach { .. } => Effects::READ,
        Expr::HashMapNew { .. } | Expr::MultiMapNew { .. } => Effects::ALLOC,
        // get-or-init may insert.
        Expr::HashMapGetOrInit { .. } => Effects::READ | Effects::WRITE,
        Expr::HashMapForeach { .. } => Effects::READ,
        Expr::MultiMapAdd { .. } => Effects::WRITE,
        Expr::MultiMapForeachAt { .. } => Effects::READ,
        Expr::PoolNew { .. } | Expr::PoolAlloc { .. } => Effects::ALLOC,
        Expr::LoadTable { .. }
        | Expr::LoadIndexUnique { .. }
        | Expr::LoadIndexStarts { .. }
        | Expr::LoadIndexItems { .. } => Effects::IO | Effects::ALLOC,
        Expr::Printf { .. } => Effects::IO,
        // Parameters are bound once per execution and immutable for its
        // duration, so reading one is pure (CSE-able, droppable if dead).
        Expr::LoadParam { .. } => Effects::PURE,
    }
}

/// Union of the effects of all statements in a block.
pub fn block_effects(b: &crate::expr::Block) -> Effects {
    b.stmts
        .iter()
        .fold(Effects::PURE, |acc, st| acc.union(effects_of(&st.expr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Atom, BinOp, Block, PrimOp, Stmt, Sym};
    use crate::types::Type;

    #[test]
    fn arithmetic_is_pure() {
        let e = Expr::Bin(BinOp::Add, Atom::Int(1), Atom::Int(2));
        assert!(effects_of(&e).is_pure());
        assert!(effects_of(&e).is_removable());
    }

    #[test]
    fn assignment_is_write() {
        let e = Expr::Assign {
            var: Sym(0),
            value: Atom::Int(1),
        };
        assert!(effects_of(&e).contains(Effects::WRITE));
        assert!(!effects_of(&e).is_removable());
    }

    #[test]
    fn loop_aggregates_body_effects() {
        let body = Block::unit(vec![Stmt {
            sym: Sym(1),
            ty: Type::Unit,
            expr: Expr::Assign {
                var: Sym(0),
                value: Atom::Int(1),
            },
        }]);
        let e = Expr::ForRange {
            lo: Atom::Int(0),
            hi: Atom::Int(3),
            var: Sym(2),
            body,
        };
        assert!(effects_of(&e).contains(Effects::WRITE));

        let pure_loop = Expr::ForRange {
            lo: Atom::Int(0),
            hi: Atom::Int(3),
            var: Sym(2),
            body: Block::default(),
        };
        assert!(effects_of(&pure_loop).is_pure());
    }

    #[test]
    fn alloc_removable_but_not_pure() {
        let e = Expr::ListNew {
            elem: Type::Int,
            bound: None,
        };
        assert!(!effects_of(&e).is_pure());
        assert!(effects_of(&e).is_removable());
    }

    #[test]
    fn io_never_removable() {
        let e = Expr::Prim(PrimOp::TimerStart, vec![]);
        assert!(!effects_of(&e).is_removable());
    }
}
