//! The ANF builder.
//!
//! All IR construction — front-end lowering as well as every transformation
//! (which *reconstructs* its input program through a fresh builder) — goes
//! through [`IrBuilder`]. The builder
//!
//! * keeps programs in ANF by binding every expression to a fresh symbol,
//! * hash-conses pure expressions, providing **CSE for free** (§3.3),
//! * constant-folds scalar operators (the paper's "partial evaluation"
//!   baseline optimization, §6), and
//! * tracks per-symbol types, so transformations never need a separate
//!   type-checking pass.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use crate::effects::effects_of;
use crate::expr::{
    Atom, BinOp, Block, DictOp, Expr, Layout, PrimOp, Program, Stmt, Sym, UnOp, DEFAULT_POOL,
};
use crate::level::Level;
use crate::types::{StructId, StructRegistry, Type};

#[derive(Default)]
struct Scope {
    stmts: Vec<Stmt>,
    cse: HashMap<Expr, Atom, BuildHasherDefault<crate::hash::StableHasher>>,
}

/// Builds ANF [`Program`]s. See the module docs.
pub struct IrBuilder {
    pub structs: StructRegistry,
    sym_types: Vec<Type>,
    scopes: Vec<Scope>,
    /// When false, pure expressions are emitted verbatim, not
    /// hash-consed. Only tests turn it off, to build duplicates the
    /// identity rewrite then collapses.
    pub cse_enabled: bool,
}

impl Default for IrBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IrBuilder {
    pub fn new() -> Self {
        IrBuilder {
            structs: StructRegistry::new(),
            sym_types: Vec::new(),
            scopes: vec![Scope::default()],
            cse_enabled: true,
        }
    }

    /// Finish building; `level` declares the dialect of the result.
    pub fn finish(mut self, result: Atom, level: Level) -> Program {
        assert_eq!(self.scopes.len(), 1, "unbalanced scopes at finish");
        let stmts = self.scopes.pop().expect("root scope").stmts;
        Program {
            structs: self.structs,
            body: Block { stmts, result },
            sym_types: self.sym_types,
            level,
        }
    }

    // ------------------------------------------------------------------
    // Symbols and types
    // ------------------------------------------------------------------

    /// Allocate a fresh symbol of the given type (for loop binders).
    pub fn bind(&mut self, ty: Type) -> Sym {
        let s = Sym(self.sym_types.len() as u32);
        self.sym_types.push(ty);
        s
    }

    pub fn type_of(&self, s: Sym) -> &Type {
        &self.sym_types[s.0 as usize]
    }

    pub fn atom_type(&self, a: &Atom) -> Type {
        match a {
            Atom::Sym(s) => self.type_of(*s).clone(),
            Atom::Unit => Type::Unit,
            Atom::Bool(_) => Type::Bool,
            Atom::Int(_) => Type::Int,
            Atom::Long(_) => Type::Long,
            Atom::Double(_) => Type::Double,
            Atom::Str(_) => Type::String,
            Atom::Null(t) => (**t).clone(),
        }
    }

    // ------------------------------------------------------------------
    // Core emission
    // ------------------------------------------------------------------

    /// Emit `expr` with result type `ty`; returns the atom naming its value.
    /// Pure expressions are constant-folded and hash-consed.
    pub fn emit(&mut self, ty: Type, expr: Expr) -> Atom {
        if let Some(folded) = fold(&expr) {
            return folded;
        }
        let consed = self.cse_enabled && effects_of(&expr).is_pure();
        if consed {
            for scope in self.scopes.iter().rev() {
                if let Some(prev) = scope.cse.get(&expr) {
                    return prev.clone();
                }
            }
        }
        let sym = self.bind(ty.clone());
        let atom = Atom::Sym(sym);
        if consed {
            self.scopes
                .last_mut()
                .expect("scope")
                .cse
                .insert(expr.clone(), atom.clone());
        }
        self.scopes
            .last_mut()
            .expect("scope")
            .stmts
            .push(Stmt { sym, ty, expr });
        atom
    }

    /// Emit a unit-typed (effectful) statement.
    pub fn emit_unit(&mut self, expr: Expr) {
        self.emit(Type::Unit, expr);
    }

    /// Open a fresh scope (prefer [`IrBuilder::block`]; this exists for the
    /// rewriter, which cannot capture itself in a closure).
    pub fn scope_push(&mut self) {
        self.scopes.push(Scope::default());
    }

    /// Close the innermost scope into a block with the given result.
    pub fn scope_pop(&mut self, result: Atom) -> Block {
        let scope = self.scopes.pop().expect("block scope");
        assert!(!self.scopes.is_empty(), "popped the root scope");
        Block {
            stmts: scope.stmts,
            result,
        }
    }

    /// Build a sub-block in a fresh scope.
    pub fn block<F: FnOnce(&mut Self) -> Atom>(&mut self, f: F) -> Block {
        self.scope_push();
        let result = f(self);
        self.scope_pop(result)
    }

    /// Build a unit sub-block.
    pub fn block_unit<F: FnOnce(&mut Self)>(&mut self, f: F) -> Block {
        self.block(|b| {
            f(b);
            Atom::Unit
        })
    }

    // ------------------------------------------------------------------
    // Scalars
    // ------------------------------------------------------------------

    pub fn bin(&mut self, op: BinOp, a: Atom, b: Atom) -> Atom {
        let ty = self.bin_type(op, &a, &b);
        self.emit(ty, Expr::Bin(op, a, b))
    }

    fn bin_type(&self, op: BinOp, a: &Atom, b: &Atom) -> Type {
        if op.is_comparison() {
            return Type::Bool;
        }
        let (ta, tb) = (self.atom_type(a), self.atom_type(b));
        if op.is_logical() && ta == Type::Bool {
            return Type::Bool;
        }
        match (&ta, &tb) {
            (Type::Double, _) | (_, Type::Double) => Type::Double,
            (Type::Long, _) | (_, Type::Long) => Type::Long,
            _ => ta,
        }
    }

    pub fn un(&mut self, op: UnOp, a: Atom) -> Atom {
        let ty = match op {
            UnOp::Neg => self.atom_type(&a),
            UnOp::Not => Type::Bool,
            UnOp::I2D | UnOp::L2D => Type::Double,
            UnOp::HashInt | UnOp::HashDouble => Type::Long,
            UnOp::Year | UnOp::L2I => Type::Int,
        };
        self.emit(ty, Expr::Un(op, a))
    }

    pub fn prim(&mut self, op: PrimOp, args: Vec<Atom>) -> Atom {
        debug_assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        let ty = match op {
            PrimOp::StrEq
            | PrimOp::StrNe
            | PrimOp::StrStartsWith
            | PrimOp::StrEndsWith
            | PrimOp::StrContains
            | PrimOp::StrLike => Type::Bool,
            PrimOp::StrCmp => Type::Int,
            PrimOp::StrSubstr => Type::String,
            PrimOp::HashStr => Type::Long,
            PrimOp::TimerStart | PrimOp::TimerStop | PrimOp::PrintRusage => Type::Unit,
        };
        self.emit(ty, Expr::Prim(op, args))
    }

    pub fn dict(&mut self, dict: Arc<str>, op: DictOp, arg: Atom) -> Atom {
        let ty = match op {
            DictOp::Decode => Type::String,
            _ => Type::Int,
        };
        self.emit(ty, Expr::Dict { dict, op, arg })
    }

    // Convenience scalar helpers -----------------------------------------

    pub fn add(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Add, a, b)
    }
    pub fn sub(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Sub, a, b)
    }
    pub fn mul(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Mul, a, b)
    }
    pub fn div(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Div, a, b)
    }
    pub fn eq(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Eq, a, b)
    }
    pub fn ne(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Ne, a, b)
    }
    pub fn lt(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Lt, a, b)
    }
    pub fn le(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Le, a, b)
    }
    pub fn gt(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Gt, a, b)
    }
    pub fn ge(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Ge, a, b)
    }
    pub fn and(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::And, a, b)
    }
    pub fn or(&mut self, a: Atom, b: Atom) -> Atom {
        self.bin(BinOp::Or, a, b)
    }
    pub fn not(&mut self, a: Atom) -> Atom {
        self.un(UnOp::Not, a)
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// Value-producing `if`.
    pub fn if_val<T, E>(&mut self, cond: Atom, then_f: T, else_f: E) -> Atom
    where
        T: FnOnce(&mut Self) -> Atom,
        E: FnOnce(&mut Self) -> Atom,
    {
        let then_b = self.block(then_f);
        let else_b = self.block(else_f);
        let ty = match &then_b.result {
            Atom::Unit => self.atom_type(&else_b.result),
            r => self.atom_type(r),
        };
        self.emit(
            ty,
            Expr::If {
                cond,
                then_b,
                else_b,
            },
        )
    }

    /// Statement `if` without an else branch.
    pub fn if_then<T: FnOnce(&mut Self)>(&mut self, cond: Atom, then_f: T) {
        let then_b = self.block_unit(then_f);
        self.emit_unit(Expr::If {
            cond,
            then_b,
            else_b: Block::default(),
        });
    }

    /// Statement `if`/`else`.
    pub fn if_else<T: FnOnce(&mut Self), E: FnOnce(&mut Self)>(
        &mut self,
        cond: Atom,
        then_f: T,
        else_f: E,
    ) {
        let then_b = self.block_unit(then_f);
        let else_b = self.block_unit(else_f);
        self.emit_unit(Expr::If {
            cond,
            then_b,
            else_b,
        });
    }

    /// `for (i <- lo until hi)`.
    pub fn for_range<F: FnOnce(&mut Self, Atom)>(&mut self, lo: Atom, hi: Atom, f: F) {
        let var = self.bind(Type::Int);
        let body = self.block_unit(|b| f(b, Atom::Sym(var)));
        self.emit_unit(Expr::ForRange { lo, hi, var, body });
    }

    /// `while (cond) body`.
    pub fn while_loop<C, B>(&mut self, cond_f: C, body_f: B)
    where
        C: FnOnce(&mut Self) -> Atom,
        B: FnOnce(&mut Self),
    {
        let cond = self.block(cond_f);
        let body = self.block_unit(body_f);
        self.emit_unit(Expr::While { cond, body });
    }

    // ------------------------------------------------------------------
    // Mutable variables
    // ------------------------------------------------------------------

    pub fn decl_var(&mut self, init: Atom) -> Sym {
        let ty = self.atom_type(&init);
        let sym = self.bind(ty.clone());
        self.scopes.last_mut().expect("scope").stmts.push(Stmt {
            sym,
            ty,
            expr: Expr::DeclVar { init },
        });
        sym
    }

    pub fn read_var(&mut self, var: Sym) -> Atom {
        let ty = self.type_of(var).clone();
        self.emit(ty, Expr::ReadVar(var))
    }

    pub fn assign(&mut self, var: Sym, value: Atom) {
        self.emit_unit(Expr::Assign { var, value });
    }

    // ------------------------------------------------------------------
    // Records
    // ------------------------------------------------------------------

    /// A record from a site with no cardinality estimate
    /// ([`DEFAULT_POOL`]).
    pub fn struct_new(&mut self, sid: StructId, args: Vec<Atom>) -> Atom {
        self.struct_new_pooled(sid, args, DEFAULT_POOL)
    }

    /// A record from a site that allocates at most `pool` of them.
    pub fn struct_new_pooled(&mut self, sid: StructId, args: Vec<Atom>, pool: u64) -> Atom {
        debug_assert_eq!(args.len(), self.structs.get(sid).fields.len());
        self.emit(Type::Record(sid), Expr::StructNew { sid, args, pool })
    }

    pub fn field_get(&mut self, obj: Atom, sid: StructId, field: usize) -> Atom {
        let ty = self.structs.field_type(sid, field).clone();
        self.emit(ty, Expr::FieldGet { obj, sid, field })
    }

    pub fn field_set(&mut self, obj: Atom, sid: StructId, field: usize, value: Atom) {
        self.emit_unit(Expr::FieldSet {
            obj,
            sid,
            field,
            value,
        });
    }

    // ------------------------------------------------------------------
    // Arrays
    // ------------------------------------------------------------------

    pub fn array_new(&mut self, elem: Type, len: Atom) -> Atom {
        self.emit(Type::array(elem.clone()), Expr::ArrayNew { elem, len })
    }

    pub fn array_get(&mut self, arr: Atom, idx: Atom) -> Atom {
        let elem = self
            .atom_type(&arr)
            .elem()
            .cloned()
            .expect("array_get on non-array");
        self.emit(elem, Expr::ArrayGet { arr, idx })
    }

    pub fn array_set(&mut self, arr: Atom, idx: Atom, value: Atom) {
        self.emit_unit(Expr::ArraySet { arr, idx, value });
    }

    pub fn array_len(&mut self, arr: Atom) -> Atom {
        self.emit(Type::Int, Expr::ArrayLen(arr))
    }

    /// Sort `arr[0..len]` in place; `cmp(a, b)` returns a three-way `Int`.
    pub fn sort_array<F: FnOnce(&mut Self, Atom, Atom) -> Atom>(
        &mut self,
        arr: Atom,
        len: Atom,
        cmp_f: F,
    ) {
        let elem = self
            .atom_type(&arr)
            .elem()
            .cloned()
            .expect("sort_array on non-array");
        let a = self.bind(elem.clone());
        let b = self.bind(elem);
        let cmp = self.block(|bb| cmp_f(bb, Atom::Sym(a), Atom::Sym(b)));
        self.emit_unit(Expr::SortArray {
            arr,
            len,
            a,
            b,
            cmp,
        });
    }

    // ------------------------------------------------------------------
    // Lists
    // ------------------------------------------------------------------

    pub fn list_new(&mut self, elem: Type, bound: Option<u64>) -> Atom {
        self.emit(Type::list(elem.clone()), Expr::ListNew { elem, bound })
    }

    pub fn list_append(&mut self, list: Atom, value: Atom) {
        self.emit_unit(Expr::ListAppend { list, value });
    }

    pub fn list_size(&mut self, list: Atom) -> Atom {
        self.emit(Type::Int, Expr::ListSize(list))
    }

    pub fn list_foreach<F: FnOnce(&mut Self, Atom)>(&mut self, list: Atom, f: F) {
        let elem = self
            .atom_type(&list)
            .elem()
            .cloned()
            .expect("list_foreach on non-list");
        let var = self.bind(elem);
        let body = self.block_unit(|b| f(b, Atom::Sym(var)));
        self.emit_unit(Expr::ListForeach { list, var, body });
    }

    // ------------------------------------------------------------------
    // Hash tables
    // ------------------------------------------------------------------

    /// A hashed map of about `expected` entries; dense-key and min/max
    /// facts are for [`Self::emit`] with a full [`Expr::HashMapNew`].
    pub fn hashmap_new(&mut self, key: Type, value: Type, expected: u64) -> Atom {
        self.emit(
            Type::hash_map(key.clone(), value.clone()),
            Expr::HashMapNew {
                key,
                value,
                expected,
                dense: None,
                has_minmax: false,
            },
        )
    }

    pub fn hashmap_get_or_init<F: FnOnce(&mut Self) -> Atom>(
        &mut self,
        map: Atom,
        key: Atom,
        init_f: F,
    ) -> Atom {
        let vt = match self.atom_type(&map) {
            Type::HashMap(_, v) => *v,
            other => panic!("hashmap_get_or_init on {other}"),
        };
        let init = self.block(init_f);
        self.emit(vt, Expr::HashMapGetOrInit { map, key, init })
    }

    pub fn hashmap_foreach<F: FnOnce(&mut Self, Atom, Atom)>(&mut self, map: Atom, f: F) {
        let (kt, vt) = match self.atom_type(&map) {
            Type::HashMap(k, v) => (*k, *v),
            other => panic!("hashmap_foreach on {other}"),
        };
        let kvar = self.bind(kt);
        let vvar = self.bind(vt);
        let body = self.block_unit(|b| f(b, Atom::Sym(kvar), Atom::Sym(vvar)));
        self.emit_unit(Expr::HashMapForeach {
            map,
            kvar,
            vvar,
            body,
        });
    }

    pub fn multimap_new(&mut self, key: Type, value: Type, expected: u64) -> Atom {
        self.emit(
            Type::multi_map(key.clone(), value.clone()),
            Expr::MultiMapNew {
                key,
                value,
                expected,
            },
        )
    }

    pub fn multimap_add(&mut self, map: Atom, key: Atom, value: Atom) {
        self.emit_unit(Expr::MultiMapAdd { map, key, value });
    }

    pub fn multimap_foreach_at<F: FnOnce(&mut Self, Atom)>(&mut self, map: Atom, key: Atom, f: F) {
        let vt = match self.atom_type(&map) {
            Type::MultiMap(_, v) => *v,
            other => panic!("multimap_foreach_at on {other}"),
        };
        let var = self.bind(vt);
        let body = self.block_unit(|b| f(b, Atom::Sym(var)));
        self.emit_unit(Expr::MultiMapForeachAt {
            map,
            key,
            var,
            body,
        });
    }

    // ------------------------------------------------------------------
    // C.Scala
    // ------------------------------------------------------------------

    pub fn pool_new(&mut self, ty: Type, cap: Atom) -> Atom {
        self.emit(Type::pool(ty.clone()), Expr::PoolNew { ty, cap })
    }

    pub fn pool_alloc(&mut self, pool: Atom) -> Atom {
        let elem = match self.atom_type(&pool) {
            Type::Pool(t) => *t,
            other => panic!("pool_alloc on {other}"),
        };
        self.emit(Type::pointer(elem), Expr::PoolAlloc { pool })
    }

    // ------------------------------------------------------------------
    // I/O
    // ------------------------------------------------------------------

    pub fn load_table(&mut self, table: &str, sid: StructId, layout: Layout) -> Atom {
        self.emit(
            Type::array(Type::Record(sid)),
            Expr::LoadTable {
                table: table.into(),
                sid,
                layout,
            },
        )
    }

    pub fn load_index_unique(&mut self, table: &str, field: usize) -> Atom {
        self.emit(
            Type::array(Type::Int),
            Expr::LoadIndexUnique {
                table: table.into(),
                field,
            },
        )
    }

    pub fn load_index_starts(&mut self, table: &str, field: usize) -> Atom {
        self.emit(
            Type::array(Type::Int),
            Expr::LoadIndexStarts {
                table: table.into(),
                field,
            },
        )
    }

    pub fn load_index_items(&mut self, table: &str, field: usize) -> Atom {
        self.emit(
            Type::array(Type::Int),
            Expr::LoadIndexItems {
                table: table.into(),
                field,
            },
        )
    }

    pub fn printf(&mut self, fmt: &str, args: Vec<Atom>) {
        self.emit_unit(Expr::Printf {
            fmt: fmt.into(),
            args,
        });
    }
}

// ----------------------------------------------------------------------
// Constant folding (partial evaluation)
// ----------------------------------------------------------------------

fn fold(e: &Expr) -> Option<Atom> {
    match e {
        Expr::Bin(op, a, b) => fold_bin(*op, a, b),
        Expr::Un(op, a) => fold_un(*op, a),
        _ => None,
    }
}

fn fold_bin(op: BinOp, a: &Atom, b: &Atom) -> Option<Atom> {
    use BinOp::*;
    // Boolean identities (safe even with one non-constant operand).
    match (op, a, b) {
        (And, Atom::Bool(true), x) | (And, x, Atom::Bool(true)) => return Some(x.clone()),
        (And, Atom::Bool(false), _) | (And, _, Atom::Bool(false)) => {
            return Some(Atom::Bool(false))
        }
        (Or, Atom::Bool(false), x) | (Or, x, Atom::Bool(false)) => return Some(x.clone()),
        (Or, Atom::Bool(true), _) | (Or, _, Atom::Bool(true)) => return Some(Atom::Bool(true)),
        // Integer identities.
        (Add, Atom::Int(0), x) | (Add, x, Atom::Int(0)) if !x.is_const() => return Some(x.clone()),
        (Mul, Atom::Int(1), x) | (Mul, x, Atom::Int(1)) if !x.is_const() => return Some(x.clone()),
        _ => {}
    }
    let int2 = |x: &Atom, y: &Atom| -> Option<(i64, i64, bool)> {
        match (x, y) {
            (Atom::Int(a), Atom::Int(b)) => Some((*a, *b, false)),
            (Atom::Long(a), Atom::Long(b))
            | (Atom::Long(a), Atom::Int(b))
            | (Atom::Int(a), Atom::Long(b)) => Some((*a, *b, true)),
            _ => None,
        }
    };
    if let Some((x, y, long)) = int2(a, b) {
        let mk = |v: i64| {
            if long {
                Atom::Long(v)
            } else {
                Atom::Int(v)
            }
        };
        return Some(match op {
            Add => mk(x.wrapping_add(y)),
            Sub => mk(x.wrapping_sub(y)),
            Mul => mk(x.wrapping_mul(y)),
            Div if y != 0 => mk(x / y),
            Eq => Atom::Bool(x == y),
            Ne => Atom::Bool(x != y),
            Lt => Atom::Bool(x < y),
            Le => Atom::Bool(x <= y),
            Gt => Atom::Bool(x > y),
            Ge => Atom::Bool(x >= y),
            Max => mk(x.max(y)),
            _ => return None,
        });
    }
    if let (Some(x), Some(y)) = (a.as_double(), b.as_double()) {
        return Some(match op {
            Add => Atom::double(x + y),
            Sub => Atom::double(x - y),
            Mul => Atom::double(x * y),
            Div => Atom::double(x / y),
            Eq => Atom::Bool(x == y),
            Ne => Atom::Bool(x != y),
            Lt => Atom::Bool(x < y),
            Le => Atom::Bool(x <= y),
            Gt => Atom::Bool(x > y),
            Ge => Atom::Bool(x >= y),
            Max => Atom::double(x.max(y)),
            _ => return None,
        });
    }
    if let (Atom::Bool(x), Atom::Bool(y)) = (a, b) {
        return Some(match op {
            Eq => Atom::Bool(x == y),
            Ne => Atom::Bool(x != y),
            BitAnd => Atom::Bool(*x && *y),
            BitOr => Atom::Bool(*x || *y),
            _ => return None,
        });
    }
    None
}

fn fold_un(op: UnOp, a: &Atom) -> Option<Atom> {
    Some(match (op, a) {
        (UnOp::Neg, Atom::Int(x)) => Atom::Int(-x),
        (UnOp::Neg, Atom::Long(x)) => Atom::Long(-x),
        (UnOp::Neg, Atom::Double(_)) => Atom::double(-a.as_double()?),
        (UnOp::Not, Atom::Bool(x)) => Atom::Bool(!x),
        (UnOp::I2D, Atom::Int(x)) => Atom::double(*x as f64),
        (UnOp::L2D, Atom::Long(x)) => Atom::double(*x as f64),
        (UnOp::Year, Atom::Int(x)) => Atom::Int(x / 10000),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anf_example_from_paper_gets_cse() {
        // agg1 += R_A * R_B ; agg2 += R_A * R_B * (1 - R_C) ; agg3 += R_D * (1 - R_C)
        // The products R_A*R_B and 1-R_C must each be computed once (§3.3).
        let mut b = IrBuilder::new();
        let ra = b.decl_var(Atom::double(1.0));
        let rb = b.decl_var(Atom::double(2.0));
        let rc = b.decl_var(Atom::double(3.0));
        let rd = b.decl_var(Atom::double(4.0));
        let (ra, rb, rc, rd) = (
            b.read_var(ra),
            b.read_var(rb),
            b.read_var(rc),
            b.read_var(rd),
        );
        let x1a = b.mul(ra.clone(), rb.clone());
        let x1b = b.mul(ra, rb);
        assert_eq!(x1a, x1b, "identical pure expressions share one symbol");
        let x2a = b.sub(Atom::double(1.0), rc.clone());
        let x2b = b.sub(Atom::double(1.0), rc);
        assert_eq!(x2a, x2b);
        let _x4 = b.mul(rd, x2a);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        // 4 DeclVar + 4 ReadVar + 3 unique products = 11 statements.
        assert_eq!(p.body.stmts.len(), 11);
    }

    #[test]
    fn cse_respects_block_scoping() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        let x = b.read_var(v);
        let mut inner_atom = Atom::Unit;
        b.if_then(Atom::Bool(true), |bb| {
            inner_atom = bb.add(x.clone(), Atom::Int(5));
        });
        // The inner `x + 5` was computed inside the `if` scope; computing it
        // again outside must emit a new statement, not reuse the dead symbol.
        let outer = b.add(x, Atom::Int(5));
        assert_ne!(inner_atom, outer);
    }

    #[test]
    fn outer_cse_available_inside_blocks() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        let x = b.read_var(v);
        let outer = b.add(x.clone(), Atom::Int(5));
        let mut inner = Atom::Unit;
        b.if_then(Atom::Bool(true), |bb| {
            inner = bb.add(x.clone(), Atom::Int(5));
        });
        assert_eq!(outer, inner, "outer pure value reused inside the block");
    }

    #[test]
    fn constant_folding() {
        let mut b = IrBuilder::new();
        assert_eq!(b.add(Atom::Int(2), Atom::Int(3)), Atom::Int(5));
        assert_eq!(b.lt(Atom::Int(2), Atom::Int(3)), Atom::Bool(true));
        assert_eq!(
            b.mul(Atom::double(2.0), Atom::double(4.0)),
            Atom::double(8.0)
        );
        assert_eq!(b.un(UnOp::Year, Atom::Int(19980321)), Atom::Int(1998));
        // div by zero is not folded
        let d = b.div(Atom::Int(1), Atom::Int(0));
        assert!(matches!(d, Atom::Sym(_)));
    }

    #[test]
    fn bool_identities_fold_with_nonconstant_operand() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Bool(true));
        let x = b.read_var(v);
        assert_eq!(b.and(Atom::Bool(true), x.clone()), x);
        assert_eq!(b.and(Atom::Bool(false), x.clone()), Atom::Bool(false));
        assert_eq!(b.or(x.clone(), Atom::Bool(false)), x);
    }

    #[test]
    fn reads_of_mutable_vars_are_not_csed() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        let r1 = b.read_var(v);
        b.assign(v, Atom::Int(1));
        let r2 = b.read_var(v);
        assert_ne!(r1, r2, "reads across writes must not be merged");
    }

    #[test]
    fn types_inferred_for_mixed_arithmetic() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(1));
        let x = b.read_var(v);
        let d = b.add(x.clone(), Atom::double(0.5));
        assert_eq!(b.atom_type(&d), Type::Double);
        let l = b.add(x, Atom::Long(1));
        assert_eq!(b.atom_type(&l), Type::Long);
    }

    #[test]
    fn builder_loops_and_collections_typecheck() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(crate::types::StructDef {
            name: "R".into(),
            fields: vec![crate::types::FieldDef {
                name: "x".into(),
                ty: Type::Int,
            }],
        });
        let list = b.list_new(Type::Record(sid), None);
        let rec = b.struct_new(sid, vec![Atom::Int(7)]);
        b.list_append(list.clone(), rec);
        let total = b.decl_var(Atom::Int(0));
        b.list_foreach(list, |bb, e| {
            let x = bb.field_get(e, sid, 0);
            let cur = bb.read_var(total);
            let next = bb.add(cur, x);
            bb.assign(total, next);
        });
        let out = b.read_var(total);
        let p = b.finish(out, Level::MapList);
        assert!(crate::level::validate(&p).is_empty());
    }
}
