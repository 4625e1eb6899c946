//! The generic program transformer.
//!
//! Every optimization and lowering is a [`Rule`]: a callback that may
//! intercept statements of the source program and emit replacement IR
//! through the builder. Unhandled statements are *reconstructed* — cloned
//! with operands substituted and sub-blocks rewritten recursively — through
//! the same builder, which means CSE and constant folding are re-applied on
//! every pass (the LMS/SC transformer design the paper builds on).

use crate::builder::IrBuilder;
use crate::expr::{Atom, Block, Expr, Program, Stmt, Sym};
use crate::level::Level;
use crate::types::Type;

/// A rewrite rule. `apply` returns `Some(atom)` when it handled the
/// statement itself (mapping the statement's symbol to `atom`), `None` to
/// fall back to default reconstruction.
pub trait Rule {
    fn name(&self) -> &'static str;

    fn apply(&mut self, rw: &mut Rewriter<'_>, sym: Sym, ty: &Type, expr: &Expr) -> Option<Atom>;

    /// Hook invoked once before the walk (e.g. to pre-register struct types
    /// or run an analysis over the whole program).
    fn prepare(&mut self, _p: &Program, _b: &mut IrBuilder) {}
}

/// Walk state handed to rules.
pub struct Rewriter<'p> {
    /// The (immutable) source program.
    pub old: &'p Program,
    /// The builder producing the target program.
    pub b: IrBuilder,
    /// `subst[s]`: the target atom of source symbol `s`, once mapped.
    subst: Vec<Option<Atom>>,
}

impl<'p> Rewriter<'p> {
    /// Translate a source atom into the target program.
    pub fn atom(&self, a: &Atom) -> Atom {
        match a {
            Atom::Sym(s) => self
                .subst
                .get(s.0 as usize)
                .and_then(Option::as_ref)
                .unwrap_or_else(|| panic!("unmapped symbol {s} during rewrite"))
                .clone(),
            other => other.clone(),
        }
    }

    /// Translate a source symbol that must map to a symbol (vars, binders).
    pub fn sym(&self, s: Sym) -> Sym {
        match self.atom(&Atom::Sym(s)) {
            Atom::Sym(ns) => ns,
            other => panic!("symbol {s} was rewritten to non-symbol {other:?}"),
        }
    }

    /// Record a mapping from a source symbol to a target atom.
    pub fn map(&mut self, old: Sym, new: Atom) {
        self.subst[old.0 as usize] = Some(new);
    }

    /// Bind a fresh target symbol for a source binder (loop variables) and
    /// record the mapping.
    pub fn bind_fresh(&mut self, old: Sym, ty: Type) -> Sym {
        let s = self.b.bind(ty);
        self.map(old, Atom::Sym(s));
        s
    }

    /// Rewrite a source block into a new [`Block`] under `rule`.
    pub fn block(&mut self, rule: &mut dyn Rule, blk: &Block) -> Block {
        self.b.scope_push();
        let result = self.block_inline(rule, blk);
        self.b.scope_pop(result)
    }

    /// Rewrite a source block's statements into the *current* builder scope
    /// and return the rewritten result atom. This is what rules use to
    /// splice a body into custom control flow.
    pub fn block_inline(&mut self, rule: &mut dyn Rule, blk: &Block) -> Atom {
        for st in &blk.stmts {
            self.stmt(rule, st);
        }
        self.atom(&blk.result)
    }

    fn stmt(&mut self, rule: &mut dyn Rule, st: &Stmt) {
        if let Some(atom) = rule.apply(self, st.sym, &st.ty, &st.expr) {
            self.map(st.sym, atom);
            return;
        }
        let atom = self.reconstruct(rule, st);
        self.map(st.sym, atom);
    }

    /// Default reconstruction of one statement (rule did not intercept).
    /// Goes through the typed builder API so result types are re-inferred —
    /// important because earlier interceptions may have changed the types
    /// flowing in (e.g. a MultiMap sym now holds an `Array[List[T]]`).
    pub fn reconstruct(&mut self, rule: &mut dyn Rule, st: &Stmt) -> Atom {
        let b_atom = |rw: &Rewriter<'_>, a: &Atom| rw.atom(a);
        match &st.expr {
            Expr::Atom(a) => self.atom(a),
            Expr::Bin(op, x, y) => {
                let (x, y) = (b_atom(self, x), b_atom(self, y));
                self.b.bin(*op, x, y)
            }
            Expr::Un(op, x) => {
                let x = b_atom(self, x);
                self.b.un(*op, x)
            }
            Expr::Prim(op, args) => {
                let args = args.iter().map(|a| self.atom(a)).collect();
                self.b.prim(*op, args)
            }
            Expr::Dict { dict, op, arg } => {
                let arg = self.atom(arg);
                self.b.dict(dict.clone(), *op, arg)
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                let cond = self.atom(cond);
                let then_b = self.block(rule, then_b);
                let else_b = self.block(rule, else_b);
                let ty = match &then_b.result {
                    Atom::Unit => self.b.atom_type(&else_b.result),
                    r => self.b.atom_type(r),
                };
                self.b.emit(
                    ty,
                    Expr::If {
                        cond,
                        then_b,
                        else_b,
                    },
                )
            }
            Expr::ForRange { lo, hi, var, body } => {
                let (lo, hi) = (self.atom(lo), self.atom(hi));
                let nvar = self.bind_fresh(*var, Type::Int);
                let body = self.block(rule, body);
                self.b.emit_unit(Expr::ForRange {
                    lo,
                    hi,
                    var: nvar,
                    body,
                });
                Atom::Unit
            }
            Expr::While { cond, body } => {
                let cond = self.block(rule, cond);
                let body = self.block(rule, body);
                self.b.emit_unit(Expr::While { cond, body });
                Atom::Unit
            }
            Expr::DeclVar { init } => {
                let init = self.atom(init);
                Atom::Sym(self.b.decl_var(init))
            }
            Expr::ReadVar(v) => {
                let v = self.sym(*v);
                self.b.read_var(v)
            }
            Expr::Assign { var, value } => {
                let var = self.sym(*var);
                let value = self.atom(value);
                self.b.assign(var, value);
                Atom::Unit
            }
            Expr::StructNew { sid, args, pool } => {
                let args = args.iter().map(|a| self.atom(a)).collect();
                self.b.struct_new_pooled(*sid, args, *pool)
            }
            Expr::FieldGet { obj, sid, field } => {
                let obj = self.atom(obj);
                self.b.field_get(obj, *sid, *field)
            }
            Expr::FieldSet {
                obj,
                sid,
                field,
                value,
            } => {
                let obj = self.atom(obj);
                let value = self.atom(value);
                self.b.field_set(obj, *sid, *field, value);
                Atom::Unit
            }
            Expr::ArrayNew { elem, len } => {
                let len = self.atom(len);
                self.b.array_new(elem.clone(), len)
            }
            Expr::ArrayGet { arr, idx } => {
                let (arr, idx) = (self.atom(arr), self.atom(idx));
                self.b.array_get(arr, idx)
            }
            Expr::ArraySet { arr, idx, value } => {
                let (arr, idx, value) = (self.atom(arr), self.atom(idx), self.atom(value));
                self.b.array_set(arr, idx, value);
                Atom::Unit
            }
            Expr::ArrayLen(a) => {
                let a = self.atom(a);
                self.b.array_len(a)
            }
            Expr::SortArray {
                arr,
                len,
                a,
                b: bs,
                cmp,
            } => {
                let (arr, len) = (self.atom(arr), self.atom(len));
                let elem = self
                    .b
                    .atom_type(&arr)
                    .elem()
                    .cloned()
                    .expect("sort on non-array");
                let na = self.bind_fresh(*a, elem.clone());
                let nb = self.bind_fresh(*bs, elem);
                let cmp = self.block(rule, cmp);
                self.b.emit_unit(Expr::SortArray {
                    arr,
                    len,
                    a: na,
                    b: nb,
                    cmp,
                });
                Atom::Unit
            }
            // Operand-free allocations: the node is its own reconstruction.
            Expr::ListNew { .. }
            | Expr::HashMapNew { .. }
            | Expr::MultiMapNew { .. }
            | Expr::LoadTable { .. } => self.b.emit(st.ty.clone(), st.expr.clone()),
            Expr::ListAppend { list, value } => {
                let (list, value) = (self.atom(list), self.atom(value));
                self.b.list_append(list, value);
                Atom::Unit
            }
            Expr::ListSize(l) => {
                let l = self.atom(l);
                self.b.list_size(l)
            }
            Expr::ListForeach { list, var, body } => {
                let list = self.atom(list);
                let elem = self
                    .b
                    .atom_type(&list)
                    .elem()
                    .cloned()
                    .expect("foreach on non-list");
                let nvar = self.bind_fresh(*var, elem);
                let body = self.block(rule, body);
                self.b.emit_unit(Expr::ListForeach {
                    list,
                    var: nvar,
                    body,
                });
                Atom::Unit
            }
            Expr::HashMapGetOrInit { map, key, init } => {
                let (map, key) = (self.atom(map), self.atom(key));
                let vt = match self.b.atom_type(&map) {
                    Type::HashMap(_, v) => *v,
                    other => panic!("get_or_init on {other}"),
                };
                let init = self.block(rule, init);
                self.b.emit(vt, Expr::HashMapGetOrInit { map, key, init })
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let map = self.atom(map);
                let (kt, vt) = match self.b.atom_type(&map) {
                    Type::HashMap(k, v) => (*k, *v),
                    other => panic!("foreach on {other}"),
                };
                let nk = self.bind_fresh(*kvar, kt);
                let nv = self.bind_fresh(*vvar, vt);
                let body = self.block(rule, body);
                self.b.emit_unit(Expr::HashMapForeach {
                    map,
                    kvar: nk,
                    vvar: nv,
                    body,
                });
                Atom::Unit
            }
            Expr::MultiMapAdd { map, key, value } => {
                let (map, key, value) = (self.atom(map), self.atom(key), self.atom(value));
                self.b.multimap_add(map, key, value);
                Atom::Unit
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let (map, key) = (self.atom(map), self.atom(key));
                let vt = match self.b.atom_type(&map) {
                    Type::MultiMap(_, v) => *v,
                    other => panic!("foreach_at on {other}"),
                };
                let nvar = self.bind_fresh(*var, vt);
                let body = self.block(rule, body);
                self.b.emit_unit(Expr::MultiMapForeachAt {
                    map,
                    key,
                    var: nvar,
                    body,
                });
                Atom::Unit
            }
            Expr::PoolNew { ty, cap } => {
                let cap = self.atom(cap);
                self.b.pool_new(ty.clone(), cap)
            }
            Expr::PoolAlloc { pool } => {
                let pool = self.atom(pool);
                self.b.pool_alloc(pool)
            }
            Expr::LoadIndexUnique { table, field } => self.b.load_index_unique(table, *field),
            Expr::LoadIndexStarts { table, field } => self.b.load_index_starts(table, *field),
            Expr::LoadIndexItems { table, field } => self.b.load_index_items(table, *field),
            Expr::Printf { fmt, args } => {
                let args = args.iter().map(|a| self.atom(a)).collect();
                self.b.emit_unit(Expr::Printf {
                    fmt: fmt.clone(),
                    args,
                });
                Atom::Unit
            }
            Expr::LoadParam { idx } => self.b.emit(st.ty.clone(), Expr::LoadParam { idx: *idx }),
        }
    }
}

/// Run one rule over a whole program, producing a program at `new_level`.
pub fn run_rule(p: &Program, rule: &mut dyn Rule, new_level: Level) -> Program {
    let mut b = IrBuilder::new();
    b.structs = p.structs.clone();
    rule.prepare(p, &mut b);
    let mut rw = Rewriter {
        old: p,
        b,
        subst: vec![None; p.sym_types.len()],
    };
    let result = rw.block_inline(rule, &p.body);
    rw.b.finish(result, new_level)
}

/// The identity rule: reconstructs the program unchanged (modulo CSE,
/// folding and symbol renumbering). Useful as a normalization pass and in
/// tests.
pub struct Identity;

impl Rule for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }
    fn apply(&mut self, _: &mut Rewriter<'_>, _: Sym, _: &Type, _: &Expr) -> Option<Atom> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn identity_preserves_structure() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        let x = b.read_var(v);
        let y = b.add(x.clone(), Atom::Int(1));
        b.assign(v, y);
        b.for_range(Atom::Int(0), Atom::Int(10), |bb, i| {
            let cur = bb.read_var(v);
            let nxt = bb.add(cur, i);
            bb.assign(v, nxt);
        });
        let out = b.read_var(v);
        let p = b.finish(out, Level::ScaLite);

        let q = run_rule(&p, &mut Identity, Level::ScaLite);
        assert_eq!(p.body.size(), q.body.size());
        assert_eq!(q.level, Level::ScaLite);
    }

    #[test]
    fn identity_reapplies_cse() {
        // Build *without* CSE, rewrite with the identity rule, and observe
        // the duplicate computation collapse.
        let mut b = IrBuilder::new();
        b.cse_enabled = false;
        let v = b.decl_var(Atom::Int(3));
        let x = b.read_var(v);
        let a1 = b.emit(Type::Int, Expr::Bin(BinOp::Add, x.clone(), Atom::Int(1)));
        let _a2 = b.emit(Type::Int, Expr::Bin(BinOp::Add, x.clone(), Atom::Int(1)));
        let p = b.finish(a1, Level::ScaLite);
        assert_eq!(p.body.stmts.len(), 4);

        let q = run_rule(&p, &mut Identity, Level::ScaLite);
        // DeclVar + ReadVar + one shared Add.
        assert_eq!(q.body.stmts.len(), 3);
    }

    #[test]
    fn rule_can_intercept_and_replace() {
        struct MulToShift;
        impl Rule for MulToShift {
            fn name(&self) -> &'static str {
                "mul-to-add"
            }
            fn apply(&mut self, rw: &mut Rewriter<'_>, _: Sym, _: &Type, e: &Expr) -> Option<Atom> {
                // x * 2  =>  x + x
                if let Expr::Bin(BinOp::Mul, a, Atom::Int(2)) = e {
                    let a = rw.atom(a);
                    return Some(rw.b.add(a.clone(), a));
                }
                None
            }
        }
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(5));
        let x = b.read_var(v);
        let y = b.mul(x, Atom::Int(2));
        let p = b.finish(y, Level::ScaLite);
        let q = run_rule(&p, &mut MulToShift, Level::ScaLite);
        let has_mul = q
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, Expr::Bin(BinOp::Mul, ..)));
        assert!(!has_mul);
        let has_add = q
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, Expr::Bin(BinOp::Add, ..)));
        assert!(has_add);
    }

    #[test]
    fn sizing_fields_survive_rewrites() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(crate::types::StructDef {
            name: "T".into(),
            fields: vec![crate::types::FieldDef {
                name: "x".into(),
                ty: Type::Int,
            }],
        });
        let t = b.load_table("t", sid, crate::expr::Layout::Columnar);
        let len = b.array_len(t);
        let list = b.list_new(Type::Record(sid), Some(64));
        let map = b.emit(
            Type::hash_map(Type::Int, Type::Record(sid)),
            Expr::HashMapNew {
                key: Type::Int,
                value: Type::Record(sid),
                expected: 9,
                dense: Some(crate::expr::DenseKey {
                    max: 42,
                    composite: true,
                }),
                has_minmax: true,
            },
        );
        let mm = b.multimap_new(Type::Int, Type::Record(sid), 5);
        b.for_range(Atom::Int(0), len, |bb, i| {
            let r = bb.struct_new_pooled(sid, vec![i.clone()], 99);
            bb.list_append(list.clone(), r.clone());
            bb.multimap_add(mm.clone(), i.clone(), r.clone());
            bb.hashmap_get_or_init(map.clone(), i, |_| r);
        });
        let p = b.finish(Atom::Unit, Level::MapList);

        let q = run_rule(&p, &mut Identity, Level::MapList);
        let allocs = |p: &Program| {
            let mut v = Vec::new();
            p.body.for_each_stmt(&mut |st| {
                if matches!(
                    st.expr,
                    Expr::LoadTable { .. }
                        | Expr::ListNew { .. }
                        | Expr::HashMapNew { .. }
                        | Expr::MultiMapNew { .. }
                        | Expr::StructNew { .. }
                ) {
                    v.push(st.expr.clone());
                }
            });
            v
        };
        assert_eq!(allocs(&q).len(), 5);
        assert_eq!(allocs(&q), allocs(&p));
    }
}
