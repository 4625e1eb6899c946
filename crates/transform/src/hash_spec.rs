//! Hash-table specialization: the lowering from ScaLite\[Map, List\] to
//! ScaLite\[List\] (§5.2, Appendix B.2).
//!
//! The abstract `HashMap`/`MultiMap` nodes become concrete storage:
//!
//! * **MultiMaps** become a power-of-two array of buckets
//!   (`Array[List[Pair]]`, Figure 4e) sized from the map's expected-case
//!   cardinality, with inline hashing and key re-checks;
//! * **HashMaps** with a dense integer key range become a direct
//!   `Array[AggRec]` (Figure 7d's shape applied to aggregation), optionally
//!   with initialization hoisted out of the hot loop (Appendix D.2) — not
//!   for a composite key, which no record field holds;
//! * other **HashMaps** become bucket arrays with get-or-insert probes.
//!
//! All emitted list operations are ScaLite\[List\] vocabulary; the next
//! lowering ([`crate::list_spec`]) decides their final representation.

use std::collections::HashMap;

use dblab_ir::expr::{Atom, Block, Expr, PrimOp, Sym, UnOp};
use dblab_ir::rewrite::{run_rule, Rewriter, Rule};
use dblab_ir::types::{FieldDef, StructDef, StructId};
use dblab_ir::{IrBuilder, Level, Program, Type};

use crate::config::StackConfig;

/// Per-MultiMap (or bucketised HashMap) state.
struct Buckets {
    arr: Atom,
    mask: i64,
    pair_sid: StructId,
    /// The map's expected entry count, which also sizes its pairs' pool.
    expected: u64,
}

struct DenseMap {
    arr: Atom,
    len: i64,
    rec_sid: StructId,
    hoisted: bool,
}

enum MapRepr {
    Buckets(Buckets),
    Dense(DenseMap),
}

struct HashSpec {
    cfg: StackConfig,
    maps: HashMap<Sym, MapRepr>,
    pair_ctr: usize,
}

/// Apply hash-table specialization; the result is a ScaLite\[List\]
/// program.
pub fn apply(p: &Program, cfg: &StackConfig) -> Program {
    let mut rule = HashSpec {
        cfg: cfg.clone(),
        maps: HashMap::new(),
        pair_ctr: 0,
    };
    run_rule(p, &mut rule, Level::List)
}

impl HashSpec {
    fn fresh_pair(&mut self, b: &mut IrBuilder, key_ty: &Type, val_ty: &Type) -> StructId {
        self.pair_ctr += 1;
        b.structs.register(StructDef {
            name: format!("Pair{}", self.pair_ctr).into(),
            fields: vec![
                FieldDef {
                    name: "key".into(),
                    ty: key_ty.clone(),
                },
                FieldDef {
                    name: "value".into(),
                    ty: val_ty.clone(),
                },
            ],
        })
    }

    /// Emit a `Long` hash of `key`.
    fn hash(&self, b: &mut IrBuilder, key: &Atom) -> Atom {
        match b.atom_type(key) {
            Type::Int | Type::Long | Type::Bool => b.un(UnOp::HashInt, key.clone()),
            Type::Double => b.un(UnOp::HashDouble, key.clone()),
            Type::String => b.prim(PrimOp::HashStr, vec![key.clone()]),
            Type::Record(sid) => {
                // Combine the field hashes: h = h * 31 + hash(field).
                let def = b.structs.get(sid).clone();
                let mut h = Atom::Long(7);
                for i in 0..def.fields.len() {
                    let f = b.field_get(key.clone(), sid, i);
                    let fh = self.hash(b, &f);
                    let m = b.mul(h, Atom::Long(31));
                    h = b.add(m, fh);
                }
                h
            }
            other => panic!("cannot hash key of type {other}"),
        }
    }

    /// Bucket index of `key` for a mask.
    fn bucket_index(&self, b: &mut IrBuilder, key: &Atom, mask: i64) -> Atom {
        let h = self.hash(b, key);
        let masked = b.bin(dblab_ir::BinOp::BitAnd, h, Atom::Long(mask));
        b.un(UnOp::L2I, masked)
    }

    /// Structural key equality.
    fn key_eq(&self, b: &mut IrBuilder, x: &Atom, y: &Atom) -> Atom {
        key_eq_static(b, x, y)
    }

    /// Allocate a bucket array (`Array[List[Pair]]`); `expected`, the
    /// map's expected-case entry count ([`crate::pipeline::expected_rows`]),
    /// drives the power-of-two sizing (≤ 50% load when the estimate
    /// holds). A chained bucket array is correct at any size, so an
    /// under-estimate costs chain length, not correctness. Buckets are
    /// created **lazily** on first insertion, so an empty slot costs one
    /// null word to allocate and to skip in a walk.
    fn make_buckets(
        &mut self,
        b: &mut IrBuilder,
        key_ty: Type,
        val_ty: Type,
        expected: u64,
    ) -> Buckets {
        let n = (expected.max(8) * 2).next_power_of_two().min(1 << 26) as i64;
        let pair_sid = self.fresh_pair(b, &key_ty, &val_ty);
        let arr = b.array_new(Type::list(Type::Record(pair_sid)), Atom::Int(n));
        Buckets {
            arr,
            mask: n - 1,
            pair_sid,
            expected,
        }
    }

    /// Fetch `arr[idx]`, creating the bucket list on first touch.
    fn bucket_lazy(&self, b: &mut IrBuilder, arr: &Atom, idx: &Atom, pair_sid: StructId) -> Atom {
        let lty = Type::list(Type::Record(pair_sid));
        let l0 = b.array_get(arr.clone(), idx.clone());
        let isnull = b.eq(l0, Atom::Null(Box::new(lty.clone())));
        b.scope_push();
        let nl = b.list_new(Type::Record(pair_sid), None);
        b.array_set(arr.clone(), idx.clone(), nl);
        let then_b = b.scope_pop(Atom::Unit);
        b.emit_unit(Expr::If {
            cond: isnull,
            then_b,
            else_b: Block::default(),
        });
        b.array_get(arr.clone(), idx.clone())
    }

    /// Run `f` on `arr[idx]` only when the bucket exists.
    fn bucket_if_present(
        &self,
        b: &mut IrBuilder,
        arr: &Atom,
        idx: &Atom,
        pair_sid: StructId,
        f: impl FnOnce(&mut IrBuilder, Atom),
    ) {
        let lty = Type::list(Type::Record(pair_sid));
        let l = b.array_get(arr.clone(), idx.clone());
        let nonnull = b.ne(l.clone(), Atom::Null(Box::new(lty)));
        b.scope_push();
        f(b, l);
        let then_b = b.scope_pop(Atom::Unit);
        b.emit_unit(Expr::If {
            cond: nonnull,
            then_b,
            else_b: Block::default(),
        });
    }
}

impl Rule for HashSpec {
    fn name(&self) -> &'static str {
        "hash-table-specialization"
    }

    fn apply(&mut self, rw: &mut Rewriter<'_>, sym: Sym, _ty: &Type, e: &Expr) -> Option<Atom> {
        match e {
            // ---- MultiMap ------------------------------------------------
            Expr::MultiMapNew {
                key,
                value,
                expected,
            } => {
                let buckets = self.make_buckets(&mut rw.b, key.clone(), value.clone(), *expected);
                let arr = buckets.arr.clone();
                self.maps.insert(sym, MapRepr::Buckets(buckets));
                Some(arr)
            }
            Expr::MultiMapAdd { map, key, value } => {
                let ms = map.as_sym().expect("multimap atom");
                let MapRepr::Buckets(info) = &self.maps[&ms] else {
                    unreachable!("multimap lowered to dense map")
                };
                let (arr, mask, pair_sid) = (info.arr.clone(), info.mask, info.pair_sid);
                let pool = info.expected;
                let k = rw.atom(key);
                let v = rw.atom(value);
                let idx = self.bucket_index(&mut rw.b, &k, mask);
                let pair = rw.b.struct_new_pooled(pair_sid, vec![k, v], pool);
                let l = self.bucket_lazy(&mut rw.b, &arr, &idx, pair_sid);
                rw.b.list_append(l, pair);
                Some(Atom::Unit)
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let ms = map.as_sym().expect("multimap atom");
                let MapRepr::Buckets(info) = &self.maps[&ms] else {
                    unreachable!()
                };
                let (arr, mask, pair_sid) = (info.arr.clone(), info.mask, info.pair_sid);
                let k = rw.atom(key);
                let idx = self.bucket_index(&mut rw.b, &k, mask);
                let lty = Type::list(Type::Record(pair_sid));
                let l = rw.b.array_get(arr, idx);
                let nonnull = rw.b.ne(l.clone(), Atom::Null(Box::new(lty)));
                rw.b.scope_push();
                {
                    // for (p <- bucket) if (p.key == k) { val v = p.value; body }
                    let pvar = rw.b.bind(Type::Record(pair_sid));
                    rw.b.scope_push();
                    {
                        let pk = rw.b.field_get(Atom::Sym(pvar), pair_sid, 0);
                        let keq = self.key_eq(&mut rw.b, &pk, &k);
                        rw.b.scope_push();
                        let v = rw.b.field_get(Atom::Sym(pvar), pair_sid, 1);
                        rw.map(*var, v);
                        rw.block_inline(self, body);
                        let then_b = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::If {
                            cond: keq,
                            then_b,
                            else_b: Block::default(),
                        });
                    }
                    let fbody = rw.b.scope_pop(Atom::Unit);
                    rw.b.emit_unit(Expr::ListForeach {
                        list: l.clone(),
                        var: pvar,
                        body: fbody,
                    });
                }
                let guarded = rw.b.scope_pop(Atom::Unit);
                rw.b.emit_unit(Expr::If {
                    cond: nonnull,
                    then_b: guarded,
                    else_b: Block::default(),
                });
                Some(Atom::Unit)
            }

            // ---- HashMap -------------------------------------------------
            Expr::HashMapNew {
                key,
                value,
                expected,
                dense,
                has_minmax,
            } => {
                let vrec = match value {
                    Type::Record(sid) => *sid,
                    other => panic!("hash map values must be records, got {other}"),
                };
                if let Some(dense) = dense.filter(|_| *key == Type::Int) {
                    let len = dense.max as i64 + 1;
                    let arr = rw.b.array_new(Type::Record(vrec), Atom::Int(len));
                    // A composite key is no field of the record, so the
                    // pre-fill below would store the slot number where a
                    // group column belongs.
                    let hoisted = self.cfg.init_hoist
                        && !dense.composite
                        && !has_minmax
                        && neutral_init(&rw.b, vrec);
                    if hoisted {
                        // Appendix D.2: pre-initialize every slot (key field
                        // first, neutral accumulators after); the emission
                        // loop later skips rows with __cnt == 0.
                        let def = rw.b.structs.get(vrec).clone();
                        let var = rw.b.bind(Type::Int);
                        rw.b.scope_push();
                        let args: Vec<Atom> = def
                            .fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| {
                                if i == 0 {
                                    Atom::Sym(var)
                                } else {
                                    zero_of(&f.ty)
                                }
                            })
                            .collect();
                        let rec = rw.b.struct_new_pooled(vrec, args, len as u64);
                        rw.b.array_set(arr.clone(), Atom::Sym(var), rec);
                        let body = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::ForRange {
                            lo: Atom::Int(0),
                            hi: Atom::Int(len),
                            var,
                            body,
                        });
                    }
                    self.maps.insert(
                        sym,
                        MapRepr::Dense(DenseMap {
                            arr: arr.clone(),
                            len,
                            rec_sid: vrec,
                            hoisted,
                        }),
                    );
                    Some(arr)
                } else {
                    let buckets =
                        self.make_buckets(&mut rw.b, key.clone(), value.clone(), *expected);
                    let arr = buckets.arr.clone();
                    self.maps.insert(sym, MapRepr::Buckets(buckets));
                    Some(arr)
                }
            }
            Expr::HashMapGetOrInit { map, key, init } => {
                let ms = map.as_sym().expect("hashmap atom");
                match &self.maps[&ms] {
                    MapRepr::Dense(d) => {
                        let (arr, rec_sid, hoisted) = (d.arr.clone(), d.rec_sid, d.hoisted);
                        let k = rw.atom(key);
                        if hoisted {
                            // Direct access — "the corresponding if
                            // condition no longer needs to be evaluated"
                            // (App. D.2).
                            return Some(rw.b.array_get(arr, k));
                        }
                        let r = rw.b.array_get(arr.clone(), k.clone());
                        let isnull = rw.b.eq(r, Atom::Null(Box::new(Type::Record(rec_sid))));
                        rw.b.scope_push();
                        let v = rw.block_inline(self, init);
                        rw.b.array_set(arr.clone(), k.clone(), v);
                        let then_b = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::If {
                            cond: isnull,
                            then_b,
                            else_b: Block::default(),
                        });
                        Some(rw.b.array_get(arr, k))
                    }
                    MapRepr::Buckets(info) => {
                        let (arr, mask, pair_sid) = (info.arr.clone(), info.mask, info.pair_sid);
                        let pool = info.expected;
                        let vty = rw.b.structs.get(pair_sid).fields[1].ty.clone();
                        let k = rw.atom(key);
                        let idx = self.bucket_index(&mut rw.b, &k, mask);
                        let vrec = match &vty {
                            Type::Record(s) => *s,
                            other => panic!("bucket value must be record, got {other}"),
                        };
                        let found = rw.b.decl_var(Atom::Null(Box::new(Type::Record(vrec))));
                        // probe (bucket may not exist yet)
                        self.bucket_if_present(&mut rw.b, &arr, &idx, pair_sid, |b, l| {
                            let pvar = b.bind(Type::Record(pair_sid));
                            b.scope_push();
                            {
                                let pk = b.field_get(Atom::Sym(pvar), pair_sid, 0);
                                let keq = key_eq_static(b, &pk, &k);
                                b.scope_push();
                                let v = b.field_get(Atom::Sym(pvar), pair_sid, 1);
                                b.assign(found, v);
                                let then_b = b.scope_pop(Atom::Unit);
                                b.emit_unit(Expr::If {
                                    cond: keq,
                                    then_b,
                                    else_b: Block::default(),
                                });
                            }
                            let fbody = b.scope_pop(Atom::Unit);
                            b.emit_unit(Expr::ListForeach {
                                list: l,
                                var: pvar,
                                body: fbody,
                            });
                        });
                        // insert on miss
                        let fv = rw.b.read_var(found);
                        let isnull = rw.b.eq(fv, Atom::Null(Box::new(Type::Record(vrec))));
                        rw.b.scope_push();
                        {
                            let v = rw.block_inline(self, init);
                            let pair =
                                rw.b.struct_new_pooled(pair_sid, vec![k.clone(), v.clone()], pool);
                            let l = self.bucket_lazy(&mut rw.b, &arr, &idx, pair_sid);
                            rw.b.list_append(l, pair);
                            rw.b.assign(found, v);
                        }
                        let then_b = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::If {
                            cond: isnull,
                            then_b,
                            else_b: Block::default(),
                        });
                        Some(rw.b.read_var(found))
                    }
                }
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let ms = map.as_sym().expect("hashmap atom");
                match &self.maps[&ms] {
                    MapRepr::Dense(d) => {
                        let (arr, len, rec_sid, hoisted) =
                            (d.arr.clone(), d.len, d.rec_sid, d.hoisted);
                        let var = rw.b.bind(Type::Int);
                        rw.b.scope_push();
                        {
                            let r = rw.b.array_get(arr, Atom::Sym(var));
                            let emit_body = |rule: &mut Self, rw: &mut Rewriter<'_>| {
                                rw.map(*kvar, Atom::Sym(var));
                                rw.map(*vvar, r.clone());
                                rw.block_inline(rule, body);
                            };
                            if hoisted {
                                emit_body(self, rw);
                            } else {
                                let isnull =
                                    rw.b.eq(r.clone(), Atom::Null(Box::new(Type::Record(rec_sid))));
                                let nonnull = rw.b.un(UnOp::Not, isnull);
                                rw.b.scope_push();
                                emit_body(self, rw);
                                let then_b = rw.b.scope_pop(Atom::Unit);
                                rw.b.emit_unit(Expr::If {
                                    cond: nonnull,
                                    then_b,
                                    else_b: Block::default(),
                                });
                            }
                        }
                        let lbody = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::ForRange {
                            lo: Atom::Int(0),
                            hi: Atom::Int(len),
                            var,
                            body: lbody,
                        });
                        Some(Atom::Unit)
                    }
                    MapRepr::Buckets(info) => {
                        let (arr, mask, pair_sid) = (info.arr.clone(), info.mask, info.pair_sid);
                        let var = rw.b.bind(Type::Int);
                        rw.b.scope_push();
                        {
                            let lty = Type::list(Type::Record(pair_sid));
                            let l = rw.b.array_get(arr, Atom::Sym(var));
                            let nonnull = rw.b.ne(l.clone(), Atom::Null(Box::new(lty)));
                            rw.b.scope_push();
                            {
                                let pvar = rw.b.bind(Type::Record(pair_sid));
                                rw.b.scope_push();
                                {
                                    let pk = rw.b.field_get(Atom::Sym(pvar), pair_sid, 0);
                                    let pv = rw.b.field_get(Atom::Sym(pvar), pair_sid, 1);
                                    rw.map(*kvar, pk);
                                    rw.map(*vvar, pv);
                                    rw.block_inline(self, body);
                                }
                                let fbody = rw.b.scope_pop(Atom::Unit);
                                rw.b.emit_unit(Expr::ListForeach {
                                    list: l.clone(),
                                    var: pvar,
                                    body: fbody,
                                });
                            }
                            let guarded = rw.b.scope_pop(Atom::Unit);
                            rw.b.emit_unit(Expr::If {
                                cond: nonnull,
                                then_b: guarded,
                                else_b: Block::default(),
                            });
                        }
                        let lbody = rw.b.scope_pop(Atom::Unit);
                        rw.b.emit_unit(Expr::ForRange {
                            lo: Atom::Int(0),
                            hi: Atom::Int(mask + 1),
                            var,
                            body: lbody,
                        });
                        Some(Atom::Unit)
                    }
                }
            }
            _ => None,
        }
    }
}

/// Structural key equality (free function so closures can call it).
fn key_eq_static(b: &mut IrBuilder, x: &Atom, y: &Atom) -> Atom {
    match b.atom_type(x) {
        Type::String => b.prim(PrimOp::StrEq, vec![x.clone(), y.clone()]),
        Type::Record(sid) => {
            let def = b.structs.get(sid).clone();
            let mut acc = Atom::Bool(true);
            for i in 0..def.fields.len() {
                let fx = b.field_get(x.clone(), sid, i);
                let fy = b.field_get(y.clone(), sid, i);
                let eq = key_eq_static(b, &fx, &fy);
                acc = b.and(acc, eq);
            }
            acc
        }
        _ => b.eq(x.clone(), y.clone()),
    }
}

/// Can every non-key field of the aggregate record start at a neutral zero?
/// (Holds for sum/count/avg accumulators; min/max records are excluded via
/// the map's `has_minmax` before this is consulted.)
fn neutral_init(b: &IrBuilder, sid: StructId) -> bool {
    b.structs
        .get(sid)
        .fields
        .iter()
        .skip(1)
        .all(|f| matches!(f.ty, Type::Int | Type::Long | Type::Double))
}

fn zero_of(t: &Type) -> Atom {
    match t {
        Type::Double => Atom::double(0.0),
        Type::Long => Atom::Long(0),
        Type::Bool => Atom::Bool(false),
        _ => Atom::Int(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has_node(p: &Program, pred: fn(&Expr) -> bool) -> bool {
        fn walk(b: &Block, pred: fn(&Expr) -> bool) -> bool {
            b.stmts
                .iter()
                .any(|st| pred(&st.expr) || st.expr.blocks().iter().any(|blk| walk(blk, pred)))
        }
        walk(&p.body, pred)
    }

    fn build_mm_program() -> Program {
        let mut b = IrBuilder::new();
        let mm = b.multimap_new(Type::Int, Type::Int, 100);
        b.multimap_add(mm.clone(), Atom::Int(1), Atom::Int(10));
        b.multimap_add(mm.clone(), Atom::Int(1), Atom::Int(20));
        let total = b.decl_var(Atom::Int(0));
        b.multimap_foreach_at(mm, Atom::Int(1), |bb, v| {
            let cur = bb.read_var(total);
            let n = bb.add(cur, v);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        b.finish(Atom::Unit, Level::MapList)
    }

    #[test]
    fn multimap_becomes_bucket_array() {
        let p = build_mm_program();
        let q = apply(&p, &StackConfig::level4());
        assert!(!has_node(&q, |e| matches!(e, Expr::MultiMapNew { .. })));
        assert!(!has_node(&q, |e| matches!(e, Expr::MultiMapAdd { .. })));
        assert!(has_node(&q, |e| matches!(e, Expr::ArrayNew { .. })));
        assert!(has_node(&q, |e| matches!(e, Expr::ListAppend { .. })));
        // 100 expected entries: 256 buckets, and a pool of 100 pairs.
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::ArrayNew {
                len: Atom::Int(256),
                ..
            }
        )));
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::StructNew { pool: 100, .. }
        )));
        // Result is valid ScaLite[List].
        let violations = dblab_ir::level::validate(&q);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(q.level, Level::List);
    }

    #[test]
    fn dense_hashmap_becomes_direct_array() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "Agg".into(),
            fields: vec![
                FieldDef {
                    name: "k".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "__cnt".into(),
                    ty: Type::Long,
                },
            ],
        });
        let hm = b.emit(
            Type::hash_map(Type::Int, Type::Record(sid)),
            Expr::HashMapNew {
                key: Type::Int,
                value: Type::Record(sid),
                expected: 50,
                dense: Some(dblab_ir::expr::DenseKey {
                    max: 49,
                    composite: false,
                }),
                has_minmax: false,
            },
        );
        let rec = b.hashmap_get_or_init(hm.clone(), Atom::Int(7), |bb| {
            bb.struct_new(sid, vec![Atom::Int(7), Atom::Long(0)])
        });
        let c = b.field_get(rec.clone(), sid, 1);
        let c1 = b.add(c, Atom::Long(1));
        b.field_set(rec, sid, 1, c1);
        b.hashmap_foreach(hm, |bb, _k, r| {
            let c = bb.field_get(r, sid, 1);
            bb.printf("%ld\n", vec![c]);
        });
        let p = b.finish(Atom::Unit, Level::MapList);

        let q = apply(&p, &StackConfig::level4());
        assert!(!has_node(&q, |e| matches!(e, Expr::HashMapNew { .. })));
        // init hoisting pre-fills the array: a ForRange containing a
        // StructNew appears before the probe, one record per slot.
        assert!(has_node(&q, |e| matches!(e, Expr::ForRange { .. })));
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::ArrayNew {
                len: Atom::Int(50),
                ..
            }
        )));
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::StructNew { pool: 50, .. }
        )));
        assert!(dblab_ir::level::validate(&q).is_empty());
    }

    #[test]
    fn string_keys_use_bucket_arrays_with_streq() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "Agg".into(),
            fields: vec![FieldDef {
                name: "__cnt".into(),
                ty: Type::Long,
            }],
        });
        let hm = b.hashmap_new(Type::String, Type::Record(sid), 8);
        let _ = b.hashmap_get_or_init(hm, Atom::Str("x".into()), |bb| {
            bb.struct_new(sid, vec![Atom::Long(0)])
        });
        let p = b.finish(Atom::Unit, Level::MapList);
        let q = apply(&p, &StackConfig::level4());
        assert!(has_node(&q, |e| matches!(
            e,
            Expr::Prim(PrimOp::HashStr, _)
        )));
        assert!(has_node(&q, |e| matches!(e, Expr::Prim(PrimOp::StrEq, _))));
    }
}
