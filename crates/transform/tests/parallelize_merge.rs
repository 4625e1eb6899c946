//! The `parallelize-scans` merges against a shared table that is already
//! filled.
//!
//! Both in-process executors run a `ParallelFor` as one worker, and that
//! worker's merge sees the shared state as it was before the loop. A loop
//! that builds its table from scratch therefore always meets an empty
//! shared table, and the merge only ever relinks. In each program below a
//! fixed-trip loop (which the pass leaves serial) fills the shared state
//! first, and an `ArrayLen`-bounded scan then updates it. So the merge
//! has to take its match-and-fold branch (or, for a multimap, splice in
//! front of a non-empty chain). The rows of the interpreter and the jit
//! at two threads must equal the serial program's rows.

use dblab_ir::expr::{Atom, Expr};
use dblab_ir::types::{FieldDef, StructDef, Type};
use dblab_ir::{BinOp, IrBuilder, Level, PrimOp, Program, UnOp};
use dblab_runtime::{Database, Snapshot};

fn field(name: &str, ty: Type) -> FieldDef {
    FieldDef {
        name: name.into(),
        ty,
    }
}

/// Output lines, sorted: a merged chain may list its groups in another
/// order than the serial build.
fn rows(out: String) -> Vec<String> {
    let mut rows: Vec<String> = out.lines().map(str::to_string).collect();
    rows.sort();
    rows
}

fn interp(p: &Program, db: &Snapshot) -> Vec<String> {
    rows(dblab_interp::run(p, db))
}

fn jit(p: &Program, db: &Snapshot) -> Vec<String> {
    let compiled = dblab_codegen::jit::compile(p).expect("jit compile");
    rows(compiled.run_bound(db, &[], None).expect("no deadline").0)
}

/// `p` at two threads has a `ParallelFor`, and the interpreter and the jit
/// give the serial program's rows on it.
fn check(p: Program) {
    let par = dblab_transform::parallelize::apply(&p, 2);
    assert!(
        (par.body.stmts.iter()).any(|st| matches!(st.expr, Expr::ParallelFor { .. })),
        "the scan stays serial"
    );
    let db = Snapshot::from(Database {
        schema: dblab_catalog::Schema::default(),
        tables: vec![],
        dir: std::env::temp_dir(),
    });
    let want = interp(&p, &db);
    assert!(!want.is_empty());
    assert_eq!(jit(&p, &db), want, "jit, serial");
    assert_eq!(interp(&par, &db), want, "interp, two threads");
    assert_eq!(jit(&par, &db), want, "jit, two threads");
}

/// The data-sized scan `for (i <- 0 until n)`, bounded by an `ArrayLen`.
fn scan(b: &mut IrBuilder, n: i64, f: impl FnOnce(&mut IrBuilder, Atom)) {
    let src = b.array_new(Type::Int, Atom::Int(n));
    let len = b.array_len(src);
    b.for_range(Atom::Int(0), len, f);
}

/// A dense 16-slot array of `Agg(cnt, sum)` keyed by `i & 15`. Slots 0–5
/// are filled before the scan, so the merge folds into them.
#[test]
fn parallelize_dense_slots_fold_into_filled_slots() {
    let mut b = IrBuilder::new();
    let agg = b.structs.register(StructDef {
        name: "Agg".into(),
        fields: vec![field("cnt", Type::Long), field("sum", Type::Double)],
    });
    let null = Atom::Null(Box::new(Type::Record(agg)));
    let pool = b.pool_new(Type::Record(agg), Atom::Int(32));
    let slots = b.array_new(Type::Record(agg), Atom::Int(16));
    let upsert = |b: &mut IrBuilder, i: Atom| {
        let k = b.bin(BinOp::BitAnd, i.clone(), Atom::Int(15));
        let r = b.array_get(slots.clone(), k.clone());
        let miss = b.eq(r, null.clone());
        b.if_then(miss, |b| {
            let v = b.pool_alloc(pool.clone());
            b.field_set(v.clone(), agg, 0, Atom::Long(0));
            b.field_set(v.clone(), agg, 1, Atom::double(0.0));
            b.array_set(slots.clone(), k.clone(), v);
        });
        let r = b.array_get(slots.clone(), k);
        let cnt = b.field_get(r.clone(), agg, 0);
        let cnt = b.add(cnt, Atom::Long(1));
        b.field_set(r.clone(), agg, 0, cnt);
        let sum = b.field_get(r.clone(), agg, 1);
        let x = b.un(UnOp::I2D, i);
        let sum = b.add(sum, x);
        b.field_set(r, agg, 1, sum);
    };
    b.for_range(Atom::Int(0), Atom::Int(6), upsert);
    scan(&mut b, 40, upsert);
    b.for_range(Atom::Int(0), Atom::Int(16), |b, k| {
        let r = b.array_get(slots.clone(), k.clone());
        let hit = b.ne(r.clone(), null.clone());
        b.if_then(hit, |b| {
            let cnt = b.field_get(r.clone(), agg, 0);
            let sum = b.field_get(r, agg, 1);
            b.printf("%d|%ld|%.4f\n", vec![k, cnt, sum]);
        });
    });
    check(b.finish(Atom::Unit, Level::CScala));
}

/// A chained table of `Pair(k, key: Key(name, j), n, val: Val(cnt), next)`
/// over four buckets: a composite key with a `String` field, a reduce
/// field on the chain record and one on a value record. Four of the eight
/// groups exist before the scan, so the merge finds and folds them, and
/// the two buckets in use hold four groups each, so it walks chains.
#[test]
fn parallelize_chained_keyed_fold_matches_a_string_key() {
    let mut b = IrBuilder::new();
    let key = b.structs.register(StructDef {
        name: "Key".into(),
        fields: vec![field("name", Type::String), field("j", Type::Int)],
    });
    let val = b.structs.register(StructDef {
        name: "Val".into(),
        fields: vec![field("cnt", Type::Int)],
    });
    let pair = b.structs.register(StructDef {
        name: "Pair".into(),
        fields: vec![
            field("k", Type::Int),
            field("key", Type::Record(key)),
            field("n", Type::Long),
            field("val", Type::Record(val)),
        ],
    });
    (b.structs.get_mut(pair).fields).push(field("next", Type::Record(pair)));
    let null = Atom::Null(Box::new(Type::Record(pair)));
    let keys = b.pool_new(Type::Record(key), Atom::Int(64));
    let vals = b.pool_new(Type::Record(val), Atom::Int(64));
    let pairs = b.pool_new(Type::Record(pair), Atom::Int(64));
    let buckets = b.array_new(Type::Record(pair), Atom::Int(4));
    let upsert = |b: &mut IrBuilder, i: Atom| {
        let k = b.bin(BinOp::BitAnd, i.clone(), Atom::Int(6));
        let parity = b.bin(BinOp::BitAnd, i.clone(), Atom::Int(1));
        let odd = b.eq(parity, Atom::Int(1));
        let name = b.if_val(
            odd,
            |_| Atom::Str("odd".into()),
            |_| Atom::Str("even".into()),
        );
        let kr = b.pool_alloc(keys.clone());
        b.field_set(kr.clone(), key, 0, name.clone());
        let j = b.add(k.clone(), Atom::Int(1));
        b.field_set(kr.clone(), key, 1, j);
        let slot = b.bin(BinOp::BitAnd, k.clone(), Atom::Int(3));
        let found = b.decl_var(null.clone());
        let head = b.array_get(buckets.clone(), slot.clone());
        let cur = b.decl_var(head);
        b.while_loop(
            |b| {
                let c = b.read_var(cur);
                b.ne(c, null.clone())
            },
            |b| {
                let c = b.read_var(cur);
                let ck = b.field_get(c.clone(), pair, 0);
                let same_k = b.eq(ck, k.clone());
                let ckey = b.field_get(c.clone(), pair, 1);
                let cname = b.field_get(ckey.clone(), key, 0);
                let same_name = b.prim(PrimOp::StrEq, vec![cname, name.clone()]);
                let cj = b.field_get(ckey, key, 1);
                let j = b.field_get(kr.clone(), key, 1);
                let same_j = b.eq(cj, j);
                let same = b.and(same_k, same_name);
                let same = b.and(same, same_j);
                b.if_then(same, |b| b.assign(found, c.clone()));
                let next = b.field_get(c, pair, 4);
                b.assign(cur, next);
            },
        );
        let f = b.read_var(found);
        let miss = b.eq(f, null.clone());
        b.if_then(miss, |b| {
            let v = b.pool_alloc(vals.clone());
            b.field_set(v.clone(), val, 0, Atom::Int(0));
            let p = b.pool_alloc(pairs.clone());
            b.field_set(p.clone(), pair, 0, k.clone());
            b.field_set(p.clone(), pair, 1, kr.clone());
            b.field_set(p.clone(), pair, 2, Atom::Long(0));
            b.field_set(p.clone(), pair, 3, v);
            let h = b.array_get(buckets.clone(), slot.clone());
            b.field_set(p.clone(), pair, 4, h);
            b.array_set(buckets.clone(), slot.clone(), p.clone());
            b.assign(found, p);
        });
        let r = b.read_var(found);
        let n = b.field_get(r.clone(), pair, 2);
        let n = b.add(n, Atom::Long(1));
        b.field_set(r.clone(), pair, 2, n);
        let v = b.field_get(r, pair, 3);
        let cnt = b.field_get(v.clone(), val, 0);
        let cnt = b.add(cnt, i);
        b.field_set(v, val, 0, cnt);
    };
    b.for_range(Atom::Int(0), Atom::Int(4), upsert);
    scan(&mut b, 30, upsert);
    b.for_range(Atom::Int(0), Atom::Int(4), |b, slot| {
        let head = b.array_get(buckets.clone(), slot);
        let cur = b.decl_var(head);
        b.while_loop(
            |b| {
                let c = b.read_var(cur);
                b.ne(c, null.clone())
            },
            |b| {
                let c = b.read_var(cur);
                let k = b.field_get(c.clone(), pair, 0);
                let kr = b.field_get(c.clone(), pair, 1);
                let name = b.field_get(kr.clone(), key, 0);
                let j = b.field_get(kr, key, 1);
                let n = b.field_get(c.clone(), pair, 2);
                let v = b.field_get(c.clone(), pair, 3);
                let cnt = b.field_get(v, val, 0);
                b.printf("%d|%s|%d|%ld|%d\n", vec![k, name, j, n, cnt]);
                let next = b.field_get(c, pair, 4);
                b.assign(cur, next);
            },
        );
    });
    check(b.finish(Atom::Unit, Level::CScala));
}

/// A multimap build: every row pushes an `Item(k, v)` onto the chain of
/// bucket `k & 3`, with no probe and no reduction. The chains hold items
/// before the scan, so the merge splices each private chain in front of
/// a non-empty shared one.
#[test]
fn parallelize_multimap_splices_onto_filled_chains() {
    let mut b = IrBuilder::new();
    let item = b.structs.register(StructDef {
        name: "Item".into(),
        fields: vec![field("k", Type::Int), field("v", Type::Int)],
    });
    (b.structs.get_mut(item).fields).push(field("next", Type::Record(item)));
    let null = Atom::Null(Box::new(Type::Record(item)));
    let pool = b.pool_new(Type::Record(item), Atom::Int(64));
    let buckets = b.array_new(Type::Record(item), Atom::Int(4));
    let push = |b: &mut IrBuilder, i: Atom| {
        let k = b.bin(BinOp::BitAnd, i.clone(), Atom::Int(7));
        let slot = b.bin(BinOp::BitAnd, k.clone(), Atom::Int(3));
        let it = b.pool_alloc(pool.clone());
        b.field_set(it.clone(), item, 0, k);
        b.field_set(it.clone(), item, 1, i);
        let h = b.array_get(buckets.clone(), slot.clone());
        b.field_set(it.clone(), item, 2, h);
        b.array_set(buckets.clone(), slot, it);
    };
    b.for_range(Atom::Int(0), Atom::Int(6), push);
    scan(&mut b, 25, push);
    b.for_range(Atom::Int(0), Atom::Int(4), |b, slot| {
        let head = b.array_get(buckets.clone(), slot.clone());
        let cur = b.decl_var(head);
        b.while_loop(
            |b| {
                let c = b.read_var(cur);
                b.ne(c, null.clone())
            },
            |b| {
                let c = b.read_var(cur);
                let k = b.field_get(c.clone(), item, 0);
                let v = b.field_get(c.clone(), item, 1);
                b.printf("%d|%d|%d\n", vec![slot.clone(), k, v]);
                let next = b.field_get(c, item, 2);
                b.assign(cur, next);
            },
        );
    });
    check(b.finish(Atom::Unit, Level::CScala));
}
