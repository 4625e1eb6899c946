//! Pipelining: the lowering from QPlan into ScaLite\[Map, List\] (§5.1).
//!
//! Implemented as a push engine: every operator is given a *consumer*
//! callback and emits code that feeds it one row at a time — the paper's
//! observation that "short-cut fusion has the same effect as the
//! push-engines proposed in [Neumann 2011]" made concrete. Rows between
//! operators are just environments of named atoms, so selections and
//! projections melt into the surrounding loops (operator inlining);
//! *pipeline breakers* (hash-join builds, aggregation, sorting) materialize
//! records explicitly through the ScaLite\[Map, List\] collection
//! vocabulary.
//!
//! The lowering also performs the paper's "informed materialization
//! decisions" (§4.3): when enabled, a hash join one of whose inputs is a
//! keyed base table probes a load-time index instead of building a table
//! ([`crate::index_inference::join_index`] picks the input), and every
//! allocation node carries the cardinality the pool and specialization
//! passes below size it by: records and sort lists a worst-case estimate
//! (App. D.1), hashed maps an expected-case one ([`expected_rows`]),
//! since a chained bucket array is correct at any size.

use std::collections::HashMap;
use std::sync::Arc;

use dblab_catalog::{ColType, Schema};
use dblab_frontend::expr::ScalarExpr;
use dblab_frontend::qplan::{AggFunc, JoinKind, QPlan, QueryProgram, SortDir};
use dblab_ir::expr::{DenseKey, PrimOp};
use dblab_ir::types::{FieldDef, StructDef, StructId};
use dblab_ir::{Atom, Block, Expr, IrBuilder, Level, Program, Type, UnOp};

use crate::config::StackConfig;
use crate::index_inference::{join_index, IndexableBuild, Side};
use crate::scalar::{ir_type, lower_expr, ColRef, RowEnv};

/// Largest dense-key range for aggregation arrays.
const MAX_DENSE_KEY: u64 = 1 << 26;

/// Most `Char` group columns packed into one dense key: 256² = 65,536
/// slots; a third column would need 16 M.
const MAX_CHAR_KEY_COLS: usize = 2;

/// Loaded index atoms per (table, key column, unique): a unique
/// row-position array, or CSR starts+items.
type IndexLoads = HashMap<(Arc<str>, usize, bool), (Atom, Option<Atom>)>;

/// The lowering context.
pub struct Lowering<'a> {
    pub b: IrBuilder,
    pub schema: &'a Schema,
    pub cfg: &'a StackConfig,
    loads: HashMap<Arc<str>, (Atom, StructId)>,
    index_loads: IndexLoads,
    pub params: HashMap<Arc<str>, Atom>,
    rec_ctr: usize,
}

impl<'a> Lowering<'a> {
    /// Fresh lowering context (shared with the QMonad fusion lowering).
    pub fn new(schema: &'a Schema, cfg: &'a StackConfig) -> Lowering<'a> {
        Lowering {
            b: IrBuilder::new(),
            schema,
            cfg,
            loads: HashMap::new(),
            index_loads: HashMap::new(),
            params: HashMap::new(),
            rec_ctr: 0,
        }
    }
}

/// Lower a whole query program to a ScaLite\[Map, List\] IR program.
pub fn lower_program(prog: &QueryProgram, schema: &Schema, cfg: &StackConfig) -> Program {
    let mut lw = Lowering::new(schema, cfg);
    // Data-loading phase: base tables and inferred indexes (pre-computation
    // happens before the query timer starts, §7 / Figure 7c).
    for t in prog.tables() {
        lw.load(&t);
    }
    for (_, plan) in &prog.lets {
        lw.preload_indexes(plan);
    }
    lw.preload_indexes(&prog.main);

    // Declared-parameter prologue: each declaration becomes a positional
    // `LoadParam` slot, typed by its default literal. Binding happens here,
    // before the query timer — argv parsing is setup, not query work — and
    // before the lets, which may reference parameters. The parameter
    // *value* never enters the IR, so every binding of one template hashes,
    // caches and compiles identically.
    for (idx, decl) in prog.params.iter().enumerate() {
        assert!(
            decl.default.ty() != dblab_catalog::ColType::String,
            "string-typed query parameters are not supported \
             (parameter `{}`): string predicates specialize against the \
             per-column dictionary at compile time, which a per-execution \
             binding would bypass",
            decl.name
        );
        let atom =
            lw.b.emit(ir_type(decl.default.ty()), Expr::LoadParam { idx });
        lw.params.insert(decl.name.clone(), atom);
    }

    lw.b.prim(PrimOp::TimerStart, vec![]);

    // Scalar-subquery prologue.
    for (name, plan) in &prog.lets {
        let var = lw.b.decl_var(Atom::double(0.0));
        lw.produce(plan, &mut |lw, env| {
            let v = env.cols[0].atom.clone();
            let v = lw.coerce_double(v);
            lw.b.assign(var, v);
        });
        let read = lw.b.read_var(var);
        lw.params.insert(name.clone(), read);
    }

    // Main plan: print each result row.
    let out_cols = prog.main.output_cols(schema);
    let fmt = row_format(&out_cols);
    lw.produce(&prog.main, &mut |lw, env| {
        let args = out_cols
            .iter()
            .map(|(n, _)| env.lookup(n).atom.clone())
            .collect();
        lw.b.emit_unit(Expr::Printf {
            fmt: fmt.as_str().into(),
            args,
        });
    });

    lw.b.prim(PrimOp::TimerStop, vec![]);
    lw.b.prim(PrimOp::PrintRusage, vec![]);
    lw.b.finish(Atom::Unit, Level::MapList)
}

/// The printf row format for a result schema (`%c` for chars, `%.4f` for
/// doubles — must agree with `ResultSet::to_text`).
pub fn row_format(cols: &[(Arc<str>, ColType)]) -> String {
    let mut fmt = String::new();
    for (i, (_, t)) in cols.iter().enumerate() {
        if i > 0 {
            fmt.push('|');
        }
        fmt.push_str(match t {
            ColType::Int | ColType::Date | ColType::Bool => "%d",
            ColType::Long => "%ld",
            ColType::Double => "%.4f",
            ColType::String => "%s",
            ColType::Char => "%c",
        });
    }
    fmt.push('\n');
    fmt
}

/// Share of rows a predicate keeps when the catalog says nothing better.
const SEL_DEFAULT: f64 = 1.0 / 3.0;

/// Share of rows a string match (`LIKE`, contains, prefix, suffix) keeps.
const SEL_STRING_MATCH: f64 = 1.0 / 20.0;

/// Expected-case cardinality of `plan`, from the catalog's row counts,
/// distinct counts and primary keys; it sizes every hashed map. An
/// under-estimate costs only chain length, so unlike the worst case
/// that sizes records it discounts selections and joins:
///
/// * a selection keeps 1/`d` for `col = constant`, 1/20 for a string
///   match and 1/3 for any other predicate; `And` multiplies, `Or` adds
///   (at most 1);
/// * an inner join keeps `e(L)·e(R) / max(d_L, d_R)`, where a side's `d`
///   is the product of its key columns' distinct counts (a single-column
///   primary key counts its rows), capped at the row count of the key's
///   table and at the side's own estimate; without provenance for a key
///   it keeps `max(e(L), e(R))`;
/// * semi and anti joins keep the left input, a left outer join the
///   larger input, and an aggregate at most the product of its group
///   columns' distinct counts.
pub fn expected_rows(plan: &QPlan, schema: &Schema) -> u64 {
    (expected(plan, schema).ceil() as u64).max(1)
}

fn expected(plan: &QPlan, schema: &Schema) -> f64 {
    match plan {
        QPlan::Scan { table, .. } => schema.table(table).stats.row_count.max(1) as f64,
        QPlan::Select { child, pred } => expected(child, schema) * selectivity(pred, child, schema),
        QPlan::Project { child, .. } | QPlan::Sort { child, .. } => expected(child, schema),
        QPlan::Limit { child, n } => expected(child, schema).min(*n as f64),
        QPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            ..
        } => {
            let (l, r) = (expected(left, schema), expected(right, schema));
            match kind {
                JoinKind::Inner => {
                    let dl = key_distinct(left, left_keys, l, schema);
                    let dr = key_distinct(right, right_keys, r, schema);
                    match dl.zip(dr) {
                        Some((dl, dr)) => l * r / dl.max(dr),
                        None => l.max(r),
                    }
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => l,
                JoinKind::LeftOuter => l.max(r),
            }
        }
        QPlan::Agg {
            child, group_by, ..
        } => {
            let c = expected(child, schema);
            (group_by.iter())
                .try_fold(1.0, |groups, (_, e)| {
                    Some(groups * col_distinct(child, e, schema)?.0)
                })
                .map_or(c, |groups| c.min(groups))
        }
    }
}

/// `(distinct values, rows of its table)` of a column expression of
/// `plan`'s output: a single-column primary key counts its rows.
fn col_distinct(plan: &QPlan, e: &ScalarExpr, schema: &Schema) -> Option<(f64, f64)> {
    let ScalarExpr::Col(name) = e else {
        return None;
    };
    let (t, c) = static_prov(plan, name, schema)?;
    let def = schema.table(&t);
    let rows = def.stats.row_count.max(1);
    let d = match def.is_primary_key(c) {
        true => rows,
        false => *def.stats.distinct.get(c)?,
    };
    (d > 0).then_some((d as f64, rows as f64))
}

/// Distinct join-key values on one side of size `e`: the key columns'
/// distinct product, capped at the row count of their (largest) table and
/// at `e` — a composite key's product can exceed both (`partsupp`'s is
/// 2,000 × 100 over 8,000 rows at SF 0.01).
fn key_distinct(side: &QPlan, keys: &[ScalarExpr], e: f64, schema: &Schema) -> Option<f64> {
    let (mut d, mut rows) = (1.0f64, 1.0f64);
    for k in keys {
        let (dk, rk) = col_distinct(side, k, schema)?;
        d *= dk;
        rows = rows.max(rk);
    }
    Some(d.min(rows).min(e).max(1.0))
}

/// Share of `child`'s rows that `pred` keeps (see [`expected_rows`]).
fn selectivity(pred: &ScalarExpr, child: &QPlan, schema: &Schema) -> f64 {
    use dblab_frontend::expr::BinOp;
    let sel = |p: &ScalarExpr| selectivity(p, child, schema);
    match pred {
        ScalarExpr::Bin(BinOp::And, a, b) => sel(a) * sel(b),
        ScalarExpr::Bin(BinOp::Or, a, b) => (sel(a) + sel(b)).min(1.0),
        ScalarExpr::Bin(BinOp::Eq, a, b) => match (&**a, &**b) {
            (c @ ScalarExpr::Col(_), ScalarExpr::Lit(_) | ScalarExpr::Param(_))
            | (ScalarExpr::Lit(_) | ScalarExpr::Param(_), c @ ScalarExpr::Col(_)) => {
                col_distinct(child, c, schema).map_or(SEL_DEFAULT, |(d, _)| 1.0 / d)
            }
            _ => SEL_DEFAULT,
        },
        ScalarExpr::Like(..)
        | ScalarExpr::Contains(..)
        | ScalarExpr::StartsWith(..)
        | ScalarExpr::EndsWith(..) => SEL_STRING_MATCH,
        _ => SEL_DEFAULT,
    }
}

/// Trace a column of `plan`'s output back to a verbatim base-table column.
pub fn static_prov(plan: &QPlan, name: &str, schema: &Schema) -> Option<(Arc<str>, usize)> {
    match plan {
        QPlan::Scan { table, alias } => {
            let base: &str = match alias {
                Some(a) => name.strip_prefix(&format!("{a}_"))?,
                None => name,
            };
            let def = schema.table(table);
            def.columns
                .iter()
                .position(|c| &*c.name == base)
                .map(|i| (table.clone(), i))
        }
        QPlan::Select { child, .. } | QPlan::Sort { child, .. } | QPlan::Limit { child, .. } => {
            static_prov(child, name, schema)
        }
        QPlan::Project { child, cols } => {
            let (_, e) = cols.iter().find(|(n, _)| &**n == name)?;
            match e {
                ScalarExpr::Col(n2) => static_prov(child, n2, schema),
                _ => None,
            }
        }
        QPlan::HashJoin {
            left, right, kind, ..
        } => static_prov(left, name, schema).or_else(|| match kind {
            JoinKind::Inner | JoinKind::LeftOuter => static_prov(right, name, schema),
            _ => None,
        }),
        QPlan::Agg {
            child, group_by, ..
        } => {
            let (_, e) = group_by.iter().find(|(n, _)| &**n == name)?;
            match e {
                ScalarExpr::Col(n2) => static_prov(child, n2, schema),
                _ => None,
            }
        }
    }
}

impl<'a> Lowering<'a> {
    // ------------------------------------------------------------------
    // Scoped control-flow helpers (IrBuilder's closure API can't lend the
    // whole lowering context, so these wrap the raw scope primitives).
    // ------------------------------------------------------------------

    pub(crate) fn if_then(&mut self, cond: Atom, f: impl FnOnce(&mut Self)) {
        self.b.scope_push();
        f(self);
        let then_b = self.b.scope_pop(Atom::Unit);
        self.b.emit_unit(Expr::If {
            cond,
            then_b,
            else_b: Block::default(),
        });
    }

    fn for_range(&mut self, lo: Atom, hi: Atom, f: impl FnOnce(&mut Self, Atom)) {
        let var = self.b.bind(Type::Int);
        self.b.scope_push();
        f(self, Atom::Sym(var));
        let body = self.b.scope_pop(Atom::Unit);
        self.b.emit_unit(Expr::ForRange { lo, hi, var, body });
    }

    fn list_foreach(&mut self, list: Atom, f: impl FnOnce(&mut Self, Atom)) {
        let elem = self
            .b
            .atom_type(&list)
            .elem()
            .cloned()
            .expect("foreach on non-list");
        let var = self.b.bind(elem);
        self.b.scope_push();
        f(self, Atom::Sym(var));
        let body = self.b.scope_pop(Atom::Unit);
        self.b.emit_unit(Expr::ListForeach { list, var, body });
    }

    fn hashmap_foreach(&mut self, map: Atom, f: impl FnOnce(&mut Self, Atom, Atom)) {
        let (kt, vt) = match self.b.atom_type(&map) {
            Type::HashMap(k, v) => (*k, *v),
            other => panic!("hashmap_foreach on {other}"),
        };
        let kvar = self.b.bind(kt);
        let vvar = self.b.bind(vt);
        self.b.scope_push();
        f(self, Atom::Sym(kvar), Atom::Sym(vvar));
        let body = self.b.scope_pop(Atom::Unit);
        self.b.emit_unit(Expr::HashMapForeach {
            map,
            kvar,
            vvar,
            body,
        });
    }

    fn multimap_foreach_at(&mut self, map: Atom, key: Atom, f: impl FnOnce(&mut Self, Atom)) {
        let vt = match self.b.atom_type(&map) {
            Type::MultiMap(_, v) => *v,
            other => panic!("multimap_foreach_at on {other}"),
        };
        let var = self.b.bind(vt);
        self.b.scope_push();
        f(self, Atom::Sym(var));
        let body = self.b.scope_pop(Atom::Unit);
        self.b.emit_unit(Expr::MultiMapForeachAt {
            map,
            key,
            var,
            body,
        });
    }

    fn hashmap_get_or_init(
        &mut self,
        map: Atom,
        key: Atom,
        init: impl FnOnce(&mut Self) -> Atom,
    ) -> Atom {
        let vt = match self.b.atom_type(&map) {
            Type::HashMap(_, v) => *v,
            other => panic!("get_or_init on {other}"),
        };
        self.b.scope_push();
        let res = init(self);
        let blk = self.b.scope_pop(res);
        self.b.emit(
            vt,
            Expr::HashMapGetOrInit {
                map,
                key,
                init: blk,
            },
        )
    }

    // ------------------------------------------------------------------
    // Loading, structs, environments
    // ------------------------------------------------------------------

    pub(crate) fn load(&mut self, table: &str) -> (Atom, StructId) {
        if let Some(found) = self.loads.get(table) {
            return found.clone();
        }
        let def = self.schema.table(table);
        let sid = self.b.structs.register(StructDef {
            name: def.name.clone(),
            fields: def
                .columns
                .iter()
                .map(|c| FieldDef {
                    name: c.name.clone(),
                    ty: ir_type(c.ty),
                })
                .collect(),
        });
        let arr = self
            .b
            .load_table(table, sid, crate::layout::table_layout(self.cfg));
        self.loads.insert(def.name.clone(), (arr.clone(), sid));
        (arr, sid)
    }

    /// Walk the plan and emit load-time index construction for every join
    /// whose build side qualifies (Figure 7's pre-computation phase).
    fn preload_indexes(&mut self, plan: &QPlan) {
        match plan {
            QPlan::Scan { .. } => {}
            QPlan::Select { child, .. }
            | QPlan::Project { child, .. }
            | QPlan::Agg { child, .. }
            | QPlan::Sort { child, .. }
            | QPlan::Limit { child, .. } => self.preload_indexes(child),
            QPlan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                self.preload_indexes(left);
                self.preload_indexes(right);
                if !self.cfg.index_inference {
                    return;
                }
                if let Some((ix, _)) =
                    join_index(*kind, left, right, left_keys, right_keys, self.schema)
                {
                    self.ensure_index(&ix);
                }
            }
        }
    }

    fn ensure_index(&mut self, ix: &IndexableBuild<'_>) {
        let key = (ix.table.clone(), ix.key_col, ix.unique);
        if self.index_loads.contains_key(&key) {
            return;
        }
        self.load(&ix.table);
        let atoms = if ix.unique {
            let a = self.b.load_index_unique(&ix.table, ix.key_col);
            (a, None)
        } else {
            let starts = self.b.load_index_starts(&ix.table, ix.key_col);
            let items = self.b.load_index_items(&ix.table, ix.key_col);
            (starts, Some(items))
        };
        self.index_loads.insert(key, atoms);
    }

    fn fresh_struct(&mut self, prefix: &str, fields: Vec<FieldDef>) -> StructId {
        self.rec_ctr += 1;
        self.b.structs.register(StructDef {
            name: format!("{prefix}{}", self.rec_ctr).into(),
            fields,
        })
    }

    /// The key type of a map keyed by values of `types`: the one type, or
    /// with `composite` a `Key` record of fields `k0, k1, …`.
    fn map_key(&mut self, types: Vec<Type>, composite: bool) -> (Type, Option<StructId>) {
        if !composite {
            return (types[0].clone(), None);
        }
        let fields = (types.into_iter().enumerate())
            .map(|(i, ty)| FieldDef {
                name: format!("k{i}").into(),
                ty,
            })
            .collect();
        let sid = self.fresh_struct("Key", fields);
        (Type::Record(sid), Some(sid))
    }

    /// Rebuild a row environment by reading every field of a record.
    fn env_from_record(&mut self, rec: &Atom, sid: StructId) -> RowEnv {
        let def = self.b.structs.get(sid).clone();
        let cols = def
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| ColRef {
                name: f.name.clone(),
                atom: self.b.field_get(rec.clone(), sid, i),
            })
            .collect();
        RowEnv::new(cols)
    }

    /// Environment for one base-table record (alias-aware).
    fn scan_env(
        &mut self,
        table: &str,
        alias: &Option<Arc<str>>,
        rec: &Atom,
        sid: StructId,
    ) -> RowEnv {
        let def = self.schema.table(table);
        let cols = def
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| ColRef {
                name: match alias {
                    Some(a) => format!("{a}_{}", c.name).into(),
                    None => c.name.clone(),
                },
                atom: self.b.field_get(rec.clone(), sid, i),
            })
            .collect();
        RowEnv::new(cols)
    }

    fn coerce_double(&mut self, a: Atom) -> Atom {
        match self.b.atom_type(&a) {
            Type::Int => self.b.un(UnOp::I2D, a),
            Type::Long => self.b.un(UnOp::L2D, a),
            _ => a,
        }
    }

    /// Worst-case cardinality estimate (App. D.1): sizes the pools of
    /// records and sort lists.
    fn estimate(&self, plan: &QPlan) -> u64 {
        match plan {
            QPlan::Scan { table, .. } => self.schema.table(table).stats.row_count.max(1),
            QPlan::Select { child, .. }
            | QPlan::Project { child, .. }
            | QPlan::Sort { child, .. } => self.estimate(child),
            QPlan::Limit { child, n } => (*n).min(self.estimate(child)),
            QPlan::HashJoin {
                left, right, kind, ..
            } => match kind {
                JoinKind::Inner => self.estimate(left).max(self.estimate(right)),
                JoinKind::LeftSemi | JoinKind::LeftAnti => self.estimate(left),
                JoinKind::LeftOuter => self.estimate(left).max(self.estimate(right)),
            },
            QPlan::Agg {
                child, group_by, ..
            } => {
                // Group count: the product of the group columns' distinct
                // counts when provenance and statistics allow, else the
                // child cardinality (worst case, App. D.1).
                let c = self.estimate(child);
                let mut product: u64 = 1;
                for (_, e) in group_by {
                    match col_distinct(child, e, self.schema) {
                        Some((d, _)) => product = product.saturating_mul(d as u64),
                        None => return c,
                    }
                }
                c.min(product.max(1))
            }
        }
    }

    // ------------------------------------------------------------------
    // The push engine
    // ------------------------------------------------------------------

    pub fn produce(&mut self, plan: &QPlan, consumer: &mut dyn FnMut(&mut Self, &RowEnv)) {
        match plan {
            QPlan::Scan { table, alias } => {
                let (arr, sid) = self.load(table);
                let len = self.b.array_len(arr.clone());
                self.for_range(Atom::Int(0), len, |lw, i| {
                    let rec = lw.b.array_get(arr.clone(), i);
                    let env = lw.scan_env(table, alias, &rec, sid);
                    consumer(lw, &env);
                });
            }
            QPlan::Select { child, pred } => {
                self.produce(child, &mut |lw, env| {
                    let p = lower_expr(&mut lw.b, env, &lw.params, pred);
                    lw.if_then(p, |lw| consumer(lw, env));
                });
            }
            QPlan::Project { child, cols } => {
                self.produce(child, &mut |lw, env| {
                    let new_cols = cols
                        .iter()
                        .map(|(n, e)| ColRef {
                            name: n.clone(),
                            atom: lower_expr(&mut lw.b, env, &lw.params, e),
                        })
                        .collect();
                    let out = RowEnv::new(new_cols);
                    consumer(lw, &out);
                });
            }
            QPlan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => self.join(
                left, right, *kind, left_keys, right_keys, residual, consumer,
            ),
            QPlan::Agg {
                child,
                group_by,
                aggs,
            } => self.aggregate(plan, child, group_by, aggs, consumer),
            QPlan::Sort { child, keys } => self.sort(child, keys, consumer),
            QPlan::Limit { child, n } => {
                let cnt = self.b.decl_var(Atom::Int(0));
                self.produce(child, &mut |lw, env| {
                    let c = lw.b.read_var(cnt);
                    let cond = lw.b.lt(c, Atom::Int(*n as i64));
                    lw.if_then(cond, |lw| {
                        let c2 = lw.b.read_var(cnt);
                        let c3 = lw.b.add(c2, Atom::Int(1));
                        lw.b.assign(cnt, c3);
                        consumer(lw, env);
                    });
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Joins
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        left: &QPlan,
        right: &QPlan,
        kind: JoinKind,
        left_keys: &[ScalarExpr],
        right_keys: &[ScalarExpr],
        residual: &Option<ScalarExpr>,
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        // Informed materialization decision (§4.3): use a load-time index
        // instead of a query-time hash table when one input qualifies
        // (`join_index` says which). The other input is the probe stream.
        if self.cfg.index_inference {
            if let Some((ix, side)) =
                join_index(kind, left, right, left_keys, right_keys, self.schema)
            {
                let key = (ix.table.clone(), ix.key_col, ix.unique);
                if self.index_loads.contains_key(&key) {
                    let (probe, probe_keys) = match side {
                        Side::Left => (right, right_keys),
                        Side::Right => (left, left_keys),
                    };
                    return self
                        .indexed_join(&ix, side, probe, kind, probe_keys, residual, consumer);
                }
            }
        }

        // Inner joins build the left input (paper Figure 4d); the
        // left-preserving variants build the right input and probe with
        // left rows.
        let (build, probe, build_keys, probe_keys) = match kind {
            JoinKind::Inner => (left, right, left_keys, right_keys),
            _ => (right, left, right_keys, left_keys),
        };

        let build_cols = build.output_cols(self.schema);
        let key_types: Vec<Type> = build_keys
            .iter()
            .map(|k| ir_type(k.ty(&build_cols)))
            .collect();
        let composite = key_types.len() > 1;
        let (key_ty, key_sid) = self.map_key(key_types, composite);

        // Register the build-row record type up front.
        let rec_fields: Vec<FieldDef> = build_cols
            .iter()
            .map(|(n, t)| FieldDef {
                name: n.clone(),
                ty: ir_type(*t),
            })
            .collect();
        let rec_sid = self.fresh_struct("Rec", rec_fields);
        let hint = self.estimate(build);

        let expected = expected_rows(build, self.schema);
        let mm = self.b.multimap_new(key_ty, Type::Record(rec_sid), expected);

        // Build phase.
        self.produce(build, &mut |lw, env| {
            let k = lw.join_key(env, build_keys, key_sid);
            let args = env.cols.iter().map(|c| c.atom.clone()).collect();
            let rec = lw.b.struct_new_pooled(rec_sid, args, hint);
            lw.b.multimap_add(mm.clone(), k, rec);
        });

        // Probe phase.
        self.produce(probe, &mut |lw, penv| {
            let pk = lw.join_key(penv, probe_keys, key_sid);
            match kind {
                JoinKind::Inner => {
                    lw.multimap_foreach_at(mm.clone(), pk, |lw, brec| {
                        let benv = lw.env_from_record(&brec, rec_sid);
                        let combined = benv.concat(penv);
                        lw.with_residual(residual, &combined, consumer);
                    });
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    let found = lw.b.decl_var(Atom::Bool(false));
                    lw.multimap_foreach_at(mm.clone(), pk, |lw, brec| match residual {
                        None => lw.b.assign(found, Atom::Bool(true)),
                        Some(pred) => {
                            let benv = lw.env_from_record(&brec, rec_sid);
                            let combined = penv.concat(&benv);
                            let p = lower_expr(&mut lw.b, &combined, &lw.params, pred);
                            lw.if_then(p, |lw| lw.b.assign(found, Atom::Bool(true)));
                        }
                    });
                    let f = lw.b.read_var(found);
                    let cond = if kind == JoinKind::LeftSemi {
                        f
                    } else {
                        lw.b.un(UnOp::Not, f)
                    };
                    lw.if_then(cond, |lw| consumer(lw, penv));
                }
                JoinKind::LeftOuter => {
                    let found = lw.b.decl_var(Atom::Bool(false));
                    lw.multimap_foreach_at(mm.clone(), pk, |lw, brec| {
                        let benv = lw.env_from_record(&brec, rec_sid);
                        let mut combined = penv.concat(&benv);
                        combined.cols.push(ColRef {
                            name: QPlan::MATCHED.into(),
                            atom: Atom::Bool(true),
                        });
                        match residual {
                            None => {
                                lw.b.assign(found, Atom::Bool(true));
                                consumer(lw, &combined);
                            }
                            Some(pred) => {
                                let p = lower_expr(&mut lw.b, &combined, &lw.params, pred);
                                lw.if_then(p, |lw| {
                                    lw.b.assign(found, Atom::Bool(true));
                                    consumer(lw, &combined);
                                });
                            }
                        }
                    });
                    let f = lw.b.read_var(found);
                    let not_found = lw.b.un(UnOp::Not, f);
                    let build_cols = build.output_cols(lw.schema);
                    lw.if_then(not_found, |lw| {
                        let mut combined = penv.clone();
                        for (n, t) in &build_cols {
                            combined.cols.push(ColRef {
                                name: n.clone(),
                                atom: default_atom(*t),
                            });
                        }
                        combined.cols.push(ColRef {
                            name: QPlan::MATCHED.into(),
                            atom: Atom::Bool(false),
                        });
                        consumer(lw, &combined);
                    });
                }
            }
        });
    }

    /// Figure 7c/7d: probe a load-time index instead of a hash table. The
    /// index stands for the `side` input; a match row is still the left
    /// input's columns followed by the right's.
    #[allow(clippy::too_many_arguments)]
    fn indexed_join(
        &mut self,
        ix: &IndexableBuild<'_>,
        side: Side,
        probe: &QPlan,
        kind: JoinKind,
        probe_keys: &[ScalarExpr],
        residual: &Option<ScalarExpr>,
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        let (tbl, sid) = self.loads[&ix.table].clone();
        let index = self.index_loads[&(ix.table.clone(), ix.key_col, ix.unique)].clone();
        let table = ix.table.clone();
        let alias = ix.alias.clone();
        let filters: Vec<ScalarExpr> = ix.filters.iter().map(|f| (*f).clone()).collect();

        self.produce(probe, &mut |lw, penv| {
            let pk = lower_expr(&mut lw.b, penv, &lw.params, &probe_keys[0]);
            // Per-match body shared by both index shapes.
            let emit_match =
                |lw: &mut Self, row_idx: Atom, consumer: &mut dyn FnMut(&mut Self, &RowEnv)| {
                    let rec = lw.b.array_get(tbl.clone(), row_idx);
                    let benv = lw.scan_env(&table, &alias, &rec, sid);
                    // Re-apply the build-side filters (Figure 7c keeps the
                    // `if(r.name == "R1")` inside the probe loop).
                    let mut cond = Atom::Bool(true);
                    for f in &filters {
                        let p = lower_expr(&mut lw.b, &benv, &lw.params, f);
                        cond = lw.b.and(cond, p);
                    }
                    let combined = match side {
                        Side::Left => benv.concat(penv),
                        Side::Right => penv.concat(&benv),
                    };
                    if let Some(pred) = residual {
                        let p = lower_expr(&mut lw.b, &combined, &lw.params, pred);
                        cond = lw.b.and(cond, p);
                    }
                    lw.if_then(cond, |lw| consumer(lw, &combined));
                };

            match kind {
                JoinKind::Inner => {
                    lw.index_rows(&index, pk, |lw, ri| emit_match(lw, ri, consumer));
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti | JoinKind::LeftOuter => {
                    // The probe side is the preserved side here: count
                    // matches into a flag.
                    let found = lw.b.decl_var(Atom::Bool(false));
                    let mut set_flag = |lw: &mut Self, _env: &RowEnv| {
                        lw.b.assign(found, Atom::Bool(true));
                    };
                    lw.index_rows(&index, pk, |lw, ri| emit_match(lw, ri, &mut set_flag));
                    let f = lw.b.read_var(found);
                    match kind {
                        JoinKind::LeftSemi => lw.if_then(f, |lw| consumer(lw, penv)),
                        JoinKind::LeftAnti => {
                            let nf = lw.b.un(UnOp::Not, f);
                            lw.if_then(nf, |lw| consumer(lw, penv));
                        }
                        // Outer joins never take the indexed path (guarded
                        // in `join`); inner joins take the branch above.
                        JoinKind::LeftOuter | JoinKind::Inner => unreachable!(),
                    }
                }
            }
        });
    }

    /// Run `f` on the row index of every row of an indexed table whose
    /// key is `key`: the unique index's one row, unless its entry is
    /// negative (no row), or the CSR index's run `items[starts[key] ..
    /// starts[key + 1]]`.
    fn index_rows(
        &mut self,
        (ix, items): &(Atom, Option<Atom>),
        key: Atom,
        f: impl FnOnce(&mut Self, Atom),
    ) {
        match items {
            None => {
                let ri = self.b.array_get(ix.clone(), key);
                let ok = self.b.ge(ri.clone(), Atom::Int(0));
                self.if_then(ok, |lw| f(lw, ri));
            }
            Some(items) => {
                let s = self.b.array_get(ix.clone(), key.clone());
                let k1 = self.b.add(key, Atom::Int(1));
                let e = self.b.array_get(ix.clone(), k1);
                self.for_range(s, e, |lw, i| {
                    let ri = lw.b.array_get(items.clone(), i);
                    f(lw, ri);
                });
            }
        }
    }

    fn with_residual(
        &mut self,
        residual: &Option<ScalarExpr>,
        env: &RowEnv,
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        match residual {
            None => consumer(self, env),
            Some(pred) => {
                let p = lower_expr(&mut self.b, env, &self.params, pred);
                self.if_then(p, |lw| consumer(lw, env));
            }
        }
    }

    fn join_key(&mut self, env: &RowEnv, keys: &[ScalarExpr], key_sid: Option<StructId>) -> Atom {
        if keys.len() == 1 {
            return lower_expr(&mut self.b, env, &self.params, &keys[0]);
        }
        let sid = key_sid.expect("composite key struct");
        let args = keys
            .iter()
            .map(|k| lower_expr(&mut self.b, env, &self.params, k))
            .collect();
        self.b.struct_new(sid, args)
    }

    // ------------------------------------------------------------------
    // Aggregation
    // ------------------------------------------------------------------

    fn aggregate(
        &mut self,
        plan: &QPlan,
        child: &QPlan,
        group_by: &[(Arc<str>, ScalarExpr)],
        aggs: &[(Arc<str>, AggFunc)],
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        if group_by.is_empty() {
            return self.aggregate_global(child, aggs, consumer);
        }
        if aggs
            .iter()
            .any(|(_, a)| matches!(a, AggFunc::CountDistinct(_)))
        {
            return self.aggregate_distinct(plan, child, group_by, aggs, consumer);
        }

        let child_cols = child.output_cols(self.schema);
        // Aggregate record: group columns, hidden row count, accumulators.
        let mut fields: Vec<FieldDef> = group_by
            .iter()
            .map(|(n, e)| FieldDef {
                name: n.clone(),
                ty: ir_type(e.ty(&child_cols)),
            })
            .collect();
        fields.push(FieldDef {
            name: "__cnt".into(),
            ty: Type::Long,
        });
        let cnt_idx = fields.len() - 1;
        let mut acc_idx = Vec::new();
        for (n, a) in aggs {
            acc_idx.push(fields.len());
            match a {
                AggFunc::Sum(e) => fields.push(FieldDef {
                    name: n.clone(),
                    ty: sum_ty(e, &child_cols),
                }),
                AggFunc::Count => fields.push(FieldDef {
                    name: n.clone(),
                    ty: Type::Long,
                }),
                AggFunc::Avg(_) => fields.push(FieldDef {
                    name: format!("{n}__sum").into(),
                    ty: Type::Double,
                }),
                AggFunc::Min(e) | AggFunc::Max(e) => fields.push(FieldDef {
                    name: n.clone(),
                    ty: ir_type(e.ty(&child_cols)),
                }),
                AggFunc::CountDistinct(_) => unreachable!("handled above"),
            }
        }
        let rec_sid = self.fresh_struct("Agg", fields);
        let group_prov: Vec<Option<(Arc<str>, usize)>> = group_by
            .iter()
            .map(|(n, _)| static_prov(plan, n, self.schema))
            .collect();
        // One or two base `Char` columns (one byte each, whatever the data):
        // the key is the one `Int` Σ kᵢ·256^(n−1−i), dense below 256ⁿ.
        let char_key = group_by.len() <= MAX_CHAR_KEY_COLS
            && group_prov.iter().all(|p| {
                p.as_ref()
                    .is_some_and(|(t, f)| self.schema.table(t).columns[*f].ty == ColType::Char)
            });

        let key_types: Vec<Type> = group_by
            .iter()
            .map(|(_, e)| ir_type(e.ty(&child_cols)))
            .collect();
        let composite = key_types.len() > 1 && !char_key;
        let (key_ty, key_sid) = self.map_key(key_types, composite);

        let dense = if char_key {
            let n = group_by.len() as u32;
            Some(DenseKey {
                max: 256u64.pow(n) - 1,
                composite: n > 1,
            })
        } else if group_by.len() == 1 {
            group_col_prov(plan, self.schema).and_then(|(t, f)| {
                let max = *self.schema.table(&t).stats.int_max.get(f).unwrap_or(&0);
                (max > 0
                    && max <= MAX_DENSE_KEY
                    && self.schema.table(&t).columns[f].ty == ColType::Int)
                    .then_some(DenseKey {
                        max,
                        composite: false,
                    })
            })
        } else {
            None
        };
        let hm = self.b.emit(
            Type::hash_map(key_ty.clone(), Type::Record(rec_sid)),
            Expr::HashMapNew {
                key: key_ty,
                value: Type::Record(rec_sid),
                expected: expected_rows(plan, self.schema),
                dense,
                has_minmax: (aggs.iter())
                    .any(|(_, a)| matches!(a, AggFunc::Min(_) | AggFunc::Max(_))),
            },
        );

        let group_exprs: Vec<ScalarExpr> = group_by.iter().map(|(_, e)| e.clone()).collect();
        self.produce(child, &mut |lw, env| {
            let packed = char_key.then(|| {
                let bytes: Vec<Atom> = group_exprs
                    .iter()
                    .map(|e| lower_expr(&mut lw.b, env, &lw.params, e))
                    .collect();
                (bytes[1..].iter()).fold(bytes[0].clone(), |k, byte| {
                    let shifted = lw.b.mul(k, Atom::Int(256));
                    lw.b.add(shifted, byte.clone())
                })
            });
            let k = packed.unwrap_or_else(|| lw.join_key(env, &group_exprs, key_sid));
            let key_atoms: Vec<Atom> = group_exprs
                .iter()
                .map(|e| lower_expr(&mut lw.b, env, &lw.params, e))
                .collect();
            // Pre-compute aggregate inputs (needed by init for min/max).
            let inputs: Vec<Option<Atom>> = aggs
                .iter()
                .map(|(_, a)| match a {
                    AggFunc::Sum(e) | AggFunc::Avg(e) | AggFunc::Min(e) | AggFunc::Max(e) => {
                        Some(lower_expr(&mut lw.b, env, &lw.params, e))
                    }
                    AggFunc::Count => None,
                    AggFunc::CountDistinct(_) => unreachable!(),
                })
                .collect();
            let rec = lw.hashmap_get_or_init(hm.clone(), k, |lw| {
                let mut args = key_atoms.clone();
                args.push(Atom::Long(0)); // __cnt
                for ((_, a), input) in aggs.iter().zip(&inputs) {
                    args.push(match a {
                        AggFunc::Sum(e) => {
                            if sum_ty(e, &child_cols) == Type::Double {
                                Atom::double(0.0)
                            } else {
                                Atom::Long(0)
                            }
                        }
                        AggFunc::Count => Atom::Long(0),
                        AggFunc::Avg(_) => Atom::double(0.0),
                        AggFunc::Min(_) | AggFunc::Max(_) => input.clone().expect("min/max input"),
                        AggFunc::CountDistinct(_) => unreachable!(),
                    });
                }
                lw.b.struct_new(rec_sid, args)
            });
            // Row count.
            let c = lw.b.field_get(rec.clone(), rec_sid, cnt_idx);
            let c1 = lw.b.add(c, Atom::Long(1));
            lw.b.field_set(rec.clone(), rec_sid, cnt_idx, c1);
            // Accumulator updates.
            for (((_, a), input), &fi) in aggs.iter().zip(&inputs).zip(&acc_idx) {
                match a {
                    AggFunc::Sum(_) | AggFunc::Avg(_) => {
                        let mut v = input.clone().expect("sum input");
                        if matches!(a, AggFunc::Avg(_)) {
                            v = lw.coerce_double(v);
                        }
                        let cur = lw.b.field_get(rec.clone(), rec_sid, fi);
                        let nv = lw.b.add(cur, v);
                        lw.b.field_set(rec.clone(), rec_sid, fi, nv);
                    }
                    AggFunc::Count => {
                        let cur = lw.b.field_get(rec.clone(), rec_sid, fi);
                        let nv = lw.b.add(cur, Atom::Long(1));
                        lw.b.field_set(rec.clone(), rec_sid, fi, nv);
                    }
                    AggFunc::Min(_) | AggFunc::Max(_) => {
                        let v = input.clone().expect("minmax input");
                        let cur = lw.b.field_get(rec.clone(), rec_sid, fi);
                        let is_str = lw.b.atom_type(&cur) == Type::String;
                        let better = if is_str {
                            let c = lw.b.prim(PrimOp::StrCmp, vec![v.clone(), cur.clone()]);
                            if matches!(a, AggFunc::Min(_)) {
                                lw.b.lt(c, Atom::Int(0))
                            } else {
                                lw.b.gt(c, Atom::Int(0))
                            }
                        } else if matches!(a, AggFunc::Min(_)) {
                            lw.b.lt(v.clone(), cur.clone())
                        } else {
                            lw.b.gt(v.clone(), cur.clone())
                        };
                        lw.if_then(better, |lw| {
                            lw.b.field_set(rec.clone(), rec_sid, fi, v);
                        });
                    }
                    AggFunc::CountDistinct(_) => unreachable!(),
                }
            }
        });

        // Emission phase.
        self.hashmap_foreach(hm, |lw, _k, rec| {
            let cnt = lw.b.field_get(rec.clone(), rec_sid, cnt_idx);
            let non_empty = lw.b.gt(cnt.clone(), Atom::Long(0));
            lw.if_then(non_empty, |lw| {
                let mut cols = Vec::new();
                for (i, (n, _)) in group_by.iter().enumerate() {
                    cols.push(ColRef {
                        name: n.clone(),
                        atom: lw.b.field_get(rec.clone(), rec_sid, i),
                    });
                }
                for (((n, a), &fi), _) in aggs.iter().zip(&acc_idx).zip(0..) {
                    let atom = match a {
                        AggFunc::Avg(_) => {
                            let s = lw.b.field_get(rec.clone(), rec_sid, fi);
                            let c = lw.b.field_get(rec.clone(), rec_sid, cnt_idx);
                            let cd = lw.b.un(UnOp::L2D, c);
                            lw.b.div(s, cd)
                        }
                        _ => lw.b.field_get(rec.clone(), rec_sid, fi),
                    };
                    cols.push(ColRef {
                        name: n.clone(),
                        atom,
                    });
                }
                let env = RowEnv::new(cols);
                consumer(lw, &env);
            });
        });
    }

    fn aggregate_global(
        &mut self,
        child: &QPlan,
        aggs: &[(Arc<str>, AggFunc)],
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        let child_cols = child.output_cols(self.schema);
        // One accumulator variable per aggregate (+count for avg).
        enum Acc {
            Simple(dblab_ir::Sym),
            AvgPair(dblab_ir::Sym, dblab_ir::Sym),
        }
        let mut accs = Vec::new();
        for (_, a) in aggs {
            match a {
                AggFunc::Sum(e) => {
                    let init = if sum_ty(e, &child_cols) == Type::Double {
                        Atom::double(0.0)
                    } else {
                        Atom::Long(0)
                    };
                    accs.push(Acc::Simple(self.b.decl_var(init)));
                }
                AggFunc::Count => accs.push(Acc::Simple(self.b.decl_var(Atom::Long(0)))),
                AggFunc::Avg(_) => {
                    let s = self.b.decl_var(Atom::double(0.0));
                    let c = self.b.decl_var(Atom::Long(0));
                    accs.push(Acc::AvgPair(s, c));
                }
                AggFunc::Min(_) => {
                    accs.push(Acc::Simple(self.b.decl_var(Atom::double(f64::INFINITY))))
                }
                AggFunc::Max(_) => accs.push(Acc::Simple(
                    self.b.decl_var(Atom::double(f64::NEG_INFINITY)),
                )),
                AggFunc::CountDistinct(_) => {
                    unimplemented!("global COUNT(DISTINCT) is not needed by TPC-H")
                }
            }
        }
        self.produce(child, &mut |lw, env| {
            for ((_, a), acc) in aggs.iter().zip(&accs) {
                match (a, acc) {
                    (AggFunc::Sum(e), Acc::Simple(v)) => {
                        let x = lower_expr(&mut lw.b, env, &lw.params, e);
                        let cur = lw.b.read_var(*v);
                        let nv = lw.b.add(cur, x);
                        lw.b.assign(*v, nv);
                    }
                    (AggFunc::Count, Acc::Simple(v)) => {
                        let cur = lw.b.read_var(*v);
                        let nv = lw.b.add(cur, Atom::Long(1));
                        lw.b.assign(*v, nv);
                    }
                    (AggFunc::Avg(e), Acc::AvgPair(s, c)) => {
                        let x = lower_expr(&mut lw.b, env, &lw.params, e);
                        let x = lw.coerce_double(x);
                        let cur = lw.b.read_var(*s);
                        let nv = lw.b.add(cur, x);
                        lw.b.assign(*s, nv);
                        let cc = lw.b.read_var(*c);
                        let nc = lw.b.add(cc, Atom::Long(1));
                        lw.b.assign(*c, nc);
                    }
                    (AggFunc::Min(e), Acc::Simple(v)) | (AggFunc::Max(e), Acc::Simple(v)) => {
                        let x = lower_expr(&mut lw.b, env, &lw.params, e);
                        let x = lw.coerce_double(x);
                        let cur = lw.b.read_var(*v);
                        let better = if matches!(a, AggFunc::Min(_)) {
                            lw.b.lt(x.clone(), cur)
                        } else {
                            lw.b.gt(x.clone(), cur)
                        };
                        lw.if_then(better, |lw| lw.b.assign(*v, x));
                    }
                    _ => unreachable!("accumulator shape mismatch"),
                }
            }
        });
        let cols = aggs
            .iter()
            .zip(&accs)
            .map(|((n, _), acc)| {
                let atom = match acc {
                    Acc::Simple(v) => self.b.read_var(*v),
                    Acc::AvgPair(s, c) => {
                        let sv = self.b.read_var(*s);
                        let cv = self.b.read_var(*c);
                        let one = self.b.bin(dblab_ir::BinOp::Max, cv, Atom::Long(1));
                        let cd = self.b.un(UnOp::L2D, one);
                        self.b.div(sv, cd)
                    }
                };
                ColRef {
                    name: n.clone(),
                    atom,
                }
            })
            .collect();
        let env = RowEnv::new(cols);
        consumer(self, &env);
    }

    /// `COUNT(DISTINCT e)` per group: de-duplicate (group key, e) pairs in
    /// one hash table, then count per group in a second (the classical
    /// two-phase plan; Q16).
    fn aggregate_distinct(
        &mut self,
        plan: &QPlan,
        child: &QPlan,
        group_by: &[(Arc<str>, ScalarExpr)],
        aggs: &[(Arc<str>, AggFunc)],
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        assert!(
            aggs.len() == 1,
            "COUNT(DISTINCT) is only supported as the sole aggregate (TPC-H Q16)"
        );
        let distinct_expr = match &aggs[0].1 {
            AggFunc::CountDistinct(e) => e.clone(),
            _ => unreachable!(),
        };
        let child_cols = child.output_cols(self.schema);
        // Phase 1: dedupe on (group key..., distinct expr).
        let mut key_fields: Vec<FieldDef> = group_by
            .iter()
            .map(|(n, e)| FieldDef {
                name: n.clone(),
                ty: ir_type(e.ty(&child_cols)),
            })
            .collect();
        key_fields.push(FieldDef {
            name: "__d".into(),
            ty: ir_type(distinct_expr.ty(&child_cols)),
        });
        let dkey_sid = self.fresh_struct("Key", key_fields);
        let marker_sid = self.fresh_struct(
            "Mark",
            vec![FieldDef {
                name: "__cnt".into(),
                ty: Type::Long,
            }],
        );
        let dd = self.b.hashmap_new(
            Type::Record(dkey_sid),
            Type::Record(marker_sid),
            expected_rows(child, self.schema),
        );
        self.produce(child, &mut |lw, env| {
            let mut args: Vec<Atom> = group_by
                .iter()
                .map(|(_, e)| lower_expr(&mut lw.b, env, &lw.params, e))
                .collect();
            args.push(lower_expr(&mut lw.b, env, &lw.params, &distinct_expr));
            let k = lw.b.struct_new(dkey_sid, args);
            let _ = lw.hashmap_get_or_init(dd.clone(), k, |lw| {
                lw.b.struct_new(marker_sid, vec![Atom::Long(0)])
            });
        });

        // Phase 2: count distinct pairs per group key.
        let mut fields: Vec<FieldDef> = group_by
            .iter()
            .map(|(n, e)| FieldDef {
                name: n.clone(),
                ty: ir_type(e.ty(&child_cols)),
            })
            .collect();
        fields.push(FieldDef {
            name: aggs[0].0.clone(),
            ty: Type::Long,
        });
        let cnt_sid = self.fresh_struct("Agg", fields);
        let key_types = (group_by.iter())
            .map(|(_, e)| ir_type(e.ty(&child_cols)))
            .collect();
        let (key_ty, key_sid) = self.map_key(key_types, group_by.len() > 1);
        let cnts = self.b.hashmap_new(
            key_ty,
            Type::Record(cnt_sid),
            expected_rows(plan, self.schema),
        );
        let n_groups = group_by.len();
        self.hashmap_foreach(dd, |lw, k, _marker| {
            let key_atoms: Vec<Atom> = (0..n_groups)
                .map(|i| lw.b.field_get(k.clone(), dkey_sid, i))
                .collect();
            let k2 = match key_sid {
                None => key_atoms[0].clone(),
                Some(sid) => lw.b.struct_new(sid, key_atoms.clone()),
            };
            let rec = lw.hashmap_get_or_init(cnts.clone(), k2, |lw| {
                let mut args = key_atoms.clone();
                args.push(Atom::Long(0));
                lw.b.struct_new(cnt_sid, args)
            });
            let cur = lw.b.field_get(rec.clone(), cnt_sid, n_groups);
            let nv = lw.b.add(cur, Atom::Long(1));
            lw.b.field_set(rec, cnt_sid, n_groups, nv);
        });

        self.hashmap_foreach(cnts, |lw, _k, rec| {
            let mut cols = Vec::new();
            for (i, (n, _)) in group_by.iter().enumerate() {
                cols.push(ColRef {
                    name: n.clone(),
                    atom: lw.b.field_get(rec.clone(), cnt_sid, i),
                });
            }
            let atom = lw.b.field_get(rec.clone(), cnt_sid, n_groups);
            cols.push(ColRef {
                name: aggs[0].0.clone(),
                atom,
            });
            let env = RowEnv::new(cols);
            consumer(lw, &env);
        });
    }

    // ------------------------------------------------------------------
    // Sorting
    // ------------------------------------------------------------------

    fn sort(
        &mut self,
        child: &QPlan,
        keys: &[(ScalarExpr, SortDir)],
        consumer: &mut dyn FnMut(&mut Self, &RowEnv),
    ) {
        let child_cols = child.output_cols(self.schema);
        let fields: Vec<FieldDef> = child_cols
            .iter()
            .map(|(n, t)| FieldDef {
                name: n.clone(),
                ty: ir_type(*t),
            })
            .collect();
        let sid = self.fresh_struct("Rec", fields);
        let hint = self.estimate(child);
        let lst = self.b.list_new(Type::Record(sid), Some(hint));
        self.produce(child, &mut |lw, env| {
            let args = child_cols
                .iter()
                .map(|(n, _)| env.lookup(n).atom.clone())
                .collect();
            let rec = lw.b.struct_new_pooled(sid, args, hint);
            lw.b.list_append(lst.clone(), rec);
        });

        let n = self.b.list_size(lst.clone());
        let arr = self.b.array_new(Type::Record(sid), n.clone());
        let idx = self.b.decl_var(Atom::Int(0));
        self.list_foreach(lst, |lw, rec| {
            let i = lw.b.read_var(idx);
            lw.b.array_set(arr.clone(), i.clone(), rec);
            let i1 = lw.b.add(i, Atom::Int(1));
            lw.b.assign(idx, i1);
        });

        // Comparator block over two bound records.
        let a = self.b.bind(Type::Record(sid));
        let bb = self.b.bind(Type::Record(sid));
        self.b.scope_push();
        let env_a = self.env_from_record(&Atom::Sym(a), sid);
        let env_b = self.env_from_record(&Atom::Sym(bb), sid);
        let res = self.cmp_chain(&env_a, &env_b, keys);
        let cmp = self.b.scope_pop(res);
        self.b.emit_unit(Expr::SortArray {
            arr: arr.clone(),
            len: n.clone(),
            a,
            b: bb,
            cmp,
        });

        self.for_range(Atom::Int(0), n, |lw, i| {
            let rec = lw.b.array_get(arr.clone(), i);
            let env = lw.env_from_record(&rec, sid);
            consumer(lw, &env);
        });
    }

    fn cmp_chain(
        &mut self,
        env_a: &RowEnv,
        env_b: &RowEnv,
        keys: &[(ScalarExpr, SortDir)],
    ) -> Atom {
        if keys.is_empty() {
            return Atom::Int(0);
        }
        let (expr, dir) = &keys[0];
        let ka = lower_expr(&mut self.b, env_a, &self.params, expr);
        let kb = lower_expr(&mut self.b, env_b, &self.params, expr);
        let (lo, hi) = if *dir == SortDir::Asc {
            (ka, kb)
        } else {
            (kb, ka)
        };
        let (lt, gt) = if self.b.atom_type(&lo) == Type::String {
            let c = self.b.prim(PrimOp::StrCmp, vec![lo, hi]);
            let lt = self.b.lt(c.clone(), Atom::Int(0));
            let gt = self.b.gt(c, Atom::Int(0));
            (lt, gt)
        } else {
            let lt = self.b.lt(lo.clone(), hi.clone());
            let gt = self.b.gt(lo, hi);
            (lt, gt)
        };
        // if (lt) -1 else if (gt) 1 else <rest>
        self.b.scope_push();
        let neg = self.b.scope_pop(Atom::Int(-1));
        self.b.scope_push();
        {
            self.b.scope_push();
            let one = self.b.scope_pop(Atom::Int(1));
            self.b.scope_push();
            let rest = self.cmp_chain(env_a, env_b, &keys[1..]);
            let rest_b = self.b.scope_pop(rest);
            let inner = self.b.emit(
                Type::Int,
                Expr::If {
                    cond: gt,
                    then_b: one,
                    else_b: rest_b,
                },
            );
            let else_b = self.b.scope_pop(inner);
            self.b.emit(
                Type::Int,
                Expr::If {
                    cond: lt,
                    then_b: neg,
                    else_b,
                },
            )
        }
    }
}

/// Default (outer-join padding) atom per column type.
fn default_atom(t: ColType) -> Atom {
    match t {
        ColType::Double => Atom::double(0.0),
        ColType::Long => Atom::Long(0),
        ColType::String => Atom::Str("".into()),
        ColType::Bool => Atom::Bool(false),
        _ => Atom::Int(0),
    }
}

fn sum_ty(e: &ScalarExpr, cols: &[(Arc<str>, ColType)]) -> Type {
    match e.ty(cols) {
        ColType::Double => Type::Double,
        _ => Type::Long,
    }
}

/// Provenance of a single-column group key.
fn group_col_prov(plan: &QPlan, schema: &Schema) -> Option<(Arc<str>, usize)> {
    if let QPlan::Agg {
        child, group_by, ..
    } = plan
    {
        if group_by.len() == 1 {
            if let ScalarExpr::Col(n) = &group_by[0].1 {
                return static_prov(child, n, schema);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_frontend::expr::*;
    use dblab_frontend::qplan::AggFunc::*;

    fn schema() -> Schema {
        let mut s = dblab_tpch::tpch_schema();
        for t in &mut s.tables {
            t.stats.row_count = 100;
            t.stats.int_max = vec![100; t.columns.len()];
            t.stats.distinct = vec![10; t.columns.len()];
        }
        s
    }

    fn lower(prog: &QueryProgram, cfg: &StackConfig) -> Program {
        lower_program(prog, &schema(), cfg)
    }

    #[test]
    fn q6_like_plan_lowers_to_valid_maplist() {
        let plan = QPlan::scan("lineitem")
            .select(col("l_quantity").lt(lit_d(24.0)))
            .agg(
                vec![],
                vec![(
                    "revenue",
                    Sum(col("l_extendedprice").mul(col("l_discount"))),
                )],
            );
        let p = lower(&QueryProgram::new(plan), &StackConfig::level2());
        let violations = dblab_ir::level::validate(&p);
        assert!(violations.is_empty(), "{violations:?}");
        // A pure scan-filter-aggregate pipeline needs no hash tables.
        let has_hash = p
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, Expr::HashMapNew { .. } | Expr::MultiMapNew { .. }));
        assert!(!has_hash);
    }

    #[test]
    fn join_lowers_to_multimap_build_and_probe() {
        let plan = QPlan::scan("customer")
            .hash_join(
                QPlan::scan("orders"),
                JoinKind::Inner,
                vec![col("c_custkey")],
                vec![col("o_custkey")],
            )
            .agg(vec![], vec![("n", Count)]);
        let p = lower(&QueryProgram::new(plan), &StackConfig::level2());
        let text = dblab_ir::printer::print_program(&p);
        assert!(text.contains("new MultiMap"), "{text}");
        assert!(text.contains("addBinding"), "{text}");
        assert!(dblab_ir::level::validate(&p).is_empty());
    }

    #[test]
    fn index_inference_elides_the_hash_table() {
        let plan = QPlan::scan("customer")
            .hash_join(
                QPlan::scan("orders"),
                JoinKind::Inner,
                vec![col("c_custkey")],
                vec![col("o_custkey")],
            )
            .agg(vec![], vec![("n", Count)]);
        let p = lower(&QueryProgram::new(plan), &StackConfig::level5());
        let text = dblab_ir::printer::print_program(&p);
        assert!(!text.contains("new MultiMap"), "{text}");
        assert!(text.contains("loadIndex"), "{text}");
    }

    /// `customer ⋈ orders`, which index inference lowers through the
    /// customer index: an intermediate result, so it never qualifies.
    fn customer_orders() -> QPlan {
        QPlan::scan("customer").hash_join(
            QPlan::scan("orders"),
            JoinKind::Inner,
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        )
    }

    /// `left ⋈ right` on one key pair.
    fn join_on(left: QPlan, right: QPlan, kind: JoinKind, lk: &str, rk: &str) -> QPlan {
        left.hash_join(right, kind, vec![col(lk)], vec![col(rk)])
    }

    /// Hashed join maps, and the tables given a unique and a CSR index,
    /// in `plan`'s lowering (level 5 unless `cfg` says otherwise).
    fn join_shape_at(plan: QPlan, cfg: &StackConfig) -> (usize, Vec<String>, Vec<String>) {
        let p = lower(&QueryProgram::new(plan), cfg);
        let (mut maps, mut unique, mut csr) = (0, Vec::new(), Vec::new());
        p.body.for_each_stmt(&mut |st| match &st.expr {
            Expr::MultiMapNew { .. } => maps += 1,
            Expr::LoadIndexUnique { table, .. } => unique.push(table.to_string()),
            Expr::LoadIndexStarts { table, .. } => csr.push(table.to_string()),
            _ => {}
        });
        (maps, unique, csr)
    }

    fn join_shape(plan: QPlan) -> (usize, Vec<String>, Vec<String>) {
        join_shape_at(plan, &StackConfig::level5())
    }

    #[test]
    fn a_primary_key_probe_side_becomes_a_unique_index() {
        let plan = join_on(
            customer_orders(),
            QPlan::scan("nation"),
            JoinKind::Inner,
            "c_nationkey",
            "n_nationkey",
        );
        assert_eq!(
            join_shape(plan),
            (0, vec!["customer".into(), "nation".into()], vec![])
        );
    }

    #[test]
    fn the_swap_needs_a_unique_key_an_inner_join_and_an_unqualified_left() {
        // A non-unique (CSR) probe side keeps the hash table.
        let csr_right = join_on(
            customer_orders(),
            QPlan::scan("lineitem"),
            JoinKind::Inner,
            "o_orderkey",
            "l_orderkey",
        );
        assert_eq!(join_shape(csr_right), (1, vec!["customer".into()], vec![]));
        // Semi and anti joins index their right (build) input; a keyed
        // left input stays the preserved probe stream.
        for kind in [JoinKind::LeftSemi, JoinKind::LeftAnti] {
            let keyed_left = join_on(
                QPlan::scan("nation"),
                customer_orders(),
                kind,
                "n_nationkey",
                "c_nationkey",
            );
            assert_eq!(
                join_shape(keyed_left),
                (1, vec!["customer".into()], vec![]),
                "{kind:?}"
            );
        }
        // Outer joins keep the hash table on either side.
        let outer = join_on(
            customer_orders(),
            QPlan::scan("nation"),
            JoinKind::LeftOuter,
            "c_nationkey",
            "n_nationkey",
        );
        assert_eq!(join_shape(outer), (1, vec!["customer".into()], vec![]));
        // A left side that qualifies keeps its index, even a CSR one.
        let both = join_on(
            QPlan::scan("orders"),
            QPlan::scan("customer"),
            JoinKind::Inner,
            "o_custkey",
            "c_custkey",
        );
        assert_eq!(join_shape(both), (0, vec![], vec!["orders".into()]));
        // Without index inference nothing is swapped.
        let plan = join_on(
            customer_orders(),
            QPlan::scan("nation"),
            JoinKind::Inner,
            "c_nationkey",
            "n_nationkey",
        );
        assert_eq!(
            join_shape_at(plan, &StackConfig::level4()),
            (2, vec![], vec![])
        );
    }

    /// The column names of the rows `plan` produces under `cfg`.
    fn produced_cols(plan: &QPlan, cfg: &StackConfig) -> Vec<String> {
        let s = schema();
        let mut lw = Lowering::new(&s, cfg);
        lw.preload_indexes(plan);
        let mut names = Vec::new();
        lw.produce(plan, &mut |_, env| {
            names = env.cols.iter().map(|c| c.name.to_string()).collect();
        });
        names
    }

    /// The aliased, filtered `nation` of Q7, keyed on its primary key and
    /// probed by an intermediate result.
    fn aliased_nation_join() -> QPlan {
        join_on(
            customer_orders(),
            QPlan::scan_as("nation", "n2").select(col("n2_n_name").eq(lit_s("GERMANY"))),
            JoinKind::Inner,
            "c_nationkey",
            "n2_n_nationkey",
        )
    }

    #[test]
    fn a_swapped_join_keeps_left_then_right_columns() {
        let plan = aliased_nation_join();
        let want: Vec<String> = (plan.output_cols(&schema()).into_iter())
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(want.first().map(String::as_str), Some("c_custkey"));
        assert_eq!(want.last().map(String::as_str), Some("n2_n_comment"));
        for cfg in [StackConfig::level2(), StackConfig::level5()] {
            assert_eq!(produced_cols(&plan, &cfg), want);
        }
    }

    /// On generated data, the swapped lowering re-applies the aliased
    /// right side's filter and the residual: the interpreter prints the
    /// hash join's rows.
    #[test]
    fn a_swapped_join_reapplies_the_right_filter_and_the_residual() {
        let db = dblab_tpch::generate(0.001, &std::env::temp_dir());
        let snapshot = dblab_runtime::Snapshot::from(db.clone());
        let QPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            ..
        } = aliased_nation_join()
        else {
            unreachable!()
        };
        let plan = QPlan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual: Some(col("o_orderkey").lt(lit_i(3000))),
        }
        .project(vec![
            ("k", col("o_orderkey")),
            ("n", col("n2_n_name")),
            ("c", col("c_name")),
        ]);
        let run = |cfg: &StackConfig| {
            let p = lower_program(&QueryProgram::new(plan.clone()), &db.schema, cfg);
            let mut rows: Vec<String> = (dblab_interp::run(&p, &snapshot).lines())
                .map(str::to_string)
                .collect();
            rows.sort();
            (p, rows)
        };
        let (hashed, want) = run(&StackConfig::level2());
        let (indexed, got) = run(&StackConfig::level5());
        let maps = |p: &Program| {
            (p.body.stmts.iter())
                .filter(|st| matches!(st.expr, Expr::MultiMapNew { .. }))
                .count()
        };
        assert_eq!((maps(&hashed), maps(&indexed)), (2, 0));
        assert!(!want.is_empty() && want.iter().all(|r| r.contains("|GERMANY|")));
        assert_eq!(got, want);
    }

    /// The worst case counts a renamed group column's distinct values.
    #[test]
    fn worst_case_groups_read_the_column_inside_the_expression() {
        let s = schema();
        let cfg = StackConfig::level5();
        let lw = Lowering::new(&s, &cfg);
        let groups = QPlan::scan("orders").agg(vec![("k", col("o_custkey"))], vec![("n", Count)]);
        assert_eq!(lw.estimate(&groups), 10);
    }

    #[test]
    fn grouped_aggregation_uses_a_sized_dense_hashmap() {
        let plan = QPlan::scan("orders").agg(
            vec![("k", col("o_custkey"))],
            vec![("total", Sum(col("o_totalprice")))],
        );
        let p = lower(&QueryProgram::new(plan), &StackConfig::level2());
        let hm = p
            .body
            .stmts
            .iter()
            .find_map(|st| match &st.expr {
                Expr::HashMapNew {
                    expected,
                    dense,
                    has_minmax,
                    ..
                } => Some((*expected, *dense, *has_minmax)),
                _ => None,
            })
            .expect("hash map");
        let dense = DenseKey {
            max: 100,
            composite: false,
        };
        assert_eq!(hm, (10, Some(dense), false), "o_custkey is a dense int key");
    }

    /// Every expression of `b`, nested blocks included.
    fn exprs(b: &Block) -> Vec<&Expr> {
        let mut out = Vec::new();
        for st in &b.stmts {
            out.push(&st.expr);
            st.expr
                .blocks()
                .into_iter()
                .for_each(|n| out.extend(exprs(n)));
        }
        out
    }

    /// How a level-5 aggregation table ended up: `(hashed, slot counts of
    /// dense arrays, of pre-filled ones)`. Hashed means a `Key` record and
    /// `HashInt` probes; a pre-filled array is stored into straight from
    /// a `for` (Appendix D.2).
    fn table_shape(p: &Program) -> (bool, Vec<i64>, Vec<i64>) {
        let all = exprs(&p.body);
        let key_struct = p.structs.iter().any(|(_, d)| d.name.starts_with("Key"));
        let hashes = all.iter().any(|e| matches!(e, Expr::Un(UnOp::HashInt, _)));
        // Slots of `arr` if it is an array of aggregate records.
        let slots = |arr: &Atom| {
            p.body.stmts.iter().find_map(|st| match &st.expr {
                Expr::ArrayNew {
                    elem: Type::Record(sid),
                    len: Atom::Int(n),
                } if Atom::Sym(st.sym) == *arr && p.structs.get(*sid).name.starts_with("Agg") => {
                    Some(*n)
                }
                _ => None,
            })
        };
        let dense: Vec<i64> = (p.body.stmts.iter())
            .filter_map(|st| slots(&Atom::Sym(st.sym)))
            .collect();
        let prefilled = (all.iter())
            .filter_map(|e| match e {
                Expr::ForRange { body, .. } => body.stmts.iter().find_map(|st| match &st.expr {
                    Expr::ArraySet { arr, .. } => slots(arr),
                    _ => None,
                }),
                _ => None,
            })
            .collect();
        (key_struct && hashes, dense, prefilled)
    }

    /// `t(a, b, c: Char, n: Int)` grouped by `keys`, counted, at level 5.
    fn grouped_chars(keys: &[&str]) -> Program {
        let mut t = dblab_catalog::TableDef::new(
            "t",
            vec![
                ("a", ColType::Char),
                ("b", ColType::Char),
                ("c", ColType::Char),
                ("n", ColType::Int),
            ],
        );
        t.stats.row_count = 100;
        t.stats.int_max = vec![100; 4];
        t.stats.distinct = vec![10; 4];
        let plan = QPlan::scan("t").agg(
            keys.iter().map(|k| (*k, col(k))).collect(),
            vec![("cnt", Count)],
        );
        let schema = Schema::new(vec![t]);
        crate::compile(&QueryProgram::new(plan), &schema, &StackConfig::level5()).program
    }

    /// Q1's two `Char` group columns pack into one dense `Int` key: no
    /// `Key` record, no hash, one 65,536-slot array — not pre-filled,
    /// since no record field holds a packed key.
    #[test]
    fn char_group_keys_index_one_dense_array() {
        let q1 = dblab_tpch::queries::query(1);
        let p = crate::compile(&q1, &schema(), &StackConfig::level5()).program;
        assert_eq!(table_shape(&p), (false, vec![65_536], vec![]));
        assert_eq!(
            table_shape(&grouped_chars(&["a", "b"])),
            (false, vec![65_536], vec![])
        );
        // One `Char` is its own key: 256 slots, pre-filled like an `Int`'s.
        assert_eq!(
            table_shape(&grouped_chars(&["a"])),
            (false, vec![256], vec![256])
        );
    }

    /// Three `Char` columns (16 M slots) or a non-`Char` column stay hashed.
    #[test]
    fn wider_or_mixed_char_keys_stay_hashed() {
        for keys in [&["a", "b", "c"][..], &["a", "n"]] {
            let (hashed, dense, _) = table_shape(&grouped_chars(keys));
            assert!(hashed && dense.is_empty(), "{keys:?}: {dense:?}");
        }
    }

    /// The expected-case rules on a catalog of 100 rows and 10 distinct
    /// values per column.
    #[test]
    fn expected_rows_discounts_selections_and_joins() {
        let s = schema();
        let e = |p: &QPlan| expected_rows(p, &s);
        let orders = || QPlan::scan("orders");
        assert_eq!(e(&orders()), 100);
        assert_eq!(e(&orders().select(col("o_custkey").eq(lit_i(3)))), 10);
        assert_eq!(e(&orders().select(col("o_comment").contains("x"))), 5);
        assert_eq!(e(&orders().select(col("o_custkey").lt(lit_i(3)))), 34);
        // A primary key counts its rows: 100 · 100 / max(100, 10).
        let join = QPlan::scan("customer").hash_join(
            orders(),
            JoinKind::Inner,
            vec![col("c_custkey")],
            vec![col("o_custkey")],
        );
        assert_eq!(e(&join), 100);
        // Each side's key product is capped at its own rows: the
        // filtered side's 10 · 100 at 10, partsupp's 10 · 10 at 100, so
        // 10 · 100 / max(10, 100).
        let composite = orders().select(col("o_custkey").eq(lit_i(3))).hash_join(
            QPlan::scan("partsupp"),
            JoinKind::Inner,
            vec![col("o_custkey"), col("o_orderkey")],
            vec![col("ps_partkey"), col("ps_suppkey")],
        );
        assert_eq!(e(&composite), 10);
        let groups = orders().agg(vec![("k", col("o_custkey"))], vec![("n", Count)]);
        assert_eq!(e(&groups), 10);
    }

    #[test]
    fn sort_lowers_to_list_array_sort() {
        let plan = QPlan::scan("nation").sort(vec![(col("n_name"), SortDir::Asc)]);
        let p = lower(&QueryProgram::new(plan), &StackConfig::level2());
        let text = dblab_ir::printer::print_program(&p);
        assert!(text.contains("new List"), "{text}");
        assert!(text.contains("sort("), "{text}");
    }

    #[test]
    fn timer_wraps_query_not_loading() {
        let plan = QPlan::scan("nation").agg(vec![], vec![("n", Count)]);
        let p = lower(&QueryProgram::new(plan), &StackConfig::level2());
        let pos = |needle: &str| {
            p.body
                .stmts
                .iter()
                .position(|st| format!("{:?}", st.expr).contains(needle))
                .unwrap_or_else(|| panic!("{needle} not found"))
        };
        assert!(pos("LoadTable") < pos("TimerStart"));
        assert!(pos("TimerStart") < pos("TimerStop"));
    }

    #[test]
    fn scalar_lets_bind_params() {
        let prog = QueryProgram::new(
            QPlan::scan("nation")
                .select(col("n_nationkey").gt(param("thr")))
                .agg(vec![], vec![("n", Count)]),
        )
        .with_let(
            "thr",
            QPlan::scan("nation").agg(vec![], vec![("a", Avg(col("n_nationkey")))]),
        );
        let p = lower(&prog, &StackConfig::level2());
        assert!(dblab_ir::level::validate(&p).is_empty());
    }

    #[test]
    fn all_22_queries_lower_at_every_config() {
        for cfg in StackConfig::table3() {
            for (name, prog) in dblab_tpch::queries::all() {
                let p = lower(&prog, &cfg);
                assert!(p.body.size() > 10, "{name} produced a trivial program");
                if cfg.levels == 2 {
                    let violations = dblab_ir::level::validate(&p);
                    assert!(violations.is_empty(), "{name}: {violations:?}");
                }
            }
        }
    }
}
