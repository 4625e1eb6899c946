//! # dblab-interp — the IR interpreter
//!
//! The paper's debuggability argument for embedded DSLs: "each DSL is
//! executable … with low performance but improved debugging possibilities"
//! (§4). This crate executes IR programs *at any level* — straight out of
//! pipelining, after each specialization, or at C.Scala — against an
//! in-memory [`Snapshot`], capturing their printed output. The
//! differential tests run every compilation stage through it and require
//! identical results, which pins down exactly which transformation broke
//! semantics when one does.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dblab_ir::expr::{Atom, BinOp, Block, DictOp, Expr, PrimOp, Sym, UnOp};
use dblab_ir::{Program, Type};
use dblab_runtime::snapshot::ColumnRef;
use dblab_runtime::{Snapshot, Value};

/// A dynamic value.
#[derive(Debug, Clone)]
pub enum V {
    Unit,
    Null,
    B(bool),
    I(i64),
    D(f64),
    S(Arc<str>),
    /// Records, arrays and lists share reference semantics.
    Cells(Rc<RefCell<Vec<V>>>),
    Map(Rc<RefCell<HashMap<Key, V>>>),
    MMap(Rc<RefCell<HashMap<Key, Vec<V>>>>),
}

impl V {
    fn i(&self) -> i64 {
        match self {
            V::I(v) => *v,
            V::B(b) => *b as i64,
            other => panic!("expected int, got {other:?}"),
        }
    }
    fn d(&self) -> f64 {
        match self {
            V::D(v) => *v,
            V::I(v) => *v as f64,
            other => panic!("expected double, got {other:?}"),
        }
    }
    fn b(&self) -> bool {
        match self {
            V::B(v) => *v,
            other => panic!("expected bool, got {other:?}"),
        }
    }
    fn s(&self) -> Arc<str> {
        match self {
            V::S(v) => v.clone(),
            other => panic!("expected string, got {other:?}"),
        }
    }
    fn cells(&self) -> Rc<RefCell<Vec<V>>> {
        match self {
            V::Cells(c) => c.clone(),
            other => panic!("expected record/array/list, got {other:?}"),
        }
    }
}

/// A runtime [`Value`] (the engine's currency) as an interpreter value.
fn v_of_value(v: &Value) -> V {
    match v {
        Value::Null => V::Null,
        Value::Bool(b) => V::B(*b),
        Value::Int(i) => V::I(*i as i64),
        Value::Long(l) => V::I(*l),
        Value::Double(d) => V::D(*d),
        Value::Str(s) => V::S(s.clone()),
    }
}

/// Hashable key form of a value (records flattened by value).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    B(bool),
    I(i64),
    D(u64),
    S(Arc<str>),
    Tuple(Vec<Key>),
}

fn key_of(v: &V) -> Key {
    match v {
        V::B(b) => Key::B(*b),
        V::I(i) => Key::I(*i),
        V::D(d) => Key::D(d.to_bits()),
        V::S(s) => Key::S(s.clone()),
        V::Cells(c) => Key::Tuple(c.borrow().iter().map(key_of).collect()),
        other => panic!("unhashable key {other:?}"),
    }
}

/// Interpreter state.
pub struct Interp<'d> {
    p: Program,
    db: &'d Snapshot,
    /// Positional query-parameter bindings, read by `Expr::LoadParam`.
    params: Vec<V>,
    env: HashMap<Sym, V>,
    pub output: String,
    /// Cooperative-interrupt state: once the wall clock passes `deadline`,
    /// every loop breaks at its next back-edge and the partial output is
    /// discarded by [`run_bound`]. The fuel counter amortizes the
    /// `Instant::now()` syscall over [`FUEL`] iterations.
    deadline: Option<Instant>,
    fuel: u32,
    interrupted: bool,
}

/// The interpreter hit its execution deadline; whatever partial output it
/// produced is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// How many loop back-edges run between two wall-clock reads.
const FUEL: u32 = 256;

/// Execute a program against the database; returns the captured stdout
/// (result rows, same format as the compiled C).
pub fn run(p: &Program, db: &Snapshot) -> String {
    run_bound(p, db, &[], None).expect("no deadline, no interruption")
}

/// [`run`] with positional query-parameter bindings — the `idx`-th
/// [`dblab_ir::Expr::LoadParam`] in `p` evaluates to `params[idx]`;
/// programs without parameters accept an empty slice — that gives up once
/// the wall clock passes `deadline`. The check sits on loop back-edges
/// (straight-line code always completes), so an expired interpreter
/// unwinds within one fuel window instead of hanging the thread that
/// called it — the serving engine's per-request deadline rides on this.
pub fn run_bound(
    p: &Program,
    db: &Snapshot,
    params: &[Value],
    deadline: Option<Instant>,
) -> Result<String, Interrupted> {
    let mut it = Interp {
        p: p.clone(),
        db,
        params: params.iter().map(v_of_value).collect(),
        env: HashMap::new(),
        output: String::new(),
        deadline,
        // The first back-edge reads the clock, so a deadline already in
        // the past interrupts deterministically before real work starts.
        fuel: 1,
        interrupted: false,
    };
    it.block(&p.body.clone());
    if it.interrupted {
        Err(Interrupted)
    } else {
        Ok(it.output)
    }
}

impl Interp<'_> {
    fn set(&mut self, s: Sym, v: V) {
        self.env.insert(s, v);
    }

    /// Loop back-edge check: `true` once the deadline has passed. Every
    /// loop form consults this and bails; the remaining straight-line
    /// statements still execute (each is O(1)), so the interpreter drains
    /// in bounded time without threading `Result` through every node.
    fn expired(&mut self) -> bool {
        if self.interrupted {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.fuel -= 1;
        if self.fuel == 0 {
            self.fuel = FUEL;
            if Instant::now() >= deadline {
                self.interrupted = true;
            }
        }
        self.interrupted
    }

    fn atom(&self, a: &Atom) -> V {
        match a {
            Atom::Sym(s) => self
                .env
                .get(s)
                .cloned()
                .unwrap_or_else(|| panic!("unbound {s}")),
            Atom::Unit => V::Unit,
            Atom::Bool(b) => V::B(*b),
            Atom::Int(v) | Atom::Long(v) => V::I(*v),
            Atom::Double(_) => V::D(a.as_double().unwrap()),
            Atom::Str(s) => V::S(s.clone()),
            Atom::Null(_) => V::Null,
        }
    }

    fn block(&mut self, b: &Block) -> V {
        for st in &b.stmts {
            let v = self.expr(&st.expr, &st.ty);
            self.set(st.sym, v);
        }
        self.atom(&b.result)
    }

    fn expr(&mut self, e: &Expr, ty: &Type) -> V {
        match e {
            Expr::Atom(a) => self.atom(a),
            Expr::Bin(op, a, b) => self.bin(*op, a, b, ty),
            Expr::Un(op, a) => {
                let x = self.atom(a);
                match op {
                    UnOp::Neg => match x {
                        V::I(v) => V::I(v.wrapping_neg()),
                        V::D(v) => V::D(-v),
                        other => panic!("neg {other:?}"),
                    },
                    UnOp::Not => V::B(!x.b()),
                    UnOp::I2D | UnOp::L2D => V::D(x.d()),
                    UnOp::L2I => V::I(x.i()),
                    UnOp::Year => V::I(x.i() / 10000),
                    UnOp::HashInt => V::I(x.i().wrapping_mul(0x9E3779B97F4A7C15u64 as i64)),
                    UnOp::HashDouble => V::I(x.d().to_bits() as i64),
                }
            }
            Expr::Prim(op, args) => self.prim(*op, args),
            Expr::Dict { dict, op, arg } => {
                let x = self.atom(arg);
                let d = &self.db.dict(dict).dict;
                match op {
                    DictOp::Lookup => V::I(d.code(&x.s()) as i64),
                    DictOp::RangeStart => V::I(d.prefix_range(&x.s()).0 as i64),
                    DictOp::RangeEnd => V::I(d.prefix_range(&x.s()).1 as i64),
                    DictOp::Decode => V::S(d.decode(x.i() as i32).into()),
                }
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                if self.atom(cond).b() {
                    self.block(then_b)
                } else {
                    self.block(else_b)
                }
            }
            Expr::ForRange { lo, hi, var, body } => {
                let (l, h) = (self.atom(lo).i(), self.atom(hi).i());
                for i in l..h {
                    if self.expired() {
                        break;
                    }
                    self.set(*var, V::I(i));
                    self.block(body);
                }
                V::Unit
            }
            Expr::While { cond, body } => {
                loop {
                    if self.expired() || !self.block(cond).b() {
                        break;
                    }
                    self.block(body);
                }
                V::Unit
            }
            Expr::DeclVar { init } => self.atom(init),
            Expr::ReadVar(v) => self.env[v].clone(),
            Expr::Assign { var, value } => {
                let v = self.atom(value);
                self.set(*var, v);
                V::Unit
            }
            Expr::StructNew { args, .. } => V::Cells(Rc::new(RefCell::new(
                args.iter().map(|a| self.atom(a)).collect(),
            ))),
            Expr::FieldGet { obj, field, .. } => {
                let r = self.atom(obj).cells();
                let v = r.borrow()[*field].clone();
                v
            }
            Expr::FieldSet {
                obj, field, value, ..
            } => {
                let r = self.atom(obj).cells();
                let v = self.atom(value);
                r.borrow_mut()[*field] = v;
                V::Unit
            }
            Expr::ArrayNew { elem, len } => {
                let n = self.atom(len).i() as usize;
                let zero = zero_of(elem);
                V::Cells(Rc::new(RefCell::new(vec![zero; n])))
            }
            Expr::ArrayGet { arr, idx } => {
                let a = self.atom(arr).cells();
                let i = self.atom(idx).i() as usize;
                let v = a.borrow()[i].clone();
                v
            }
            Expr::ArraySet { arr, idx, value } => {
                let a = self.atom(arr).cells();
                let i = self.atom(idx).i() as usize;
                let v = self.atom(value);
                a.borrow_mut()[i] = v;
                V::Unit
            }
            Expr::ArrayLen(a) => {
                let n = self.atom(a).cells().borrow().len();
                V::I(n as i64)
            }
            Expr::SortArray {
                arr,
                len,
                a,
                b,
                cmp,
            } => {
                let cells = self.atom(arr).cells();
                let n = self.atom(len).i() as usize;
                let mut items: Vec<V> = cells.borrow()[..n].to_vec();
                // Simple insertion-stable mergesort via sort_by with an
                // interpreted comparator.
                items.sort_by(|x, y| {
                    self.env.insert(*a, x.clone());
                    self.env.insert(*b, y.clone());
                    // The comparator block is pure except for its locals;
                    // evaluate it directly.
                    let mut me = Interp {
                        p: self.p.clone(),
                        db: self.db,
                        params: self.params.clone(),
                        env: self.env.clone(),
                        output: String::new(),
                        // Comparators are tiny; the outer loops carry the
                        // deadline.
                        deadline: None,
                        fuel: 1,
                        interrupted: false,
                    };
                    let c = me.block(cmp).i();
                    c.cmp(&0)
                });
                cells.borrow_mut()[..n].clone_from_slice(&items);
                V::Unit
            }
            Expr::ListNew { .. } => V::Cells(Rc::new(RefCell::new(Vec::new()))),
            Expr::ListAppend { list, value } => {
                let l = self.atom(list).cells();
                let v = self.atom(value);
                l.borrow_mut().push(v);
                V::Unit
            }
            Expr::ListSize(l) => {
                let n = self.atom(l).cells().borrow().len();
                V::I(n as i64)
            }
            Expr::ListForeach { list, var, body } => {
                let l = self.atom(list).cells();
                let items: Vec<V> = l.borrow().clone();
                for v in items {
                    if self.expired() {
                        break;
                    }
                    self.set(*var, v);
                    self.block(body);
                }
                V::Unit
            }
            Expr::HashMapNew { .. } => V::Map(Rc::new(RefCell::new(HashMap::new()))),
            Expr::HashMapGetOrInit { map, key, init } => {
                let m = match self.atom(map) {
                    V::Map(m) => m,
                    other => panic!("get_or_init on {other:?}"),
                };
                let kv = self.atom(key);
                let k = key_of(&kv);
                let existing = m.borrow().get(&k).cloned();
                match existing {
                    Some(v) => v,
                    None => {
                        let v = self.block(init);
                        m.borrow_mut().insert(k, v.clone());
                        v
                    }
                }
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let m = match self.atom(map) {
                    V::Map(m) => m,
                    other => panic!("foreach on {other:?}"),
                };
                let mut entries: Vec<(Key, V)> = m
                    .borrow()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                entries.sort_by_cached_key(|(k, _)| format!("{k:?}"));
                for (k, v) in entries {
                    if self.expired() {
                        break;
                    }
                    self.set(*kvar, key_back(&k));
                    self.set(*vvar, v);
                    self.block(body);
                }
                V::Unit
            }
            Expr::MultiMapNew { .. } => V::MMap(Rc::new(RefCell::new(HashMap::new()))),
            Expr::MultiMapAdd { map, key, value } => {
                let m = match self.atom(map) {
                    V::MMap(m) => m,
                    other => panic!("add on {other:?}"),
                };
                let k = key_of(&self.atom(key));
                let v = self.atom(value);
                m.borrow_mut().entry(k).or_default().push(v);
                V::Unit
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let m = match self.atom(map) {
                    V::MMap(m) => m,
                    other => panic!("foreach_at on {other:?}"),
                };
                let k = key_of(&self.atom(key));
                let items: Vec<V> = m.borrow().get(&k).cloned().unwrap_or_default();
                for v in items {
                    if self.expired() {
                        break;
                    }
                    self.set(*var, v);
                    self.block(body);
                }
                V::Unit
            }
            // Pools: allocation identity is all that matters here; hand out
            // fresh zeroed records sized by the pool's element type.
            Expr::PoolNew { ty: t, .. } => {
                let nfields = match t {
                    Type::Record(sid) => self.p.structs.get(*sid).fields.len(),
                    _ => 0,
                };
                V::I(nfields as i64)
            }
            Expr::PoolAlloc { pool } => {
                let nfields = self.atom(pool).i() as usize;
                V::Cells(Rc::new(RefCell::new(vec![V::I(0); nfields])))
            }
            Expr::LoadTable { table, sid, .. } => self.load_table(table, *sid),
            Expr::LoadIndexUnique { table, field } => {
                int_cells(&index(self.db.table(table).index_unique(*field))[..])
            }
            Expr::LoadIndexStarts { table, field } => {
                int_cells(&index(self.db.table(table).csr(*field)).starts)
            }
            Expr::LoadIndexItems { table, field } => {
                int_cells(&index(self.db.table(table).csr(*field)).items)
            }
            Expr::Printf { fmt, args } => {
                let vals: Vec<V> = args.iter().map(|a| self.atom(a)).collect();
                let line = format_printf(fmt, &vals);
                self.output.push_str(&line);
                V::Unit
            }
            Expr::LoadParam { idx } => self
                .params
                .get(*idx)
                .cloned()
                .unwrap_or_else(|| panic!("unbound query parameter {idx}")),
        }
    }

    fn bin(&mut self, op: BinOp, a: &Atom, b: &Atom, _ty: &Type) -> V {
        use BinOp::*;
        let x = self.atom(a);
        let y = self.atom(b);
        // Null comparisons (records/pointers).
        if matches!(op, Eq | Ne) {
            let xn = matches!(x, V::Null);
            let yn = matches!(y, V::Null);
            if xn || yn {
                let eq = matches!((&x, &y), (V::Null, V::Null));
                return V::B(if op == Eq { eq } else { !eq });
            }
        }
        let numeric_dbl = matches!(x, V::D(_)) || matches!(y, V::D(_));
        match op {
            Add | Sub | Mul | Div | Max => {
                if numeric_dbl {
                    let (u, v) = (x.d(), y.d());
                    V::D(match op {
                        Add => u + v,
                        Sub => u - v,
                        Mul => u * v,
                        Div => u / v,
                        Max => u.max(v),
                        _ => unreachable!(),
                    })
                } else {
                    // Wrapping semantics to match the generated C (hash
                    // mixing below the specialization levels deliberately
                    // overflows i64).
                    let (u, v) = (x.i(), y.i());
                    V::I(match op {
                        Add => u.wrapping_add(v),
                        Sub => u.wrapping_sub(v),
                        Mul => u.wrapping_mul(v),
                        Div => u / v,
                        Max => u.max(v),
                        _ => unreachable!(),
                    })
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let ord = if numeric_dbl {
                    x.d().partial_cmp(&y.d()).expect("NaN comparison")
                } else {
                    x.i().cmp(&y.i())
                };
                let r = match op {
                    Eq => ord.is_eq(),
                    Ne => !ord.is_eq(),
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                V::B(r)
            }
            // `Bit*` double as integer bitwise ops below the hash-table
            // specialization level (bucket masking); on bools they are the
            // branchless `&&`/`||` forms of Appendix E.
            And => V::B(x.b() && y.b()),
            Or => V::B(x.b() || y.b()),
            BitAnd => match (&x, &y) {
                (V::B(_), _) | (_, V::B(_)) => V::B(x.b() && y.b()),
                _ => V::I(x.i() & y.i()),
            },
            BitOr => match (&x, &y) {
                (V::B(_), _) | (_, V::B(_)) => V::B(x.b() || y.b()),
                _ => V::I(x.i() | y.i()),
            },
        }
    }

    fn prim(&mut self, op: PrimOp, args: &[Atom]) -> V {
        let v: Vec<V> = args.iter().map(|a| self.atom(a)).collect();
        match op {
            PrimOp::StrEq => V::B(v[0].s() == v[1].s()),
            PrimOp::StrNe => V::B(v[0].s() != v[1].s()),
            PrimOp::StrCmp => V::I(match v[0].s().cmp(&v[1].s()) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }),
            PrimOp::StrStartsWith => V::B(v[0].s().starts_with(&*v[1].s())),
            PrimOp::StrEndsWith => V::B(v[0].s().ends_with(&*v[1].s())),
            PrimOp::StrContains => V::B(v[0].s().contains(&*v[1].s())),
            PrimOp::StrLike => V::B(dblab_runtime::like::like_match(&v[0].s(), &v[1].s())),
            PrimOp::StrSubstr => {
                let s = v[0].s();
                let from = (v[1].i() as usize).saturating_sub(1).min(s.len());
                let to = (from + v[2].i() as usize).min(s.len());
                V::S(s[from..to].into())
            }
            PrimOp::HashStr => {
                let mut h = 1469598103934665603u64;
                for b in v[0].s().bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(1099511628211);
                }
                V::I(h as i64)
            }
            PrimOp::TimerStart | PrimOp::TimerStop | PrimOp::PrintRusage => V::Unit,
        }
    }

    // ---- loading ---------------------------------------------------------

    fn load_table(&mut self, table: &Arc<str>, sid: dblab_ir::StructId) -> V {
        // Columns actually stored follow the (possibly pruned) struct,
        // matched to the table's by name; a string attribute typed `Int`
        // is dictionary-encoded and reads the shared code column.
        let t = self.db.table(table);
        let cols: Vec<ColumnRef<'_>> = (self.p.structs.get(sid).fields.iter())
            .map(|f| t.field_column(&f.name, f.ty == Type::Int))
            .collect();
        let rows: Vec<V> = (0..t.len())
            .map(|r| {
                let fields: Vec<V> = cols
                    .iter()
                    .map(|c| match c {
                        ColumnRef::I32(col) => V::I(col[r] as i64),
                        ColumnRef::I64(col) => V::I(col[r]),
                        ColumnRef::F64(col) => V::D(col[r]),
                        ColumnRef::Str(col) => V::S(col[r].clone()),
                    })
                    .collect();
                V::Cells(Rc::new(RefCell::new(fields)))
            })
            .collect();
        V::Cells(Rc::new(RefCell::new(rows)))
    }
}

/// An index the snapshot refused to build means the key data is
/// malformed. The interpreter has no error channel, so this unwinds; the
/// serving executables build a program's indexes before running it and
/// return the refusal as a typed error instead.
fn index<T>(built: std::io::Result<T>) -> T {
    built.unwrap_or_else(|e| panic!("{e}"))
}

fn int_cells(ints: &[i64]) -> V {
    V::Cells(Rc::new(RefCell::new(
        ints.iter().map(|&i| V::I(i)).collect(),
    )))
}

fn key_back(k: &Key) -> V {
    match k {
        Key::B(b) => V::B(*b),
        Key::I(i) => V::I(*i),
        Key::D(bits) => V::D(f64::from_bits(*bits)),
        Key::S(s) => V::S(s.clone()),
        Key::Tuple(items) => V::Cells(Rc::new(RefCell::new(items.iter().map(key_back).collect()))),
    }
}

fn zero_of(t: &Type) -> V {
    match t {
        Type::Double => V::D(0.0),
        Type::Bool => V::B(false),
        Type::Int | Type::Long => V::I(0),
        Type::String => V::S("".into()),
        _ => V::Null,
    }
}

/// Minimal printf: supports the specifiers the pipeline emits
/// (`%d %ld %c %s %.4f %%`).
fn format_printf(fmt: &str, args: &[V]) -> String {
    let mut out = String::new();
    let mut ai = 0;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let mut spec = String::new();
        for c2 in chars.by_ref() {
            spec.push(c2);
            if matches!(c2, 'd' | 'c' | 's' | 'f' | '%') {
                break;
            }
        }
        match spec.as_str() {
            "%" => out.push('%'),
            "d" | "ld" => {
                out.push_str(&args[ai].i().to_string());
                ai += 1;
            }
            "c" => {
                out.push(args[ai].i() as u8 as char);
                ai += 1;
            }
            "s" => {
                out.push_str(&args[ai].s());
                ai += 1;
            }
            ".4f" => {
                out.push_str(&format!("{:.4}", args[ai].d()));
                ai += 1;
            }
            other => panic!("unsupported printf spec %{other}"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::IrBuilder;
    use dblab_ir::Level;

    fn empty_db() -> Snapshot {
        Snapshot::from(dblab_runtime::Database {
            schema: dblab_catalog::Schema::default(),
            tables: vec![],
            dir: std::env::temp_dir(),
        })
    }

    #[test]
    fn interprets_loops_and_vars() {
        let mut b = IrBuilder::new();
        let total = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(5), |bb, i| {
            let c = bb.read_var(total);
            let n = bb.add(c, i);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let db = empty_db();
        assert_eq!(run(&p, &db), "10\n");
    }

    #[test]
    fn interprets_collections() {
        let mut b = IrBuilder::new();
        let mm = b.multimap_new(Type::Int, Type::Int, 8);
        b.multimap_add(mm.clone(), Atom::Int(1), Atom::Int(10));
        b.multimap_add(mm.clone(), Atom::Int(1), Atom::Int(20));
        b.multimap_add(mm.clone(), Atom::Int(2), Atom::Int(99));
        let total = b.decl_var(Atom::Int(0));
        b.multimap_foreach_at(mm, Atom::Int(1), |bb, v| {
            let c = bb.read_var(total);
            let n = bb.add(c, v);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::MapList);
        assert_eq!(run(&p, &empty_db()), "30\n");
    }

    #[test]
    fn expired_deadline_interrupts_instead_of_running() {
        // A long loop with a deadline already in the past: the first
        // back-edge check fires and the run reports Interrupted.
        let mut b = IrBuilder::new();
        let total = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(1_000_000), |bb, i| {
            let c = bb.read_var(total);
            let n = bb.add(c, i);
            bb.assign(total, n);
        });
        let out = b.read_var(total);
        b.printf("%d\n", vec![out]);
        let p = b.finish(Atom::Unit, Level::ScaLite);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            run_bound(&p, &empty_db(), &[], Some(past)),
            Err(Interrupted)
        );
        // And without a deadline the same program completes.
        assert!(run_bound(&p, &empty_db(), &[], None).is_ok());
    }

    #[test]
    fn interprets_sorting() {
        let mut b = IrBuilder::new();
        let arr = b.array_new(Type::Int, Atom::Int(3));
        b.array_set(arr.clone(), Atom::Int(0), Atom::Int(3));
        b.array_set(arr.clone(), Atom::Int(1), Atom::Int(1));
        b.array_set(arr.clone(), Atom::Int(2), Atom::Int(2));
        b.sort_array(arr.clone(), Atom::Int(3), |bb, x, y| bb.sub(x, y));
        b.for_range(Atom::Int(0), Atom::Int(3), |bb, i| {
            let v = bb.array_get(arr.clone(), i);
            bb.printf("%d ", vec![v]);
        });
        let p = b.finish(Atom::Unit, Level::ScaLite);
        assert_eq!(run(&p, &empty_db()), "1 2 3 ");
    }
}
