//! The C.Scala → C unparser ("stringification", paper §4.1).
//!
//! Emits one self-contained C translation unit per query: record typedefs,
//! one `load_<table>` per `LoadTable` that reads the data image's files of
//! the columns and dictionary codes its record type reads (honouring its
//! layout; [`dblab_runtime::image`] names the files and their element
//! types), index reads (Figure 7's pre-computation, done by the image
//! writer), per-key-type hash/equality functions for the generic
//! containers, sort comparators, and a `main` that loads, runs and prints
//! — "a stand-alone executable for the given query, which includes data
//! loading and data processing" (§6). `argv[1]` is the image directory.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use dblab_catalog::Schema;
use dblab_ir::expr::{Atom, BinOp, Block, DictOp, Expr, Layout, PrimOp, Stmt, Sym, UnOp};
use dblab_ir::types::StructId;
use dblab_ir::{Program, Type};
use dblab_runtime::image::{self, Elem, Part};

use crate::tables::TableInfo;

/// Generate the complete C source for a program.
pub fn emit(p: &Program, schema: &Schema) -> String {
    let mut e = Emitter::new(p, schema);
    e.tables = crate::tables::collect_tables(p, schema);
    e.emit_structs();
    e.emit_tables();
    let mut body = String::new();
    e.block(&p.body, 1, &mut body);
    let mut out = String::new();
    out.push_str("#include \"dblab_runtime.h\"\n");
    // The parameter helpers ride inside the generated source only when
    // used, so parameter-free programs stay byte-identical and keep their
    // build-cache entries.
    if e.uses_param {
        out.push_str(crate::runtime::DBLAB_RUNTIME_PARAM_H);
    }
    out.push('\n');
    out.push_str(&e.typedefs);
    out.push('\n');
    out.push_str(&e.top);
    out.push_str("\nint main(int argc, char** argv) {\n");
    out.push_str("    dblab_image_dir = argc > 1 ? argv[1] : \".\";\n");
    if e.uses_param {
        out.push_str("    dblab_argc = argc; dblab_argv = argv;\n");
    }
    out.push_str(&body);
    out.push_str("    return 0;\n}\n");
    out
}

struct Emitter<'p> {
    p: &'p Program,
    schema: &'p Schema,
    typedefs: String,
    top: String,
    /// table sym -> info.
    tables: HashMap<Sym, TableInfo>,
    /// Columnar row handles: sym -> (table sym, row-index C expr).
    handles: HashMap<Sym, (Sym, String)>,
    /// elem C type -> wrapper typedef name.
    arr_types: HashMap<String, String>,
    /// sids with generated key hash/eq functions.
    key_fns: HashSet<StructId>,
    fn_ctr: usize,
    /// Program contains a LoadParam: pull in the argv-parameter prelude.
    uses_param: bool,
}

impl<'p> Emitter<'p> {
    fn new(p: &'p Program, schema: &'p Schema) -> Emitter<'p> {
        Emitter {
            p,
            schema,
            typedefs: String::new(),
            top: String::new(),
            tables: HashMap::new(),
            handles: HashMap::new(),
            arr_types: HashMap::new(),
            key_fns: HashSet::new(),
            fn_ctr: 0,
            uses_param: false,
        }
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn emit_structs(&mut self) {
        // Forward declarations first (intrusive `next` fields are
        // self-referential).
        for (_, def) in self.p.structs.iter() {
            let _ = writeln!(
                self.typedefs,
                "typedef struct {n} {n};",
                n = ident(&def.name)
            );
        }
        let defs: Vec<dblab_ir::StructDef> =
            self.p.structs.iter().map(|(_, d)| d.clone()).collect();
        for def in defs {
            let mut s = format!("struct {} {{\n", ident(&def.name));
            for f in &def.fields {
                let ct = self.c_type(&f.ty);
                let _ = writeln!(s, "    {} {};", ct, ident(&f.name));
            }
            s.push_str("};\n");
            self.typedefs.push_str(&s);
        }
    }

    fn c_type(&mut self, t: &Type) -> String {
        match t {
            Type::Unit => "void".into(),
            Type::Bool | Type::Int => "int32_t".into(),
            Type::Long => "int64_t".into(),
            Type::Double => "double".into(),
            Type::String => "const char*".into(),
            Type::Record(sid) => format!("{}*", ident(&self.p.structs.get(*sid).name)),
            Type::Pointer(inner) => match &**inner {
                Type::Record(sid) => format!("{}*", ident(&self.p.structs.get(*sid).name)),
                other => format!("{}*", self.c_type(other)),
            },
            Type::Array(elem) => {
                let ec = self.c_type(elem);
                self.arr_type(&ec)
            }
            Type::List(_) => "dblab_vec*".into(),
            Type::HashMap(..) | Type::MultiMap(..) => "dblab_hash*".into(),
            Type::Pool(_) => "dblab_pool*".into(),
        }
    }

    /// Wrapper struct (data + len) for an element C type.
    fn arr_type(&mut self, elem_c: &str) -> String {
        if let Some(n) = self.arr_types.get(elem_c) {
            return n.clone();
        }
        let name = format!("arr_{}", self.arr_types.len());
        let _ = writeln!(
            self.typedefs,
            "typedef struct {{ {elem_c}* data; int64_t len; }} {name};"
        );
        self.arr_types.insert(elem_c.to_string(), name.clone());
        name
    }

    /// Per loaded table, its globals and one `load_<table>` that reads the
    /// image files of the columns its record type reads (a
    /// dictionary-encoded field's codes, with the dictionary's values),
    /// each whole, into the column arrays or — row layout — into records
    /// built from them.
    fn emit_tables(&mut self) {
        let mut infos: Vec<TableInfo> = self.tables.values().cloned().collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        for info in infos {
            let t = ident(&info.name);
            let def = self.schema.table(&info.name);
            let rec_def = self.p.structs.get(info.sid).clone();
            let rec = ident(&rec_def.name);
            let columnar = matches!(info.layout, Layout::Columnar);
            let mut globals = format!("static int64_t g_{t}_len;\n");
            if !columnar {
                let _ = writeln!(globals, "static {rec}** g_{t}_rows;");
            }
            let mut s = String::new();
            let rows = c_string(&image::rows_file(&info.name));
            let _ = writeln!(s, "static void load_{t}(void) {{");
            let _ = writeln!(s, "    int64_t n = dblab_image_rows({rows});");
            let _ = writeln!(s, "    g_{t}_len = n;");
            for (fi, f) in rec_def.fields.iter().enumerate() {
                let c = def.col_index(&f.name);
                let ct = self.c_type(&f.ty);
                let (part, elem) = match info.parts.contains(&Part::Dict(c)) {
                    true => (Part::Dict(c), Elem::I32),
                    false => (Part::Column(c), Elem::of(def.columns[c].ty)),
                };
                assert_eq!(
                    ct,
                    elem.c_type(),
                    "{}.{} is not stored the way the program's record type reads it",
                    def.name,
                    f.name
                );
                let files: Vec<String> = part.files(def).iter().map(|f| c_string(f)).collect();
                let read = match elem {
                    Elem::Str => format!("dblab_image_strings({}, {}, n)", files[0], files[1]),
                    _ => format!("({ct}*)dblab_image_array({}, n, sizeof({ct}))", files[0]),
                };
                let target = match columnar {
                    true => format!("g_{t}_{}", ident(&f.name)),
                    false => format!("{ct}* c{fi}"),
                };
                if columnar {
                    let _ = writeln!(globals, "static {ct}* {target};");
                }
                let _ = writeln!(s, "    {target} = {read};");
                if let Part::Dict(_) = part {
                    assert!(columnar, "dictionaries require the columnar layout");
                    let (values, bytes) = (&files[1], &files[2]);
                    let _ = writeln!(globals, "static dblab_dict g_dict_{t}__{c};");
                    let _ = writeln!(
                        s,
                        "    g_dict_{t}__{c} = dblab_image_dict({values}, {bytes});"
                    );
                }
            }
            if !columnar {
                let _ = writeln!(
                    s,
                    "    g_{t}_rows = ({rec}**)malloc((size_t)n * sizeof({rec}*));"
                );
                let _ = writeln!(s, "    for (int64_t i = 0; i < n; i++) {{");
                let _ = writeln!(s, "        {rec}* r = ({rec}*)malloc(sizeof({rec}));");
                for (fi, f) in rec_def.fields.iter().enumerate() {
                    let _ = writeln!(s, "        r->{} = c{fi}[i];", ident(&f.name));
                }
                let _ = writeln!(s, "        g_{t}_rows[i] = r;");
                let _ = writeln!(s, "    }}");
                for fi in 0..rec_def.fields.len() {
                    let _ = writeln!(s, "    free((void*)c{fi});");
                }
            }
            let _ = writeln!(s, "}}");
            self.top.push_str(&globals);
            self.top.push_str(&s);
            self.top.push('\n');
        }
    }

    /// A `LoadIndex*` statement: `file` of the image, an `int32_t` array.
    fn image_ints(&mut self, st: &Stmt, depth: usize, out: &mut String, file: &str) {
        let arr = self.c_type(&st.ty);
        let x = st.sym.0;
        self.line(depth, out, &format!("{arr} x{x};"));
        let read = format!(
            "x{x}.data = dblab_image_ints({}, &x{x}.len);",
            c_string(file)
        );
        self.line(depth, out, &read);
    }

    // ------------------------------------------------------------------
    // Atoms and helpers
    // ------------------------------------------------------------------

    fn atom(&self, a: &Atom) -> String {
        match a {
            Atom::Sym(s) => format!("x{}", s.0),
            Atom::Unit => "0".into(),
            Atom::Bool(b) => {
                if *b {
                    "1".into()
                } else {
                    "0".into()
                }
            }
            Atom::Int(v) => format!("{v}"),
            Atom::Long(v) => format!("{v}LL"),
            Atom::Double(_) => {
                let v = a.as_double().unwrap();
                if v == f64::INFINITY {
                    "(1.0/0.0)".into()
                } else if v == f64::NEG_INFINITY {
                    "(-1.0/0.0)".into()
                } else {
                    let s = format!("{v:?}");
                    s
                }
            }
            Atom::Str(s) => c_string(s),
            Atom::Null(_) => "NULL".into(),
        }
    }

    fn field_name(&self, sid: StructId, field: usize) -> String {
        ident(&self.p.structs.get(sid).fields[field].name)
    }

    /// C lvalue/rvalue for a field access, resolving columnar row handles.
    fn field_access(&self, obj: &Atom, sid: StructId, field: usize) -> String {
        if let Atom::Sym(s) = obj {
            if let Some((tsym, idx)) = self.handles.get(s) {
                let info = &self.tables[tsym];
                return format!(
                    "g_{}_{}[{idx}]",
                    ident(&info.name),
                    self.field_name(sid, field)
                );
            }
        }
        format!("{}->{}", self.atom(obj), self.field_name(sid, field))
    }

    /// Box a key value into `void*` for the generic containers.
    fn box_key(&mut self, key: &Atom) -> String {
        match self.key_kind(key) {
            KeyKind::Int => format!("(void*)(intptr_t){}", self.atom(key)),
            KeyKind::Str | KeyKind::Rec(_) => format!("(void*){}", self.atom(key)),
        }
    }

    fn key_kind(&self, key: &Atom) -> KeyKind {
        match self.p.atom_type(key) {
            Type::Int | Type::Long | Type::Bool => KeyKind::Int,
            Type::String => KeyKind::Str,
            Type::Record(sid) => KeyKind::Rec(sid),
            // Memory hoisting rewrites record construction to pool
            // pointers; keys keep their record identity.
            Type::Pointer(inner) => match *inner {
                Type::Record(sid) => KeyKind::Rec(sid),
                other => panic!("unsupported generic hash key type {other}*"),
            },
            other => panic!("unsupported generic hash key type {other}"),
        }
    }

    /// hash/eq function names for a key atom; generates record key
    /// functions on demand.
    fn key_fns(&mut self, key: &Atom) -> (String, String) {
        match self.key_kind(key) {
            KeyKind::Int => ("dblab_keyhash_int".into(), "dblab_keyeq_int".into()),
            KeyKind::Str => ("dblab_keyhash_str".into(), "dblab_keyeq_str".into()),
            KeyKind::Rec(sid) => {
                let rec = ident(&self.p.structs.get(sid).name);
                if !self.key_fns.contains(&sid) {
                    self.key_fns.insert(sid);
                    let def = self.p.structs.get(sid).clone();
                    let mut s = String::new();
                    let _ = writeln!(s, "static uint64_t keyhash_{rec}(void* vp) {{");
                    let _ = writeln!(s, "    {rec}* k = ({rec}*)vp;");
                    let _ = writeln!(s, "    uint64_t h = 7;");
                    for f in &def.fields {
                        let fname = ident(&f.name);
                        let hx = match f.ty {
                            Type::Double => format!("dblab_hash_dbl(k->{fname})"),
                            Type::String => format!("dblab_hash_str(k->{fname})"),
                            _ => format!("dblab_hash_i64((int64_t)k->{fname})"),
                        };
                        let _ = writeln!(s, "    h = h * 31 + {hx};");
                    }
                    let _ = writeln!(s, "    return h;");
                    let _ = writeln!(s, "}}");
                    let _ = writeln!(s, "static int keyeq_{rec}(void* va, void* vb) {{");
                    let _ = writeln!(s, "    {rec}* a = ({rec}*)va; {rec}* b = ({rec}*)vb;");
                    let mut conds = Vec::new();
                    for f in &def.fields {
                        let fname = ident(&f.name);
                        conds.push(match f.ty {
                            Type::String => format!("strcmp(a->{fname}, b->{fname}) == 0"),
                            _ => format!("a->{fname} == b->{fname}"),
                        });
                    }
                    let _ = writeln!(s, "    return {};", conds.join(" && "));
                    let _ = writeln!(s, "}}");
                    self.top.push_str(&s);
                }
                (format!("keyhash_{rec}"), format!("keyeq_{rec}"))
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self, b: &Block, depth: usize, out: &mut String) {
        for st in &b.stmts {
            self.stmt(st, depth, out);
        }
    }

    fn line(&self, depth: usize, out: &mut String, text: &str) {
        for _ in 0..depth {
            out.push_str("    ");
        }
        out.push_str(text);
        out.push('\n');
    }

    /// Declare-and-assign helper.
    fn def(&mut self, st: &Stmt, depth: usize, out: &mut String, rhs: &str) {
        if st.ty == Type::Unit {
            self.line(depth, out, &format!("{rhs};"));
        } else {
            let ct = self.c_type(&st.ty);
            self.line(depth, out, &format!("{ct} x{} = {rhs};", st.sym.0));
        }
    }

    fn stmt(&mut self, st: &Stmt, depth: usize, out: &mut String) {
        match &st.expr {
            Expr::Atom(a) => {
                let rhs = self.atom(a);
                self.def(st, depth, out, &rhs);
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.atom(a), self.atom(b));
                let rhs = match op {
                    BinOp::Add => format!("({x} + {y})"),
                    BinOp::Sub => format!("({x} - {y})"),
                    BinOp::Mul => format!("({x} * {y})"),
                    BinOp::Div => format!("({x} / {y})"),
                    BinOp::Eq => format!("({x} == {y})"),
                    BinOp::Ne => format!("({x} != {y})"),
                    BinOp::Lt => format!("({x} < {y})"),
                    BinOp::Le => format!("({x} <= {y})"),
                    BinOp::Gt => format!("({x} > {y})"),
                    BinOp::Ge => format!("({x} >= {y})"),
                    BinOp::And => format!("({x} && {y})"),
                    BinOp::Or => format!("({x} || {y})"),
                    BinOp::BitAnd => format!("({x} & {y})"),
                    BinOp::BitOr => format!("({x} | {y})"),
                    BinOp::Max => format!("({x} > {y} ? {x} : {y})"),
                };
                self.def(st, depth, out, &rhs);
            }
            Expr::Un(op, a) => {
                let x = self.atom(a);
                let rhs = match op {
                    UnOp::Neg => format!("(-{x})"),
                    UnOp::Not => format!("(!{x})"),
                    UnOp::I2D | UnOp::L2D => format!("(double){x}"),
                    UnOp::L2I => format!("(int32_t){x}"),
                    UnOp::Year => format!("({x} / 10000)"),
                    UnOp::HashInt => format!("dblab_hash_i64((int64_t){x})"),
                    UnOp::HashDouble => format!("dblab_hash_dbl({x})"),
                };
                self.def(st, depth, out, &rhs);
            }
            Expr::Prim(op, args) => {
                let a: Vec<String> = args.iter().map(|x| self.atom(x)).collect();
                let rhs = match op {
                    PrimOp::StrEq => format!("(strcmp({}, {}) == 0)", a[0], a[1]),
                    PrimOp::StrNe => format!("(strcmp({}, {}) != 0)", a[0], a[1]),
                    PrimOp::StrCmp => format!("strcmp({}, {})", a[0], a[1]),
                    PrimOp::StrStartsWith => format!("dblab_starts_with({}, {})", a[0], a[1]),
                    PrimOp::StrEndsWith => format!("dblab_ends_with({}, {})", a[0], a[1]),
                    PrimOp::StrContains => format!("(strstr({}, {}) != NULL)", a[0], a[1]),
                    PrimOp::StrLike => format!("dblab_like({}, {})", a[0], a[1]),
                    PrimOp::StrSubstr => format!("dblab_substr({}, {}, {})", a[0], a[1], a[2]),
                    PrimOp::HashStr => format!("dblab_hash_str({})", a[0]),
                    PrimOp::TimerStart => "dblab_timer_start()".into(),
                    PrimOp::TimerStop => "dblab_timer_stop()".into(),
                    PrimOp::PrintRusage => "dblab_print_rusage()".into(),
                };
                self.def(st, depth, out, &rhs);
            }
            Expr::Dict { dict, op, arg } => {
                let d = format!("g_dict_{}", ident(dict));
                let x = self.atom(arg);
                let rhs = match op {
                    DictOp::Lookup => format!("dblab_dict_lookup(&{d}, {x})"),
                    DictOp::RangeStart => format!("dblab_dict_range_start(&{d}, {x})"),
                    DictOp::RangeEnd => format!("dblab_dict_range_end(&{d}, {x})"),
                    DictOp::Decode => format!("{d}.values[{x}]"),
                };
                self.def(st, depth, out, &rhs);
            }
            Expr::If {
                cond,
                then_b,
                else_b,
            } => {
                let c = self.atom(cond);
                if st.ty == Type::Unit {
                    self.line(depth, out, &format!("if ({c}) {{"));
                    self.block(then_b, depth + 1, out);
                    if !else_b.stmts.is_empty() {
                        self.line(depth, out, "} else {");
                        self.block(else_b, depth + 1, out);
                    }
                    self.line(depth, out, "}");
                } else {
                    let ct = self.c_type(&st.ty);
                    self.line(depth, out, &format!("{ct} x{};", st.sym.0));
                    self.line(depth, out, &format!("if ({c}) {{"));
                    self.block(then_b, depth + 1, out);
                    let tr = self.atom(&then_b.result);
                    self.line(depth + 1, out, &format!("x{} = {tr};", st.sym.0));
                    self.line(depth, out, "} else {");
                    self.block(else_b, depth + 1, out);
                    let er = self.atom(&else_b.result);
                    self.line(depth + 1, out, &format!("x{} = {er};", st.sym.0));
                    self.line(depth, out, "}");
                }
            }
            Expr::ForRange { lo, hi, var, body } => {
                let (l, h) = (self.atom(lo), self.atom(hi));
                self.line(
                    depth,
                    out,
                    &format!("for (int64_t x{v} = {l}; x{v} < {h}; x{v}++) {{", v = var.0),
                );
                self.block(body, depth + 1, out);
                self.line(depth, out, "}");
            }
            Expr::While { cond, body } => {
                self.line(depth, out, "while (1) {");
                self.block(cond, depth + 1, out);
                let c = self.atom(&cond.result);
                self.line(depth + 1, out, &format!("if (!({c})) break;"));
                self.block(body, depth + 1, out);
                self.line(depth, out, "}");
            }
            Expr::DeclVar { init } => {
                let ct = self.c_type(&st.ty);
                let rhs = self.atom(init);
                self.line(depth, out, &format!("{ct} x{} = {rhs};", st.sym.0));
            }
            Expr::ReadVar(v) => {
                let ct = self.c_type(&st.ty);
                self.line(depth, out, &format!("{ct} x{} = x{};", st.sym.0, v.0));
            }
            Expr::Assign { var, value } => {
                let rhs = self.atom(value);
                self.line(depth, out, &format!("x{} = {rhs};", var.0));
            }
            Expr::StructNew { sid, args, .. } => {
                let rec = ident(&self.p.structs.get(*sid).name);
                self.line(
                    depth,
                    out,
                    &format!("{rec}* x{} = ({rec}*)malloc(sizeof({rec}));", st.sym.0),
                );
                for (i, a) in args.iter().enumerate() {
                    let v = self.atom(a);
                    let f = self.field_name(*sid, i);
                    self.line(depth, out, &format!("x{}->{f} = {v};", st.sym.0));
                }
            }
            Expr::FieldGet { obj, sid, field } => {
                let rhs = self.field_access(obj, *sid, *field);
                self.def(st, depth, out, &rhs);
            }
            Expr::FieldSet {
                obj,
                sid,
                field,
                value,
            } => {
                let lv = self.field_access(obj, *sid, *field);
                let v = self.atom(value);
                self.line(depth, out, &format!("{lv} = {v};"));
            }
            Expr::ArrayNew { elem, len } => {
                let ec = self.c_type(elem);
                let an = self.arr_type(&ec);
                let l = self.atom(len);
                self.line(depth, out, &format!("{an} x{};", st.sym.0));
                self.line(depth, out, &format!("x{}.len = {l};", st.sym.0));
                self.line(
                    depth,
                    out,
                    &format!(
                        "x{s}.data = ({ec}*)calloc((size_t)x{s}.len, sizeof({ec}));",
                        s = st.sym.0
                    ),
                );
            }
            Expr::ArrayGet { arr, idx } => {
                let i = self.atom(idx);
                if let Atom::Sym(asym) = arr {
                    if let Some(info) = self.tables.get(asym) {
                        match info.layout {
                            Layout::Columnar => {
                                // Row handle: no C value; later FieldGets
                                // index the column arrays directly.
                                self.handles.insert(st.sym, (*asym, i));
                                return;
                            }
                            _ => {
                                let rec = ident(&self.p.structs.get(info.sid).name);
                                let t = ident(&info.name);
                                self.line(
                                    depth,
                                    out,
                                    &format!("{rec}* x{} = g_{t}_rows[{i}];", st.sym.0),
                                );
                                return;
                            }
                        }
                    }
                }
                let a = self.atom(arr);
                self.def(st, depth, out, &format!("{a}.data[{i}]"));
            }
            Expr::ArraySet { arr, idx, value } => {
                let (a, i, v) = (self.atom(arr), self.atom(idx), self.atom(value));
                self.line(depth, out, &format!("{a}.data[{i}] = {v};"));
            }
            Expr::ArrayLen(arr) => {
                if let Atom::Sym(asym) = arr {
                    if let Some(info) = self.tables.get(asym) {
                        let t = ident(&info.name);
                        self.def(st, depth, out, &format!("(int32_t)g_{t}_len"));
                        return;
                    }
                }
                let a = self.atom(arr);
                self.def(st, depth, out, &format!("(int32_t){a}.len"));
            }
            Expr::SortArray {
                arr,
                len,
                a,
                b,
                cmp,
            } => {
                // Comparator over boxed record pointers.
                self.fn_ctr += 1;
                let name = format!("dblab_cmp_{}", self.fn_ctr);
                let elem_ty = self
                    .p
                    .atom_type(arr)
                    .elem()
                    .cloned()
                    .expect("sort over array");
                let ec = self.c_type(&elem_ty);
                let mut f = String::new();
                let _ = writeln!(f, "static int {name}(const void* pa, const void* pb) {{");
                let _ = writeln!(f, "    {ec} x{} = *({ec}*)pa;", a.0);
                let _ = writeln!(f, "    {ec} x{} = *({ec}*)pb;", b.0);
                let mut body = String::new();
                self.block(cmp, 1, &mut body);
                f.push_str(&body);
                let _ = writeln!(f, "    return (int){};", self.atom(&cmp.result));
                let _ = writeln!(f, "}}");
                self.top.push_str(&f);
                let (av, lv) = (self.atom(arr), self.atom(len));
                self.line(
                    depth,
                    out,
                    &format!("qsort({av}.data, (size_t){lv}, sizeof({ec}), {name});"),
                );
            }
            Expr::ListNew { .. } => {
                self.def(st, depth, out, "dblab_vec_new()");
            }
            Expr::ListAppend { list, value } => {
                let (l, v) = (self.atom(list), self.atom(value));
                self.line(depth, out, &format!("dblab_vec_push({l}, (void*){v});"));
            }
            Expr::ListSize(l) => {
                let lv = self.atom(l);
                self.def(st, depth, out, &format!("(int32_t){lv}->len"));
            }
            Expr::ListForeach { list, var, body } => {
                let l = self.atom(list);
                let vt = self.p.type_of(*var).clone();
                let et = self.c_type(&vt);
                self.fn_ctr += 1;
                let iv = format!("li_{}", self.fn_ctr);
                self.line(
                    depth,
                    out,
                    &format!("for (int64_t {iv} = 0; {iv} < {l}->len; {iv}++) {{"),
                );
                self.line(
                    depth + 1,
                    out,
                    &format!("{et} x{} = ({et}){l}->items[{iv}];", var.0),
                );
                self.block(body, depth + 1, out);
                self.line(depth, out, "}");
            }
            Expr::HashMapNew { .. } | Expr::MultiMapNew { .. } => {
                // Key type comes from the map's IR type.
                let key_ty = match self.p.type_of(st.sym) {
                    Type::HashMap(k, _) | Type::MultiMap(k, _) => (**k).clone(),
                    other => panic!("map stmt with type {other}"),
                };
                let probe = Atom::Null(Box::new(key_ty));
                let (h, e) = self.key_fns(&probe);
                self.def(st, depth, out, &format!("dblab_hash_new({h}, {e})"));
            }
            Expr::HashMapGetOrInit { map, key, init } => {
                let m = self.atom(map);
                let kk = self.box_key(key);
                let vt = self.c_type(&st.ty);
                self.line(depth, out, &format!("{vt} x{};", st.sym.0));
                self.line(depth, out, "{");
                self.line(depth + 1, out, &format!("void* kk = {kk};"));
                self.line(
                    depth + 1,
                    out,
                    &format!("void* got = dblab_hash_get({m}, kk);"),
                );
                self.line(depth + 1, out, "if (!got) {");
                self.block(init, depth + 2, out);
                let ir = self.atom(&init.result);
                self.line(depth + 2, out, &format!("got = (void*){ir};"));
                self.line(depth + 2, out, &format!("dblab_hash_put({m}, kk, got);"));
                self.line(depth + 1, out, "}");
                self.line(depth + 1, out, &format!("x{} = ({vt})got;", st.sym.0));
                self.line(depth, out, "}");
            }
            Expr::HashMapForeach {
                map,
                kvar,
                vvar,
                body,
            } => {
                let m = self.atom(map);
                self.fn_ctr += 1;
                let (bi, nd) = (format!("hb_{}", self.fn_ctr), format!("hn_{}", self.fn_ctr));
                self.line(
                    depth,
                    out,
                    &format!("for (int64_t {bi} = 0; {bi} < {m}->nbuckets; {bi}++)"),
                );
                self.line(
                    depth,
                    out,
                    &format!(
                        "for (dblab_node* {nd} = {m}->buckets[{bi}]; {nd}; {nd} = {nd}->next) {{"
                    ),
                );
                let kt = self.p.type_of(*kvar).clone();
                let kc = self.c_type(&kt);
                let unbox = match kt {
                    Type::Int | Type::Long | Type::Bool => {
                        format!("({kc})(intptr_t){nd}->key")
                    }
                    _ => format!("({kc}){nd}->key"),
                };
                self.line(depth + 1, out, &format!("{kc} x{} = {unbox};", kvar.0));
                let vt = self.c_type(&self.p.type_of(*vvar).clone());
                self.line(
                    depth + 1,
                    out,
                    &format!("{vt} x{} = ({vt}){nd}->val;", vvar.0),
                );
                self.block(body, depth + 1, out);
                self.line(depth, out, "}");
            }
            Expr::MultiMapAdd { map, key, value } => {
                let m = self.atom(map);
                let kk = self.box_key(key);
                let v = self.atom(value);
                self.line(
                    depth,
                    out,
                    &format!("dblab_multimap_add({m}, {kk}, (void*){v});"),
                );
            }
            Expr::MultiMapForeachAt {
                map,
                key,
                var,
                body,
            } => {
                let m = self.atom(map);
                let kk = self.box_key(key);
                self.fn_ctr += 1;
                let (lv, iv) = (format!("ml_{}", self.fn_ctr), format!("mi_{}", self.fn_ctr));
                self.line(
                    depth,
                    out,
                    &format!("dblab_vec* {lv} = (dblab_vec*)dblab_hash_get({m}, {kk});"),
                );
                self.line(
                    depth,
                    out,
                    &format!("if ({lv}) for (int64_t {iv} = 0; {iv} < {lv}->len; {iv}++) {{"),
                );
                let vt = self.c_type(&self.p.type_of(*var).clone());
                self.line(
                    depth + 1,
                    out,
                    &format!("{vt} x{} = ({vt}){lv}->items[{iv}];", var.0),
                );
                self.block(body, depth + 1, out);
                self.line(depth, out, "}");
            }
            Expr::PoolNew { ty, cap } => {
                let rec = match ty {
                    Type::Record(sid) => ident(&self.p.structs.get(*sid).name),
                    other => panic!("pool of {other}"),
                };
                let c = self.atom(cap);
                self.def(
                    st,
                    depth,
                    out,
                    &format!("dblab_pool_new(sizeof({rec}), (size_t)({c}))"),
                );
            }
            Expr::PoolAlloc { pool } => {
                let pv = self.atom(pool);
                let ct = self.c_type(&st.ty);
                self.def(st, depth, out, &format!("({ct})dblab_pool_alloc({pv})"));
            }
            Expr::LoadTable { table, .. } => {
                self.line(depth, out, &format!("load_{}();", ident(table)));
            }
            Expr::LoadIndexUnique { table, field } => {
                let files = Part::Unique(*field).files(self.schema.table(table));
                self.image_ints(st, depth, out, &files[0]);
            }
            Expr::LoadIndexStarts { table, field } => {
                let files = Part::Csr(*field).files(self.schema.table(table));
                self.image_ints(st, depth, out, &files[0]);
            }
            Expr::LoadIndexItems { table, field } => {
                let files = Part::Csr(*field).files(self.schema.table(table));
                self.image_ints(st, depth, out, &files[1]);
            }
            Expr::Printf { fmt, args } => {
                let mut call = format!("printf({}", c_string(fmt));
                for a in args {
                    call.push_str(", ");
                    // Cast per IR type so varargs promotion is well-defined.
                    let cast = match self.p.atom_type(a) {
                        Type::Int | Type::Bool => "(int)",
                        Type::Long => "(long)",
                        Type::Double => "(double)",
                        _ => "",
                    };
                    call.push_str(cast);
                    call.push_str(&self.atom(a));
                }
                call.push_str(");");
                self.line(depth, out, &call);
            }
            Expr::LoadParam { idx } => {
                self.uses_param = true;
                let rhs = match &st.ty {
                    Type::Int => format!("atoi(dblab_param({idx}))"),
                    Type::Long => format!("atoll(dblab_param({idx}))"),
                    Type::Double => format!("atof(dblab_param({idx}))"),
                    Type::Bool => format!("(atoi(dblab_param({idx})) != 0)"),
                    Type::String => format!("dblab_param({idx})"),
                    other => panic!("unsupported query-parameter type {other:?}"),
                };
                self.def(st, depth, out, &rhs);
            }
        }
    }
}

enum KeyKind {
    Int,
    Str,
    Rec(StructId),
}

/// Sanitize a name into a C identifier.
fn ident(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a Rust string into a C string literal.
fn c_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '%' => out.push('%'),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
