//! Pretty printer: renders IR programs in the paper's Scala-like surface
//! syntax (Figure 4). Used by the examples (`--show-ir`), debugging, and
//! golden tests.

use std::fmt::Write as _;

use crate::expr::{Atom, BinOp, Block, DictOp, Expr, PrimOp, Program, Stmt, UnOp};

/// Render a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// level: {}", p.level);
    for (id, def) in p.structs.iter() {
        let fields: Vec<String> = def
            .fields
            .iter()
            .map(|f| format!("{}: {}", f.name, f.ty))
            .collect();
        let _ = writeln!(
            out,
            "// struct #{} {}({})",
            id.0,
            def.name,
            fields.join(", ")
        );
    }
    print_block_inner(&p.body, 0, &mut out);
    if !matches!(p.body.result, Atom::Unit) {
        let _ = writeln!(out, "return {}", atom(&p.body.result));
    }
    out
}

pub fn print_block(b: &Block) -> String {
    let mut out = String::new();
    print_block_inner(b, 0, &mut out);
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn print_block_inner(b: &Block, depth: usize, out: &mut String) {
    for st in &b.stmts {
        print_stmt(st, depth, out);
    }
}

fn block_arg(b: &Block, depth: usize, out: &mut String) {
    out.push_str("{\n");
    print_block_inner(b, depth + 1, out);
    indent(depth + 1, out);
    let _ = writeln!(out, "{}", atom(&b.result));
    indent(depth, out);
    out.push('}');
}

fn atom(a: &Atom) -> String {
    match a {
        Atom::Sym(s) => format!("{s}"),
        Atom::Unit => "()".into(),
        Atom::Bool(v) => format!("{v}"),
        Atom::Int(v) => format!("{v}"),
        Atom::Long(v) => format!("{v}L"),
        Atom::Double(_) => format!("{}", a.as_double().unwrap()),
        Atom::Str(s) => format!("{s:?}"),
        Atom::Null(_) => "null".into(),
    }
}

fn bin_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::Max => "max",
    }
}

fn print_stmt(st: &Stmt, depth: usize, out: &mut String) {
    indent(depth, out);
    let lhs = |out: &mut String, st: &Stmt| {
        let _ = write!(out, "val {}: {} = ", st.sym, st.ty);
    };
    match &st.expr {
        Expr::Atom(a) => {
            lhs(out, st);
            let _ = writeln!(out, "{}", atom(a));
        }
        Expr::Bin(op, a, b) => {
            lhs(out, st);
            let _ = writeln!(out, "{} {} {}", atom(a), bin_op(*op), atom(b));
        }
        Expr::Un(op, a) => {
            lhs(out, st);
            let name = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::I2D => "i2d ",
                UnOp::L2D => "l2d ",
                UnOp::Year => "year ",
                UnOp::L2I => "l2i ",
                UnOp::HashInt => "hash ",
                UnOp::HashDouble => "hashD ",
            };
            let _ = writeln!(out, "{}{}", name, atom(a));
        }
        Expr::Prim(op, args) => {
            lhs(out, st);
            let name = match op {
                PrimOp::StrEq => "strEq",
                PrimOp::StrNe => "strNe",
                PrimOp::StrCmp => "strCmp",
                PrimOp::StrStartsWith => "startsWith",
                PrimOp::StrEndsWith => "endsWith",
                PrimOp::StrContains => "contains",
                PrimOp::StrLike => "like",
                PrimOp::StrSubstr => "substr",
                PrimOp::HashStr => "hashStr",
                PrimOp::TimerStart => "timerStart",
                PrimOp::TimerStop => "timerStop",
                PrimOp::PrintRusage => "printRusage",
            };
            let args: Vec<String> = args.iter().map(atom).collect();
            let _ = writeln!(out, "{}({})", name, args.join(", "));
        }
        Expr::Dict { dict, op, arg } => {
            lhs(out, st);
            let name = match op {
                DictOp::Lookup => "lookup",
                DictOp::RangeStart => "rangeStart",
                DictOp::RangeEnd => "rangeEnd",
                DictOp::Decode => "decode",
            };
            let _ = writeln!(out, "dict[{}].{}({})", dict, name, atom(arg));
        }
        Expr::If {
            cond,
            then_b,
            else_b,
        } => {
            lhs(out, st);
            let _ = write!(out, "if ({}) ", atom(cond));
            block_arg(then_b, depth, out);
            if !else_b.stmts.is_empty() || !matches!(else_b.result, Atom::Unit) {
                out.push_str(" else ");
                block_arg(else_b, depth, out);
            }
            out.push('\n');
        }
        Expr::ForRange { lo, hi, var, body } => {
            let _ = write!(out, "for ({} <- {} until {}) ", var, atom(lo), atom(hi));
            block_arg(body, depth, out);
            out.push('\n');
        }
        Expr::While { cond, body } => {
            out.push_str("while ");
            block_arg(cond, depth, out);
            out.push(' ');
            block_arg(body, depth, out);
            out.push('\n');
        }
        Expr::DeclVar { init } => {
            let _ = writeln!(out, "var {}: {} = {}", st.sym, st.ty, atom(init));
        }
        Expr::ReadVar(v) => {
            lhs(out, st);
            let _ = writeln!(out, "{v}");
        }
        Expr::Assign { var, value } => {
            let _ = writeln!(out, "{} = {}", var, atom(value));
        }
        Expr::StructNew { sid, args, .. } => {
            lhs(out, st);
            let args: Vec<String> = args.iter().map(atom).collect();
            let _ = writeln!(out, "new #{}({})", sid.0, args.join(", "));
        }
        Expr::FieldGet { obj, field, .. } => {
            lhs(out, st);
            let _ = writeln!(out, "{}.f{}", atom(obj), field);
        }
        Expr::FieldSet {
            obj, field, value, ..
        } => {
            let _ = writeln!(out, "{}.f{} = {}", atom(obj), field, atom(value));
        }
        Expr::ArrayNew { elem, len } => {
            lhs(out, st);
            let _ = writeln!(out, "new Array[{}]({})", elem, atom(len));
        }
        Expr::ArrayGet { arr, idx } => {
            lhs(out, st);
            let _ = writeln!(out, "{}({})", atom(arr), atom(idx));
        }
        Expr::ArraySet { arr, idx, value } => {
            let _ = writeln!(out, "{}({}) = {}", atom(arr), atom(idx), atom(value));
        }
        Expr::ArrayLen(a) => {
            lhs(out, st);
            let _ = writeln!(out, "{}.length", atom(a));
        }
        Expr::SortArray {
            arr,
            len,
            a,
            b,
            cmp,
        } => {
            let _ = write!(
                out,
                "sort({}, {}) (({}, {}) => ",
                atom(arr),
                atom(len),
                a,
                b
            );
            block_arg(cmp, depth, out);
            out.push_str(")\n");
        }
        Expr::ListNew { elem, .. } => {
            lhs(out, st);
            let _ = writeln!(out, "new List[{}]", elem);
        }
        Expr::ListAppend { list, value } => {
            let _ = writeln!(out, "{} += {}", atom(list), atom(value));
        }
        Expr::ListSize(l) => {
            lhs(out, st);
            let _ = writeln!(out, "{}.size", atom(l));
        }
        Expr::ListForeach { list, var, body } => {
            let _ = write!(out, "for ({} <- {}) ", var, atom(list));
            block_arg(body, depth, out);
            out.push('\n');
        }
        Expr::HashMapNew { key, value, .. } => {
            lhs(out, st);
            let _ = writeln!(out, "new HashMap[{}, {}]", key, value);
        }
        Expr::HashMapGetOrInit { map, key, init } => {
            lhs(out, st);
            let _ = write!(out, "{}.getOrElseUpdate({}, ", atom(map), atom(key));
            block_arg(init, depth, out);
            out.push_str(")\n");
        }
        Expr::HashMapForeach {
            map,
            kvar,
            vvar,
            body,
        } => {
            let _ = write!(out, "for (({}, {}) <- {}) ", kvar, vvar, atom(map));
            block_arg(body, depth, out);
            out.push('\n');
        }
        Expr::MultiMapNew { key, value, .. } => {
            lhs(out, st);
            let _ = writeln!(out, "new MultiMap[{}, {}]", key, value);
        }
        Expr::MultiMapAdd { map, key, value } => {
            let _ = writeln!(
                out,
                "{}.addBinding({}, {})",
                atom(map),
                atom(key),
                atom(value)
            );
        }
        Expr::MultiMapForeachAt {
            map,
            key,
            var,
            body,
        } => {
            let _ = write!(out, "for ({} <- {}.get({})) ", var, atom(map), atom(key));
            block_arg(body, depth, out);
            out.push('\n');
        }
        Expr::PoolNew { ty, cap } => {
            lhs(out, st);
            let _ = writeln!(out, "new Pool[{}]({})", ty, atom(cap));
        }
        Expr::PoolAlloc { pool } => {
            lhs(out, st);
            let _ = writeln!(out, "{}.alloc", atom(pool));
        }
        Expr::LoadTable { table, .. } => {
            lhs(out, st);
            let _ = writeln!(out, "loadTable(\"{}\")", table);
        }
        Expr::LoadIndexUnique { table, field } => {
            lhs(out, st);
            let _ = writeln!(out, "loadIndexUnique(\"{}\", f{})", table, field);
        }
        Expr::LoadIndexStarts { table, field } => {
            lhs(out, st);
            let _ = writeln!(out, "loadIndexStarts(\"{}\", f{})", table, field);
        }
        Expr::LoadIndexItems { table, field } => {
            lhs(out, st);
            let _ = writeln!(out, "loadIndexItems(\"{}\", f{})", table, field);
        }
        Expr::Printf { fmt, args } => {
            let args: Vec<String> = args.iter().map(atom).collect();
            if args.is_empty() {
                let _ = writeln!(out, "printf({fmt:?})");
            } else {
                let _ = writeln!(out, "printf({fmt:?}, {})", args.join(", "));
            }
        }
        Expr::LoadParam { idx } => {
            let _ = writeln!(out, "param({idx})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::level::Level;

    #[test]
    fn prints_a_small_program() {
        let mut b = IrBuilder::new();
        let v = b.decl_var(Atom::Int(0));
        b.for_range(Atom::Int(0), Atom::Int(3), |bb, i| {
            let cur = bb.read_var(v);
            let n = bb.add(cur, i);
            bb.assign(v, n);
        });
        let out = b.read_var(v);
        let p = b.finish(out, Level::ScaLite);
        let s = print_program(&p);
        assert!(s.contains("var x0: Int = 0"));
        assert!(s.contains("for ("));
        assert!(s.contains("return "));
    }

    #[test]
    fn prints_collections() {
        let mut b = IrBuilder::new();
        let mm = b.multimap_new(crate::types::Type::Int, crate::types::Type::Int, 8);
        b.multimap_add(mm.clone(), Atom::Int(1), Atom::Int(2));
        b.multimap_foreach_at(mm, Atom::Int(1), |bb, v| {
            bb.printf("%d\n", vec![v]);
        });
        let p = b.finish(Atom::Unit, Level::MapList);
        let s = print_program(&p);
        assert!(s.contains("new MultiMap[Int, Int]"));
        assert!(s.contains("addBinding"));
    }
}
