//! Scalar expression lowering: front-end [`ScalarExpr`]s → ANF IR, against
//! a named row environment.

use std::collections::HashMap;
use std::sync::Arc;

use dblab_frontend::expr::{BinOp as FBinOp, Lit, ScalarExpr};
use dblab_ir::expr::PrimOp;
use dblab_ir::{Atom, BinOp, IrBuilder, Type, UnOp};

/// One named column flowing through the pipeline.
#[derive(Debug, Clone)]
pub struct ColRef {
    pub name: Arc<str>,
    pub atom: Atom,
}

/// A row environment: the columns visible at the current pipeline point.
#[derive(Debug, Clone, Default)]
pub struct RowEnv {
    pub cols: Vec<ColRef>,
}

impl RowEnv {
    pub fn new(cols: Vec<ColRef>) -> RowEnv {
        RowEnv { cols }
    }

    pub fn lookup(&self, name: &str) -> &ColRef {
        self.cols
            .iter()
            .find(|c| &*c.name == name)
            .unwrap_or_else(|| {
                panic!(
                    "pipeline: unknown column {name}; in scope: {:?}",
                    self.cols
                        .iter()
                        .map(|c| c.name.to_string())
                        .collect::<Vec<_>>()
                )
            })
    }

    pub fn concat(&self, other: &RowEnv) -> RowEnv {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        RowEnv { cols }
    }
}

/// Lower a literal.
pub fn lower_lit(l: &Lit) -> Atom {
    match l {
        Lit::Bool(v) => Atom::Bool(*v),
        Lit::Int(v) => Atom::Int(*v as i64),
        Lit::Long(v) => Atom::Long(*v),
        Lit::Double(v) => Atom::double(*v),
        Lit::Str(s) => Atom::Str(s.clone()),
    }
}

/// Lower `e` in environment `env` with scalar-subquery `params`.
pub fn lower_expr(
    b: &mut IrBuilder,
    env: &RowEnv,
    params: &HashMap<Arc<str>, Atom>,
    e: &ScalarExpr,
) -> Atom {
    match e {
        ScalarExpr::Col(n) => env.lookup(n).atom.clone(),
        ScalarExpr::Param(n) => params
            .get(n)
            .unwrap_or_else(|| panic!("unbound parameter {n}"))
            .clone(),
        ScalarExpr::Lit(l) => lower_lit(l),
        ScalarExpr::Bin(op, x, y) => {
            let xa = lower_expr(b, env, params, x);
            let ya = lower_expr(b, env, params, y);
            let string_operands = b.atom_type(&xa) == Type::String;
            if string_operands {
                return match op {
                    FBinOp::Eq => b.prim(PrimOp::StrEq, vec![xa, ya]),
                    FBinOp::Ne => b.prim(PrimOp::StrNe, vec![xa, ya]),
                    FBinOp::Lt | FBinOp::Le | FBinOp::Gt | FBinOp::Ge => {
                        let c = b.prim(PrimOp::StrCmp, vec![xa, ya]);
                        b.bin(lower_binop(*op), c, Atom::Int(0))
                    }
                    other => panic!("operator {other:?} on strings"),
                };
            }
            b.bin(lower_binop(*op), xa, ya)
        }
        ScalarExpr::Not(x) => {
            let xa = lower_expr(b, env, params, x);
            b.un(UnOp::Not, xa)
        }
        ScalarExpr::Neg(x) => {
            let xa = lower_expr(b, env, params, x);
            b.un(UnOp::Neg, xa)
        }
        ScalarExpr::Year(x) => {
            let xa = lower_expr(b, env, params, x);
            b.un(UnOp::Year, xa)
        }
        ScalarExpr::Like(x, pat) => {
            let xa = lower_expr(b, env, params, x);
            b.prim(PrimOp::StrLike, vec![xa, Atom::Str(pat.clone())])
        }
        ScalarExpr::StartsWith(x, p) => {
            let xa = lower_expr(b, env, params, x);
            b.prim(PrimOp::StrStartsWith, vec![xa, Atom::Str(p.clone())])
        }
        ScalarExpr::EndsWith(x, p) => {
            let xa = lower_expr(b, env, params, x);
            b.prim(PrimOp::StrEndsWith, vec![xa, Atom::Str(p.clone())])
        }
        ScalarExpr::Contains(x, p) => {
            let xa = lower_expr(b, env, params, x);
            b.prim(PrimOp::StrContains, vec![xa, Atom::Str(p.clone())])
        }
        ScalarExpr::Substr(x, start, len) => {
            let xa = lower_expr(b, env, params, x);
            b.prim(
                PrimOp::StrSubstr,
                vec![xa, Atom::Int(*start as i64), Atom::Int(*len as i64)],
            )
        }
        ScalarExpr::InList(x, lits) => {
            let xa = lower_expr(b, env, params, x);
            let is_string = b.atom_type(&xa) == Type::String;
            let mut acc: Option<Atom> = None;
            for l in lits {
                let la = lower_lit(l);
                let eq = if is_string {
                    b.prim(PrimOp::StrEq, vec![xa.clone(), la])
                } else {
                    b.eq(xa.clone(), la)
                };
                acc = Some(match acc {
                    None => eq,
                    Some(prev) => b.or(prev, eq),
                });
            }
            acc.unwrap_or(Atom::Bool(false))
        }
        ScalarExpr::Case(whens, els) => lower_case(b, env, params, whens, els),
    }
}

fn lower_case(
    b: &mut IrBuilder,
    env: &RowEnv,
    params: &HashMap<Arc<str>, Atom>,
    whens: &[(ScalarExpr, ScalarExpr)],
    els: &ScalarExpr,
) -> Atom {
    if whens.is_empty() {
        return lower_expr(b, env, params, els);
    }
    let (cond, val) = &whens[0];
    let rest = &whens[1..];
    let ca = lower_expr(b, env, params, cond);
    // Both arms must be built in child scopes of the `if`; clone the
    // environment pieces the closures need.
    b.scope_push();
    let then_res = lower_expr(b, env, params, val);
    let then_b = b.scope_pop(then_res);
    b.scope_push();
    let else_res = lower_case(b, env, params, rest, els);
    let else_b = b.scope_pop(else_res);
    let ty = b.atom_type(&then_b.result);
    b.emit(
        ty,
        dblab_ir::Expr::If {
            cond: ca,
            then_b,
            else_b,
        },
    )
}

fn lower_binop(op: FBinOp) -> BinOp {
    match op {
        FBinOp::Add => BinOp::Add,
        FBinOp::Sub => BinOp::Sub,
        FBinOp::Mul => BinOp::Mul,
        FBinOp::Div => BinOp::Div,
        FBinOp::Eq => BinOp::Eq,
        FBinOp::Ne => BinOp::Ne,
        FBinOp::Lt => BinOp::Lt,
        FBinOp::Le => BinOp::Le,
        FBinOp::Gt => BinOp::Gt,
        FBinOp::Ge => BinOp::Ge,
        FBinOp::And => BinOp::And,
        FBinOp::Or => BinOp::Or,
    }
}

/// Map a catalog column type to the IR type.
pub fn ir_type(ct: dblab_catalog::ColType) -> Type {
    use dblab_catalog::ColType::*;
    match ct {
        Bool => Type::Bool,
        Int | Date | Char => Type::Int,
        Long => Type::Long,
        Double => Type::Double,
        String => Type::String,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_frontend::expr::*;
    use dblab_ir::Level;

    fn env(b: &mut IrBuilder) -> RowEnv {
        let v = b.decl_var(Atom::Int(3));
        let a = b.read_var(v);
        let w = b.decl_var(Atom::Str("PROMO X".into()));
        let s = b.read_var(w);
        RowEnv::new(vec![
            ColRef {
                name: "a".into(),
                atom: a,
            },
            ColRef {
                name: "s".into(),
                atom: s,
            },
        ])
    }

    #[test]
    fn lowers_arithmetic_with_cse() {
        let mut b = IrBuilder::new();
        let env = env(&mut b);
        let params = HashMap::new();
        let e = col("a").add(lit_i(1)).mul(col("a").add(lit_i(1)));
        let r = lower_expr(&mut b, &env, &params, &e);
        let p = b.finish(r, Level::MapList);
        // decl+read (x2) + one shared add + one mul
        let adds = p
            .body
            .stmts
            .iter()
            .filter(|st| matches!(st.expr, dblab_ir::Expr::Bin(dblab_ir::BinOp::Add, ..)))
            .count();
        assert_eq!(adds, 1, "{:#?}", p.body.stmts);
    }

    #[test]
    fn string_comparison_uses_prims() {
        let mut b = IrBuilder::new();
        let env = env(&mut b);
        let params = HashMap::new();
        let r = lower_expr(&mut b, &env, &params, &col("s").eq(lit_s("x")));
        let p = b.finish(r, Level::MapList);
        assert!(p
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, dblab_ir::Expr::Prim(PrimOp::StrEq, _))));
    }

    #[test]
    fn case_lowers_to_if_chain() {
        let mut b = IrBuilder::new();
        let env = env(&mut b);
        let params = HashMap::new();
        let e = ScalarExpr::Case(
            vec![
                (col("a").eq(lit_i(1)), lit_d(1.0)),
                (col("a").eq(lit_i(2)), lit_d(2.0)),
            ],
            Box::new(lit_d(0.0)),
        );
        let r = lower_expr(&mut b, &env, &params, &e);
        let p = b.finish(r, Level::MapList);
        let ifs = p
            .body
            .stmts
            .iter()
            .filter(|st| matches!(st.expr, dblab_ir::Expr::If { .. }))
            .count();
        assert_eq!(ifs, 1, "outer if (inner nested in else block)");
        assert_eq!(p.atom_type(&p.body.result), Type::Double);
    }

    #[test]
    fn in_list_becomes_or_chain() {
        let mut b = IrBuilder::new();
        let env = env(&mut b);
        let params = HashMap::new();
        let e = col("a").in_list(vec![Lit::Int(1), Lit::Int(2), Lit::Int(3)]);
        let r = lower_expr(&mut b, &env, &params, &e);
        assert_eq!(b.atom_type(&r), Type::Bool);
    }

    #[test]
    #[should_panic(expected = "unbound parameter")]
    fn unbound_param_is_loud() {
        let mut b = IrBuilder::new();
        let env = env(&mut b);
        let params = HashMap::new();
        lower_expr(&mut b, &env, &params, &param("nope"));
    }
}
