//! Unused-struct-field removal (Appendix C).
//!
//! Fields never read anywhere in the program are removed from their record
//! definitions; writes to them disappear, and — for base tables — the
//! generated loader "avoids loading into memory the values for the
//! unnecessary fields". Because field *indices* shift, this is a dedicated
//! renumbering pass rather than a rewrite rule. The original column
//! positions of pruned base tables are recorded in a [`Annot::KeptColumns`]
//! annotation so the `.tbl` loader still parses the right fields; index and
//! dictionary annotations keep referring to original column space.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dblab_ir::expr::{Annot, Atom, Block, Expr, Sym};
use dblab_ir::types::StructId;
use dblab_ir::Program;

/// Remove unused fields. `prune_tables` gates base-table pruning (disabled
/// in the TPC-H-compliant configuration); intermediate records are always
/// pruned.
pub fn apply(p: &Program, prune_tables: bool) -> Program {
    let mut read: HashMap<StructId, HashSet<usize>> = HashMap::new();
    let mut table_sids: HashMap<StructId, (Sym, Arc<str>)> = HashMap::new();
    let mut index_cols: HashMap<Arc<str>, HashSet<usize>> = HashMap::new();
    scan(&p.body, &mut read, &mut table_sids, &mut index_cols);

    // Keep index key columns of base tables (the loader reads them even if
    // the query body does not).
    for (sid, (_, tname)) in &table_sids {
        if let Some(cols) = index_cols.get(tname) {
            read.entry(*sid).or_default().extend(cols.iter().copied());
        }
    }

    // Records used as *abstract* hash-table keys are compared by the
    // generic runtime's field-wise equality, which the IR cannot see:
    // protect them from pruning. (After hash-table specialization the
    // comparisons are explicit FieldGets, so nothing is protected.)
    let mut protected: HashSet<StructId> = HashSet::new();
    collect_protected(&p.body, &mut protected);

    let mut keep: HashMap<StructId, Vec<usize>> = HashMap::new();
    for (sid, def) in p.structs.iter() {
        if protected.contains(&sid) {
            continue;
        }
        let is_table = table_sids.contains_key(&sid);
        if is_table && !prune_tables {
            continue;
        }
        let used = read.get(&sid).cloned().unwrap_or_default();
        let mut kept: Vec<usize> = (0..def.fields.len()).filter(|i| used.contains(i)).collect();
        if kept.is_empty() {
            kept.push(0); // C structs cannot be empty.
        }
        if kept.len() < def.fields.len() {
            keep.insert(sid, kept);
        }
    }
    if keep.is_empty() {
        return p.clone();
    }

    let mut out = p.clone();
    // Rewrite the registry.
    for (sid, kept) in &keep {
        let def = out.structs.get_mut(*sid);
        def.fields = kept.iter().map(|&i| def.fields[i].clone()).collect();
    }
    // Record loader guidance for pruned base tables.
    for (sid, (sym, _)) in &table_sids {
        if let Some(kept) = keep.get(sid) {
            out.annots.add(*sym, Annot::KeptColumns(kept.clone()));
        }
    }
    // Renumber all field accesses.
    let remap: HashMap<StructId, HashMap<usize, usize>> = keep
        .iter()
        .map(|(sid, kept)| {
            (
                *sid,
                kept.iter()
                    .enumerate()
                    .map(|(new, &old)| (old, new))
                    .collect(),
            )
        })
        .collect();
    rewrite_block(&mut out.body, &remap);
    out
}

fn collect_protected(b: &Block, out: &mut HashSet<StructId>) {
    fn protect_key(t: &dblab_ir::Type, out: &mut HashSet<StructId>) {
        if let dblab_ir::Type::HashMap(k, _) | dblab_ir::Type::MultiMap(k, _) = t {
            if let dblab_ir::Type::Record(sid) = &**k {
                out.insert(*sid);
            }
        }
    }
    for st in &b.stmts {
        protect_key(&st.ty, out);
        for blk in st.expr.blocks() {
            collect_protected(blk, out);
        }
    }
}

fn scan(
    b: &Block,
    read: &mut HashMap<StructId, HashSet<usize>>,
    table_sids: &mut HashMap<StructId, (Sym, Arc<str>)>,
    index_cols: &mut HashMap<Arc<str>, HashSet<usize>>,
) {
    for st in &b.stmts {
        match &st.expr {
            Expr::FieldGet { sid, field, .. } => {
                read.entry(*sid).or_default().insert(*field);
            }
            Expr::LoadTable { sid, table } => {
                table_sids.insert(*sid, (st.sym, table.clone()));
            }
            Expr::LoadIndexUnique { table, field }
            | Expr::LoadIndexStarts { table, field }
            | Expr::LoadIndexItems { table, field } => {
                index_cols.entry(table.clone()).or_default().insert(*field);
            }
            _ => {}
        }
        for blk in st.expr.blocks() {
            scan(blk, read, table_sids, index_cols);
        }
    }
}

fn rewrite_block(b: &mut Block, remap: &HashMap<StructId, HashMap<usize, usize>>) {
    b.stmts.retain_mut(|st| {
        match &mut st.expr {
            Expr::FieldGet { sid, field, .. } => {
                if let Some(m) = remap.get(sid) {
                    *field = *m.get(field).expect("read field was kept");
                }
            }
            Expr::FieldSet { sid, field, .. } => {
                if let Some(m) = remap.get(sid) {
                    match m.get(field) {
                        Some(nf) => *field = *nf,
                        None => return false, // write to a removed field: drop
                    }
                }
            }
            Expr::StructNew { sid, args } => {
                if let Some(m) = remap.get(sid) {
                    let mut kept: Vec<(usize, Atom)> = m
                        .iter()
                        .map(|(&old, &new)| (new, args[old].clone()))
                        .collect();
                    kept.sort_by_key(|(new, _)| *new);
                    *args = kept.into_iter().map(|(_, a)| a).collect();
                }
            }
            _ => {}
        }
        for blk in st.expr.blocks_mut() {
            rewrite_block(blk, remap);
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblab_ir::{Atom, FieldDef, IrBuilder, Level, StructDef, Type};

    #[test]
    fn unread_fields_are_pruned_and_indices_remapped() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "R".into(),
            fields: vec![
                FieldDef {
                    name: "a".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "b".into(),
                    ty: Type::Double,
                },
                FieldDef {
                    name: "c".into(),
                    ty: Type::Int,
                },
            ],
        });
        let r = b.struct_new(sid, vec![Atom::Int(1), Atom::double(2.0), Atom::Int(3)]);
        // Only c is read; a is written.
        b.field_set(r.clone(), sid, 0, Atom::Int(9));
        let c = b.field_get(r, sid, 2);
        b.printf("%d\n", vec![c]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let q = apply(&p, true);
        assert_eq!(q.structs.get(sid).fields.len(), 1);
        assert_eq!(&*q.structs.get(sid).fields[0].name, "c");
        // StructNew has one arg; the write to `a` is gone; FieldGet uses 0.
        let sn = q
            .body
            .stmts
            .iter()
            .find_map(|st| match &st.expr {
                Expr::StructNew { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(sn, vec![Atom::Int(3)]);
        assert!(!q
            .body
            .stmts
            .iter()
            .any(|st| matches!(st.expr, Expr::FieldSet { .. })));
        let fg = q
            .body
            .stmts
            .iter()
            .find_map(|st| match &st.expr {
                Expr::FieldGet { field, .. } => Some(*field),
                _ => None,
            })
            .unwrap();
        assert_eq!(fg, 0);
    }

    #[test]
    fn base_tables_pruned_only_when_enabled() {
        let mut b = IrBuilder::new();
        let sid = b.structs.register(StructDef {
            name: "t".into(),
            fields: vec![
                FieldDef {
                    name: "x".into(),
                    ty: Type::Int,
                },
                FieldDef {
                    name: "y".into(),
                    ty: Type::Int,
                },
            ],
        });
        let arr = b.load_table("t", sid);
        let rec = b.array_get(arr, Atom::Int(0));
        let x = b.field_get(rec, sid, 0);
        b.printf("%d\n", vec![x]);
        let p = b.finish(Atom::Unit, Level::ScaLite);

        let compliant = apply(&p, false);
        assert_eq!(compliant.structs.get(sid).fields.len(), 2);

        let q = apply(&p, true);
        assert_eq!(q.structs.get(sid).fields.len(), 1);
        // Loader guidance recorded.
        let load_sym = q
            .body
            .stmts
            .iter()
            .find(|st| matches!(st.expr, Expr::LoadTable { .. }))
            .unwrap()
            .sym;
        assert_eq!(q.annots.kept_columns(load_sym), Some(vec![0]));
    }
}
