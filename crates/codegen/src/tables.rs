//! Base-table analysis for the C emitter.
//!
//! Before emitting a translation unit the unparser needs to know which
//! relations the program loads, each relation's layout, which columns its
//! record type reads and which columns need standalone key arrays for the
//! index builders (Figure 7 pre-computation).
//!
//! The record type decides what a `LoadTable` reads, as in the jit and
//! the interpreter: each field names the column it reads, and an `Int`
//! field over a `String` column reads dictionary codes.

use std::collections::HashMap;
use std::sync::Arc;

use dblab_catalog::Schema;
use dblab_ir::expr::{Block, Expr, Layout, Sym};
use dblab_ir::types::StructId;
use dblab_ir::{Program, Type};

#[derive(Clone)]
pub(crate) struct TableInfo {
    pub name: Arc<str>,
    pub sid: StructId,
    pub layout: Layout,
    /// Per column of the table: the record field that reads it, if any.
    pub field_of: Vec<Option<usize>>,
    /// Dictionary-encoded columns, ascending (emitted C is the build
    /// cache's key, so the emitter walks them the same way every time).
    pub dicts: Vec<usize>,
    /// Original column indices needing standalone key arrays for indexes.
    pub index_keys: Vec<usize>,
}

/// Scan a program for `LoadTable` / `LoadIndex*` nodes; returns
/// `sym -> info` plus `name -> sym` (for the index builders).
pub(crate) fn collect_tables(
    p: &Program,
    schema: &Schema,
) -> (HashMap<Sym, TableInfo>, HashMap<Arc<str>, Sym>) {
    let mut tables = HashMap::new();
    let mut by_name = HashMap::new();
    walk(p, schema, &p.body, &mut tables, &mut by_name);
    (tables, by_name)
}

fn walk(
    p: &Program,
    schema: &Schema,
    b: &Block,
    tables: &mut HashMap<Sym, TableInfo>,
    by_name: &mut HashMap<Arc<str>, Sym>,
) {
    for st in &b.stmts {
        match &st.expr {
            Expr::LoadTable { table, sid, layout } => {
                let def = schema.table(table);
                let mut field_of = vec![None; def.columns.len()];
                let mut dicts = Vec::new();
                for (fi, f) in p.structs.get(*sid).fields.iter().enumerate() {
                    let c = def.col_index(&f.name);
                    field_of[c] = Some(fi);
                    if def.columns[c].ty.is_string() && f.ty == Type::Int {
                        dicts.push(c);
                    }
                }
                dicts.sort_unstable();
                let info = TableInfo {
                    name: table.clone(),
                    sid: *sid,
                    layout: *layout,
                    field_of,
                    dicts,
                    index_keys: Vec::new(),
                };
                by_name.insert(table.clone(), st.sym);
                tables.insert(st.sym, info);
            }
            Expr::LoadIndexUnique { table, field }
            | Expr::LoadIndexStarts { table, field }
            | Expr::LoadIndexItems { table, field } => {
                let sym = by_name[table];
                let info = tables.get_mut(&sym).expect("table loaded first");
                if !info.index_keys.contains(field) {
                    info.index_keys.push(*field);
                }
            }
            _ => {}
        }
        for blk in st.expr.blocks() {
            walk(p, schema, blk, tables, by_name);
        }
    }
}
