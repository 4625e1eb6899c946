//! Base-table analysis for the C emitter.
//!
//! Before emitting a translation unit the unparser needs to know which
//! relations the program loads, each relation's layout / dictionary /
//! kept-column annotations, and which columns need standalone key arrays
//! for the index builders (Figure 7 pre-computation).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dblab_catalog::Schema;
use dblab_ir::expr::{Block, Expr, Layout, Sym};
use dblab_ir::types::StructId;
use dblab_ir::Program;

#[derive(Clone)]
pub(crate) struct TableInfo {
    pub name: Arc<str>,
    pub sid: StructId,
    pub layout: Layout,
    /// Original column index per (pruned) struct field.
    pub kept: Vec<usize>,
    /// Original column index -> ordered? for dictionary-encoded fields.
    /// Ordered so the emitter walks it the same way every time: emitted
    /// C is the build cache's key.
    pub dicts: BTreeMap<usize, bool>,
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
            Expr::LoadTable { table, sid } => {
                let layout = p.annots.layout(st.sym).unwrap_or(Layout::Boxed);
                let ncols = schema.table(table).columns.len();
                let kept = p
                    .annots
                    .kept_columns(st.sym)
                    .unwrap_or_else(|| (0..ncols).collect());
                let dicts = p.annots.dict_fields(st.sym).into_iter().collect();
                let info = TableInfo {
                    name: table.clone(),
                    sid: *sid,
                    layout,
                    kept,
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
