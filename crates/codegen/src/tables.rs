//! Base-table analysis for the C emitter.
//!
//! Before emitting a translation unit the unparser needs to know which
//! relations the program loads, each relation's layout, and which parts of
//! the data image it reads: the columns its record type reads, their
//! dictionaries, and the indexes (Figure 7 pre-computation) its
//! `LoadIndex*` statements name. The same list tells the executable which
//! parts [`dblab_runtime::image::resolve`] must make present.
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
use dblab_runtime::image::{Part, Request};

#[derive(Clone)]
pub(crate) struct TableInfo {
    pub name: Arc<str>,
    pub sid: StructId,
    pub layout: Layout,
    /// What the program reads of the table's image, ascending (emitted C
    /// is the build cache's key, so the emitter walks them the same way
    /// every time).
    pub parts: Vec<Part>,
}

/// The image parts a program reads, per table it loads.
pub(crate) fn image_request(p: &Program, schema: &Schema) -> Request {
    let mut infos: Vec<TableInfo> = collect_tables(p, schema).into_values().collect();
    infos.sort_by(|a, b| a.name.cmp(&b.name));
    Request::new(
        schema,
        infos.into_iter().map(|t| (t.name, t.parts)).collect(),
    )
}

/// Scan a program for `LoadTable` / `LoadIndex*` nodes: `sym -> info`.
pub(crate) fn collect_tables(p: &Program, schema: &Schema) -> HashMap<Sym, TableInfo> {
    let mut tables = HashMap::new();
    walk(p, schema, &p.body, &mut tables, &mut HashMap::new());
    tables
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
                let mut parts: Vec<Part> = (p.structs.get(*sid).fields.iter())
                    .map(|f| {
                        let c = def.col_index(&f.name);
                        match def.columns[c].ty.is_string() && f.ty == Type::Int {
                            true => Part::Dict(c),
                            false => Part::Column(c),
                        }
                    })
                    .collect();
                parts.sort_unstable();
                let info = TableInfo {
                    name: table.clone(),
                    sid: *sid,
                    layout: *layout,
                    parts,
                };
                by_name.insert(table.clone(), st.sym);
                tables.insert(st.sym, info);
            }
            Expr::LoadIndexUnique { table, field }
            | Expr::LoadIndexStarts { table, field }
            | Expr::LoadIndexItems { table, field } => {
                let part = match st.expr {
                    Expr::LoadIndexUnique { .. } => Part::Unique(*field),
                    _ => Part::Csr(*field),
                };
                let sym = by_name[table];
                let info = tables.get_mut(&sym).expect("table loaded first");
                if let Err(at) = info.parts.binary_search(&part) {
                    info.parts.insert(at, part);
                }
            }
            _ => {}
        }
        for blk in st.expr.blocks() {
            walk(p, schema, blk, tables, by_name);
        }
    }
}
