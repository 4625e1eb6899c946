//! Storage-layout specialization (Appendix C, Figure 3).
//!
//! Base-table arrays can be represented as (a) boxed — an array of pointers
//! to separately allocated records, (b) row — a contiguous array of
//! records, or (c) columnar — one array per field, "which often has a
//! positive impact on cache locality". The decision is recorded as the
//! [`Layout`] of each `LoadTable` node during pipelining and honoured by
//! the C unparser, which emits the corresponding loader and
//! rewrites `table[i].field` access chains per layout.

pub use dblab_ir::expr::Layout;

use crate::config::StackConfig;

/// The layout decision for base tables under a configuration: the naïve
/// two-level stack pays for boxed rows (one allocation per tuple, like the
/// generic GLib path); three levels and up use the columnar representation.
pub fn table_layout(cfg: &StackConfig) -> Layout {
    if cfg.columnar_layout {
        Layout::Columnar
    } else {
        Layout::Boxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level2_boxes_level3_goes_columnar() {
        assert_eq!(table_layout(&StackConfig::level2()), Layout::Boxed);
        assert_eq!(table_layout(&StackConfig::level3()), Layout::Columnar);
        assert_eq!(table_layout(&StackConfig::level5()), Layout::Columnar);
    }
}
