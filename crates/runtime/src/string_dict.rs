//! String dictionaries (paper §5.3).
//!
//! One dictionary per string attribute, built at data-loading time. A
//! *normal* dictionary supports equality mapped to integer equality; an
//! *ordered* dictionary additionally preserves lexicographic order
//! (`string_x < string_y  ⟺  int_x < int_y`), which lets `startsWith`
//! lower to a `[start, end]` integer range check (paper Table 2).

use std::collections::HashMap;
use std::sync::Arc;

/// An immutable string dictionary.
#[derive(Debug, Clone)]
pub struct StringDict {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, i32>,
    ordered: bool,
}

impl StringDict {
    /// Build from attribute values. Duplicates collapse; `ordered` sorts the
    /// distinct values lexicographically before assigning codes (the
    /// "two-phase" dictionary of §5.3).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(values: I, ordered: bool) -> StringDict {
        let mut distinct: Vec<&str> = values.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        if !ordered {
            // A normal dictionary assigns codes in first-seen order; after
            // dedup we keep sorted order internally but that is still a
            // valid (if unadvertised) normal dictionary.
        }
        let values: Vec<Arc<str>> = distinct.into_iter().map(Arc::from).collect();
        let index = values
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as i32))
            .collect();
        StringDict {
            values,
            index,
            ordered,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The integer code of `s`, or `-1` when `s` never occurs in the data
    /// (a query constant absent from the attribute can never match, which
    /// the integer comparison then correctly reports).
    pub fn code(&self, s: &str) -> i32 {
        self.index.get(s).copied().unwrap_or(-1)
    }

    pub fn decode(&self, code: i32) -> &str {
        &self.values[code as usize]
    }

    /// Inclusive `[start, end]` code range of strings starting with
    /// `prefix`; `(0, -1)` (an empty range) when none do. Requires an
    /// ordered dictionary.
    pub fn prefix_range(&self, prefix: &str) -> (i32, i32) {
        assert!(self.ordered, "prefix_range requires an ordered dictionary");
        let start = self.values.partition_point(|v| &**v < prefix);
        let mut end = start;
        while end < self.values.len() && self.values[end].starts_with(prefix) {
            end += 1;
        }
        if start == end {
            (0, -1)
        } else {
            (start as i32, end as i32 - 1)
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<str>> {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(ordered: bool) -> StringDict {
        StringDict::build(["banana", "apple", "cherry", "apple", "apricot"], ordered)
    }

    #[test]
    fn codes_are_distinct_and_decode_roundtrips() {
        let d = dict(false);
        assert_eq!(d.len(), 4);
        for s in ["banana", "apple", "cherry", "apricot"] {
            let c = d.code(s);
            assert!(c >= 0);
            assert_eq!(d.decode(c), s);
        }
        assert_eq!(d.code("missing"), -1);
    }

    #[test]
    fn ordered_dictionary_preserves_order() {
        let d = dict(true);
        // apple < apricot < banana < cherry
        assert!(d.code("apple") < d.code("apricot"));
        assert!(d.code("apricot") < d.code("banana"));
        assert!(d.code("banana") < d.code("cherry"));
    }

    #[test]
    fn prefix_range_matches_paper_semantics() {
        let d = dict(true);
        let (s, e) = d.prefix_range("ap");
        // Exactly apple and apricot fall in [s, e].
        assert_eq!((s, e), (d.code("apple"), d.code("apricot")));
        // startsWith(x, "ap")  ⟺  s <= code(x) <= e   (paper Table 2)
        for v in ["apple", "apricot", "banana", "cherry"] {
            let c = d.code(v);
            assert_eq!(v.starts_with("ap"), c >= s && c <= e, "{v}");
        }
        assert_eq!(d.prefix_range("zzz"), (0, -1));
        let all = d.prefix_range("");
        assert_eq!(all, (0, d.len() as i32 - 1));
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn prefix_range_requires_ordered() {
        dict(false).prefix_range("ap");
    }
}
