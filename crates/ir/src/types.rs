//! The type language shared by all DSL levels.
//!
//! Higher levels use the abstract collection types ([`Type::List`],
//! [`Type::HashMap`], [`Type::MultiMap`]); the lowering transformations
//! progressively replace them by arrays, intrusive lists and pointers until
//! only C-expressible types remain (see [`Type::is_c_expressible`]).

use std::fmt;
use std::sync::Arc;

/// Index of a struct definition inside a [`StructRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A scalar or composite IR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Unit,
    Bool,
    /// 32-bit integer (also used for TPC-H `DATE`s encoded as `yyyymmdd`).
    Int,
    /// 64-bit integer (aggregate counters, hash codes).
    Long,
    Double,
    /// An immutable character string. After the string-dictionary
    /// transformation most occurrences are rewritten to `Int`.
    String,
    /// A user-defined record type, by registry id.
    Record(StructId),
    /// A C pointer (only valid at the C.Scala level).
    Pointer(Box<Type>),
    /// A contiguous array with a runtime length.
    Array(Box<Type>),
    /// An abstract growable list (ScaLite\[List\] and above).
    List(Box<Type>),
    /// key -> single value (aggregations). ScaLite\[Map, List\] only.
    HashMap(Box<Type>, Box<Type>),
    /// key -> bag of values (hash joins). ScaLite\[Map, List\] only.
    MultiMap(Box<Type>, Box<Type>),
    /// A memory pool of records (C.Scala level, Appendix D.1).
    Pool(Box<Type>),
}

impl Type {
    pub fn pointer(inner: Type) -> Type {
        Type::Pointer(Box::new(inner))
    }
    pub fn array(elem: Type) -> Type {
        Type::Array(Box::new(elem))
    }
    pub fn list(elem: Type) -> Type {
        Type::List(Box::new(elem))
    }
    pub fn hash_map(k: Type, v: Type) -> Type {
        Type::HashMap(Box::new(k), Box::new(v))
    }
    pub fn multi_map(k: Type, v: Type) -> Type {
        Type::MultiMap(Box::new(k), Box::new(v))
    }
    pub fn pool(elem: Type) -> Type {
        Type::Pool(Box::new(elem))
    }

    /// Element type of an array/list, or `None` for other types.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(e) | Type::List(e) | Type::Pointer(e) | Type::Pool(e) => Some(e),
            _ => None,
        }
    }

    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Type::Unit | Type::Bool | Type::Int | Type::Long | Type::Double | Type::String
        )
    }

    /// Whether the type can appear in generated C without further lowering.
    /// Abstract collections must have been specialized away.
    pub fn is_c_expressible(&self) -> bool {
        match self {
            Type::List(_) | Type::HashMap(..) | Type::MultiMap(..) => false,
            Type::Array(e) | Type::Pointer(e) | Type::Pool(e) => e.is_c_expressible(),
            _ => true,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Unit => write!(f, "Unit"),
            Type::Bool => write!(f, "Boolean"),
            Type::Int => write!(f, "Int"),
            Type::Long => write!(f, "Long"),
            Type::Double => write!(f, "Double"),
            Type::String => write!(f, "String"),
            Type::Record(id) => write!(f, "Rec#{}", id.0),
            Type::Pointer(t) => write!(f, "Pointer[{t}]"),
            Type::Array(t) => write!(f, "Array[{t}]"),
            Type::List(t) => write!(f, "List[{t}]"),
            Type::HashMap(k, v) => write!(f, "HashMap[{k}, {v}]"),
            Type::MultiMap(k, v) => write!(f, "MultiMap[{k}, {v}]"),
            Type::Pool(t) => write!(f, "Pool[{t}]"),
        }
    }
}

/// A named, typed record field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDef {
    pub name: Arc<str>,
    pub ty: Type,
}

/// A user-defined record ("struct") definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructDef {
    pub name: Arc<str>,
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|fd| &*fd.name == name)
    }
}

/// Registry of all record types of a [`crate::Program`].
///
/// Transformations such as unused-field removal (Appendix C) and intrusive
/// list specialization (§4.4, which appends a `next` pointer field) mutate
/// definitions in place; field *indices* are therefore only stable within one
/// pipeline stage, and passes that renumber fields must rewrite all
/// `FieldGet`/`FieldSet` nodes (the rewriter makes this straightforward).
#[derive(Debug, Clone, Default)]
pub struct StructRegistry {
    defs: Vec<StructDef>,
}

impl StructRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a struct; returns the existing id when a struct with the same
    /// name is already present (names are unique).
    pub fn register(&mut self, def: StructDef) -> StructId {
        if let Some(found) = self.lookup(&def.name) {
            return found;
        }
        let id = StructId(self.defs.len() as u32);
        self.defs.push(def);
        id
    }

    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.defs
            .iter()
            .position(|d| &*d.name == name)
            .map(|i| StructId(i as u32))
    }

    pub fn get(&self, id: StructId) -> &StructDef {
        &self.defs[id.0 as usize]
    }

    pub fn get_mut(&mut self, id: StructId) -> &mut StructDef {
        &mut self.defs[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.defs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (StructId(i as u32), d))
    }

    /// Field type of `rec.field`, panicking on unknown fields (IR is typed by
    /// construction; an unknown field is a compiler bug, not user error).
    pub fn field_type(&self, id: StructId, field: usize) -> &Type {
        &self.get(id).fields[field].ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(reg: &mut StructRegistry, name: &str, fields: &[(&str, Type)]) -> StructId {
        reg.register(StructDef {
            name: name.into(),
            fields: fields
                .iter()
                .map(|(n, t)| FieldDef {
                    name: (*n).into(),
                    ty: t.clone(),
                })
                .collect(),
        })
    }

    #[test]
    fn registry_deduplicates_by_name() {
        let mut reg = StructRegistry::new();
        let a = rec(&mut reg, "R", &[("x", Type::Int)]);
        let b = rec(&mut reg, "R", &[("x", Type::Int)]);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn field_lookup() {
        let mut reg = StructRegistry::new();
        let id = rec(&mut reg, "R", &[("a", Type::Int), ("b", Type::String)]);
        assert_eq!(reg.get(id).field_index("b"), Some(1));
        assert_eq!(reg.get(id).field_index("zz"), None);
        assert_eq!(*reg.field_type(id, 1), Type::String);
    }

    #[test]
    fn c_expressibility() {
        assert!(Type::Int.is_c_expressible());
        assert!(Type::array(Type::pointer(Type::Double)).is_c_expressible());
        assert!(!Type::list(Type::Int).is_c_expressible());
        assert!(!Type::array(Type::hash_map(Type::Int, Type::Int)).is_c_expressible());
        assert!(!Type::multi_map(Type::Int, Type::Int).is_c_expressible());
    }

    #[test]
    fn elem_accessor() {
        assert_eq!(Type::array(Type::Int).elem(), Some(&Type::Int));
        assert_eq!(Type::Int.elem(), None);
    }
}
