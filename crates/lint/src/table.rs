//! The workspace fn table: one entry per parsed fn, keyed by where it
//! is declared, and the one path resolver that the call graph
//! ([`crate::callgraph`]) and the flow summaries ([`crate::flow`]) read.
//!
//! The fns of an `impl Type` (trait impls included) and of a `trait
//! Type` are keyed `Type::name`; free fns, fn-local ones included, are
//! keyed `name`. A path resolves to its key:
//!
//! * `Type::f` — called, or used as a value as in
//!   `.map(Transaction::hash)` — names the fns keyed `Type::f`, and
//!   `Self::f` inside `impl Type` does the same.
//! * `Q::f` where no `Q` declares an `f` (a std type, a generic
//!   parameter, a trait's provided method) names the trait fns called
//!   `f`: those are the only workspace fns that such a path can reach.
//!   A type alias is such a `Q` too: no alias in the tree qualifies a
//!   call, so aliases are not followed.
//! * A module path (`crate::m::f`, `super::f`) or a single segment `f`
//!   names the free fns called `f`.
//!
//! Receiver types are not inferred, so a method call resolves to every
//! fn of its name ([`FnTable::by_name`]). Fns that share a key merge;
//! the call graph and the flow summaries each say which way.
//!
//! Besides the fns, the table holds what the reachability rules need
//! from the rest of the tree: the struct/enum/union definitions, and
//! the paths in the `macro_rules!` bodies, item-position macro
//! invocations, `const`/`static` items and type aliases outside tests
//! (which the parser does not structure).

use crate::parse::{self, File, FnItem, Item, ItemKind};
use crate::rules::{classify, Target};
use std::collections::{BTreeMap, BTreeSet};

/// Where an item sits, for the reachability rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Under `#[cfg(test)]`/`#[cfg(doctest)]` or in a test target:
    /// reaches nothing.
    Test,
    /// A bin/example/`tradebench` item or a trait (impl) fn.
    Root,
    /// A plain `pub` item in a library target.
    Pub,
    /// Any other library item.
    Inner,
}

/// One fn of the table.
#[derive(Debug)]
pub struct FnEntry<'f> {
    /// Workspace-relative path of its file.
    pub path: &'f str,
    /// The fn's item node.
    pub item: &'f Item,
    /// The parsed fn.
    pub func: &'f FnItem,
    /// Raw self type of the enclosing `impl`, or the enclosing trait's
    /// name.
    pub self_ty: Option<&'f str>,
    /// `Type::name` for an impl or trait fn, `name` for a free fn.
    pub key: String,
    /// Where it sits.
    pub role: Role,
}

/// One struct/enum/union definition.
#[derive(Debug)]
pub struct TypeEntry<'f> {
    /// Workspace-relative path of its file.
    pub path: &'f str,
    /// The definition.
    pub item: &'f Item,
    /// The type names in its generics, where clause and fields.
    pub type_names: &'f [String],
    /// Where it sits.
    pub role: Role,
}

/// Per-file facts items are classified by.
struct FileCx<'f> {
    path: &'f str,
    target: Target,
    test_spans: &'f [(u32, u32)],
}

impl FileCx<'_> {
    /// Whether the item is test code: in a test target, or inside a
    /// `#[cfg(test)]`/`#[cfg(doctest)]` span. A span opens at its
    /// `cfg` attribute, which other attributes of the item may precede,
    /// so the item's last line counts too.
    fn is_test(&self, item: &Item) -> bool {
        matches!(self.target, Target::Test | Target::Bench)
            || self.test_spans.iter().any(|&(lo, hi)| {
                (lo..=hi).contains(&item.line) || (lo..=hi).contains(&item.end_line)
            })
    }

    fn role(&self, item: &Item, public: bool, trait_member: bool) -> Role {
        if self.is_test(item) {
            Role::Test
        } else if trait_member || self.target != Target::Lib || self.path.starts_with("tradebench/")
        {
            Role::Root
        } else if public {
            Role::Pub
        } else {
            Role::Inner
        }
    }
}

/// The workspace fn table (see the module docs).
#[derive(Debug, Default)]
pub struct FnTable<'f> {
    /// Every fn, in file order.
    pub fns: Vec<FnEntry<'f>>,
    /// Every struct/enum/union definition, by name.
    pub types: BTreeMap<&'f str, Vec<TypeEntry<'f>>>,
    /// The paths in the non-test macro bodies, item-position macro
    /// invocations, `const`/`static` items and type aliases.
    pub seeds: BTreeSet<&'f str>,
    /// file → its fns' index range in `fns`.
    files: BTreeMap<&'f str, (usize, usize)>,
    by_key: BTreeMap<String, Vec<usize>>,
    by_name: BTreeMap<&'f str, Vec<usize>>,
    /// Fns declared in a trait or a trait impl, by name.
    trait_fns: BTreeMap<&'f str, Vec<usize>>,
}

impl<'f> FnTable<'f> {
    /// Builds the table over every parsed file, each with its
    /// `#[cfg(test)]` line spans.
    pub fn build(files: impl IntoIterator<Item = (&'f str, &'f File, &'f [(u32, u32)])>) -> Self {
        let mut table = FnTable::default();
        for (path, file, test_spans) in files {
            let cx = FileCx { path, target: classify(path), test_spans };
            let first = table.fns.len();
            for r in parse::collect_items(file) {
                let item = r.item;
                match &item.kind {
                    ItemKind::Fn(func) if !item.name.is_empty() => {
                        let key = match r.self_ty {
                            Some(ty) => format!("{}::{}", type_head(ty), item.name),
                            None => item.name.clone(),
                        };
                        let role = cx.role(item, func.public, r.trait_member);
                        if r.trait_member {
                            table.trait_fns.entry(&item.name).or_default().push(table.fns.len());
                        }
                        table.fns.push(FnEntry { path, item, func, self_ty: r.self_ty, key, role });
                    }
                    ItemKind::TypeDef { public, type_names } => {
                        let role = cx.role(item, *public, false);
                        let entry = TypeEntry { path, item, type_names, role };
                        table.types.entry(&item.name).or_default().push(entry);
                    }
                    ItemKind::MacroDef(paths)
                    | ItemKind::MacroInvocation(paths)
                    | ItemKind::ConstDef(paths)
                    | ItemKind::TypeAlias(paths)
                        if !cx.is_test(item) =>
                    {
                        table.seeds.extend(paths.iter().map(String::as_str));
                    }
                    _ => {}
                }
            }
            table.files.insert(path, (first, table.fns.len()));
        }
        for (i, e) in table.fns.iter().enumerate() {
            table.by_key.entry(e.key.clone()).or_default().push(i);
            table.by_name.entry(&e.item.name).or_default().push(i);
        }
        table
    }

    /// The fns of one file.
    pub fn fns_in(&self, path: &str) -> &[FnEntry<'f>] {
        self.files.get(path).map_or(&[], |&(lo, hi)| &self.fns[lo..hi])
    }

    /// The fns a macro, `const` or alias path (see
    /// [`ItemKind::MacroDef`]) may name: a lone identifier every fn of
    /// its name, as a method call does; a longer path what
    /// [`FnTable::resolve`] makes of it outside any impl.
    pub fn resolve_token_path(&self, path: &str) -> &[usize] {
        if !path.contains("::") {
            return self.by_name(path);
        }
        self.resolve(&path.split("::").map(str::to_string).collect::<Vec<_>>(), None)
    }

    /// Every fn called `name`: what a method call on a receiver of
    /// unknown type, or an identifier in a macro body, may reach.
    pub fn by_name(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    fn keyed(&self, key: &str) -> &[usize] {
        self.by_key.get(key).map_or(&[], Vec::as_slice)
    }

    /// The fns a path expression names, from code whose enclosing impl
    /// (or trait) has the raw self type `self_ty` (see the module docs;
    /// `Self::f` with no impl in sight names every fn called `f`).
    pub fn resolve(&self, segs: &[String], self_ty: Option<&str>) -> &[usize] {
        let Some((name, quals)) = segs.split_last() else { return &[] };
        let Some(qual) = quals.last() else { return self.keyed(name) };
        let qual = match (qual.as_str(), self_ty) {
            ("Self", Some(ty)) => type_head(ty),
            ("Self", None) => return self.by_name(name),
            (q, _) => q,
        };
        if !qual.starts_with(|c: char| c.is_ascii_uppercase()) {
            return self.keyed(name);
        }
        match self.by_key.get(&format!("{qual}::{name}")) {
            Some(fns) => fns,
            None => self.trait_fns.get(name.as_str()).map_or(&[], Vec::as_slice),
        }
    }
}

/// The type a raw type text names: its last identifier before any
/// generic arguments (`&'a Pool<T>` → `Pool`, `fmt::Display` →
/// `Display`).
fn type_head(raw: &str) -> &str {
    let head = raw.split('<').next().unwrap_or("");
    head.rsplit(|c: char| !(c.is_alphanumeric() || c == '_')).find(|s| !s.is_empty()).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn keys(table: &FnTable<'_>, idx: &[usize]) -> Vec<String> {
        idx.iter().map(|&i| table.fns[i].key.clone()).collect()
    }

    fn segs(path: &str) -> Vec<String> {
        path.split("::").map(str::to_string).collect()
    }

    #[test]
    fn impl_and_trait_fns_are_keyed_by_their_type() {
        let file = parse_source(
            "fn free() {}\nimpl<'a> Pool<'a> { fn new() {} }\n\
             trait Model { fn eval(&self) {} }\nimpl Model for &Pool<'_> { fn eval(&self) {} }\n\
             fn outer() { fn inner() {} }\n",
        );
        let table = FnTable::build([("crates/x/src/lib.rs", &file, &[][..])]);
        let keys: Vec<&str> = table.fns.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["free", "Pool::new", "Model::eval", "Pool::eval", "outer", "inner"]);
    }

    #[test]
    fn paths_resolve_to_their_key() {
        let file = parse_source(
            "fn new() {}\nimpl A { fn new() {} }\nimpl B { fn new() {} }\n\
             trait T { fn made() {} }\nimpl T for B { fn made() {} }\n",
        );
        let table = FnTable::build([("crates/x/src/lib.rs", &file, &[][..])]);
        let resolve = |p: &str, self_ty| keys(&table, table.resolve(&segs(p), self_ty));
        assert_eq!(resolve("new", None), ["new"]);
        assert_eq!(resolve("crate::m::new", None), ["new"]);
        assert_eq!(resolve("A::new", None), ["A::new"]);
        assert_eq!(resolve("Self::new", Some("B")), ["B::new"]);
        // No `Vec::made` here: only trait fns can answer the path.
        assert_eq!(resolve("Vec::made", None), ["T::made", "B::made"]);
        assert!(resolve("Vec::new", None).is_empty());
        assert_eq!(keys(&table, table.by_name("new")), ["new", "A::new", "B::new"]);
    }
}
