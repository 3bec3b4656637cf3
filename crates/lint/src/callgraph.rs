//! The workspace call graph, one graph behind three rules:
//! `no-nested-pool-scope` (which fns reach a pool entry),
//! `unreferenced-pub-fn` (which `pub fn`s no non-test root reaches)
//! and `unreferenced-pub-type` (which `pub` types no reached code
//! names).
//!
//! The fork-join pool (`tradefl_runtime::sync::pool::Pool`) stands up
//! its own threads for every `Pool::scope` that fans out, so a task
//! already running on a scope's thread that enters `Pool::scope` again
//! multiplies the thread count: each of `w` outer threads starts up to
//! `w` more, and the pool's worker count no longer bounds the threads
//! alive. That nesting is rarely lexical — the inner entry usually
//! hides one or more calls deep — so a token pattern cannot see it.
//! This module builds a call graph over every fn of the fn table and
//! computes which fns can *reach* a pool entry, then flags calls made
//! inside a pooled closure whose callee reaches one (direct lexical
//! nesting included).
//!
//! Calls resolve through the fn table ([`crate::table`]): a path to
//! its `Type::name` key, a method call to every fn of its name. A
//! callee counts as reaching the pool only when **every** fn it
//! resolves to reaches one, so one `Solver::run` that dispatches
//! parallel work does not convict the unrelated `run` methods. A
//! runtime-guarded site (e.g. dispatch that checks `pool.workers() >
//! 1` before going parallel) that trips the rule documents its guard
//! in a `lint:allow` reason — that documentation is the point.
//!
//! The same graph finds dead public API. The roots are every fn of a
//! bin, example or `tradebench/` target, every trait-impl and trait
//! method, and every identifier in a `macro_rules!` body, an
//! item-position macro invocation or a `const`/`static` initializer
//! (none of which the parser structures; such an identifier reaches
//! every fn of its name). From them a fn is *reached* when a reached
//! fn calls it or uses it as a value (`.map(Transaction::hash)`). A
//! single-segment path that names a binding in scope (a param, or a
//! `let`, closure, match-arm, `if let`/`while let` or `for` pattern)
//! is that local and references nothing; a struct shorthand `S { seed
//! }` is such a path. Code under `#[cfg(test)]` and in test targets
//! reaches nothing. A library `pub fn` left unreached is an
//! `unreferenced-pub-fn` finding.
//!
//! Types are reached by name: a reached fn reaches every type named in
//! its signature, body, patterns, casts or turbofish, a reached type
//! the types its generics and fields name, an alias its target, and
//! the macro and `const` identifiers above reach the types they name.
//! A library `pub struct`/`enum` left unreached is an
//! `unreferenced-pub-type` finding. Merging by name, like merging by
//! key, can only hide a dead item, never flag a live one.

use crate::parse::{self, Expr, ExprKind, ItemKind};
use crate::rules::RawFinding;
use crate::table::{FnTable, Role};
use std::collections::{BTreeMap, BTreeSet};

/// Pool methods that move the caller onto the worker set.
const POOL_ENTRY_METHODS: &[&str] = &["scope"];

/// One fn's call-graph record; `'t` borrows the fn table.
#[derive(Debug, Default)]
struct FnNode<'t> {
    /// Every callee (free-fn, path and method calls alike, but for
    /// calls through a local binding), as written → the fns it
    /// resolves to.
    calls: BTreeMap<String, &'t [usize]>,
    /// Fns named other than as a callee: every path expression that
    /// does not name a local binding, and the identifiers of fn-local
    /// macro definitions and `const` initializers. Only the
    /// reachability from roots reads these; pool reachability follows
    /// calls alone.
    refs: BTreeSet<usize>,
    /// A pool-entry site lies lexically in this fn's body.
    enters_pool: bool,
    /// Calls made from inside a closure passed to a pool-entry site.
    pooled_calls: Vec<PooledCall<'t>>,
}

#[derive(Debug)]
struct PooledCall<'t> {
    line: u32,
    /// The callee as written.
    callee: String,
    targets: &'t [usize],
    /// The call is itself a pool entry (lexical nesting).
    direct: bool,
}

/// The workspace call graph over the fn table.
#[derive(Debug)]
pub struct CallGraph<'t> {
    table: &'t FnTable<'t>,
    /// One node per table fn, in table order.
    nodes: Vec<FnNode<'t>>,
    /// Per fn: a witness chain (`a → b → … enters the pool directly`)
    /// if it reaches a pool entry.
    reaches_pool: Vec<Option<String>>,
    /// Per fn: reached from a non-test root.
    reached: Vec<bool>,
    /// Type names the reached fns, types and seeds name.
    reached_types: BTreeSet<&'t str>,
}

impl<'t> CallGraph<'t> {
    /// Builds the graph over the table and computes pool reachability
    /// and the fns and types the roots reach.
    pub fn build(table: &'t FnTable<'t>) -> Self {
        let nodes: Vec<_> = table
            .fns
            .iter()
            .map(|e| {
                let mut node = FnNode::default();
                if let Some(body) = &e.func.body {
                    // The body starts with only the fn's own params bound.
                    let locals = e.func.params.iter().map(|p| p.name.clone()).collect();
                    let (self_ty, node) = (e.self_ty, &mut node);
                    let mut cx = Collector { table, self_ty, node, in_pooled_closure: false, locals };
                    collect_block(body, &mut cx);
                }
                node
            })
            .collect();
        let reaches_pool = Self::reachability(table, &nodes);
        let (reached, reached_types) = Self::reached(table, &nodes);
        CallGraph { table, nodes, reaches_pool, reached, reached_types }
    }

    /// Whether every fn of a non-empty callee set reaches the pool.
    fn all_reach(reach: &[Option<String>], targets: &[usize]) -> bool {
        !targets.is_empty() && targets.iter().all(|&j| reach[j].is_some())
    }

    /// Fixpoint: a fn reaches the pool if its body holds a pool entry
    /// or it calls a callee every fn of which reaches one.
    fn reachability(table: &FnTable<'_>, nodes: &[FnNode<'_>]) -> Vec<Option<String>> {
        let fns = &table.fns;
        let mut reach: Vec<Option<String>> = fns
            .iter()
            .zip(nodes)
            .map(|(e, node)| {
                node.enters_pool
                    .then(|| format!("`{}` enters the pool directly", e.key))
            })
            .collect();
        loop {
            let mut grew = false;
            for (i, node) in nodes.iter().enumerate() {
                if reach[i].is_some() {
                    continue;
                }
                if let Some(targets) =
                    node.calls.values().find(|targets| Self::all_reach(&reach, targets))
                {
                    // Every target reaches, so any one's chain is a
                    // true chain for some resolution.
                    let via = targets.iter().find_map(|&j| reach[j].clone()).unwrap_or_default();
                    reach[i] = Some(format!("`{}` → {via}", fns[i].key));
                    grew = true;
                }
            }
            if !grew {
                return reach;
            }
        }
    }

    /// Walks from the roots: every root fn and every fn a seed path
    /// names, closed under "a reached non-test fn reaches what it calls
    /// or names"; then the type names the reached fns and the seeds
    /// name, closed under "a reached type name reaches what its
    /// non-test definitions name". (A type defined outside a library
    /// needs no seeding: rustc's dead-code lint keeps every such type
    /// named by its target's code.)
    fn reached<'n>(table: &'n FnTable<'n>, nodes: &[FnNode<'_>]) -> (Vec<bool>, BTreeSet<&'n str>) {
        let fns = &table.fns;
        let mut queue: Vec<usize> = (0..fns.len()).filter(|&i| fns[i].role == Role::Root).collect();
        for seed in &table.seeds {
            queue.extend_from_slice(table.resolve_token_path(seed));
        }
        let mut reached = vec![false; fns.len()];
        while let Some(i) = queue.pop() {
            if reached[i] || fns[i].role == Role::Test {
                continue;
            }
            reached[i] = true;
            let node = &nodes[i];
            queue.extend(node.calls.values().flat_map(|t| t.iter()).chain(&node.refs));
        }

        let mut names: Vec<&str> = table.seeds.iter().flat_map(|s| s.split("::")).collect();
        for (e, _) in fns.iter().zip(&reached).filter(|(_, &r)| r) {
            names.extend(e.func.type_names.iter().map(String::as_str));
        }
        let mut reached_types = BTreeSet::new();
        while let Some(name) = names.pop() {
            if !reached_types.insert(name) {
                continue;
            }
            for ty in table.types.get(name).into_iter().flatten().filter(|t| t.role != Role::Test) {
                names.extend(ty.type_names.iter().map(String::as_str));
            }
        }
        (reached, reached_types)
    }

    /// `unreferenced-pub-fn` findings for one file. Only a graph over
    /// the whole tree can say a fn is unreferenced.
    pub fn check_unreferenced(&self, path: &str) -> Vec<RawFinding> {
        let fns = &self.table.fns;
        (0..fns.len())
            .filter(|&i| fns[i].path == path && fns[i].role == Role::Pub && !self.reached[i])
            .map(|i| RawFinding {
                rule: "unreferenced-pub-fn",
                line: fns[i].item.line,
                message: format!(
                    "`pub fn {}` is reached from no bin, example, tradebench fn, trait method or \
                     macro body outside tests — delete it, or lint:allow with why it stays",
                    fns[i].key
                ),
            })
            .collect()
    }

    /// `unreferenced-pub-type` findings for one file (whole tree only,
    /// like [`CallGraph::check_unreferenced`]).
    pub fn check_unreferenced_types(&self, path: &str) -> Vec<RawFinding> {
        self.table
            .types
            .values()
            .flatten()
            .filter(|t| {
                t.path == path
                    && t.role == Role::Pub
                    && !self.reached_types.contains(t.item.name.as_str())
            })
            .map(|t| RawFinding {
                rule: "unreferenced-pub-type",
                line: t.item.line,
                message: format!(
                    "`pub` type `{}` is named by no fn or type reached from a bin, example, \
                     tradebench fn, trait method or macro body outside tests — delete it, or \
                     lint:allow with why it stays",
                    t.item.name
                ),
            })
            .collect()
    }

    /// `no-nested-pool-scope` findings for one file.
    pub fn check_pool_nesting(&self, path: &str) -> Vec<RawFinding> {
        let mut out = Vec::new();
        for (e, node) in self.table.fns.iter().zip(&self.nodes) {
            if e.path != path {
                continue;
            }
            let name = &e.key;
            for pc in &node.pooled_calls {
                if pc.direct {
                    out.push(RawFinding {
                        rule: "no-nested-pool-scope",
                        line: pc.line,
                        message: format!(
                            "pool entry `{}` inside a closure already running on the pool \
                             (in `{name}`): nested entry can park every worker — restructure \
                             to a single dispatch level",
                            pc.callee
                        ),
                    });
                } else if Self::all_reach(&self.reaches_pool, pc.targets) {
                    let chain = pc
                        .targets
                        .iter()
                        .find_map(|&j| self.reaches_pool[j].as_deref())
                        .unwrap_or_default();
                    out.push(RawFinding {
                        rule: "no-nested-pool-scope",
                        line: pc.line,
                        message: format!(
                            "call to `{}` inside a pooled closure (in `{name}`) reaches a \
                             pool entry: {chain} — nested entry can park every worker",
                            pc.callee
                        ),
                    });
                }
            }
        }
        out
    }
}

struct Collector<'t, 'n> {
    table: &'t FnTable<'t>,
    /// Raw self type of the fn's enclosing impl, for `Self::f` paths.
    self_ty: Option<&'t str>,
    node: &'n mut FnNode<'t>,
    in_pooled_closure: bool,
    /// Names bound at the current point of the fn body, innermost last:
    /// its params and every `let`, closure, match-arm, `if let`/`while
    /// let` and `for` pattern in scope. A single-segment path naming one
    /// is that local, not a fn.
    locals: Vec<String>,
}

impl<'t> Collector<'t, '_> {
    /// Runs `f` with `names` bound, then unbinds them.
    fn scoped(&mut self, names: impl IntoIterator<Item = String>, f: impl FnOnce(&mut Self)) {
        let depth = self.locals.len();
        self.locals.extend(names);
        f(self);
        self.locals.truncate(depth);
    }

    /// The fns a path expression names, or `None` for a single segment
    /// naming a local binding.
    fn resolve(&self, segs: &[String]) -> Option<&'t [usize]> {
        match segs {
            [name] if self.locals.contains(name) => None,
            _ => Some(self.table.resolve(segs, self.self_ty)),
        }
    }
}

/// Whether a method-call receiver plausibly denotes a pool: an ident
/// or field whose name contains "pool", or `Pool::global()`.
fn receiver_is_pool(recv: &Expr) -> bool {
    match &recv.kind {
        ExprKind::Path(segs) => segs
            .last()
            .is_some_and(|s| s.to_ascii_lowercase().contains("pool")),
        ExprKind::Field { name, .. } => name.to_ascii_lowercase().contains("pool"),
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => segs.iter().any(|s| s == "Pool"),
            _ => false,
        },
        ExprKind::Unary { expr, .. } | ExprKind::Try(expr) => receiver_is_pool(expr),
        _ => false,
    }
}

fn collect_block(block: &parse::Block, cx: &mut Collector<'_, '_>) {
    let depth = cx.locals.len();
    for stmt in &block.stmts {
        match stmt {
            parse::Stmt::Let { pat, init, else_block, .. } => {
                if let Some(e) = init {
                    collect_expr(e, cx);
                }
                if let Some(b) = else_block {
                    collect_block(b, cx);
                }
                cx.locals.extend(parse::bound_names(pat));
            }
            parse::Stmt::Expr { expr, .. } => collect_expr(expr, cx),
            // A fn-local fn is a table fn of its own; a fn-local macro
            // or `const` names fns for this fn alone.
            parse::Stmt::Item(item) => match &item.kind {
                ItemKind::MacroDef(paths) | ItemKind::ConstDef(paths) => {
                    for path in paths {
                        cx.node.refs.extend(cx.table.resolve_token_path(path));
                    }
                }
                _ => {}
            },
        }
    }
    cx.locals.truncate(depth);
}

fn collect_expr(expr: &Expr, cx: &mut Collector<'_, '_>) {
    match &expr.kind {
        ExprKind::MethodCall { recv, method, args } => {
            let is_pool_entry =
                POOL_ENTRY_METHODS.contains(&method.as_str()) && receiver_is_pool(recv);
            // A pool-entry-named method on a non-pool receiver (e.g. a
            // tracer's `.scope`) must not resolve by name against
            // `Pool::scope` — entry detection is lexical, so drop the
            // edge entirely rather than poison reachability.
            if is_pool_entry || !POOL_ENTRY_METHODS.contains(&method.as_str()) {
                let targets = cx.table.by_name(method);
                record_call(cx, expr.line, method.clone(), targets, is_pool_entry);
            }
            collect_expr(recv, cx);
            for a in args {
                let saved = cx.in_pooled_closure;
                cx.in_pooled_closure |= is_pool_entry && matches!(a.kind, ExprKind::Closure { .. });
                collect_expr(a, cx);
                cx.in_pooled_closure = saved;
            }
        }
        ExprKind::Call { callee, args } => {
            match &callee.kind {
                // A call through a local (a closure bound by `let`) calls
                // no fn.
                ExprKind::Path(segs) => {
                    if let Some(targets) = cx.resolve(segs) {
                        record_call(cx, expr.line, segs.join("::"), targets, false);
                    }
                }
                _ => collect_expr(callee, cx),
            }
            for a in args {
                collect_expr(a, cx);
            }
        }
        ExprKind::Closure { params, body } => {
            cx.scoped(params.clone(), |cx| collect_expr(body, cx))
        }
        ExprKind::Block(b) => collect_block(b, cx),
        ExprKind::If { binds, cond, then_block, else_branch } => {
            collect_expr(cond, cx);
            cx.scoped(binds.clone(), |cx| collect_block(then_block, cx));
            if let Some(e) = else_branch {
                collect_expr(e, cx);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            collect_expr(scrutinee, cx);
            for arm in arms {
                cx.scoped(parse::bound_names(&arm.pat), |cx| {
                    if let Some(g) = &arm.guard {
                        collect_expr(g, cx);
                    }
                    collect_expr(&arm.body, cx);
                });
            }
        }
        ExprKind::Loop { binds, head, body } => {
            if let Some(h) = head {
                collect_expr(h, cx);
            }
            cx.scoped(binds.clone(), |cx| collect_block(body, cx));
        }
        ExprKind::Field { base, .. } => collect_expr(base, cx),
        ExprKind::Index { base, index } => {
            collect_expr(base, cx);
            collect_expr(index, cx);
        }
        ExprKind::Unary { expr: e, .. } | ExprKind::Try(e) | ExprKind::Cast { expr: e, .. } => {
            collect_expr(e, cx)
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            collect_expr(lhs, cx);
            collect_expr(rhs, cx);
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for e in es {
                collect_expr(e, cx);
            }
        }
        ExprKind::Repeat { elem, len } => {
            collect_expr(elem, cx);
            collect_expr(len, cx);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                collect_expr(a, cx);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for (_, e) in fields {
                collect_expr(e, cx);
            }
        }
        ExprKind::Return(Some(e)) => collect_expr(e, cx),
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                collect_expr(e, cx);
            }
            if let Some(e) = hi {
                collect_expr(e, cx);
            }
        }
        ExprKind::Path(segs) => {
            if let Some(targets) = cx.resolve(segs) {
                cx.node.refs.extend(targets);
            }
        }
        ExprKind::Lit
        | ExprKind::Return(None)
        | ExprKind::Jump
        | ExprKind::Opaque => {}
    }
}

fn record_call<'t>(
    cx: &mut Collector<'t, '_>,
    line: u32,
    callee: String,
    targets: &'t [usize],
    is_pool_entry: bool,
) {
    if is_pool_entry {
        cx.node.enters_pool = true;
    }
    if cx.in_pooled_closure {
        cx.node.pooled_calls.push(PooledCall {
            line,
            callee: callee.clone(),
            targets,
            direct: is_pool_entry,
        });
    }
    cx.node.calls.insert(callee, targets);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn findings(src: &str) -> Vec<(u32, String)> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let table = FnTable::build([("x.rs", &file, &[][..])]);
        let graph = CallGraph::build(&table);
        graph
            .check_pool_nesting("x.rs")
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn lexical_nesting_is_flagged() {
        let src = "fn f(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| {\n\
                   pool.scope(|t| {});\n\
                   });\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 3);
    }

    #[test]
    fn nesting_behind_one_call_is_flagged() {
        let src = "fn inner(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| {});\n}\n\
                   fn outer(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| {\n\
                   inner(pool, jobs);\n\
                   });\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 6);
        assert!(got[0].1.contains("inner"), "{}", got[0].1);
    }

    #[test]
    fn nesting_behind_two_calls_is_flagged() {
        let src = "fn deep(pool: &Pool, jobs: Vec<J>) { pool.scope(|s| {}); }\n\
                   fn mid(pool: &Pool, jobs: Vec<J>) { deep(pool, jobs); }\n\
                   fn outer(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| { mid(pool, jobs); });\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].1.contains("mid"), "{}", got[0].1);
    }

    #[test]
    fn serial_helpers_inside_pooled_closures_are_clean() {
        let src = "fn payoff(i: usize) -> f64 { 0.0 }\n\
                   fn f(pool: &Pool) {\n\
                   pool.scope(|s| {\n\
                   let x = payoff(3);\n\
                   });\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn sibling_dispatch_outside_the_closure_is_clean() {
        let src = "fn f(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| { serial(); });\n\
                   pool.scope(|s| {});\n}\n\
                   fn serial() {}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn non_pool_scope_method_is_not_a_pool_entry() {
        let src = "fn f(tracer: &Tracer) {\n\
                   tracer.scope(|| {});\n}\n\
                   fn g(pool: &Pool) {\n\
                   pool.scope(|s| { f(tracer); });\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn global_pool_receiver_is_recognized() {
        let src = "fn inner(jobs: Vec<J>) { Pool::global().scope(|s| {}); }\n\
                   fn outer(pool: &Pool, jobs: Vec<J>) {\n\
                   pool.scope(|s| { inner(jobs); });\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
    }
}
