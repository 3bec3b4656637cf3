//! The workspace call graph, one graph behind two rules:
//! `no-nested-pool-scope` (which fns reach a pool entry) and
//! `unreferenced-pub-fn` (which `pub fn`s no non-test root reaches).
//!
//! The fork-join pool (`tradefl_runtime::sync::pool::Pool`) stands up
//! its own threads for every `Pool::scope` that fans out, so a task
//! already running on a scope's thread that enters `Pool::scope` again
//! multiplies the thread count: each of `w` outer threads starts up to
//! `w` more, and the pool's worker count no longer bounds the threads
//! alive. That nesting is rarely lexical — the inner entry usually
//! hides one or more calls deep — so a token pattern cannot see it.
//! This module builds a name-keyed call graph over every parsed fn and
//! computes which fns can *reach* a pool entry, then flags calls made
//! inside a pooled closure whose callee reaches one (direct lexical
//! nesting included).
//!
//! Resolution is by simple callee name (no types), so distinct fns
//! sharing a name merge conservatively; a runtime-guarded site (e.g.
//! dispatch that checks `pool.workers() > 1` before going parallel)
//! that trips the rule documents its guard in a `lint:allow` reason —
//! that documentation is the point.
//!
//! The same graph finds dead public API. The roots are every fn of a
//! bin, example or `tradebench/` target, every trait-impl and trait
//! method, and every identifier in a `macro_rules!` body, an
//! item-position macro invocation or a `const`/`static` initializer
//! (none of which the parser structures). From them a name is
//! *referenced* when a reached fn calls it or uses it as a value
//! (`.map(Transaction::hash)`), and reaching a name reaches every
//! non-test fn of that name. A single-segment path that names a
//! binding in scope (a param, or a `let`, closure, match-arm, `if
//! let`/`while let` or `for` pattern) is that local and references
//! nothing; a struct shorthand `S { seed }` is such a path. Code under
//! `#[cfg(test)]` and in test targets reaches nothing. A library `pub fn` whose name stays
//! unreferenced is an `unreferenced-pub-fn` finding; name merging can
//! only hide a dead fn, never flag a live one.

use crate::parse::{self, Expr, ExprKind, File, Item, ItemKind};
use crate::rules::{classify, RawFinding, Target};
use std::collections::{BTreeMap, BTreeSet};

/// Pool methods that move the caller onto the worker set.
const POOL_ENTRY_METHODS: &[&str] = &["scope"];

/// One fn's call-graph record.
#[derive(Debug, Default)]
struct FnNode {
    /// 1-based first line of the fn item.
    line: u32,
    role: Role,
    /// Simple names of every callee (free-fn and method calls alike),
    /// but for calls through a local binding.
    calls: BTreeSet<String>,
    /// Names used other than as a callee: the last segment of every
    /// path expression that does not name a local binding, and the
    /// identifiers of fn-local macro definitions and `const`
    /// initializers. Only `unreferenced-pub-fn` reads these; pool
    /// reachability follows calls alone.
    refs: BTreeSet<String>,
    /// Lines of pool-entry sites lexically in this fn's body.
    pool_entries: Vec<u32>,
    /// Calls made from inside a closure passed to a pool-entry site:
    /// `(line, callee, direct_pool_entry)`.
    pooled_calls: Vec<PooledCall>,
}

/// Where a fn sits, for `unreferenced-pub-fn`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Under `#[cfg(test)]` or in a test target: reaches nothing.
    Test,
    /// A bin/example/`tradebench` fn or a trait (impl) method.
    Root,
    /// A plain `pub fn` in a library target.
    Pub,
    /// Any other library fn.
    #[default]
    Inner,
}

/// Per-file facts [`CallGraph::add_item`] classifies fns by.
struct FileCx<'f> {
    path: &'f str,
    target: Target,
    test_spans: &'f [(u32, u32)],
}

impl FileCx<'_> {
    fn is_test(&self, line: u32) -> bool {
        matches!(self.target, Target::Test | Target::Bench)
            || self.test_spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    fn role(&self, line: u32, public: bool, trait_member: bool) -> Role {
        if self.is_test(line) {
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

#[derive(Debug)]
struct PooledCall {
    line: u32,
    callee: String,
    /// The call is itself a pool entry (lexical nesting).
    direct: bool,
}

/// The workspace call graph, keyed by file for finding attribution.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// (file, fn-name) → node.
    nodes: Vec<(String, String, FnNode)>,
    /// fn-name → indices into `nodes` (same-name fns merge).
    by_name: BTreeMap<String, Vec<usize>>,
    /// fn-names that reach a pool entry, mapped to a witness chain
    /// (`name → name → … → Pool::scope`).
    reaches_pool: BTreeMap<String, String>,
    /// Names the non-test roots reach: seeded with the identifiers of
    /// non-test macro bodies and `const` initializers, then closed by
    /// [`CallGraph::compute_referenced`].
    referenced: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph over every parsed file, each with its
    /// `#[cfg(test)]` line spans, and computes pool reachability and
    /// the referenced names to a fixpoint.
    pub fn build<'f>(
        files: impl IntoIterator<Item = (&'f str, &'f File, &'f [(u32, u32)])>,
    ) -> Self {
        let mut graph = CallGraph::default();
        for (path, file, test_spans) in files {
            let cx = FileCx { path, target: classify(path), test_spans };
            for item in &file.items {
                graph.add_item(&cx, item, false);
            }
        }
        for (i, (_, name, _)) in graph.nodes.iter().enumerate() {
            graph.by_name.entry(name.clone()).or_default().push(i);
        }
        graph.compute_reachability();
        graph.compute_referenced();
        graph
    }

    fn add_item(&mut self, cx: &FileCx<'_>, item: &Item, trait_member: bool) {
        match &item.kind {
            ItemKind::Fn(func) => {
                let mut node = FnNode {
                    line: item.line,
                    role: cx.role(item.line, func.public, trait_member),
                    ..FnNode::default()
                };
                Collector { node: &mut node, in_pooled_closure: false, locals: Vec::new() }
                    .fn_body(func);
                self.nodes.push((cx.path.to_string(), item.name.clone(), node));
            }
            ItemKind::Mod(items) => {
                for it in items {
                    self.add_item(cx, it, false);
                }
            }
            ItemKind::Trait(items) => {
                for it in items {
                    self.add_item(cx, it, true);
                }
            }
            ItemKind::Impl { trait_ty, items, .. } => {
                for it in items {
                    self.add_item(cx, it, trait_ty.is_some());
                }
            }
            ItemKind::MacroDef(idents)
            | ItemKind::MacroInvocation(idents)
            | ItemKind::ConstDef(idents) => {
                if !cx.is_test(item.line) {
                    self.referenced.extend(idents.iter().cloned());
                }
            }
            _ => {}
        }
    }

    /// Closes the seeded names under "a reached name reaches every
    /// non-test fn of that name, and a reached fn reaches what it
    /// calls or names". The roots' names start the walk.
    fn compute_referenced(&mut self) {
        let mut queue: Vec<&str> = self.referenced.iter().map(String::as_str).collect();
        for (_, _, node) in &self.nodes {
            if node.role == Role::Root {
                queue.extend(node.calls.iter().chain(&node.refs).map(String::as_str));
            }
        }
        let mut referenced = BTreeSet::new();
        while let Some(name) = queue.pop() {
            if !referenced.insert(name.to_string()) {
                continue;
            }
            for &i in self.by_name.get(name).into_iter().flatten() {
                let node = &self.nodes[i].2;
                if matches!(node.role, Role::Pub | Role::Inner) {
                    queue.extend(node.calls.iter().chain(&node.refs).map(String::as_str));
                }
            }
        }
        self.referenced = referenced;
    }

    /// Fixpoint: a fn reaches the pool if its body holds a pool entry
    /// or it calls (by name) any *name* that reaches one. Because
    /// resolution is by simple name, a name counts as reaching only
    /// when **every** definition of it reaches — one `Solver::new`
    /// that dispatches parallel work must not convict the dozens of
    /// unrelated `new`s in the workspace (and through them, every fn
    /// constructing anything inside a pooled closure).
    fn compute_reachability(&mut self) {
        let n = self.nodes.len();
        // Per-definition reach status with a witness chain.
        let mut node_reach: Vec<Option<String>> = self
            .nodes
            .iter()
            .map(|(_, name, node)| {
                (!node.pool_entries.is_empty())
                    .then(|| format!("`{name}` enters the pool directly"))
            })
            .collect();
        let name_reaches = |reach: &[Option<String>], idx: &CallGraph, name: &str| {
            idx.by_name
                .get(name)
                .is_some_and(|defs| !defs.is_empty() && defs.iter().all(|&i| reach[i].is_some()))
        };
        loop {
            let mut grew = false;
            for i in 0..n {
                if node_reach[i].is_some() {
                    continue;
                }
                let (_, name, node) = &self.nodes[i];
                if let Some(callee) = node
                    .calls
                    .iter()
                    .find(|c| name_reaches(&node_reach, self, c))
                {
                    // Witness via any def of the callee name (all reach,
                    // so any chain is a true chain for some resolution).
                    let via = self.by_name[callee]
                        .iter()
                        .find_map(|&j| node_reach[j].clone())
                        .unwrap_or_else(|| format!("`{callee}` enters the pool"));
                    node_reach[i] = Some(format!("`{name}` → {via}"));
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for (name, defs) in &self.by_name {
            if defs.iter().all(|&i| node_reach[i].is_some()) {
                if let Some(witness) = defs.iter().find_map(|&i| node_reach[i].clone()) {
                    self.reaches_pool.insert(name.clone(), witness);
                }
            }
        }
    }

    /// `unreferenced-pub-fn` findings for one file. Only a graph over
    /// the whole tree can say a fn is unreferenced.
    pub fn check_unreferenced(&self, path: &str) -> Vec<RawFinding> {
        self.nodes
            .iter()
            .filter(|(file, name, node)| {
                file == path && node.role == Role::Pub && !self.referenced.contains(name)
            })
            .map(|(_, name, node)| RawFinding {
                rule: "unreferenced-pub-fn",
                line: node.line,
                message: format!(
                    "`pub fn {name}` is reached from no bin, example, tradebench fn, trait \
                     method or macro body outside tests — delete it, or lint:allow with why it \
                     stays"
                ),
            })
            .collect()
    }

    /// `no-nested-pool-scope` findings for one file.
    pub fn check_pool_nesting(&self, path: &str) -> Vec<RawFinding> {
        let mut out = Vec::new();
        for (file, name, node) in &self.nodes {
            if file != path {
                continue;
            }
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
                } else if let Some(chain) = self.reaches_pool.get(&pc.callee) {
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

struct Collector<'n> {
    node: &'n mut FnNode,
    in_pooled_closure: bool,
    /// Names bound at the current point of the fn body, innermost last:
    /// its params and every `let`, closure, match-arm, `if let`/`while
    /// let` and `for` pattern in scope. A single-segment path naming one
    /// is that local, not a fn.
    locals: Vec<String>,
}

impl Collector<'_> {
    /// Collects a fn body with only the fn's own params bound (a
    /// fn-local fn does not see its enclosing fn's locals).
    fn fn_body(&mut self, func: &parse::FnItem) {
        let Some(body) = &func.body else { return };
        let params = func.params.iter().map(|p| p.name.clone()).collect();
        let outer = std::mem::replace(&mut self.locals, params);
        collect_block(body, self);
        self.locals = outer;
    }

    /// Runs `f` with `names` bound, then unbinds them.
    fn scoped(&mut self, names: impl IntoIterator<Item = String>, f: impl FnOnce(&mut Self)) {
        let depth = self.locals.len();
        self.locals.extend(names);
        f(self);
        self.locals.truncate(depth);
    }

    /// The name a path expression refers to as a fn: its last segment,
    /// unless it is a single segment naming a local binding.
    fn fn_name<'p>(&self, segs: &'p [String]) -> Option<&'p String> {
        match segs {
            [name] if self.locals.contains(name) => None,
            _ => segs.last(),
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

fn collect_block(block: &parse::Block, cx: &mut Collector<'_>) {
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
            parse::Stmt::Item(item) => match &item.kind {
                // Fn-local fns are their own nodes only if named at
                // top level; keep it simple and scan their bodies in
                // the enclosing fn's context (closure flag off — a
                // local fn runs when called, not where defined).
                ItemKind::Fn(func) => {
                    let saved = cx.in_pooled_closure;
                    cx.in_pooled_closure = false;
                    cx.fn_body(func);
                    cx.in_pooled_closure = saved;
                }
                ItemKind::MacroDef(idents) | ItemKind::ConstDef(idents) => {
                    cx.node.refs.extend(idents.iter().cloned());
                }
                _ => {}
            },
        }
    }
    cx.locals.truncate(depth);
}

fn collect_expr(expr: &Expr, cx: &mut Collector<'_>) {
    match &expr.kind {
        ExprKind::MethodCall { recv, method, args } => {
            let is_pool_entry =
                POOL_ENTRY_METHODS.contains(&method.as_str()) && receiver_is_pool(recv);
            // A pool-entry-named method on a non-pool receiver (e.g. a
            // tracer's `.scope`) must not resolve by name against
            // `Pool::scope` — entry detection is lexical, so drop the
            // edge entirely rather than poison reachability.
            if is_pool_entry || !POOL_ENTRY_METHODS.contains(&method.as_str()) {
                record_call(cx, expr.line, method, is_pool_entry);
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
                    if let Some(name) = cx.fn_name(segs).cloned() {
                        record_call(cx, expr.line, &name, false);
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
            if let Some(name) = cx.fn_name(segs) {
                cx.node.refs.insert(name.clone());
            }
        }
        ExprKind::Lit
        | ExprKind::Return(None)
        | ExprKind::Jump
        | ExprKind::Opaque => {}
    }
}

fn record_call(cx: &mut Collector<'_>, line: u32, callee: &str, is_pool_entry: bool) {
    cx.node.calls.insert(callee.to_string());
    if is_pool_entry {
        cx.node.pool_entries.push(line);
    }
    if cx.in_pooled_closure {
        cx.node.pooled_calls.push(PooledCall {
            line,
            callee: callee.to_string(),
            direct: is_pool_entry,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn findings(src: &str) -> Vec<(u32, String)> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let graph = CallGraph::build([("x.rs", &file, &[][..])]);
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
