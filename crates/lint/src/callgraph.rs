//! Workspace call graph and pool-entry reachability — the machinery
//! behind `no-nested-pool-scope`.
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

use crate::parse::{self, Expr, ExprKind, File, Item, ItemKind};
use crate::rules::RawFinding;
use std::collections::{BTreeMap, BTreeSet};

/// Pool methods that move the caller onto the worker set.
const POOL_ENTRY_METHODS: &[&str] = &["scope"];

/// One fn's call-graph record.
#[derive(Debug, Default)]
struct FnNode {
    /// Simple names of every callee (free-fn and method calls alike).
    calls: BTreeSet<String>,
    /// Lines of pool-entry sites lexically in this fn's body.
    pool_entries: Vec<u32>,
    /// Calls made from inside a closure passed to a pool-entry site:
    /// `(line, callee, direct_pool_entry)`.
    pooled_calls: Vec<PooledCall>,
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
pub struct PoolIndex {
    /// (file, fn-name) → node.
    nodes: Vec<(String, String, FnNode)>,
    /// fn-name → indices into `nodes` (same-name fns merge).
    by_name: BTreeMap<String, Vec<usize>>,
    /// fn-names that reach a pool entry, mapped to a witness chain
    /// (`name → name → … → Pool::scope`).
    reaches_pool: BTreeMap<String, String>,
}

impl PoolIndex {
    /// Builds the graph over every parsed file and computes pool
    /// reachability to a fixpoint.
    pub fn build<'f>(files: impl IntoIterator<Item = (&'f str, &'f File)>) -> Self {
        let mut idx = PoolIndex::default();
        for (path, file) in files {
            for item in &file.items {
                idx.add_item(path, item);
            }
        }
        for (i, (_, name, _)) in idx.nodes.iter().enumerate() {
            idx.by_name.entry(name.clone()).or_default().push(i);
        }
        idx.compute_reachability();
        idx
    }

    fn add_item(&mut self, path: &str, item: &Item) {
        match &item.kind {
            ItemKind::Fn(func) => {
                let mut node = FnNode::default();
                if let Some(body) = &func.body {
                    let mut collector = Collector { node: &mut node, in_pooled_closure: false };
                    collect_block(body, &mut collector);
                }
                self.nodes.push((path.to_string(), item.name.clone(), node));
            }
            ItemKind::Mod(items) | ItemKind::Trait(items) | ItemKind::Impl { items, .. } => {
                for it in items {
                    self.add_item(path, it);
                }
            }
            _ => {}
        }
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
        let name_reaches = |reach: &[Option<String>], idx: &PoolIndex, name: &str| {
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

    /// `no-nested-pool-scope` findings for one file.
    pub fn check_file(&self, path: &str) -> Vec<RawFinding> {
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
    for stmt in &block.stmts {
        match stmt {
            parse::Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    collect_expr(e, cx);
                }
                if let Some(b) = else_block {
                    collect_block(b, cx);
                }
            }
            parse::Stmt::Expr { expr, .. } => collect_expr(expr, cx),
            parse::Stmt::Item(item) => {
                // Fn-local fns are their own nodes only if named at
                // top level; keep it simple and scan their bodies in
                // the enclosing fn's context (closure flag off — a
                // local fn runs when called, not where defined).
                if let ItemKind::Fn(func) = &item.kind {
                    if let Some(b) = &func.body {
                        let saved = cx.in_pooled_closure;
                        cx.in_pooled_closure = false;
                        collect_block(b, cx);
                        cx.in_pooled_closure = saved;
                    }
                }
            }
        }
    }
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
                if is_pool_entry {
                    if let ExprKind::Closure { body, .. } = &a.kind {
                        let saved = cx.in_pooled_closure;
                        cx.in_pooled_closure = true;
                        collect_expr(body, cx);
                        cx.in_pooled_closure = saved;
                        continue;
                    }
                }
                collect_expr(a, cx);
            }
        }
        ExprKind::Call { callee, args } => {
            let name = match &callee.kind {
                ExprKind::Path(segs) => segs.last().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            if name.is_empty() {
                collect_expr(callee, cx);
            } else {
                record_call(cx, expr.line, &name, false);
            }
            for a in args {
                collect_expr(a, cx);
            }
        }
        ExprKind::Closure { body, .. } => collect_expr(body, cx),
        ExprKind::Block(b) => collect_block(b, cx),
        ExprKind::If { cond, then_block, else_branch } => {
            collect_expr(cond, cx);
            collect_block(then_block, cx);
            if let Some(e) = else_branch {
                collect_expr(e, cx);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            collect_expr(scrutinee, cx);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    collect_expr(g, cx);
                }
                collect_expr(&arm.body, cx);
            }
        }
        ExprKind::Loop { head, body } => {
            if let Some(h) = head {
                collect_expr(h, cx);
            }
            collect_block(body, cx);
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
        ExprKind::Path(_)
        | ExprKind::Lit
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
        let index = PoolIndex::build([("x.rs", &file)]);
        index
            .check_file("x.rs")
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
