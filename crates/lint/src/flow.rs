//! Intra-procedural dataflow over parsed fn bodies, with one level of
//! call-through via per-fn summaries.
//!
//! Three semantic analyses live here:
//!
//! * **Wire-length taint** (`unbounded-wire-alloc`): a value produced
//!   by `try_get_*`/`decode_*` is *tainted*; taint propagates through
//!   `let` bindings, assignments, `?`, `as` casts, arithmetic, method
//!   chains, and `match` arms (a binding in an arm pattern is tainted
//!   when the scrutinee is). Flowing through `bounded_count(…)` or a
//!   `.min(…)`/`.clamp(…)` call *sanitizes*. A tainted value reaching
//!   `with_capacity(…)`, `.reserve(…)`, or `vec![_; n]` is a finding —
//!   an attacker-declared length turning into an attacker-sized
//!   allocation. Summaries give one level of call-through: calling a
//!   fn whose return is wire-tainted taints the result, and passing a
//!   tainted value to a parameter the callee feeds into an allocation
//!   fires at the call site.
//! * **Money arithmetic** (`no-unchecked-money-arith`): raw `+`/`-`/`*`
//!   (and compound assignment) where an operand is money-typed —
//!   `Wei`/`Fixed` by declared type, a `balance`/`nonce`/`amount`/…
//!   named field or binding, or the wrapped `.0` inside
//!   `impl Wei`/`impl Fixed`.
//! * **Unused `Result`** (`unused-result`): a statement-position call
//!   whose callee — resolved through the workspace fn table — always
//!   returns `Result`, with no `?`, `let`, or `match` consuming it.
//!
//! Calls resolve through [`crate::table::FnTable`]: a path (`f(..)`,
//! `Type::f(..)`, `Self::f(..)`) to the fns of its key, a method call
//! — whose receiver type is not inferred — to every fn of its name.
//! All three analyses are heuristic (no type inference); false
//! positives carry a reasoned `lint:allow`, which is the designed
//! escape hatch.

use crate::parse::{bound_names, Block, Expr, ExprKind, Stmt};
use crate::rules::RawFinding;
use crate::table::{FnEntry, FnTable};
use std::collections::BTreeSet;

/// Method names that sanitize a tainted length (cap it to a bound).
/// `len` belongs here because the length of a *materialized*
/// collection is bounded by bytes actually received — the hazard is an
/// attacker-declared count allocated before the data exists, not
/// allocation proportional to data in hand.
const SANITIZER_METHODS: &[&str] = &["min", "clamp", "len"];

/// Free/associated fns whose result is a *validated* count.
const SANITIZER_FNS: &[&str] = &["bounded_count"];

/// Name fragments marking a money-carrying binding or field.
const MONEY_NAMES: &[&str] =
    &["balance", "nonce", "amount", "deposit", "fee", "refund", "stake"];

/// Common std method names excluded from `unused-result` method
/// matching: a workspace type may define e.g. `push(…) -> Result<…>`,
/// but a bare `v.push(x)` at a call site is overwhelmingly
/// `Vec::push`, and resolution by method name cannot tell them apart.
const STD_METHOD_NAMES: &[&str] = &[
    "push", "insert", "remove", "get", "take", "replace", "swap", "write", "read", "flush",
    "next", "send", "recv", "parse", "clone", "fmt", "extend", "drain", "clear", "sort",
    "resize", "reserve", "min", "max", "wait", "join", "iter", "into_iter", "finish",
    "expect", "unwrap",
];

/// Per-fn summary: what the flow index records about one `fn` for
/// one level of call-through.
#[derive(Debug, Default, Clone)]
pub struct FnSummary {
    /// The fn's return value is wire-tainted (a decode source reaches
    /// the tail/`return` expressions unsanitized).
    pub returns_tainted: bool,
    /// Parameter indices that flow, unsanitized, into an allocation
    /// sink inside the body.
    pub params_to_alloc: Vec<usize>,
    /// The declared return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the fn takes a `self` receiver (method vs free fn).
    pub has_self: bool,
}

/// One summary per fn of the table. A call that resolves to several
/// fns merges their summaries in the direction that limits collision
/// damage: `returns_tainted` unions (any decode-returning fn taints
/// the call), but `params_to_alloc` *intersects* — a param index fires
/// at call sites only when every resolved fn feeds it into an
/// allocation (two unrelated `restore`s must not cross-contaminate).
/// Likewise, `unused-result` fires only when *every* resolved fn
/// returns `Result`.
#[derive(Debug)]
pub struct FlowIndex<'t> {
    table: &'t FnTable<'t>,
    /// In table order.
    summaries: Vec<FnSummary>,
}

impl<'t> FlowIndex<'t> {
    /// Summarizes every fn of the table.
    pub fn build(table: &'t FnTable<'t>) -> Self {
        FlowIndex { table, summaries: table.fns.iter().map(summarize).collect() }
    }

    /// The merged summary of the fns a call resolves to (`None` when
    /// it resolves to none).
    fn merged(&self, targets: &[usize]) -> Option<FnSummary> {
        let (&first, rest) = targets.split_first()?;
        let mut out = self.summaries[first].clone();
        for &i in rest {
            let s = &self.summaries[i];
            out.returns_tainted |= s.returns_tainted;
            out.params_to_alloc.retain(|p| s.params_to_alloc.contains(p));
        }
        Some(out)
    }

    /// Whether a non-empty set of fns all return `Result`.
    fn always_result(&self, targets: impl IntoIterator<Item = usize>) -> bool {
        let mut any = false;
        targets.into_iter().all(|i| {
            any = true;
            self.summaries[i].returns_result
        }) && any
    }
}

// ---- taint machinery ------------------------------------------------------

/// Tainted-variable environment for one fn body (lexical, flow-
/// insensitive across branches: a var tainted on any path stays
/// tainted — conservative in the safe direction).
#[derive(Default)]
struct Env {
    tainted: BTreeSet<String>,
}

/// Emits `unbounded-wire-alloc` findings for sink hits.
struct TaintCtx<'i> {
    index: Option<&'i FlowIndex<'i>>,
    /// Raw self type of the fn's enclosing impl, for `Self::f` calls.
    self_ty: Option<&'i str>,
    findings: Vec<RawFinding>,
}

impl TaintCtx<'_> {
    fn sink_hit(&mut self, line: u32, what: &str, via: &str) {
        self.findings.push(RawFinding {
            rule: "unbounded-wire-alloc",
            line,
            message: format!(
                "wire-derived length reaches {what} {via}: an attacker-declared count becomes \
                 an attacker-sized allocation — validate with bounded_count (or cap with \
                 .min(...)) before allocating"
            ),
        });
    }
}

/// Whether a call name is a wire-decode taint source.
fn is_source_name(name: &str) -> bool {
    name.starts_with("try_get_") || name.starts_with("decode_") || name == "decode"
}

fn path_last(segs: &[String]) -> &str {
    segs.last().map_or("", |s| s.as_str())
}

/// Evaluates taint of one expression, recording sink hits. `env` is
/// mutated by assignments in subexpressions.
fn taint_of(expr: &Expr, env: &mut Env, cx: &mut TaintCtx<'_>) -> bool {
    match &expr.kind {
        ExprKind::Path(segs) => segs.len() == 1 && env.tainted.contains(&segs[0]),
        ExprKind::Lit | ExprKind::Jump | ExprKind::Opaque => false,
        ExprKind::Call { callee, args } => {
            let arg_taints: Vec<bool> =
                args.iter().map(|a| taint_of(a, env, cx)).collect();
            let (name, targets) = match &callee.kind {
                ExprKind::Path(segs) => (
                    path_last(segs).to_string(),
                    cx.index.map_or(&[][..], |i| i.table.resolve(segs, cx.self_ty)),
                ),
                _ => {
                    taint_of(callee, env, cx);
                    (String::new(), &[][..])
                }
            };
            if SANITIZER_FNS.contains(&name.as_str()) {
                return false;
            }
            if name == "with_capacity" {
                if arg_taints.first().copied().unwrap_or(false) {
                    cx.sink_hit(expr.line, "`with_capacity`", "unvalidated");
                }
                return false;
            }
            if let Some(sum) = cx.index.and_then(|i| i.merged(targets)) {
                for &p in &sum.params_to_alloc {
                    if arg_taints.get(p).copied().unwrap_or(false) {
                        cx.sink_hit(
                            expr.line,
                            "an allocation",
                            &format!("through parameter {p} of `{name}`"),
                        );
                    }
                }
                if sum.returns_tainted {
                    return true;
                }
            }
            is_source_name(&name) || arg_taints.into_iter().any(|t| t)
        }
        ExprKind::MethodCall { recv, method, args } => {
            let recv_taint = taint_of(recv, env, cx);
            let arg_taints: Vec<bool> =
                args.iter().map(|a| taint_of(a, env, cx)).collect();
            // Arity disambiguates sanitizers from same-named iterator
            // methods: `.min(bound)`/`.clamp(lo, hi)` cap a value
            // (zero-arg `Iterator::min` does not), while zero-arg
            // `.len()` measures materialized data (`args` non-empty
            // means it is some other fn).
            let sanitizes = match method.as_str() {
                "min" | "clamp" => !args.is_empty(),
                "len" => args.is_empty(),
                _ => false,
            };
            debug_assert!(
                !sanitizes || SANITIZER_METHODS.contains(&method.as_str()),
                "sanitizer arity table drifted from SANITIZER_METHODS"
            );
            if sanitizes {
                return false;
            }
            if method == "reserve" || method == "with_capacity" {
                if arg_taints.first().copied().unwrap_or(false) {
                    cx.sink_hit(expr.line, &format!("`.{method}(…)`"), "unvalidated");
                }
                return false;
            }
            if is_source_name(method) {
                return true;
            }
            if let Some(sum) = cx.index.and_then(|i| i.merged(i.table.by_name(method))) {
                // Method summaries: parameter 0 in the summary is the
                // receiver; call arguments shift by one.
                for &p in &sum.params_to_alloc {
                    let hit = if p == 0 {
                        recv_taint
                    } else {
                        arg_taints.get(p - 1).copied().unwrap_or(false)
                    };
                    if hit {
                        cx.sink_hit(
                            expr.line,
                            "an allocation",
                            &format!("through `{method}`"),
                        );
                    }
                }
                if sum.returns_tainted {
                    return true;
                }
            }
            recv_taint || arg_taints.into_iter().any(|t| t)
        }
        ExprKind::Field { base, .. } => taint_of(base, env, cx),
        ExprKind::Index { base, index } => {
            let b = taint_of(base, env, cx);
            taint_of(index, env, cx);
            b
        }
        ExprKind::Unary { expr: e, .. } | ExprKind::Try(e) | ExprKind::Cast { expr: e, .. } => {
            taint_of(e, env, cx)
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = taint_of(lhs, env, cx);
            let r = taint_of(rhs, env, cx);
            // Comparisons and boolean connectives yield bools, not
            // lengths.
            if matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||") {
                false
            } else {
                l || r
            }
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            let t = taint_of(rhs, env, cx);
            if let ExprKind::Path(segs) = &lhs.kind {
                if segs.len() == 1 {
                    if t {
                        env.tainted.insert(segs[0].clone());
                    }
                    // A clean plain `=` overwrite clears the taint;
                    // compound ops keep any existing taint.
                    // (Conservative: only `=` untaints.)
                }
            }
            false
        }
        ExprKind::Closure { body, .. } => {
            taint_of(body, env, cx);
            false
        }
        ExprKind::If { cond, then_block, else_branch, .. } => {
            taint_of(cond, env, cx);
            let mut t = block_taint(then_block, env, cx);
            if let Some(e) = else_branch {
                t |= taint_of(e, env, cx);
            }
            t
        }
        ExprKind::Match { scrutinee, arms } => {
            let s_taint = taint_of(scrutinee, env, cx);
            let mut t = false;
            for arm in arms {
                if s_taint {
                    for name in bound_names(&arm.pat) {
                        env.tainted.insert(name);
                    }
                }
                if let Some(g) = &arm.guard {
                    taint_of(g, env, cx);
                }
                t |= taint_of(&arm.body, env, cx);
            }
            t
        }
        ExprKind::Loop { head, body, .. } => {
            if let Some(h) = head {
                taint_of(h, env, cx);
            }
            block_taint(body, env, cx);
            false
        }
        ExprKind::Block(b) => block_taint(b, env, cx),
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            let mut t = false;
            for e in es {
                t |= taint_of(e, env, cx);
            }
            t
        }
        ExprKind::Repeat { elem, len } => {
            taint_of(elem, env, cx);
            if taint_of(len, env, cx) {
                cx.sink_hit(expr.line, "`[_; n]`", "unvalidated");
            }
            false
        }
        ExprKind::MacroCall { path, args, semi_form } => {
            let taints: Vec<bool> = args.iter().map(|a| taint_of(a, env, cx)).collect();
            if *semi_form && path == "vec" {
                if taints.get(1).copied().unwrap_or(false) {
                    cx.sink_hit(expr.line, "`vec![_; n]`", "unvalidated");
                }
                return false;
            }
            taints.into_iter().any(|t| t)
        }
        ExprKind::StructLit { fields, .. } => {
            let mut t = false;
            for (_, e) in fields {
                t |= taint_of(e, env, cx);
            }
            t
        }
        ExprKind::Return(arg) => {
            if let Some(e) = arg {
                let t = taint_of(e, env, cx);
                if t {
                    env.tainted.insert(RETURN_SLOT.to_string());
                }
            }
            false
        }
        ExprKind::Range { lo, hi } => {
            let mut t = false;
            if let Some(e) = lo {
                t |= taint_of(e, env, cx);
            }
            if let Some(e) = hi {
                t |= taint_of(e, env, cx);
            }
            t
        }
    }
}

/// Pseudo-variable recording that an explicit `return` carried taint.
const RETURN_SLOT: &str = "<return>";

/// Evaluates a block: statements in order, taint of the trailing
/// expression (no `;`) as the block's value.
fn block_taint(block: &Block, env: &mut Env, cx: &mut TaintCtx<'_>) -> bool {
    let mut value = false;
    for (i, stmt) in block.stmts.iter().enumerate() {
        let last = i + 1 == block.stmts.len();
        match stmt {
            Stmt::Let { pat, init, else_block, .. } => {
                let t = init.as_ref().map(|e| taint_of(e, env, cx)).unwrap_or(false);
                if let Some(b) = else_block {
                    block_taint(b, env, cx);
                }
                if t {
                    for name in bound_names(pat) {
                        env.tainted.insert(name);
                    }
                }
                value = false;
            }
            Stmt::Expr { expr, semi } => {
                let t = taint_of(expr, env, cx);
                value = if last && !semi { t } else { false };
            }
            Stmt::Item(_) => value = false,
        }
    }
    value
}

// ---- summaries ------------------------------------------------------------

/// Computes one fn's summary: taint of the return value given clean
/// params, and which params reach an allocation sink when tainted.
fn summarize(e: &FnEntry<'_>) -> FnSummary {
    let func = e.func;
    let mut out = FnSummary {
        returns_result: func.ret.contains("Result"),
        has_self: func.params.first().is_some_and(|p| p.name == "self"),
        ..FnSummary::default()
    };
    let Some(body) = &func.body else { return out };

    // Pass 1: clean params — does a decode source reach the return?
    {
        let mut env = Env::default();
        let mut cx = TaintCtx { index: None, self_ty: None, findings: Vec::new() };
        let tail = block_taint(body, &mut env, &mut cx);
        out.returns_tainted = tail || env.tainted.contains(RETURN_SLOT);
    }

    // Pass 2: one param tainted at a time — does it reach a sink?
    for (i, param) in func.params.iter().enumerate() {
        let mut env = Env::default();
        env.tainted.insert(param.name.clone());
        let mut cx = TaintCtx { index: None, self_ty: None, findings: Vec::new() };
        block_taint(body, &mut env, &mut cx);
        if !cx.findings.is_empty() {
            out.params_to_alloc.push(i);
        }
    }
    out
}

// ---- rule entry points ----------------------------------------------------

/// `unbounded-wire-alloc` over the bodies of one file's fns.
pub fn check_wire_alloc(fns: &[FnEntry<'_>], index: &FlowIndex<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for e in fns {
        let Some(body) = &e.func.body else { continue };
        let mut env = Env::default();
        let mut cx = TaintCtx { index: Some(index), self_ty: e.self_ty, findings: Vec::new() };
        block_taint(body, &mut env, &mut cx);
        out.append(&mut cx.findings);
    }
    out
}

/// `unused-result` over statement-position calls in one file's fns.
pub fn check_unused_result(fns: &[FnEntry<'_>], index: &FlowIndex<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for e in fns {
        let Some(body) = &e.func.body else { continue };
        // Every block exactly once; a `;`-terminated call among a
        // block's direct statements is statement position — the value
        // is discarded.
        crate::parse::walk_blocks(body, &mut |block| {
            for stmt in &block.stmts {
                let Stmt::Expr { expr, semi: true } = stmt else { continue };
                match &expr.kind {
                    ExprKind::Call { callee, .. } => {
                        if let ExprKind::Path(segs) = &callee.kind {
                            let targets = index.table.resolve(segs, e.self_ty);
                            if index.always_result(targets.iter().copied()) {
                                out.push(unused_result_finding(expr.line, &segs.join("::")));
                            }
                        }
                    }
                    ExprKind::MethodCall { method, .. } => {
                        let methods = index
                            .table
                            .by_name(method)
                            .iter()
                            .copied()
                            .filter(|&i| index.summaries[i].has_self);
                        if !STD_METHOD_NAMES.contains(&method.as_str())
                            && index.always_result(methods)
                        {
                            out.push(unused_result_finding(expr.line, method));
                        }
                    }
                    _ => {}
                }
            }
        });
    }
    out
}

fn unused_result_finding(line: u32, name: &str) -> RawFinding {
    RawFinding {
        rule: "unused-result",
        line,
        message: format!(
            "result of `{name}` (which returns Result) is discarded at statement position — \
             propagate with `?`, bind it, or match on it"
        ),
    }
}

// ---- money arithmetic -----------------------------------------------------

/// `no-unchecked-money-arith` over the bodies of one file's fns.
/// Only called for files under `crates/ledger/src/`.
pub fn check_money_arith(fns: &[FnEntry<'_>]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for e in fns {
        let Some(body) = &e.func.body else { continue };
        let money_impl =
            e.self_ty.is_some_and(|t| t.split(['<', ' ']).next().is_some_and(is_money_type));
        let mut money_vars = BTreeSet::new();
        for p in &e.func.params {
            if type_is_money(&p.ty) {
                money_vars.insert(p.name.clone());
            }
        }
        check_money_block(body, money_impl, &mut money_vars, &mut out);
    }
    out
}

fn is_money_type(name: &str) -> bool {
    name == "Wei" || name == "Fixed"
}

fn type_is_money(ty: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_').any(is_money_type)
}

fn check_money_block(
    block: &Block,
    money_impl: bool,
    vars: &mut BTreeSet<String>,
    out: &mut Vec<RawFinding>,
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { pat, ty, init, else_block, .. } => {
                if let Some(e) = init {
                    check_money_expr(e, money_impl, vars, out);
                }
                if let Some(b) = else_block {
                    check_money_block(b, money_impl, vars, out);
                }
                if type_is_money(ty)
                    || init.as_ref().is_some_and(|e| money_expr_name(e, money_impl, vars).is_some())
                {
                    for n in bound_names(pat) {
                        vars.insert(n);
                    }
                }
            }
            Stmt::Expr { expr, .. } => check_money_expr(expr, money_impl, vars, out),
            Stmt::Item(_) => {}
        }
    }
}

/// Whether an expression denotes a money value; returns a short
/// description for the finding message.
fn money_expr_name(expr: &Expr, money_impl: bool, vars: &BTreeSet<String>) -> Option<String> {
    match &expr.kind {
        ExprKind::Path(segs) => {
            let last = path_last(segs);
            if (segs.len() == 1 && vars.contains(last)) || money_name(last) {
                Some(format!("`{last}`"))
            } else {
                None
            }
        }
        ExprKind::Field { base, name } => {
            if money_name(name) {
                return Some(format!("`.{name}`"));
            }
            // `self.0` / `rhs.0` inside `impl Wei` / `impl Fixed`.
            if money_impl && name.chars().all(|c| c.is_ascii_digit()) {
                if let ExprKind::Path(segs) = &base.kind {
                    if segs.len() == 1 {
                        return Some(format!("`{}.{name}`", segs[0]));
                    }
                }
            }
            None
        }
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if is_money_type(path_last(segs)) {
                    return Some(format!("`{}(…)`", path_last(segs)));
                }
            }
            None
        }
        ExprKind::Unary { expr: e, .. } | ExprKind::Try(e) => money_expr_name(e, money_impl, vars),
        _ => None,
    }
}

fn money_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    MONEY_NAMES.iter().any(|m| lower == *m || lower.ends_with(&format!("_{m}")))
}

fn check_money_expr(
    expr: &Expr,
    money_impl: bool,
    vars: &BTreeSet<String>,
    out: &mut Vec<RawFinding>,
) {
    crate::parse::walk_expr(expr, &mut |e| {
        let (op, lhs, rhs) = match &e.kind {
            ExprKind::Binary { op, lhs, rhs } if matches!(op.as_str(), "+" | "-" | "*") => {
                (op, lhs, rhs)
            }
            ExprKind::Assign { op, lhs, rhs }
                if matches!(op.as_str(), "+=" | "-=" | "*=") =>
            {
                (op, lhs, rhs)
            }
            _ => return,
        };
        let operand = money_expr_name(lhs, money_impl, vars)
            .or_else(|| money_expr_name(rhs, money_impl, vars));
        if let Some(what) = operand {
            out.push(RawFinding {
                rule: "no-unchecked-money-arith",
                line: e.line,
                message: format!(
                    "raw `{op}` on money-typed operand {what}: silent overflow corrupts \
                     settlement — use checked_*/saturating_* (or lint:allow with the \
                     overflow argument)"
                ),
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn wire_findings(src: &str) -> Vec<u32> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let table = FnTable::build([("x.rs", &file, &[][..])]);
        let index = FlowIndex::build(&table);
        check_wire_alloc(&table.fns, &index).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn tainted_length_reaching_with_capacity_fires() {
        let src = "fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = buf.try_get_u64_le()? as usize;\n\
                   let mut v = Vec::with_capacity(n);\n\
                   Ok(())\n}\n";
        assert_eq!(wire_findings(src), [3]);
    }

    #[test]
    fn min_capped_length_is_clean() {
        let src = "fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = buf.try_get_u64_le()? as usize;\n\
                   let mut v = Vec::with_capacity(n.min(1024));\n\
                   Ok(())\n}\n";
        assert!(wire_findings(src).is_empty());
    }

    #[test]
    fn bounded_count_sanitizes() {
        let src = "fn d(buf: &mut B) -> Result<(), E> {\n\
                   let raw = buf.try_get_u64_le()? as usize;\n\
                   let n = bounded_count(raw, buf.remaining(), 53)?;\n\
                   let mut v = Vec::with_capacity(n);\n\
                   Ok(())\n}\n";
        assert!(wire_findings(src).is_empty());
    }

    #[test]
    fn taint_flows_through_match_arms() {
        let src = "fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = match buf.try_get_u32_le() { Ok(v) => v as usize, Err(_) => 0 };\n\
                   buf2.reserve(n);\n\
                   Ok(())\n}\n";
        assert_eq!(wire_findings(src), [3]);
    }

    #[test]
    fn vec_macro_semi_form_is_a_sink() {
        let src = "fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = buf.try_get_u16_le()? as usize;\n\
                   let v = vec![0u8; n];\n\
                   Ok(())\n}\n";
        assert_eq!(wire_findings(src), [3]);
    }

    #[test]
    fn call_through_one_level_taints_return() {
        let src = "fn read_len(buf: &mut B) -> Result<usize, E> {\n\
                   Ok(buf.try_get_u64_le()? as usize)\n}\n\
                   fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = read_len(buf)?;\n\
                   let mut v = Vec::with_capacity(n);\n\
                   Ok(())\n}\n";
        assert_eq!(wire_findings(src), [6]);
    }

    #[test]
    fn call_through_one_level_param_to_alloc() {
        let src = "fn alloc_rows(n: usize) -> Vec<u8> {\n\
                   Vec::with_capacity(n)\n}\n\
                   fn d(buf: &mut B) -> Result<(), E> {\n\
                   let n = buf.try_get_u64_le()? as usize;\n\
                   let v = alloc_rows(n);\n\
                   Ok(())\n}\n";
        let lines = wire_findings(src);
        assert!(lines.contains(&6), "{lines:?}");
    }

    #[test]
    fn unrelated_lengths_are_clean() {
        let src = "fn d(items: &[u8]) {\n\
                   let mut v = Vec::with_capacity(items.len());\n\
                   v.reserve(items.len() * 2);\n}\n";
        assert!(wire_findings(src).is_empty());
    }

    fn money_findings(src: &str) -> Vec<u32> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let table = FnTable::build([("x.rs", &file, &[][..])]);
        check_money_arith(&table.fns).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn raw_add_on_balance_field_fires() {
        let src = "fn credit(a: &mut Account, amount: Wei) {\n\
                   a.balance = a.balance + amount;\n}\n";
        assert_eq!(money_findings(src), [2]);
    }

    #[test]
    fn compound_nonce_increment_fires() {
        let src = "fn bump(a: &mut Account) {\n  a.nonce += 1;\n}\n";
        assert_eq!(money_findings(src), [2]);
    }

    #[test]
    fn wrapped_zero_field_in_money_impl_fires() {
        let src = "impl Fixed {\n\
                   fn plus(self, rhs: Fixed) -> Fixed { Fixed(self.0 + rhs.0) }\n}\n";
        assert_eq!(money_findings(src), [2]);
    }

    #[test]
    fn checked_and_saturating_money_ops_are_clean() {
        let src = "fn credit(a: &mut Account, amount: Wei) -> Option<()> {\n\
                   a.balance = a.balance.checked_add(amount)?;\n\
                   a.nonce = a.nonce.saturating_add(1);\n\
                   Some(())\n}\n";
        assert!(money_findings(src).is_empty());
    }

    #[test]
    fn non_money_arith_is_clean() {
        let src = "fn f(i: usize, len: usize) -> usize { i * 8 + len - 1 }\n";
        assert!(money_findings(src).is_empty());
    }

    fn unused_findings(src: &str) -> Vec<u32> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        let table = FnTable::build([("x.rs", &file, &[][..])]);
        let index = FlowIndex::build(&table);
        check_unused_result(&table.fns, &index).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn discarded_result_call_fires() {
        let src = "fn settle() -> Result<(), E> { Ok(()) }\n\
                   fn f() {\n  settle();\n}\n";
        assert_eq!(unused_findings(src), [3]);
    }

    #[test]
    fn question_mark_and_binding_are_clean() {
        let src = "fn settle() -> Result<(), E> { Ok(()) }\n\
                   fn f() -> Result<(), E> {\n\
                   settle()?;\n\
                   let _r = settle();\n\
                   match settle() { Ok(()) => {}, Err(_) => {} }\n\
                   Ok(())\n}\n";
        assert!(unused_findings(src).is_empty());
    }

    #[test]
    fn std_collision_method_names_are_excluded() {
        let src = "impl Q { fn push(&mut self, x: u8) -> Result<(), E> { Ok(()) } }\n\
                   fn f(v: &mut Vec<u8>) {\n  v.push(1);\n}\n";
        assert!(unused_findings(src).is_empty());
    }

    #[test]
    fn ambiguous_free_fn_names_are_excluded() {
        let src = "fn go() -> Result<(), E> { Ok(()) }\n\
                   mod b { fn go() -> u32 { 1 } }\n\
                   fn f() {\n  go();\n}\n";
        assert!(unused_findings(src).is_empty());
    }
}
