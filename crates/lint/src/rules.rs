//! The lint rules: what they match, where they apply, and why.
//!
//! Every rule is a heuristic **token-stream** matcher (see
//! [`crate::lexer`] for what that buys and what it misses) plus a path
//! scope. Scopes are workspace-relative path predicates, so moving a
//! file can change which rules see it — that is intentional: the
//! determinism contract applies to the solver/core/fl-sim/ledger/
//! engine crates, the wall-clock exemption to the bench harness, and
//! so on.
//!
//! False positives are handled by `// lint:allow(rule-id): reason`
//! (enforced to carry a reason, and flagged when unused) — see
//! [`crate::engine`].

use crate::lexer::{Tok, TokKind};

/// Which cargo target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Library source (`src/` outside `src/bin/`).
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// Static description of one rule, surfaced by `--explain` and the
/// fixture tests.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier, used in findings and `lint:allow(…)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer rationale shown by `--explain`.
    pub rationale: &'static str,
    /// Whether the rule also fires inside `#[cfg(test)]` items.
    pub in_tests: bool,
}

/// All rules, including the three meta rules enforced by the engine.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-registry-deps",
        summary: "every workspace dependency must be a path dependency",
        rationale: "The build environment has no crates.io access (DESIGN.md \u{a7}6): a single \
                    registry dependency anywhere in the workspace breaks every build at step \
                    zero. Extend crates/runtime instead of adding a registry crate. Superset of \
                    tests/no_external_deps.rs, which cross-checks this rule. Not suppressible: \
                    a manifest has no lint:allow, and no registry dependency can build here.",
        in_tests: true,
    },
    RuleInfo {
        id: "no-hash-iteration",
        summary: "no HashMap/HashSet in the deterministic crates (solver, core, fl-sim, ledger, \
                  engine)",
        rationale: "Hash iteration order is randomized per process, so iterating a \
                    HashMap/HashSet in an equilibrium or settlement path silently breaks the \
                    bit-identity contract (tests/determinism.rs). Use BTreeMap/BTreeSet or sort \
                    before iterating. The rule flags the *type names* — even lookup-only tables \
                    are one refactor away from an iteration, so the deterministic crates ban \
                    them outright; lint:allow a site only with an argument why no iteration \
                    order can ever escape.",
        in_tests: false,
    },
    RuleInfo {
        id: "no-wallclock",
        summary: "no Instant::now/SystemTime::now outside crates/bench",
        rationale: "Wall-clock reads make control flow time-dependent, which breaks replayable \
                    seeds and makes equilibrium comparisons noisy (the exact failure mode \
                    coopetitive-CFL reproductions warn about). Timing belongs in \
                    the bench harness crate (crates/bench), which is exempt. \
                    Observability reads no clock at all: runtime::obs keys its events by \
                    logical clocks (per-subsystem step counters), never wall time (DESIGN.md \
                    \u{a7}9). Any other site that must read a clock carries an in-place \
                    lint:allow arguing why the reading can never reach control flow or \
                    results.",
        in_tests: true,
    },
    RuleInfo {
        id: "no-raw-threads",
        summary: "no std::thread::spawn outside runtime::sync",
        rationale: "Raw threads bypass the fork-join pool's per-task output slots and panic \
                    propagation (DESIGN.md \u{a7}6). Use tradefl_runtime::sync's Pool::scope so \
                    worker count can never change results bit-for-bit.",
        in_tests: true,
    },
    RuleInfo {
        id: "no-panic-in-lib",
        summary: "no unwrap/expect/panic! in library code",
        rationale: "A panic in library code aborts the caller's whole computation — a malformed \
                    peer message must not take down a ledger node, and a degenerate market must \
                    surface SolveError, not a crash. Propagate the crate's error types instead. \
                    Test code, benches, examples and binaries are exempt; provable invariants \
                    may be lint:allow'd with the invariant spelled out.",
        in_tests: false,
    },
    RuleInfo {
        id: "no-float-eq",
        summary: "no ==/!= against float literals",
        rationale: "Exact float comparison is almost always a rounding bug. Where it is \
                    intentional (exact-zero sentinel guards before division, bit-identity \
                    checks), say so with lint:allow — the reason is the documentation.",
        in_tests: false,
    },
    RuleInfo {
        id: "no-alloc-in-hot-loop",
        summary: "no heap allocation in the GEMM kernel module or the \
                  model.rs/fed.rs/market.rs/incremental.rs hot fns",
        rationale: "The training loop's steady state performs zero heap allocations per step \
                    (DESIGN.md \u{a7}10): every buffer is owned by a Workspace or a caller and \
                    reused via resize-within-capacity. An innocent `vec!` or `.clone()` in \
                    linalg/kernel.rs, in model.rs's forward_with/sgd_step_with/evaluate_with, \
                    or in fed.rs's run_round/train_group/local_train aggregation loop \
                    reintroduces a per-step malloc that the benches will only catch as noise. \
                    Cold paths (constructors, error paths) may lint:allow with the reason \
                    spelled out.",
        in_tests: false,
    },
    RuleInfo {
        id: "unbounded-wire-alloc",
        summary: "no wire-derived length may reach an allocation without bounded_count/.min",
        rationale: "The ledger settles payments from untrusted frames: a decoder that passes a \
                    declared count (`try_get_*`/`decode_*`) straight into `with_capacity`, \
                    `.reserve`, or `vec![_; n]` lets one 9-byte frame demand a multi-gigabyte \
                    allocation — the classic byzantine OOM. The dataflow pass tracks the taint \
                    through bindings, `?`, casts, match arms, and one level of calls; flowing \
                    through `bounded_count(…)` (crates/ledger/src/codec.rs) or a `.min(…)` cap \
                    sanitizes. Validate before allocating, or lint:allow with the bound \
                    argument.",
        in_tests: false,
    },
    RuleInfo {
        id: "no-unchecked-money-arith",
        summary: "no raw +/-/* on Wei/balance/nonce values in crates/ledger",
        rationale: "Money math that silently wraps corrupts settlement: a balance overflow mints \
                    or burns funds, a nonce wrap re-opens replay. In crates/ledger, arithmetic \
                    whose operand is money-typed (`Wei`/`Fixed` by declared type, a \
                    balance/nonce/amount/fee/deposit/refund/stake field or binding, or the \
                    wrapped `.0` inside `impl Wei`/`impl Fixed`) must use \
                    checked_*/saturating_* — or carry a lint:allow spelling out why overflow is \
                    impossible or intended.",
        in_tests: false,
    },
    RuleInfo {
        id: "no-nested-pool-scope",
        summary: "no Pool::scope reachable from inside a pooled closure",
        rationale: "Every `Pool::scope` that fans out stands up its own threads, so a task \
                    already running on a scope's thread that enters `Pool::scope` again \
                    oversubscribes the host: `w` outer threads each start up to `w` more, and \
                    the worker count no longer bounds the threads alive. The nesting is almost \
                    never lexical — the inner entry hides behind calls — so the call graph \
                    flags calls inside pooled closures whose callee reaches a pool entry. \
                    Runtime-guarded dispatch (a scope that provably holds one task, or a \
                    one-worker pool, runs inline) documents its guard in the lint:allow \
                    reason.",
        in_tests: false,
    },
    RuleInfo {
        id: "unused-result",
        summary: "no statement-position call that discards a Result",
        rationale: "A dropped `Result` is an error path that vanishes: the settlement failed, \
                    the frame was rejected, and the caller carried on. A statement-position \
                    call whose callee — resolved against the workspace signature index, only \
                    when every same-named definition returns `Result` — must propagate with \
                    `?`, bind, or match. (The std blocklist keeps `Vec::push`-style name \
                    collisions out.)",
        in_tests: false,
    },
    RuleInfo {
        id: "unreferenced-pub-fn",
        summary: "no library pub fn that no bin, example, tradebench fn, trait method or macro \
                  body reaches outside tests",
        rationale: "Code that only its own tests call is a liability: it must be read, kept \
                    compiling and kept correct, and it reproduces nothing. The workspace call \
                    graph starts at every fn of a bin, example or tradebench/ target, every \
                    trait-impl and trait method, and every identifier in a macro_rules! body, \
                    an item-position macro invocation or a const initializer; a name is \
                    reached when a reached fn calls it or uses it as a value \
                    (`.map(Transaction::hash)`); a single-segment name bound in scope (a param, \
                    or a let, closure, match-arm, if-let, while-let or for pattern, which a \
                    struct shorthand `S { seed }` also names) is a local, not a reference. \
                    Resolution is by name, so a collision can only \
                    hide a dead fn, never flag a live one. Delete the fn, or lint:allow it with \
                    the reason it stays (a test oracle, a paper API). Runs only on a whole \
                    tree (--workspace), never on a file linted alone.",
        in_tests: false,
    },
    RuleInfo {
        id: "allow-span-precision",
        summary: "lint:allow must annotate the line or item it suppresses",
        rationale: "Allows bind to what they annotate: trailing comments to their own line, \
                    standalone comments to the next line — or, when that line opens an item \
                    (fn/impl/mod/…), to the whole parsed item span. A floating allow bound to \
                    nothing (blank line or EOF next) is dead precision: move it onto the code \
                    it suppresses or delete it. Not suppressible.",
        in_tests: true,
    },
    RuleInfo {
        id: "bad-allow",
        summary: "lint:allow must name a known rule and carry a reason",
        rationale: "`// lint:allow(rule-id): reason` is the only escape hatch, and the reason \
                    is load-bearing: it is the documentation a reviewer reads instead of the \
                    rule firing. An allow without a reason, or naming an unknown rule, is \
                    itself a finding. Not suppressible.",
        in_tests: true,
    },
    RuleInfo {
        id: "unused-allow",
        summary: "lint:allow that suppresses nothing must be removed",
        rationale: "Stale allows hide future violations: if the offending code was fixed, the \
                    annotation must go too, or it will silently swallow the next regression on \
                    that line. Not suppressible.",
        in_tests: true,
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// A finding before allow-filtering (no file path yet).
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// The violated rule's id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Classifies a workspace-relative path (`/`-separated) into a target.
pub fn classify(rel_path: &str) -> Target {
    if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
        Target::Test
    } else if rel_path.starts_with("benches/") || rel_path.contains("/benches/") {
        Target::Bench
    } else if rel_path.starts_with("examples/") || rel_path.contains("/examples/") {
        Target::Example
    } else if rel_path.starts_with("src/bin/")
        || rel_path.contains("/src/bin/")
        || rel_path.ends_with("src/main.rs")
    {
        Target::Bin
    } else {
        Target::Lib
    }
}

/// The crates bound by the determinism contract.
fn in_deterministic_crate(rel_path: &str) -> bool {
    [
        "crates/solver/src/",
        "crates/core/src/",
        "crates/fl-sim/src/",
        "crates/ledger/src/",
        "crates/engine/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p))
}

/// Paths allowed to read the wall clock (the bench harness crate).
fn wallclock_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/bench/")
}

/// Paths allowed to spawn raw threads (the pool implementation).
fn raw_thread_exempt(rel_path: &str) -> bool {
    rel_path == "crates/runtime/src/sync.rs" || rel_path.starts_with("crates/runtime/src/sync/")
}

/// Library code bound by the panic-safety and float-eq rules: lib
/// targets outside the bench harness crate.
fn panic_safety_scope(rel_path: &str, target: Target) -> bool {
    target == Target::Lib && !rel_path.starts_with("crates/bench/")
}

/// Files carrying zero-allocation hot paths: the kernel module (whole
/// file) and the per-file fn lists in [`HOT_FNS`].
fn hot_loop_scope(rel_path: &str) -> bool {
    rel_path == "crates/fl-sim/src/linalg/kernel.rs"
        || HOT_FNS.iter().any(|&(path, _)| path == rel_path)
}

/// The fns in model.rs whose bodies `no-alloc-in-hot-loop` covers —
/// the per-step training path. Cold model fns (constructors,
/// serialization) allocate freely.
const MODEL_HOT_FNS: &[&str] = &["forward_with", "sgd_step_with", "evaluate_with"];

/// The fns in fed.rs whose bodies the rule covers — the streaming
/// aggregation round loop: group dispatch + merge, per-group silo
/// training, and per-silo SGD (shared with async training). Setup
/// (subset materialization, slot construction) allocates freely.
const FED_HOT_FNS: &[&str] = &["run_round", "train_group", "local_train"];

/// The fns in core/market.rs the rule covers — the O(nnz) ρ row
/// accessors the DBR sweep leans on at N=10k: indexed lookup, the row
/// iterator, the row-sum helper and the pressure/weight formulas built
/// on it. Constructors (`from_triplets`, `new`, …) allocate
/// freely.
const MARKET_HOT_FNS: &[&str] = &[
    "get",
    "row_iter",
    "rho",
    "rho_row",
    "rho_row_sum",
    "competition_pressure",
    "weight",
];

/// The fns in core/incremental.rs the rule covers — the per-candidate
/// bisection steady state (`O(log N)` evaluations plus the one
/// `O(deg)` mover dot) and the `O(log N)` commit. The `O(N²)`
/// evaluator constructor and trace-row helpers allocate freely.
const INCREMENTAL_HOT_FNS: &[&str] = &[
    "rho_res",
    "payoff_at",
    "mover_payoff_at",
    "common_terms",
    "payoff_d_deriv_at",
    "commit",
    "resource_index_of",
    "set",
    "total_with",
];

/// Per-file hot-fn lists for `no-alloc-in-hot-loop` (kernel.rs is
/// whole-file and listed separately in [`hot_loop_spans`]).
const HOT_FNS: &[(&str, &[&str])] = &[
    ("crates/fl-sim/src/model.rs", MODEL_HOT_FNS),
    ("crates/fl-sim/src/fed.rs", FED_HOT_FNS),
    ("crates/core/src/market.rs", MARKET_HOT_FNS),
    ("crates/core/src/incremental.rs", INCREMENTAL_HOT_FNS),
];

/// Whether `rule_id` applies to the file at `rel_path` at all.
pub fn applies(rule_id: &str, rel_path: &str, target: Target) -> bool {
    match rule_id {
        "no-hash-iteration" => in_deterministic_crate(rel_path),
        "no-wallclock" => !wallclock_exempt(rel_path),
        "no-raw-threads" => !raw_thread_exempt(rel_path),
        "no-panic-in-lib" | "no-float-eq" => panic_safety_scope(rel_path, target),
        "no-alloc-in-hot-loop" => hot_loop_scope(rel_path),
        // The semantic rules cover library code everywhere (the
        // deadlock/OOM/lost-error hazards are library hazards; tests
        // and binaries fail loudly on their own)…
        "unbounded-wire-alloc" | "unused-result" => target == Target::Lib,
        // …except pool nesting, which additionally exempts the pool
        // implementation itself (runtime::sync hosts the entry points
        // the rule models as opaque).
        "no-nested-pool-scope" => target == Target::Lib && !raw_thread_exempt(rel_path),
        // tradebench/ is a bin crate whose modules sit beside main.rs.
        "unreferenced-pub-fn" => target == Target::Lib && !rel_path.starts_with("tradebench/"),
        // Money arithmetic is a ledger-crate contract.
        "no-unchecked-money-arith" => rel_path.starts_with("crates/ledger/src/"),
        _ => true,
    }
}

/// Inclusive line spans covered by `no-alloc-in-hot-loop` in this
/// file: everything for the kernel module, the `HOT_FNS` bodies for
/// the listed files (located by `fn <name>` and brace matching, like
/// [`crate::engine::test_spans`]).
pub fn hot_loop_spans(rel_path: &str, tokens: &[Tok]) -> Vec<(u32, u32)> {
    if rel_path == "crates/fl-sim/src/linalg/kernel.rs" {
        return vec![(1, u32::MAX)];
    }
    let mut spans = Vec::new();
    let Some(&(_, hot_fns)) = HOT_FNS.iter().find(|&&(path, _)| path == rel_path) else {
        return spans;
    };
    for i in 0..tokens.len().saturating_sub(1) {
        if !(is_ident(&tokens[i], "fn")
            && tokens[i + 1].kind == TokKind::Ident
            && hot_fns.contains(&tokens[i + 1].text.as_str()))
        {
            continue;
        }
        // Body span: from `fn` to the matching close brace of the
        // first top-level `{` (signature parens hold no braces).
        let mut depth = 0i32;
        let mut end_line = tokens[i].line;
        for t in &tokens[i + 2..] {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = t.line;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end_line = t.line;
        }
        spans.push((tokens[i].line, end_line));
    }
    spans
}

fn is_ident(t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

fn is_punct(t: &Tok, op: &str) -> bool {
    t.kind == TokKind::Punct && t.text == op
}

/// Runs every applicable token rule over one file's token stream.
pub fn run_token_rules(rel_path: &str, target: Target, tokens: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let t = tokens;
    let hot_spans = if applies("no-alloc-in-hot-loop", rel_path, target) {
        hot_loop_spans(rel_path, tokens)
    } else {
        Vec::new()
    };
    let in_hot_span = |line: u32| hot_spans.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    for i in 0..t.len() {
        if in_hot_span(t[i].line) {
            let alloc = if i + 2 < t.len()
                && is_ident(&t[i], "Vec")
                && is_punct(&t[i + 1], "::")
                && is_ident(&t[i + 2], "new")
            {
                Some("`Vec::new()`")
            } else if i + 1 < t.len() && is_ident(&t[i], "vec") && is_punct(&t[i + 1], "!") {
                Some("`vec![…]`")
            } else if i + 2 < t.len()
                && is_punct(&t[i], ".")
                && (is_ident(&t[i + 1], "clone") || is_ident(&t[i + 1], "to_vec"))
                && is_punct(&t[i + 2], "(")
            {
                if t[i + 1].text == "clone" {
                    Some("`.clone()`")
                } else {
                    Some("`.to_vec()`")
                }
            } else {
                None
            };
            if let Some(what) = alloc {
                out.push(RawFinding {
                    rule: "no-alloc-in-hot-loop",
                    line: t[i].line,
                    message: format!(
                        "{what} in a zero-allocation hot path: reuse a Workspace/caller buffer \
                         (resize within capacity) instead of allocating per step"
                    ),
                });
            }
        }
        if applies("no-hash-iteration", rel_path, target)
            && t[i].kind == TokKind::Ident
            && (t[i].text == "HashMap" || t[i].text == "HashSet")
        {
            out.push(RawFinding {
                rule: "no-hash-iteration",
                line: t[i].line,
                message: format!(
                    "`{}` in a deterministic crate: hash iteration order is nondeterministic \
                     — use BTreeMap/BTreeSet or sorted iteration",
                    t[i].text
                ),
            });
        }
        if applies("no-wallclock", rel_path, target)
            && i + 2 < t.len()
            && (is_ident(&t[i], "Instant") || is_ident(&t[i], "SystemTime"))
            && is_punct(&t[i + 1], "::")
            && is_ident(&t[i + 2], "now")
        {
            out.push(RawFinding {
                rule: "no-wallclock",
                line: t[i].line,
                message: format!(
                    "`{}::now` outside crates/bench: wall-clock reads break \
                     seed replay",
                    t[i].text
                ),
            });
        }
        if applies("no-raw-threads", rel_path, target)
            && i + 2 < t.len()
            && is_ident(&t[i], "thread")
            && is_punct(&t[i + 1], "::")
            && (is_ident(&t[i + 2], "spawn") || is_ident(&t[i + 2], "Builder"))
        {
            out.push(RawFinding {
                rule: "no-raw-threads",
                line: t[i].line,
                message: format!(
                    "`thread::{}` outside runtime::sync: use the fork-join pool \
                     (Pool::scope) for deterministic merges",
                    t[i + 2].text
                ),
            });
        }
        if applies("no-panic-in-lib", rel_path, target) {
            if i + 2 < t.len()
                && is_punct(&t[i], ".")
                && (is_ident(&t[i + 1], "unwrap") || is_ident(&t[i + 1], "expect"))
                && is_punct(&t[i + 2], "(")
            {
                out.push(RawFinding {
                    rule: "no-panic-in-lib",
                    line: t[i + 1].line,
                    message: format!(
                        "`.{}(…)` in library code: propagate the crate's error type instead \
                         of panicking",
                        t[i + 1].text
                    ),
                });
            }
            if i + 1 < t.len() && is_ident(&t[i], "panic") && is_punct(&t[i + 1], "!") {
                out.push(RawFinding {
                    rule: "no-panic-in-lib",
                    line: t[i].line,
                    message: "`panic!` in library code: propagate the crate's error type instead"
                        .to_string(),
                });
            }
        }
        if applies("no-float-eq", rel_path, target)
            && (is_punct(&t[i], "==") || is_punct(&t[i], "!="))
        {
            let float_before =
                i > 0 && matches!(t[i - 1].kind, TokKind::NumLit { float: true });
            let float_after =
                i + 1 < t.len() && matches!(t[i + 1].kind, TokKind::NumLit { float: true });
            if float_before || float_after {
                out.push(RawFinding {
                    rule: "no-float-eq",
                    line: t[i].line,
                    message: format!(
                        "`{}` against a float literal: exact float comparison — if the exact \
                         compare is intentional, say why with lint:allow",
                        t[i].text
                    ),
                });
            }
        }
    }
    out
}
