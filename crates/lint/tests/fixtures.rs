//! Fixture tests: one offending snippet, one clean snippet, and one
//! `lint:allow`'d snippet per rule — the seeded-violation evidence
//! behind the CI gate (if a rule ever stops firing on its fixture,
//! this suite fails before the workspace silently loses the
//! invariant).

use tradefl_lint::rules::RULES;
use tradefl_lint::{lint_manifest, lint_source, lint_tree, Finding};

/// Asserts `src` at `path` yields exactly the rules in `want`
/// (order-insensitive, duplicates collapsed).
fn assert_rules(path: &str, src: &str, want: &[&str]) {
    let findings = lint_source(path, src);
    let mut got: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    got.sort();
    got.dedup();
    let mut want: Vec<&str> = want.to_vec();
    want.sort();
    assert_eq!(got, want, "findings for {path}: {findings:?}");
}

fn offends(path: &str, src: &str, rule: &str) {
    let findings = lint_source(path, src);
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "expected {rule} to fire on {path}: {findings:?}"
    );
}

fn clean(path: &str, src: &str) {
    assert_rules(path, src, &[]);
}

const SOLVER: &str = "crates/solver/src/fixture.rs";

// --- no-registry-deps -------------------------------------------------

#[test]
fn registry_deps_offending_clean_allowed() {
    let bad = lint_manifest("Cargo.toml", "[dependencies]\nrand = \"0.8\"\n");
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].rule, "no-registry-deps");

    let good = lint_manifest(
        "Cargo.toml",
        "[dependencies]\ntradefl-core = { path = \"crates/core\" }\nrt.workspace = true\n",
    );
    assert!(good.is_empty(), "{good:?}");
    // No allow escape for manifests: a registry dependency is never
    // legitimate (the build environment cannot fetch it), so the rule
    // has no annotated fixture — this is by design.
}

// --- no-hash-iteration ------------------------------------------------

#[test]
fn hash_iteration_offending_clean_allowed() {
    offends(SOLVER, "use std::collections::HashMap;\n", "no-hash-iteration");
    offends(SOLVER, "fn f(s: &HashSet<u32>) {}\n", "no-hash-iteration");
    clean(SOLVER, "use std::collections::BTreeMap;\nfn f(s: &std::collections::BTreeSet<u32>) {}\n");
    // Outside the deterministic crates the rule does not apply.
    clean("crates/runtime/src/x.rs", "use std::collections::HashMap;\n");
    // Mentions in comments/strings never fire.
    clean(SOLVER, "// a HashMap here is fine\nconst S: &str = \"HashMap\";\n");
    clean(
        SOLVER,
        "use std::collections::HashMap; // lint:allow(no-hash-iteration): lookup-only table, \
         never iterated\n",
    );
}

// --- no-wallclock -----------------------------------------------------

#[test]
fn wallclock_offending_clean_allowed() {
    offends(SOLVER, "fn f() { let t = Instant::now(); }\n", "no-wallclock");
    offends("tests/x.rs", "fn f() { let t = std::time::SystemTime::now(); }\n", "no-wallclock");
    // Only the bench harness crate is exempt; the runtime crate is not.
    clean("crates/bench/src/lib.rs", "fn f() { let t = Instant::now(); }\n");
    clean("crates/bench/src/bin/baseline.rs", "fn f() { let t = Instant::now(); }\n");
    offends("crates/runtime/src/bench.rs", "fn f() { let t = Instant::now(); }\n", "no-wallclock");
    clean(
        SOLVER,
        "// lint:allow(no-wallclock): timeout guard, value never reaches results\n\
         fn f() { let t = Instant::now(); }\n",
    );
}

// --- no-raw-threads ---------------------------------------------------

#[test]
fn raw_threads_offending_clean_allowed() {
    offends(SOLVER, "fn f() { std::thread::spawn(|| {}); }\n", "no-raw-threads");
    offends(SOLVER, "fn f() { thread::Builder::new(); }\n", "no-raw-threads");
    clean(SOLVER, "fn f() { tradefl_runtime::sync::pool::Pool::global().scope(|s| {}); }\n");
    // The pool implementation itself is exempt.
    clean("crates/runtime/src/sync/pool.rs", "fn f() { std::thread::spawn(|| {}); }\n");
    clean(
        SOLVER,
        "fn f() { std::thread::spawn(|| {}); } // lint:allow(no-raw-threads): detached watchdog, \
         joins before any result is read\n",
    );
}

// --- no-panic-in-lib --------------------------------------------------

#[test]
fn panic_in_lib_offending_clean_allowed() {
    offends(SOLVER, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n", "no-panic-in-lib");
    offends(SOLVER, "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }\n", "no-panic-in-lib");
    offends(SOLVER, "fn f() { panic!(\"boom\"); }\n", "no-panic-in-lib");
    clean(SOLVER, "fn f(x: Option<u32>) -> Result<u32, E> { x.ok_or(E::Missing) }\n");
    // unwrap_or and friends are not panics.
    clean(SOLVER, "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n");
    // Tests, benches, examples and binaries are exempt.
    clean("crates/solver/tests/t.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    clean("examples/e.rs", "fn main() { None::<u32>.unwrap(); }\n");
    clean("src/bin/cli.rs", "fn main() { None::<u32>.unwrap(); }\n");
    clean(SOLVER, "#[cfg(test)]\nmod tests {\n fn f() { None::<u32>.unwrap(); }\n}\n");
    clean(
        SOLVER,
        "fn f(x: Option<u32>) -> u32 {\n    \
         // lint:allow(no-panic-in-lib): invariant: caller checked is_some above\n    \
         x.unwrap()\n}\n",
    );
}

// --- no-float-eq ------------------------------------------------------

#[test]
fn float_eq_offending_clean_allowed() {
    offends(SOLVER, "fn f(x: f64) -> bool { x == 0.0 }\n", "no-float-eq");
    offends(SOLVER, "fn f(x: f64) -> bool { 1.5e3 != x }\n", "no-float-eq");
    clean(SOLVER, "fn f(x: f64) -> bool { (x - 0.5).abs() < 1e-9 }\n");
    // Integer comparisons and ranges stay silent.
    clean(SOLVER, "fn f(x: usize) -> bool { x == 0 && (1..2).contains(&x) }\n");
    clean(
        SOLVER,
        "fn f(x: f64) -> bool { x == 0.0 } // lint:allow(no-float-eq): exact-zero sentinel \
         guard before division\n",
    );
}

// --- no-alloc-in-hot-loop ---------------------------------------------

const KERNEL: &str = "crates/fl-sim/src/linalg/kernel.rs";
const MODEL: &str = "crates/fl-sim/src/model.rs";

#[test]
fn alloc_in_hot_loop_offending_clean_allowed() {
    // The kernel module is hot in its entirety.
    offends(KERNEL, "fn f() { let v: Vec<f32> = Vec::new(); }\n", "no-alloc-in-hot-loop");
    offends(KERNEL, "fn f() { let v = vec![0.0f32; 8]; }\n", "no-alloc-in-hot-loop");
    offends(KERNEL, "fn f(a: &[f32]) { let v = a.to_vec(); }\n", "no-alloc-in-hot-loop");
    offends(MODEL, "fn sgd_step_with(m: &M) { let w = m.w.clone(); }\n", "no-alloc-in-hot-loop");
    // In model.rs only the step-path fns are hot; cold fns allocate
    // freely, and other files are out of scope entirely.
    clean(MODEL, "fn new() -> Vec<f32> { Vec::new() }\n");
    clean(MODEL, "fn forward_with(ws: &mut W) { ws.h.resize(8, 0.0); }\n");
    clean("crates/fl-sim/src/fed.rs", "fn f() { let v: Vec<f32> = Vec::new(); }\n");
    // The fed.rs streaming-aggregation loop is hot too: the round
    // dispatch/merge, per-group training and per-silo SGD fns.
    offends(
        "crates/fl-sim/src/fed.rs",
        "fn run_round(g: &Mlp) { let m = g.clone(); }\n",
        "no-alloc-in-hot-loop",
    );
    offends(
        "crates/fl-sim/src/fed.rs",
        "fn train_group(p: &[f32]) { let v = p.to_vec(); }\n",
        "no-alloc-in-hot-loop",
    );
    offends(
        "crates/fl-sim/src/fed.rs",
        "fn local_train() { let order: Vec<usize> = Vec::new(); }\n",
        "no-alloc-in-hot-loop",
    );
    clean("crates/fl-sim/src/fed.rs", "fn train_federated_grouped() { let v = vec![0.0f64; 8]; }\n");
    clean(SOLVER, "fn f() { let v = vec![1]; }\n");
    // Test modules inside the hot files are exempt (in_tests: false).
    clean(KERNEL, "#[cfg(test)]\nmod tests {\n fn f() { let v = vec![1]; }\n}\n");
    clean(
        KERNEL,
        "fn new() -> Self {\n    \
         // lint:allow(no-alloc-in-hot-loop): constructor is the cold path\n    \
         Self { buf: Vec::new() }\n}\n",
    );
}

#[test]
fn alloc_rule_brace_matching_tracks_fn_bodies() {
    // A hot fn followed by a cold fn: the span must close at the hot
    // fn's final brace, not swallow the rest of the file.
    let src = "fn evaluate_with(ws: &mut W) {\n    \
               if x { y(); }\n}\n\
               fn save() -> Vec<u8> { Vec::new() }\n";
    clean(MODEL, src);
    // Nested braces (closures) inside the hot body stay covered.
    offends(
        MODEL,
        "fn forward_with(ws: &mut W) {\n    \
         layers.iter().for_each(|l| { let v = l.w.clone(); });\n}\n",
        "no-alloc-in-hot-loop",
    );
}

// --- unbounded-wire-alloc --------------------------------------------

const LEDGER: &str = "crates/ledger/src/fixture.rs";

#[test]
fn wire_alloc_offending_clean_allowed() {
    // The seeded regression: a wire-declared length straight into
    // `with_capacity`.
    offends(
        SOLVER,
        "fn f(buf: &mut &[u8]) -> Result<Vec<u8>, E> {\n    \
         let n = buf.try_get_u64_le().map_err(short)? as usize;\n    \
         let v = Vec::with_capacity(n);\n    Ok(v)\n}\n",
        "unbounded-wire-alloc",
    );
    // The other sink forms: `.reserve` and `vec![x; n]`.
    offends(
        SOLVER,
        "fn f(buf: &mut &[u8], out: &mut Vec<u8>) {\n    \
         let n = decode_len(buf) as usize;\n    out.reserve(n);\n}\n",
        "unbounded-wire-alloc",
    );
    offends(
        SOLVER,
        "fn f(buf: &mut &[u8]) -> Vec<u8> {\n    \
         let n = buf.try_get_u32_le().map_or(0, |v| v as usize);\n    vec![0u8; n]\n}\n",
        "unbounded-wire-alloc",
    );
    // Taint survives one call level: the length is produced behind a
    // helper whose summary says "returns wire-tainted".
    offends(
        SOLVER,
        "fn read_count(buf: &mut &[u8]) -> usize {\n    \
         buf.try_get_u64_le().map_or(0, |v| v as usize)\n}\n\
         fn g(buf: &mut &[u8]) -> Vec<u8> {\n    \
         let n = read_count(buf);\n    Vec::with_capacity(n)\n}\n",
        "unbounded-wire-alloc",
    );
    // Sanitized flows are clean: bounded_count, a .min cap, and the
    // length of already-materialized data.
    clean(
        SOLVER,
        "fn f(buf: &mut &[u8]) -> Result<Vec<u8>, E> {\n    \
         let n = bounded_count(buf.try_get_u64_le().map_err(short)? as usize, \
         buf.remaining(), 8)?;\n    Ok(Vec::with_capacity(n))\n}\n",
    );
    clean(
        SOLVER,
        "fn f(buf: &mut &[u8]) -> Result<Vec<u8>, E> {\n    \
         let n = (buf.try_get_u64_le().map_err(short)? as usize).min(64);\n    \
         Ok(Vec::with_capacity(n))\n}\n",
    );
    clean(
        SOLVER,
        "fn f(payload: Vec<u8>) -> Vec<u8> {\n    \
         let decoded = decode_items(payload);\n    \
         Vec::with_capacity(decoded.len())\n}\n",
    );
    // Out of scope: tests allocate from whatever lengths they like.
    clean(
        "crates/solver/tests/t.rs",
        "fn f(buf: &mut &[u8]) -> Vec<u8> {\n    \
         let n = buf.try_get_u64_le().map_or(0, |v| v as usize);\n    \
         Vec::with_capacity(n)\n}\n",
    );
    clean(
        SOLVER,
        "fn f(buf: &mut &[u8]) -> Vec<u8> {\n    \
         let n = buf.try_get_u64_le().map_or(0, |v| v as usize);\n    \
         // lint:allow(unbounded-wire-alloc): n is pre-validated by the framing layer cap\n    \
         Vec::with_capacity(n)\n}\n",
    );
}

// --- no-unchecked-money-arith ----------------------------------------

#[test]
fn money_arith_offending_clean_allowed() {
    // Money by declared type, by name, and by wrapped field in a money
    // impl.
    offends(LEDGER, "fn f(a: Wei, b: Wei) -> Wei { a + b }\n", "no-unchecked-money-arith");
    offends(
        LEDGER,
        "fn f(balance: u128, fee: u128) -> u128 { balance - fee }\n",
        "no-unchecked-money-arith",
    );
    offends(
        LEDGER,
        "fn bump(acct: &mut Account) { acct.nonce += 1; }\n",
        "no-unchecked-money-arith",
    );
    offends(
        LEDGER,
        "impl Fixed {\n    fn double(self) -> Fixed { Fixed(self.0 * 2) }\n}\n",
        "no-unchecked-money-arith",
    );
    // Checked/saturating forms and non-money arithmetic are clean.
    clean(
        LEDGER,
        "fn f(a: Wei, b: Wei) -> Wei { a.checked_add(b).unwrap_or(Wei::ZERO) }\n",
    );
    clean(LEDGER, "fn f(count: u64, step: u64) -> u64 { count + step }\n");
    // The rule is a ledger-crate contract: identical code elsewhere is
    // out of scope.
    clean(SOLVER, "fn f(a: Wei, b: Wei) -> Wei { a + b }\n");
    clean(
        LEDGER,
        "fn f(a: Wei, b: Wei) -> Wei {\n    \
         // lint:allow(no-unchecked-money-arith): Wei::Add is checked internally; abort beats wrap\n    \
         a + b\n}\n",
    );
}

// --- no-nested-pool-scope --------------------------------------------

#[test]
fn nested_pool_scope_offending_clean_allowed() {
    // Direct lexical nesting.
    offends(
        SOLVER,
        "fn f(pool: &Pool, jobs: Vec<J>) {\n    \
         pool.scope(|s| {\n        pool.scope(|t| {});\n    });\n}\n",
        "no-nested-pool-scope",
    );
    // The seeded regression: the nested entry hides behind one call.
    offends(
        SOLVER,
        "fn inner(pool: &Pool, jobs: Vec<J>) {\n    pool.scope(|s| {});\n}\n\
         fn outer(pool: &Pool, jobs: Vec<J>) {\n    \
         pool.scope(|s| {\n        inner(pool, jobs);\n    });\n}\n",
        "no-nested-pool-scope",
    );
    // Serial helpers and a non-pool `.scope` inside pooled closures
    // are clean — and the pool implementation itself is exempt.
    clean(
        SOLVER,
        "fn payoff(i: usize) -> i64 { 0 }\n\
         fn f(pool: &Pool, xs: Vec<usize>) {\n    \
         pool.scope(|s| {\n        let v = payoff(3);\n    });\n}\n",
    );
    clean(
        SOLVER,
        "fn f(tracer: &Tracer) { tracer.scope(|| {}); }\n\
         fn g(pool: &Pool, tracer: &Tracer) {\n    pool.scope(|s| { f(tracer); });\n}\n",
    );
    clean(
        "crates/runtime/src/sync/pool.rs",
        "fn f(pool: &Pool, jobs: Vec<J>) {\n    \
         pool.scope(|s| {\n        pool.scope(|t| {});\n    });\n}\n",
    );
    clean(
        SOLVER,
        "fn f(pool: &Pool, jobs: Vec<J>) {\n    \
         pool.scope(|s| {\n        \
         // lint:allow(no-nested-pool-scope): the inner scope holds one task, so it runs inline\n        \
         pool.scope(|t| {});\n    });\n}\n",
    );
}

// --- unused-result ----------------------------------------------------

#[test]
fn unused_result_offending_clean_allowed() {
    // A statement-position call to a fn every definition of which
    // returns Result, with nothing consuming it.
    offends(
        SOLVER,
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn f() {\n    save();\n}\n",
        "unused-result",
    );
    offends(
        SOLVER,
        "impl S {\n    fn commit(&mut self) -> Result<(), E> { Ok(()) }\n}\n\
         fn f(s: &mut S) {\n    s.commit();\n}\n",
        "unused-result",
    );
    // Propagated, bound, or matched results are consumed.
    clean(
        SOLVER,
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn f() -> Result<(), E> {\n    save()?;\n    Ok(())\n}\n",
    );
    clean(
        SOLVER,
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn f() {\n    let _ = save();\n}\n",
    );
    clean(
        SOLVER,
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn g() -> bool { save().is_ok() }\n",
    );
    // Fns that do not (always) return Result never match.
    clean(SOLVER, "fn ping() {}\nfn f() {\n    ping();\n}\n");
    // Tests discard results freely.
    clean(
        "crates/solver/tests/t.rs",
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn f() {\n    save();\n}\n",
    );
    clean(
        SOLVER,
        "fn save() -> Result<(), E> { Ok(()) }\n\
         fn f() {\n    \
         // lint:allow(unused-result): best-effort flush on the shutdown path\n    \
         save();\n}\n",
    );
}

// --- allow-span-precision ---------------------------------------------

#[test]
fn allow_span_precision_offending_and_clean() {
    // Floating: the next line is blank, so the allow binds to nothing.
    assert_rules(
        SOLVER,
        "fn f() {}\n// lint:allow(no-panic-in-lib): floats over nothing\n\nfn g() {}\n",
        &["allow-span-precision"],
    );
    // Floating at EOF.
    assert_rules(
        SOLVER,
        "fn f() {}\n// lint:allow(no-float-eq): trailing remark\n",
        &["allow-span-precision"],
    );
    // Bound allows (trailing, above a statement, above an item) do not
    // trip it.
    clean(
        SOLVER,
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } \
         // lint:allow(no-panic-in-lib): invariant: x is Some\n",
    );
    clean(
        SOLVER,
        "// lint:allow(no-panic-in-lib): demo: covers the whole item\n\
         fn f(x: Option<u32>) -> u32 {\n    let y = 1;\n    x.unwrap() + y\n}\n",
    );
    // Meta rules are not suppressible: an allow cannot excuse a
    // floating allow.
    offends(
        SOLVER,
        "fn f() {}\n\
         // lint:allow(allow-span-precision): no\n\
         // lint:allow(no-float-eq): floats over nothing\n\n",
        "allow-span-precision",
    );
}

#[test]
fn double_allow_distinguishes_the_stale_marker() {
    // Two allows of the same rule in one file: best-match attribution
    // must keep the load-bearing one and report the stale one at its
    // own line.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } \
               // lint:allow(no-panic-in-lib): invariant: x is Some\n\
               fn g(y: u32) -> u32 { y + 1 } \
               // lint:allow(no-panic-in-lib): stale: g no longer unwraps\n";
    let findings = lint_source(SOLVER, src);
    let unused: Vec<u32> =
        findings.iter().filter(|f| f.rule == "unused-allow").map(|f| f.line).collect();
    assert_eq!(unused, vec![2], "{findings:?}");
    assert!(
        !findings.iter().any(|f| f.rule == "no-panic-in-lib"),
        "the live allow must keep suppressing: {findings:?}"
    );
}

// --- meta rules -------------------------------------------------------

#[test]
fn meta_rules_offending_and_clean() {
    assert_rules(
        SOLVER,
        "// lint:allow(no-panic-in-lib)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        &["bad-allow", "no-panic-in-lib"],
    );
    assert_rules(SOLVER, "// lint:allow(made-up-rule): reason\n", &["bad-allow"]);
    assert_rules(
        SOLVER,
        "// lint:allow(no-float-eq): nothing here compares floats\nfn f() {}\n",
        &["unused-allow"],
    );
}

// --- unreferenced-pub-fn ---------------------------------------------

/// `(file, line, rule)` of every finding [`lint_tree`] — the entry
/// point `lint_workspace` runs on the files it reads — reports.
fn tree_findings(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
    lint_tree(files).into_iter().map(|f| (f.file, f.line, f.rule)).collect()
}

const LIB: &str = "crates/x/src/lib.rs";

#[test]
fn unreferenced_pub_fn_offending_clean_allowed() {
    // Flagged: only a `#[cfg(test)]` module calls it.
    let tested_only = "pub fn only_tested() -> u32 {\n    1\n}\n\
                       #[cfg(test)]\nmod tests {\n    \
                       #[test]\n    fn t() { assert_eq!(super::only_tested(), 1); }\n}\n";
    assert_eq!(
        tree_findings(&[(LIB, tested_only)]),
        vec![(LIB.to_string(), 1, "unreferenced-pub-fn".to_string())]
    );
    // Clean: a trait-impl method, an `assert!` argument, a
    // `macro_rules!` body, a `.map(Type::f)` value and a bin's `main`
    // each reach one pub fn; a tradebench module is a bin target too.
    let lib = "pub struct Counter;\n\
               impl Iterator for Counter {\n    type Item = u32;\n    \
               fn next(&mut self) -> Option<u32> { from_trait_impl() }\n}\n\
               pub fn from_trait_impl() -> Option<u32> { None }\n\
               pub fn from_assert() -> bool { true }\n\
               #[macro_export]\nmacro_rules! call_it {\n    () => { $crate::from_macro() };\n}\n\
               pub fn from_macro() {}\n\
               pub struct Widget;\n\
               impl Widget {\n    pub fn id(x: &u64) -> u64 { *x }\n}\n\
               pub fn from_main() {}\n\
               pub fn from_tradebench() {}\n";
    let bin = "fn main() {\n    assert!(x::from_assert());\n    \
               let ids: Vec<u64> = [1u64].iter().map(x::Widget::id).collect();\n    \
               x::from_main();\n}\n";
    let tradebench = "pub fn helper() {\n    x::from_tradebench();\n}\n";
    let files =
        [(LIB, lib), ("crates/x/src/bin/tool.rs", bin), ("tradebench/src/rep.rs", tradebench)];
    assert_eq!(tree_findings(&files), vec![]);
    // Allowed: a kept oracle carries its reason.
    let allowed = "// lint:allow(unreferenced-pub-fn): test oracle for the solver\n\
                   pub fn oracle() -> u32 {\n    1\n}\n";
    assert_eq!(tree_findings(&[(LIB, allowed)]), vec![]);
    // A file linted alone cannot see its callers, so the rule is off.
    clean(LIB, "pub fn lonely() {}\n");
}

const BIN: &str = "crates/x/src/bin/tool.rs";

#[test]
fn unreferenced_pub_fn_local_bindings_are_not_refs() {
    // A dead `pub fn seed` stays flagged whichever binder gives a bin a
    // local `seed`: each use below names that local, not the fn.
    let lib = "pub fn seed() -> u64 {\n    1\n}\n";
    for (binder, bin) in [
        ("param", "fn run(seed: u64) -> u64 { seed }\n"),
        ("let", "fn run() -> u64 { let seed = 2; seed }\n"),
        ("let closure", "fn run() -> u64 { let seed = || 2; seed() }\n"),
        ("closure param", "fn run() -> u64 { [1u64].iter().map(|seed| seed + 1).sum() }\n"),
        ("match arm", "fn run(x: Option<u64>) -> u64 { match x { Some(seed) => seed, None => 0 } }\n"),
        ("if let", "fn run(x: Option<u64>) -> u64 { if let Some(seed) = x { seed } else { 0 } }\n"),
        ("while let", "fn run(mut v: Vec<u64>) { while let Some(seed) = v.pop() { drop(seed); } }\n"),
        ("for", "fn run() -> u64 { let mut t = 0; for seed in 0..3u64 { t += seed; } t }\n"),
        ("struct shorthand", "struct S { seed: u64 }\nfn run() -> S { let seed = 2; S { seed } }\n"),
    ] {
        assert_eq!(
            tree_findings(&[(LIB, lib), (BIN, bin)]),
            vec![(LIB.to_string(), 1, "unreferenced-pub-fn".to_string())],
            "a {binder} binding kept the dead fn alive"
        );
    }
    // A bare fn name used as a value still references the fn, also
    // after a block that bound the same name as a local has ended.
    let lib = "pub fn helper(x: &u64) -> u64 {\n    *x\n}\n";
    let bin = "use x::helper;\nfn main() {\n    { let helper = 0u64; drop(helper); }\n    \
               let v: Vec<u64> = [1u64].iter().map(helper).collect();\n}\n";
    assert_eq!(tree_findings(&[(LIB, lib), (BIN, bin)]), vec![]);
}

// --- engine-wide invariants ------------------------------------------

#[test]
fn every_rule_has_explain_text_and_fixture_coverage() {
    // This file's own text: each rule must be the expected finding of
    // some fixture above, and each rule an allow can excuse (the ones
    // whose rationale does not say "Not suppressible") must have a
    // `lint:allow` fixture too.
    const FIXTURES: &str = include_str!("fixtures.rs");
    for r in RULES {
        assert!(!r.summary.is_empty() && !r.rationale.is_empty(), "rule {} undocumented", r.id);
        assert!(
            FIXTURES.contains(&format!("\"{}\"", r.id)),
            "rule {} is no fixture's expected finding",
            r.id
        );
        if !r.rationale.contains("Not suppressible") {
            assert!(
                FIXTURES.contains(&format!("lint:allow({}):", r.id)),
                "rule {} has no lint:allow fixture",
                r.id
            );
        }
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    // The gate ci.sh relies on, as a test: linting the real workspace
    // from the crate's own location must produce zero findings.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = tradefl_lint::lint_workspace(&root).expect("workspace readable");
    let rendered: Vec<String> = findings
        .iter()
        .map(|f: &Finding| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(findings.is_empty(), "workspace has lint findings:\n{}", rendered.join("\n"));
}
