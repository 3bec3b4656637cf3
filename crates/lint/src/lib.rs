//! `tradefl-lint` — in-tree static analysis for the TradeFL workspace.
//!
//! The reproduction's core claims — bit-identical Nash equilibria from
//! CGBD/DBR (Algorithms 1–2) and identical ledger state roots under
//! the settlement contract — rest on a determinism contract that spot
//! checks alone cannot defend: nothing used to stop a future change
//! from iterating a `HashMap` in a solver path, reading the wall
//! clock, or panicking a ledger node on a malformed peer message.
//! This crate makes those invariants hold *by construction*: a
//! zero-dependency lexer + rule engine runs as a tier-1 CI gate
//! (`scripts/ci.sh`).
//!
//! Layers:
//!
//! * [`lexer`] — a minimal but correct Rust tokenizer (nested block
//!   comments, raw strings, lifetime-vs-char disambiguation) so rules
//!   never fire inside comments or string literals;
//! * [`parse`] — a permissive recursive-descent item parser over the
//!   lexer (items, fn signatures, statement/expression spines) — the
//!   structural substrate for the semantic rules;
//! * [`table`] — the workspace fn table, keyed `Type::name` / `name`,
//!   with the one path resolver the two layers below share;
//! * [`flow`] — per-fn intra-procedural taint dataflow (wire-derived
//!   lengths vs `bounded_count`, money-typed arithmetic) with one
//!   level of call-through via fn summaries;
//! * [`callgraph`] — the workspace call graph, one graph behind three
//!   rules: pool-entry reachability for `no-nested-pool-scope` and
//!   reachability from the non-test roots for `unreferenced-pub-fn`
//!   and `unreferenced-pub-type`;
//! * [`rules`] — the rule table (`--explain` text included) and the
//!   token-pattern + semantic matchers with their path scopes;
//! * [`manifest`] — the `Cargo.toml` dependency scanner behind
//!   `no-registry-deps` (cross-checked against
//!   `tests/no_external_deps.rs`);
//! * [`engine`] — `#[cfg(test)]` scoping, the
//!   `// lint:allow(rule): reason` escape hatch (reasons required,
//!   item-precise binding, unused allows flagged), file discovery,
//!   finding assembly.
//!
//! The binary (`cargo run -p tradefl-lint -- --workspace`) prints one
//! `file:line: [rule] message` line per finding and exits 1 on any;
//! its exit code is the CI gate. See DESIGN.md §7 for the rule
//! catalogue and how to add a rule.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;
pub mod table;

pub use engine::{lint_manifest, lint_source, lint_tree, lint_workspace, Finding};
