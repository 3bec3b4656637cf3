//! The rule engine: file discovery, `#[cfg(test)]` scoping, the
//! `lint:allow` escape hatch, and finding assembly.
//!
//! # Allow syntax
//!
//! ```text
//! // lint:allow(rule-id): reason the rule does not apply here
//! ```
//!
//! An allow binds to what it annotates:
//!
//! * **trailing** (code precedes it on the same line) — that line;
//! * **standalone above a parsed item** (`fn`/`impl`/`mod`/… starts on
//!   the next line) — the whole item span, so one annotation covers a
//!   fn whose rule fires anywhere in its body;
//! * **standalone above a statement** — the next line, as before;
//! * **floating** (next line blank, comment-only, or EOF) — nothing:
//!   that is an `allow-span-precision` finding; move the annotation
//!   onto the code it suppresses.
//!
//! Three invariants are enforced by the engine itself:
//!
//! * every allow must name a known rule **and** carry a non-empty
//!   reason after a colon (`bad-allow` otherwise);
//! * every allow must bind to code (`allow-span-precision` otherwise);
//! * every allow must actually suppress something (`unused-allow`
//!   otherwise) — fixed code must shed its annotations. Suppression
//!   attribution is **best-match**: a finding marks only the single
//!   tightest enclosing allow as used (smallest span, then nearest),
//!   so two allows of the same rule in one file are distinguished and
//!   the stale one is reported line-accurately.
//!
//! None of the meta findings is suppressible.
//!
//! # `#[cfg(test)]` scoping
//!
//! Rules with `in_tests: false` skip findings inside `#[cfg(test)]`
//! items, and `#[cfg(doctest)]` items (compiled only by rustdoc's
//! doctest runner) count as test code too. Detection is token-based:
//! the attribute sequence `# [ cfg ( test ) ]` (or `doctest`) marks
//! the start of a span that ends at the matching close brace of the
//! item's body (or at a top-level `;` for brace-less items). Only the
//! literal `test`/`doctest` predicates are recognized —
//! `#[cfg(any(test, …))]` shapes are not used in this workspace.

use crate::callgraph::CallGraph;
use crate::flow::FlowIndex;
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use crate::manifest;
use crate::parse;
use crate::rules;
use crate::table::FnTable;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One confirmed lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's id.
    pub rule: String,
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Inclusive 1-based line ranges covered by `#[cfg(test)]` and
/// `#[cfg(doctest)]` items.
pub fn test_spans(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].kind == TokKind::Punct
            && tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].kind == TokKind::Ident
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].kind == TokKind::Ident
            && matches!(tokens[i + 4].text.as_str(), "test" | "doctest")
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Walk past the attribute to the item body: the span ends at
        // the matching `}` of the first top-level `{`, or at a
        // top-level `;` (e.g. `#[cfg(test)] mod tests;`).
        let mut j = i + 7;
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < tokens.len() {
            let t = &tokens[j];
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
                    ";" if depth == 0 => {
                        end_line = t.line;
                        break;
                    }
                    _ => {}
                }
            }
            end_line = t.line;
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// One parsed `lint:allow` marker.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    /// Lines this allow suppresses (comment lines plus what it binds
    /// to: the trailing line, the next statement line, or the whole
    /// annotated item).
    lo: u32,
    hi: u32,
    /// Line reported for bad/unused findings about the allow itself.
    at: u32,
    valid_reason: bool,
    /// The allow binds to no code at all (floating).
    floating: bool,
    used: bool,
}

/// Whether a comment is a doc comment (`///`, `//!`, `/**`, `/*!`).
/// Doc comments never carry allows — they document items, while an
/// allow annotates a code line — so marker text quoted in prose or
/// rendered examples can never suppress anything.
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***"))
        || text.starts_with("/*!")
}

/// Extracts every `lint:allow(rule): reason` marker from a comment,
/// unbound: `lo`/`hi`/`floating` are filled in by [`bind_allows`] once
/// the token lines and item spans of the file are known.
fn parse_allows(comment: &Comment) -> Vec<Allow> {
    const MARKER: &str = "lint:allow(";
    let mut out = Vec::new();
    if is_doc_comment(&comment.text) {
        return out;
    }
    let text = &comment.text;
    let mut from = 0usize;
    while let Some(off) = text[from..].find(MARKER) {
        let open = from + off + MARKER.len();
        let Some(close_rel) = text[open..].find(')') else {
            break;
        };
        let close = open + close_rel;
        let rule = text[open..close].trim().to_string();
        let rest = &text[close + 1..];
        // Reason: a ':' then non-empty text (up to the next marker if
        // several allows share one comment).
        let reason_end = rest.find(MARKER).unwrap_or(rest.len());
        let reason_part = rest[..reason_end].trim_start();
        let valid_reason = reason_part
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            rule,
            lo: comment.line,
            hi: comment.end_line,
            at: comment.line,
            valid_reason,
            floating: false,
            used: false,
        });
        from = close + 1;
    }
    out
}

/// Binds each allow to the code it annotates (see the module docs):
/// trailing allows cover their own line, standalone allows cover the
/// next code line — widened to the whole item span when that line
/// starts a parsed item — and allows over blank/comment/EOF lines are
/// marked floating (an `allow-span-precision` finding, suppressing
/// nothing).
fn bind_allows(lexed: &Lexed, parsed: &parse::File) -> Vec<Allow> {
    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    // Every item the parser structured, at any depth, so an allow above
    // an inherent method binds that method's whole body.
    let spans: Vec<(u32, u32)> =
        parse::collect_items(parsed).iter().map(|r| (r.item.line, r.item.end_line)).collect();

    let mut allows: Vec<Allow> = lexed.comments.iter().flat_map(parse_allows).collect();
    for a in &mut allows {
        if token_lines.contains(&a.lo) {
            // Trailing: code shares the comment's first line.
            a.hi = a.lo;
            continue;
        }
        let target = a.hi + 1; // first line after the comment
        if !token_lines.contains(&target) {
            a.floating = true;
            a.hi = a.lo;
            continue;
        }
        // Smallest parsed item starting exactly on the target line
        // wins; otherwise the allow covers just that line.
        let item_end = spans
            .iter()
            .filter(|&&(lo, _)| lo == target)
            .map(|&(_, hi)| hi)
            .min();
        a.hi = item_end.unwrap_or(target).max(target);
    }
    allows
}

/// Marks the single best-matching allow for `(rule, line)` used and
/// reports whether the finding is suppressed. Best match = smallest
/// span, then nearest marker line — so two allows of the same rule in
/// one file are distinguished and a stale one stays unused.
fn suppress(allows: &mut [Allow], rule: &str, line: u32) -> bool {
    let mut best: Option<usize> = None;
    for (i, a) in allows.iter().enumerate() {
        if a.rule != rule || !a.valid_reason || a.floating || line < a.lo || line > a.hi {
            continue;
        }
        let key = (a.hi - a.lo, a.at.abs_diff(line));
        let better = match best {
            None => true,
            Some(j) => {
                let b = &allows[j];
                key < (b.hi - b.lo, b.at.abs_diff(line))
            }
        };
        if better {
            best = Some(i);
        }
    }
    match best {
        Some(i) => {
            allows[i].used = true;
            true
        }
        None => false,
    }
}

/// One lexed and parsed Rust file.
struct Source<'t> {
    rel_path: &'t str,
    lexed: Lexed,
    parsed: parse::File,
    test_spans: Vec<(u32, u32)>,
}

impl<'t> Source<'t> {
    fn new(rel_path: &'t str, text: &str) -> Self {
        let lexed = lex(text);
        let parsed = parse::parse(&lexed);
        let test_spans = test_spans(&lexed.tokens);
        Source { rel_path, lexed, parsed, test_spans }
    }
}

/// The per-file core: token rules plus the semantic passes (taint
/// dataflow for wire allocs, result discipline, money arithmetic, and
/// the call-graph checks — the `unreferenced-pub-*` pair only when the
/// graph spans the `whole_tree`), then test-span filtering, allow
/// suppression, and the three meta rules about allows themselves.
fn lint_parsed(
    source: &Source<'_>,
    table: &FnTable<'_>,
    flow: &FlowIndex<'_>,
    graph: &CallGraph<'_>,
    whole_tree: bool,
) -> Vec<Finding> {
    let Source { rel_path, lexed, parsed, test_spans: spans } = source;
    let rel_path = *rel_path;
    let target = rules::classify(rel_path);
    let fns = table.fns_in(rel_path);

    let mut raw = rules::run_token_rules(rel_path, target, &lexed.tokens, fns);
    if rules::applies("unbounded-wire-alloc", rel_path, target) {
        raw.extend(crate::flow::check_wire_alloc(fns, flow));
    }
    if rules::applies("unused-result", rel_path, target) {
        raw.extend(crate::flow::check_unused_result(fns, flow));
    }
    if rules::applies("no-unchecked-money-arith", rel_path, target) {
        raw.extend(crate::flow::check_money_arith(fns));
    }
    if rules::applies("no-nested-pool-scope", rel_path, target) {
        raw.extend(graph.check_pool_nesting(rel_path));
    }
    if whole_tree && rules::applies("unreferenced-pub-fn", rel_path, target) {
        raw.extend(graph.check_unreferenced(rel_path));
    }
    if whole_tree && rules::applies("unreferenced-pub-type", rel_path, target) {
        raw.extend(graph.check_unreferenced_types(rel_path));
    }
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    let mut allows = bind_allows(lexed, parsed);
    let mut out = Vec::new();

    for f in raw {
        // Rule passes only emit ids from the RULES table.
        let Some(info) = rules::rule(f.rule) else { continue };
        if !info.in_tests && in_spans(spans, f.line) {
            continue;
        }
        if !suppress(&mut allows, f.rule, f.line) {
            out.push(Finding {
                rule: f.rule.to_string(),
                file: rel_path.to_string(),
                line: f.line,
                message: f.message,
            });
        }
    }

    // Meta rules about the allows themselves. None is suppressible: an
    // allow must name a known rule with a reason, bind to code, and
    // suppress something.
    for a in &allows {
        if rules::rule(&a.rule).is_none() {
            out.push(Finding {
                rule: "bad-allow".to_string(),
                file: rel_path.to_string(),
                line: a.at,
                message: format!("lint:allow names unknown rule `{}`", a.rule),
            });
        } else if !a.valid_reason {
            out.push(Finding {
                rule: "bad-allow".to_string(),
                file: rel_path.to_string(),
                line: a.at,
                message: format!(
                    "lint:allow({}) has no reason — write `lint:allow({}): why`",
                    a.rule, a.rule
                ),
            });
        } else if a.floating {
            out.push(Finding {
                rule: "allow-span-precision".to_string(),
                file: rel_path.to_string(),
                line: a.at,
                message: format!(
                    "lint:allow({}) binds to no code (next line is blank, a comment, or EOF) — \
                     move it onto or directly above the line it suppresses",
                    a.rule
                ),
            });
        } else if !a.used {
            out.push(Finding {
                rule: "unused-allow".to_string(),
                file: rel_path.to_string(),
                line: a.at,
                message: format!(
                    "lint:allow({}) suppresses nothing on lines {}–{} — remove it",
                    a.rule, a.lo, a.hi
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// Lints one file's source text in isolation: the fn table is built
/// from this file alone, so call-through resolution sees only its own
/// fns, and the `unreferenced-pub-*` rules (which need every caller)
/// do not run. `rel_path` drives rule scoping, so tests can pass
/// synthetic paths. [`lint_tree`] shares one cross-file table instead.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[Source::new(rel_path, src)], false)
}

/// Lints parsed sources against one fn table built over all of them.
fn lint_sources(sources: &[Source<'_>], whole_tree: bool) -> Vec<Finding> {
    let table =
        FnTable::build(sources.iter().map(|s| (s.rel_path, &s.parsed, &s.test_spans[..])));
    let (flow, graph) = (FlowIndex::build(&table), CallGraph::build(&table));
    sources.iter().flat_map(|s| lint_parsed(s, &table, &flow, &graph, whole_tree)).collect()
}

/// Lints one `Cargo.toml` (the `no-registry-deps` rule).
pub fn lint_manifest(rel_path: &str, text: &str) -> Vec<Finding> {
    manifest::scan(text)
        .into_iter()
        .map(|v| Finding {
            rule: "no-registry-deps".to_string(),
            file: rel_path.to_string(),
            line: v.line,
            message: format!(
                "{} is not a path dependency — the zero-dependency policy (DESIGN.md \u{a7}6) \
                 forbids registry crates",
                v.detail
            ),
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort(); // deterministic traversal → deterministic reports
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | ".claude") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a whole tree given as `(workspace-relative path, text)`
/// pairs: every `.rs` file and `Cargo.toml` in it. Runs in two phases —
/// parse everything and build the cross-file fn table with the flow
/// summaries and call graph over it, then lint each file against them
/// — so one level of call-through resolves across crate boundaries and
/// the `unreferenced-pub-*` rules see every caller. Findings are sorted
/// by (file, line, rule).
pub fn lint_tree(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for &(rel_path, text) in files {
        if rel_path.ends_with("Cargo.toml") {
            findings.extend(lint_manifest(rel_path, text));
        } else {
            sources.push(Source::new(rel_path, text));
        }
    }
    findings.extend(lint_sources(&sources, true));
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings
}

/// Lints the workspace rooted at `root` ([`lint_tree`] over every
/// `.rs` file and `Cargo.toml` under it, `target/` excluded).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&path)?;
        files.push((rel, text));
    }
    let files: Vec<(&str, &str)> = files.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    Ok(lint_tree(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/core/src/x.rs";

    #[test]
    fn cfg_test_spans_cover_the_module_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let lexed = lex(src);
        let spans = test_spans(&lexed.tokens);
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn after() { y.unwrap(); }\n";
        let lexed = lex(src);
        assert_eq!(test_spans(&lexed.tokens), vec![(1, 2)]);
        // The unwrap after the span is still flagged.
        let f = lint_source(LIB, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic-in-lib");
    }

    #[test]
    fn findings_inside_cfg_test_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\n";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn allow_on_same_line_suppresses_and_is_used() {
        let src = "fn f() { x.unwrap(); } // lint:allow(no-panic-in-lib): invariant: x is Some\n";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "// lint:allow(no-panic-in-lib): invariant: x is Some\nfn f() { x.unwrap(); }\n";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad_and_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // lint:allow(no-panic-in-lib)\n";
        let f = lint_source(LIB, src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"no-panic-in-lib"), "unsuppressed: {rules:?}");
        assert!(rules.contains(&"bad-allow"));
    }

    #[test]
    fn allow_naming_unknown_rule_is_bad() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        let f = lint_source(LIB, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-allow");
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// lint:allow(no-panic-in-lib): nothing here panics\nfn f() {}\n";
        let f = lint_source(LIB, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unused-allow");
    }

    #[test]
    fn allow_scope_does_not_leak_to_the_next_item() {
        let src = "// lint:allow(no-panic-in-lib): only fn f\nfn f() {}\n\
                   fn g() { x.unwrap(); }\n";
        let f = lint_source(LIB, src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"no-panic-in-lib"));
        assert!(rules.contains(&"unused-allow"));
    }

    #[test]
    fn standalone_allow_above_a_fn_covers_its_whole_body() {
        // The violation sits three lines into the fn body; the allow
        // above the fn binds the parsed item span, not just one line.
        let src = "// lint:allow(no-panic-in-lib): demo covers the item\n\
                   fn f(x: Option<u32>) -> u32 {\n\
                   \u{20}   let y = 1;\n\
                   \u{20}   let z = y + 1;\n\
                   \u{20}   x.unwrap() + z\n\
                   }\n";
        assert!(lint_source(LIB, src).is_empty(), "{:?}", lint_source(LIB, src));
    }

    #[test]
    fn floating_allow_is_a_span_precision_finding() {
        let src = "fn f() {}\n// lint:allow(no-panic-in-lib): nothing follows\n\n\
                   fn g() { x.unwrap(); }\n";
        let f = lint_source(LIB, src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"allow-span-precision"), "{f:?}");
        assert!(rules.contains(&"no-panic-in-lib"), "{f:?}");
        assert!(!rules.contains(&"unused-allow"), "{f:?}");
    }

    #[test]
    fn allow_at_eof_is_floating() {
        let src = "fn f() {}\n// lint:allow(no-panic-in-lib): trailing comment at eof\n";
        let f = lint_source(LIB, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "allow-span-precision");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn double_allow_reports_only_the_stale_one_line_accurately() {
        // Two allows of the same rule in one file: the first suppresses
        // a real violation, the second covers clean code. Best-match
        // attribution must mark only the first used and report the
        // second at its own line.
        let src = "fn f() { x.unwrap(); } // lint:allow(no-panic-in-lib): invariant: x is Some\n\
                   fn g() { y + 1; } // lint:allow(no-panic-in-lib): stale, g no longer panics\n";
        let f = lint_source(LIB, src);
        let unused: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "unused-allow")
            .map(|f| f.line)
            .collect();
        assert_eq!(unused, vec![2], "{f:?}");
        assert!(!f.iter().any(|f| f.rule == "no-panic-in-lib"), "{f:?}");
    }

    #[test]
    fn nested_allow_beats_the_item_allow_for_attribution() {
        // An item-span allow and a trailing allow both cover the same
        // violation; the trailing one (smaller span) is attributed, so
        // the outer one is reported stale rather than silently kept.
        let src = "// lint:allow(no-panic-in-lib): outer, now stale\n\
                   fn f(x: Option<u32>) -> u32 {\n\
                   \u{20}   x.unwrap() // lint:allow(no-panic-in-lib): invariant: x is Some\n\
                   }\n";
        let f = lint_source(LIB, src);
        let unused: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "unused-allow")
            .map(|f| f.line)
            .collect();
        assert_eq!(unused, vec![1], "{f:?}");
    }

    #[test]
    fn doc_comments_never_carry_allows() {
        // Marker text quoted in documentation must neither suppress
        // nor be reported as bad/unused.
        let src = "/// The escape hatch is `// lint:allow(no-such-rule): reason`.\n\
                   //! Module docs may show lint:allow(also-not-a-rule) too.\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = lint_source(LIB, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic-in-lib");
    }

    #[test]
    fn manifest_rule_produces_findings_with_lines() {
        let f = lint_manifest("Cargo.toml", "[dependencies]\nrand = \"0.8\"\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-registry-deps");
        assert_eq!(f[0].line, 2);
    }
}
