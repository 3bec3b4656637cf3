//! The `tradefl-lint` binary.
//!
//! ```text
//! tradefl-lint --workspace [--root DIR] [--json] [--diff BASE]
//! tradefl-lint [--json] FILE…
//! tradefl-lint --check-json FILE
//! tradefl-lint --explain RULE-ID
//! tradefl-lint --list
//! ```
//!
//! `--json` emits the versioned `tradefl-lint/v2` report (see
//! [`tradefl_lint::json`]); `--check-json` validates a saved report
//! against that schema, which is how `scripts/ci.sh` guards the
//! contract. `--diff BASE` (workspace mode only) restricts findings to
//! lines changed since the git ref `BASE` — allow-meta findings
//! (`bad-allow`, `unused-allow`, `allow-span-precision`) are kept
//! regardless, since a diff that deletes a violation is exactly when a
//! stale allow appears without its own line changing.
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O
//! error — so `scripts/ci.sh` can gate on it directly.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tradefl_lint::rules::RULES;
use tradefl_lint::{diff, engine, json, Finding};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tradefl-lint --workspace [--root DIR] [--json] [--diff BASE]\n\
         \x20      tradefl-lint [--json] FILE...\n\
         \x20      tradefl-lint --check-json FILE\n\
         \x20      tradefl-lint --explain RULE-ID\n\
         \x20      tradefl-lint --list"
    );
    ExitCode::from(2)
}

/// Default workspace root: this crate lives at `<root>/crates/lint`.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn report(findings: &[Finding], json: bool) -> ExitCode {
    if json {
        println!("{}", json::render_v2(findings));
    } else {
        for f in findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        if findings.is_empty() {
            eprintln!("tradefl-lint: clean");
        } else {
            eprintln!(
                "tradefl-lint: {} finding(s) — see `tradefl-lint --explain <rule-id>`",
                findings.len()
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn explain(id: &str) -> ExitCode {
    match tradefl_lint::rules::rule(id) {
        Some(r) => {
            println!("{} — {}\n\n{}", r.id, r.summary, r.rationale);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("tradefl-lint: unknown rule `{id}`; known rules:");
            for r in RULES {
                eprintln!("  {}", r.id);
            }
            ExitCode::from(2)
        }
    }
}

fn check_json(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tradefl-lint: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match json::check_v2(&text) {
        Ok(n) => {
            eprintln!("tradefl-lint: {path}: valid tradefl-lint/v2 report, {n} finding(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tradefl-lint: {path}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The allow-meta rules stay in a `--diff` report even off changed
/// lines: deleting a violation elsewhere is exactly how an allow goes
/// stale without its own line appearing in the diff.
fn is_allow_meta(rule: &str) -> bool {
    matches!(rule, "bad-allow" | "unused-allow" | "allow-span-precision")
}

/// Runs `git diff BASE -U0` in `root` and keeps only findings on
/// changed lines (plus allow-meta findings).
fn filter_to_diff(findings: Vec<Finding>, root: &Path, base: &str) -> Result<Vec<Finding>, String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--no-color", "-U0", base])
        .output()
        .map_err(|e| format!("failed to run git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff {base} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let changed = diff::changed_lines(&String::from_utf8_lossy(&out.stdout));
    Ok(findings
        .into_iter()
        .filter(|f| is_allow_meta(&f.rule) || diff::touches(&changed, &f.file, f.line))
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut workspace = false;
    let mut root = default_root();
    let mut diff_base: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--diff" => match it.next() {
                Some(base) => diff_base = Some(base.clone()),
                None => return usage(),
            },
            "--check-json" => {
                return match it.next() {
                    Some(path) => check_json(path),
                    None => usage(),
                };
            }
            "--explain" => {
                return match it.next() {
                    Some(id) => explain(id),
                    None => usage(),
                };
            }
            "--list" => {
                for r in RULES {
                    println!("{:24} {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(),
            other if other.starts_with('-') => return usage(),
            other => files.push(PathBuf::from(other)),
        }
    }

    if workspace {
        let findings = match engine::lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("tradefl-lint: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let findings = match diff_base {
            Some(base) => match filter_to_diff(findings, &root, &base) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("tradefl-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            None => findings,
        };
        return report(&findings, json);
    }
    if diff_base.is_some() {
        eprintln!("tradefl-lint: --diff requires --workspace");
        return usage();
    }
    if files.is_empty() {
        return usage();
    }
    let mut findings = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tradefl-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = path.to_string_lossy().replace('\\', "/");
        if rel.ends_with("Cargo.toml") {
            findings.extend(engine::lint_manifest(&rel, &text));
        } else {
            findings.extend(engine::lint_source(&rel, &text));
        }
    }
    report(&findings, json)
}
