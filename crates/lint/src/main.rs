//! The `tradefl-lint` binary.
//!
//! ```text
//! tradefl-lint --workspace [--root DIR]
//! tradefl-lint FILE…
//! tradefl-lint --explain RULE-ID
//! tradefl-lint --list
//! ```
//!
//! `--workspace` lints the whole tree, so every rule runs, the
//! call-graph rules `unreferenced-pub-fn` and `unreferenced-pub-type`
//! included; a file list lints each file alone, without them.
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O
//! error — so `scripts/ci.sh` can gate on it directly.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tradefl_lint::rules::RULES;
use tradefl_lint::{engine, Finding};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tradefl-lint --workspace [--root DIR]\n\
         \x20      tradefl-lint FILE...\n\
         \x20      tradefl-lint --explain RULE-ID\n\
         \x20      tradefl-lint --list"
    );
    ExitCode::from(2)
}

/// Default workspace root: this crate lives at `<root>/crates/lint`.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn report(findings: &[Finding]) -> ExitCode {
    for f in findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        eprintln!("tradefl-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tradefl-lint: {} finding(s) — see `tradefl-lint --explain <rule-id>`",
            findings.len()
        );
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut root = default_root();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
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
        return report(&findings);
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
    report(&findings)
}
