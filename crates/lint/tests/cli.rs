//! The `tradefl-lint` binary's exit-code contract, which `scripts/ci.sh`
//! gates on: `0` clean, `1` findings (one `file:line: [rule] message`
//! line each), `2` usage error — including the removed `--json`,
//! `--check-json` and `--diff` flags.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A throwaway workspace tree under the system temp dir, removed on
/// drop. The name carries the process id and a tag, so concurrent test
/// runs never share one.
struct Tree(PathBuf);

impl Tree {
    fn new(tag: &str, files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir()
            .join(format!("tradefl-lint-cli-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("file in a directory")).expect("mkdir");
            fs::write(&path, text).expect("write fixture file");
        }
        Tree(root)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tradefl-lint"))
        .args(args)
        .output()
        .expect("tradefl-lint runs")
}

fn lint_tree(root: &Path) -> Output {
    lint(&["--workspace", "--root", root.to_str().expect("utf-8 temp path")])
}

const MANIFEST: &str = "[package]\nname = \"x\"\n";

#[test]
fn a_finding_exits_1_and_prints_its_location() {
    let tree = Tree::new(
        "dirty",
        &[
            ("crates/x/Cargo.toml", MANIFEST),
            ("crates/x/src/lib.rs", "fn stamp() {\n    let _t = std::time::Instant::now();\n}\n"),
        ],
    );
    let out = lint_tree(&tree.0);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("crates/x/src/lib.rs:2: [no-wallclock] ")),
        "{stdout}"
    );
}

#[test]
fn a_clean_tree_exits_0() {
    let tree = Tree::new(
        "clean",
        &[
            ("crates/x/Cargo.toml", MANIFEST),
            ("crates/x/src/lib.rs", "fn add(a: u32) -> u32 {\n    a + 1\n}\n"),
        ],
    );
    let out = lint_tree(&tree.0);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn removed_report_flags_are_usage_errors() {
    let removed: [&[&str]; 3] =
        [&["--workspace", "--json"], &["--workspace", "--diff", "main"], &["--check-json", "x"]];
    for args in removed {
        assert_eq!(lint(args).status.code(), Some(2), "{args:?}");
    }
}
