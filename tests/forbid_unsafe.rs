//! Guard: every crate in the workspace forbids `unsafe` code.
//!
//! All the speed work in the workspace (the GEMM kernels, SHA-256, the
//! sparse market) is safe Rust, and DESIGN.md §6 keeps it that way: a
//! faster path that needs `unsafe` (intrinsics, unchecked indexing)
//! must first argue its way past this test. It reads the crate roots —
//! the root package's `src/lib.rs` and each `crates/*/src/lib.rs` and
//! `main.rs` — and fails if one lacks the inner attribute
//! `#![forbid(unsafe_code)]`, so deleting it cannot go unnoticed.

use std::fs;
use std::path::{Path, PathBuf};

const ATTRIBUTE: &str = "#![forbid(unsafe_code)]";

/// The library and binary crate roots of the workspace.
fn crate_roots() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        out.extend(["lib.rs", "main.rs"].map(|f| src.join(f)).into_iter().filter(|p| p.is_file()));
    }
    assert!(out.len() >= 9, "expected the root + >=8 member crate roots, found {}", out.len());
    out
}

/// Whether `source` carries the attribute on a line of its own, not
/// inside a comment or string.
fn forbids_unsafe(source: &str) -> bool {
    source.lines().any(|line| line.trim() == ATTRIBUTE)
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let missing: Vec<String> = crate_roots()
        .into_iter()
        .filter(|path| {
            let text = fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            !forbids_unsafe(&text)
        })
        .map(|path| path.display().to_string())
        .collect();
    assert!(missing.is_empty(), "crate roots without `{ATTRIBUTE}`: {missing:?}");
}

#[test]
fn guard_ignores_a_commented_out_attribute() {
    assert!(forbids_unsafe("//! Docs.\n\n#![forbid(unsafe_code)]\n"));
    assert!(!forbids_unsafe("// #![forbid(unsafe_code)]\n"));
    assert!(!forbids_unsafe("#![deny(unsafe_code)]\n"));
}
