//! Workspace-wide parser guarantees: every `.rs` file in the tree
//! parses with zero structural errors, and the parser is total (never
//! panics) on arbitrary token soup.

use std::fs;
use std::path::{Path, PathBuf};
use tradefl_lint::parse;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | ".claude") {
                continue;
            }
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The permissiveness contract: the item parser must swallow the
/// entire workspace — every `.rs` file under `crates/`, `src/`,
/// `tests/`, `benches/`, `examples/` — recording zero [`parse::ParseError`]s.
/// An error here means real workspace syntax the parser cannot
/// structure, which silently blinds every semantic rule to that file.
#[test]
fn every_workspace_file_parses_with_zero_errors() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    assert!(files.len() >= 80, "workspace walk found only {} files", files.len());
    let mut total_fns = 0usize;
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        let parsed = parse::parse_source(&src);
        assert!(
            parsed.errors.is_empty(),
            "{} has parse errors: {:?}",
            path.display(),
            parsed.errors
        );
        total_fns += parse::collect_items(&parsed)
            .iter()
            .filter(|r| matches!(r.item.kind, parse::ItemKind::Fn(_)))
            .count();
    }
    // Sanity floor: "zero errors" must not mean "parsed nothing".
    // The workspace holds thousands of fns; a parser bug that opaques
    // whole files away would crater this count.
    assert!(total_fns >= 1500, "only {total_fns} fns parsed across the workspace");
}

/// Every parsed fn body in the deterministic crates exposes a
/// statement spine — a parser that returned empty bodies would make
/// the dataflow pass vacuously clean.
#[test]
fn parsed_bodies_are_not_empty_shells() {
    let root = workspace_root();
    for rel in ["crates/ledger/src/codec.rs", "crates/solver/src/dbr.rs"] {
        let src = fs::read_to_string(root.join(rel)).unwrap();
        let parsed = parse::parse_source(&src);
        let fns: Vec<&parse::FnItem> = parse::collect_items(&parsed)
            .into_iter()
            .filter_map(|r| match &r.item.kind {
                parse::ItemKind::Fn(func) => Some(func),
                _ => None,
            })
            .collect();
        assert!(!fns.is_empty(), "{rel}: no fns parsed");
        let with_stmts = fns
            .iter()
            .filter(|f| f.body.as_ref().is_some_and(|b| !b.stmts.is_empty()))
            .count();
        assert!(
            with_stmts * 2 >= fns.len(),
            "{rel}: only {with_stmts}/{} fn bodies have statements",
            fns.len()
        );
    }
}

tradefl_runtime::props! {
    #![cases = 200]

    /// Totality under fuzzing: the parser must never panic (or loop)
    /// on arbitrary token soup, including delimiter-heavy and
    /// keyword-heavy streams that stress the recovery paths.
    fn parser_never_panics_on_arbitrary_input(g) {
        let len = g.usize(0..400);
        let mut src = String::new();
        for _ in 0..len {
            match g.usize(0..14) {
                0 => src.push_str("fn "),
                1 => src.push_str("{ "),
                2 => src.push_str("} "),
                3 => src.push_str("( "),
                4 => src.push_str(") "),
                5 => src.push_str("match "),
                6 => src.push_str("let "),
                7 => src.push_str("impl "),
                8 => src.push_str("=> "),
                9 => src.push_str(":: "),
                10 => src.push_str("x "),
                11 => src.push_str("| "),
                12 => src.push_str(&format!("{} ", g.any_u8())),
                _ => src.push(g.any_u8() as char),
            }
        }
        let parsed = parse::parse_source(&src);
        // Totality is the property; errors are allowed, panics are not.
        tradefl_runtime::prop_assert!(parsed.items.len() <= src.len() + 1);
    }
}
