//! Versioned JSON output (`tradefl-lint/v2`) and the in-tree schema
//! checker that CI runs against it.
//!
//! # The v2 contract
//!
//! ```text
//! {
//!   "schema": "tradefl-lint/v2",
//!   "rules": ["allow-span-precision", "bad-allow", …],
//!   "findings": [
//!     {"rule": "…", "file": "crates/…/x.rs", "line": 12, "message": "…"}
//!   ],
//!   "count": 1
//! }
//! ```
//!
//! Invariants the checker enforces (and CI gates on):
//!
//! * top level is an object whose `schema` is exactly `tradefl-lint/v2`;
//! * `rules` lists every known rule id (sorted, deduplicated) so
//!   downstream tooling can detect rule-set drift without running the
//!   binary;
//! * `findings` is an array of objects, each with string `rule`
//!   (drawn from `rules`), `/`-separated string `file`, integer
//!   `line ≥ 1`, and non-empty string `message`;
//! * `count` equals `findings.len()` — a truncated or concatenated
//!   report fails closed.
//!
//! v1 (the old ad-hoc `{"findings": …, "count": …}` shape with no
//! `schema` key) is rejected by the checker; the CLI no longer emits
//! it. Parsing goes through the workspace's own reader,
//! [`tradefl_runtime::json`], a path dependency: it rejects deep
//! nesting and duplicate keys, so a report with two `count` keys fails
//! closed instead of resolving to either one.

use crate::engine::Finding;
use tradefl_runtime::json::Json;

/// A non-negative integral number that fits a `u32` (`line`, `count`).
fn as_u32(v: &Json) -> Option<u32> {
    let n = v.as_num()?;
    // lint:allow(no-float-eq): exact integrality test on a parsed JSON number — 7.5 must not validate as a line number
    (n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)).then_some(n as u32)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings in the v2 schema (see the module docs).
pub fn render_v2(findings: &[Finding]) -> String {
    let mut rule_ids: Vec<&str> = crate::rules::RULES.iter().map(|r| r.id).collect();
    rule_ids.sort_unstable();
    let mut out = String::from("{\"schema\":\"tradefl-lint/v2\",\"rules\":[");
    for (i, id) in rule_ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(id);
        out.push('"');
    }
    out.push_str("],\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape(&f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

/// Validates a v2 report. Returns the finding count on success, or the
/// first contract violation. CI feeds the live `--workspace --json`
/// output through this to catch schema drift between the renderer and
/// consumers.
pub fn check_v2(text: &str) -> Result<usize, String> {
    let v = Json::parse(text)?;
    let Json::Obj(_) = &v else {
        return Err("top level is not an object".to_string());
    };
    match v.get("schema").and_then(Json::as_str) {
        Some("tradefl-lint/v2") => {}
        Some(other) => return Err(format!("schema is `{other}`, expected `tradefl-lint/v2`")),
        None => return Err("missing string `schema` key (v1 output?)".to_string()),
    }
    let Some(Json::Arr(rules)) = v.get("rules") else {
        return Err("missing `rules` array".to_string());
    };
    let mut rule_ids = Vec::new();
    for r in rules {
        let id = r.as_str().ok_or("non-string entry in `rules`")?;
        rule_ids.push(id);
    }
    let mut sorted = rule_ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted != rule_ids {
        return Err("`rules` is not sorted and deduplicated".to_string());
    }
    let Some(Json::Arr(findings)) = v.get("findings") else {
        return Err("missing `findings` array".to_string());
    };
    for (i, f) in findings.iter().enumerate() {
        let Json::Obj(_) = f else {
            return Err(format!("findings[{i}] is not an object"));
        };
        let rule = f
            .get("rule")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `rule`"))?;
        if !rule_ids.contains(&rule) {
            return Err(format!("findings[{i}] rule `{rule}` not in `rules`"));
        }
        let file = f
            .get("file")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `file`"))?;
        if file.contains('\\') {
            return Err(format!("findings[{i}] file `{file}` is not /-separated"));
        }
        let line = f
            .get("line")
            .and_then(as_u32)
            .ok_or(format!("findings[{i}] missing integer `line`"))?;
        if line < 1 {
            return Err(format!("findings[{i}] line {line} is not 1-based"));
        }
        let message = f
            .get("message")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `message`"))?;
        if message.is_empty() {
            return Err(format!("findings[{i}] has an empty message"));
        }
    }
    let count = v
        .get("count")
        .and_then(as_u32)
        .ok_or("missing integer `count`")?;
    if count as usize != findings.len() {
        return Err(format!(
            "count {count} does not match findings.len() {}",
            findings.len()
        ));
    }
    Ok(findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: u32) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: format!("{rule} fired"),
        }
    }

    #[test]
    fn rendered_v2_round_trips_through_the_checker() {
        let findings = vec![
            finding("no-wallclock", "crates/core/src/x.rs", 3),
            finding("unused-allow", "crates/core/src/y.rs", 9),
        ];
        let text = render_v2(&findings);
        assert_eq!(check_v2(&text), Ok(2));
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(check_v2(&render_v2(&[])), Ok(0));
    }

    #[test]
    fn v1_shape_is_rejected() {
        let v1 = "{\"findings\":[],\"count\":0}";
        let err = check_v2(v1).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn count_mismatch_fails_closed() {
        let text = render_v2(&[finding("no-wallclock", "a.rs", 1)]);
        let broken = text.replace("\"count\":1", "\"count\":7");
        assert!(check_v2(&broken).unwrap_err().contains("count"));
    }

    #[test]
    fn unknown_rule_in_findings_is_rejected() {
        let text = render_v2(&[finding("made-up-rule", "a.rs", 1)]);
        let err = check_v2(&text).unwrap_err();
        assert!(err.contains("made-up-rule"), "{err}");
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let f = Finding {
            rule: "no-wallclock".to_string(),
            file: "crates/core/src/x.rs".to_string(),
            line: 2,
            message: "quote \" backslash \\ newline \n tab \t control \u{1}".to_string(),
        };
        let text = render_v2(&[f.clone()]);
        let v = Json::parse(&text).unwrap();
        let Some(Json::Arr(fs)) = v.get("findings") else { panic!() };
        assert_eq!(fs[0].get("message").and_then(Json::as_str), Some(f.message.as_str()));
    }

    #[test]
    fn duplicate_count_keys_are_rejected() {
        let text = render_v2(&[]).replace("\"count\":0", "\"count\":0,\"count\":0");
        let err = check_v2(&text).unwrap_err();
        assert!(err.contains("duplicate key \"count\""), "{err}");
    }

    #[test]
    fn deep_nesting_is_rejected_without_overflowing_the_stack() {
        let err = check_v2(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn non_integral_line_numbers_are_rejected() {
        let text = render_v2(&[finding("no-wallclock", "a.rs", 1)]);
        let broken = text.replace("\"line\":1", "\"line\":1.5");
        assert!(check_v2(&broken).unwrap_err().contains("line"));
    }
}
