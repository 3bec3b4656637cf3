//! **trace_check** — validates a `tradefl-trace/v1` JSON Lines file
//! (the `--trace out.jsonl` output of the examples and bench binaries).
//!
//! Usage: `trace_check <file.jsonl>`
//!
//! Checks, line by line with the in-tree JSON reader
//! (`tradefl_runtime::json`, which rejects deep nesting and duplicate
//! keys):
//!
//! - line 1 is a `meta` record with the exact schema tag, and its
//!   `events` count matches the number of event lines that follow;
//! - every line is a well-formed, single-object JSON document whose
//!   `kind` is one of `meta` / `event` / `counter` / `gauge` / `hist`;
//! - event records carry a known subsystem, a `seq`, a `name`, and a
//!   `fields` object, and `seq` values are contiguous from 0 *per
//!   subsystem* (the logical-clock contract: no gaps, no wall-clock);
//! - counters/gauges/hists carry the fields the exporter writes
//!   (`value`, or `count`/`sum`/`min`/`max`/`buckets`), with counts
//!   consistent with the sparse bucket list.
//!
//! Exits non-zero with a line-numbered explanation on the first
//! violation — `scripts/ci.sh` runs this against a fresh end-to-end
//! trace on every build.

use std::collections::BTreeMap;
use tradefl_runtime::json::Json;

const SCHEMA: &str = "tradefl-trace/v1";
const SUBSYSTEMS: [&str; 6] = ["cgbd", "dbr", "primal", "fed", "ledger", "engine"];

fn field_num(line: &Json, key: &str) -> Result<f64, String> {
    line.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric '{key}'"))
}

fn field_str<'a>(line: &'a Json, key: &str) -> Result<&'a str, String> {
    line.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

/// A JSON number that is also a plausible metric value: finite, or one
/// of the exporter's non-finite string spellings.
fn metric_value_ok(v: &Json) -> bool {
    match v {
        Json::Num(x) => x.is_finite(),
        Json::Str(s) => matches!(s.as_str(), "NaN" | "Infinity" | "-Infinity"),
        _ => false,
    }
}

fn check_event(line: &Json, clocks: &mut BTreeMap<String, u64>) -> Result<(), String> {
    let sub = field_str(line, "sub")?;
    if !SUBSYSTEMS.contains(&sub) {
        return Err(format!("unknown subsystem '{sub}'"));
    }
    field_str(line, "name")?;
    let seq = field_num(line, "seq")?;
    if seq < 0.0 || seq.fract() != 0.0 {
        return Err(format!("seq {seq} is not a non-negative integer"));
    }
    let expected = clocks.entry(sub.to_string()).or_insert(0);
    if seq as u64 != *expected {
        return Err(format!(
            "subsystem '{sub}' logical clock jumped: seq {seq}, expected {expected}"
        ));
    }
    *expected += 1;
    let fields = line
        .get("fields")
        .and_then(Json::as_obj)
        .ok_or("missing 'fields' object")?;
    for (key, value) in fields {
        let ok = matches!(value, Json::Bool(_)) || metric_value_ok(value);
        if !ok {
            return Err(format!("field '{key}' has non-scalar value {value:?}"));
        }
    }
    Ok(())
}

fn check_hist(line: &Json) -> Result<(), String> {
    let count = field_num(line, "count")?;
    for key in ["sum", "min", "max"] {
        let v = line.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        if !metric_value_ok(v) {
            return Err(format!("'{key}' is not a metric value: {v:?}"));
        }
    }
    let Some(Json::Arr(buckets)) = line.get("buckets") else {
        return Err("missing 'buckets' array".into());
    };
    let mut total = 0.0;
    for b in buckets {
        let Json::Arr(pair) = b else {
            return Err(format!("bucket entry is not a pair: {b:?}"));
        };
        let [index, bucket_count] = pair.as_slice() else {
            return Err(format!("bucket entry is not a pair: {b:?}"));
        };
        let index = index.as_num().ok_or("bucket index not a number")?;
        if !(0.0..64.0).contains(&index) || index.fract() != 0.0 {
            return Err(format!("bucket index {index} out of range"));
        }
        total += bucket_count.as_num().ok_or("bucket count not a number")?;
    }
    if total != count {
        return Err(format!("bucket counts sum to {total}, header says {count}"));
    }
    Ok(())
}

/// Validates a whole trace document. Returns `(events, metrics)` line
/// counts on success.
fn check_trace(text: &str) -> Result<(usize, usize), String> {
    let mut lines = text.lines().enumerate();
    let (_, meta_line) = lines.next().ok_or("empty trace file")?;
    let meta = Json::parse(meta_line).map_err(|e| format!("line 1: {e}"))?;
    if field_str(&meta, "kind").map_err(|e| format!("line 1: {e}"))? != "meta" {
        return Err("line 1: first record must be 'meta'".into());
    }
    let schema = field_str(&meta, "schema").map_err(|e| format!("line 1: {e}"))?;
    if schema != SCHEMA {
        return Err(format!("line 1: schema '{schema}', expected '{SCHEMA}'"));
    }
    let declared_events = field_num(&meta, "events").map_err(|e| format!("line 1: {e}"))?;
    field_num(&meta, "events_dropped").map_err(|e| format!("line 1: {e}"))?;

    let mut clocks = BTreeMap::new();
    let mut events = 0usize;
    let mut metrics = 0usize;
    let mut seen_metric = false;
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let fail = |e: String| format!("line {lineno}: {e}");
        let line = Json::parse(raw).map_err(|e| fail(e.into()))?;
        match field_str(&line, "kind").map_err(fail)? {
            "event" => {
                if seen_metric {
                    return Err(fail("event record after metric records".into()));
                }
                events += 1;
                check_event(&line, &mut clocks).map_err(fail)?;
            }
            "counter" => {
                seen_metric = true;
                metrics += 1;
                field_str(&line, "name").map_err(fail)?;
                let v = field_num(&line, "value").map_err(fail)?;
                if v < 0.0 || v.fract() != 0.0 {
                    return Err(fail(format!("counter value {v} is not a u64")));
                }
            }
            "gauge" => {
                seen_metric = true;
                metrics += 1;
                field_str(&line, "name").map_err(fail)?;
                let v = line.get("value").ok_or_else(|| fail("missing 'value'".into()))?;
                if !metric_value_ok(v) {
                    return Err(fail(format!("gauge value is not a metric value: {v:?}")));
                }
            }
            "hist" => {
                seen_metric = true;
                metrics += 1;
                field_str(&line, "name").map_err(fail)?;
                check_hist(&line).map_err(fail)?;
            }
            "meta" => return Err(fail("duplicate 'meta' record".into())),
            other => return Err(fail(format!("unknown kind '{other}'"))),
        }
    }
    if events as f64 != declared_events {
        return Err(format!(
            "meta declares {declared_events} events, file has {events}"
        ));
    }
    Ok((events, metrics))
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <file.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match check_trace(&text) {
        Ok((events, metrics)) => {
            println!(
                "[PASS] {path}: valid {SCHEMA} ({events} events, {metrics} metric records)"
            );
        }
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exported_trace() -> String {
        use tradefl_runtime::obs;
        let ((), snap) = obs::with_local(|| {
            obs::event(obs::Subsystem::Cgbd, "iteration", &[("k", 0u64.into())]);
            obs::event(obs::Subsystem::Cgbd, "iteration", &[("k", 1u64.into())]);
            obs::event(obs::Subsystem::Fed, "round", &[("loss", 0.5.into())]);
            obs::counter_add("cgbd.cuts_added", 2);
            obs::gauge_set("fed.loss", 0.5);
            obs::hist_record("dbr.br_delta", 0.25);
        });
        snap.to_jsonl()
    }

    #[test]
    fn real_exports_validate() {
        let trace = exported_trace();
        let (events, metrics) = check_trace(&trace).unwrap();
        assert_eq!(events, 3);
        assert_eq!(metrics, 3);
    }

    #[test]
    fn violations_are_caught() {
        let trace = exported_trace();
        // Wrong schema tag.
        assert!(check_trace(&trace.replace("tradefl-trace/v1", "v0")).is_err());
        // Event-count mismatch.
        assert!(check_trace(&trace.replace("\"events\":3", "\"events\":4")).is_err());
        // A gap in a subsystem's logical clock.
        assert!(check_trace(&trace.replace("\"seq\":1", "\"seq\":5")).is_err());
        // Unknown subsystem.
        assert!(check_trace(&trace.replace("\"sub\":\"fed\"", "\"sub\":\"hal\"")).is_err());
        // Garbage line.
        assert!(check_trace(&format!("{trace}not json\n")).is_err());
        // Truncated to no meta.
        assert!(check_trace("").is_err());
        // Deep nesting is a typed error, not a stack overflow.
        let err = check_trace(&format!("{trace}{}\n", "[".repeat(200_000))).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // A record with a repeated key is rejected, not first-wins.
        let dup = format!("{trace}{{\"kind\":\"gauge\",\"kind\":\"event\",\"name\":\"x\"}}\n");
        assert!(check_trace(&dup).unwrap_err().contains("duplicate key"));
    }
}
