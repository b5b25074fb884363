//! Result output: the human-readable table, the full result object
//! (host block, sample counts, tails), and the one-line summary the
//! benchmark contract asks for as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::Host;
use crate::stats::Summary;

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has (`null` for a
/// non-finite value, which JSON cannot carry).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON object from already-encoded values, in the given order.
pub fn jobj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON array from already-encoded values.
pub fn jarr(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                jobj(&[("value", jnum(m.value)), ("unit", jstr(m.unit))]),
            )
        })
        .collect();
    jobj(&fields)
}

/// The host block.
pub fn host_json(host: &Host, seed: u64, clients: usize, workers: usize) -> String {
    let mut fields = vec![
        ("nproc", host.nproc.to_string()),
        ("cpu_model", jstr(&host.cpu_model)),
        ("mem_total_mb", host.mem_total_mb.to_string()),
        ("kernel", jstr(&host.kernel)),
        ("data_fs", jstr(&host.data_fs)),
        ("git_rev", jstr(&host.git_rev)),
        ("seed", seed.to_string()),
        ("clients", clients.to_string()),
        ("workers", workers.to_string()),
    ];
    if host.nproc < 2 {
        fields.push((
            "note",
            jstr("one core: running one client and one worker instead of oversubscribing"),
        ));
    }
    jobj(&fields)
}

/// `{"count":…, "p50":…, "tail_pct":…, "tail":…}` of a latency series.
pub fn summary_json(s: &Summary) -> String {
    jobj(&[
        ("count", s.count.to_string()),
        ("p50", jnum(s.p50)),
        ("tail_pct", s.tail_pct.map_or("null".to_owned(), jnum)),
        ("tail", jnum(s.tail)),
    ])
}

/// A string-to-string map as a JSON object.
pub fn notes_json(notes: &BTreeMap<&'static str, String>) -> String {
    let fields: Vec<(&str, String)> = notes.iter().map(|(k, v)| (*k, jstr(v))).collect();
    jobj(&fields)
}

/// Per span name `{"count":…, "self_p50_us":…}`: each layer's median
/// self time (its span minus its children). For a served request,
/// wire time is `roundtrip` minus `replay`.
pub fn self_times_json(by_name: &BTreeMap<&'static str, (usize, f64)>) -> String {
    let fields: Vec<(&str, String)> = by_name
        .iter()
        .map(|(name, (count, ns))| {
            let entry = jobj(&[
                ("count", count.to_string()),
                ("self_p50_us", jnum(ns / 1e3)),
            ]);
            (*name, entry)
        })
        .collect();
    jobj(&fields)
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    jobj(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_json(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_server::json::{parse, Json};

    #[test]
    fn contract_line_is_valid_json_with_exactly_four_keys() {
        let line = contract_line(
            true,
            1000,
            0,
            &[Metric {
                name: "latency_ms",
                unit: "ms",
                value: 1.2034,
            }],
        );
        let doc = parse(&line).expect("valid json");
        let Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let latency = doc.get("metrics").and_then(|m| m.get("latency_ms"));
        assert_eq!(
            latency.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.2034)
        );
        assert_eq!(
            latency.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(0.1 + 0.2), "0.30000000000000004");
    }
}
