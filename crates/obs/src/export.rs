//! Exporters: Prometheus text exposition and a JSON registry dump
//! (request span trees export through [`crate::trace::tree_jsonl`]).
//!
//! Every exporter renders from a sorted [`Snapshot`], formats floats
//! with Rust's shortest-round-trip `{:?}` representation, and contains
//! no timestamps of its own — so two exports of identical registry
//! state are byte-identical. That property is what lets `tier1.sh`
//! byte-compare consecutive `results/bench_obs.json` runs under the
//! manual clock.

use crate::registry::Snapshot;

/// Deterministic float rendering: shortest round-trip form; non-finite
/// values (which no well-behaved metric produces) degrade to `0`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() { format!("{v:?}") } else { "0".to_string() }
}

/// Escape a string for a JSON string literal (without the quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a key with one extra label appended (for summary quantiles).
fn key_with_label(name: &str, labels: &[(String, String)], extra: (&str, &str)) -> String {
    let mut body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    body.push(format!("{}=\"{}\"", extra.0, extra.1));
    format!("{name}{{{}}}", body.join(","))
}

/// Render a suffixed series name keeping the labels, e.g.
/// `serve_stage_ms_sum{stage="queue"}`.
fn key_suffixed(name: &str, labels: &[(String, String)], suffix: &str) -> String {
    if labels.is_empty() {
        return format!("{name}{suffix}");
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{suffix}{{{}}}", body.join(","))
}

/// Prometheus text exposition (version 0.0.4): counters and gauges as
/// single series, histograms as summaries with nearest-rank
/// `quantile="0.5|0.95|0.99"` series plus `_sum`/`_count`. Sorted, no
/// timestamps.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_type_line = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if line != last_type_line {
            out.push_str(&line);
            last_type_line = line;
        }
    };
    for e in &snap.counters {
        type_line(&mut out, &e.name, "counter");
        out.push_str(&format!("{} {}\n", e.key, e.value));
    }
    for e in &snap.gauges {
        type_line(&mut out, &e.name, "gauge");
        out.push_str(&format!("{} {}\n", e.key, fmt_f64(e.value)));
    }
    for e in &snap.histograms {
        type_line(&mut out, &e.name, "summary");
        for q in ["0.5", "0.95", "0.99"] {
            let qv = e.value.quantile(q.parse().unwrap_or(0.5));
            out.push_str(&format!(
                "{} {}\n",
                key_with_label(&e.name, &e.labels, ("quantile", q)),
                fmt_f64(qv)
            ));
        }
        out.push_str(&format!(
            "{} {}\n",
            key_suffixed(&e.name, &e.labels, "_sum"),
            fmt_f64(e.value.sum())
        ));
        out.push_str(&format!(
            "{} {}\n",
            key_suffixed(&e.name, &e.labels, "_count"),
            e.value.count()
        ));
    }
    out
}

/// JSON registry dump (the `results/bench_obs.json` format): three
/// sorted maps — counters, gauges, histogram summaries. 2-space
/// indented, keys escaped, floats shortest round-trip.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    push_map(&mut out, snap.counters.iter().map(|e| (e.key.as_str(), e.value.to_string())));
    out.push_str(",\n  \"gauges\": {");
    push_map(&mut out, snap.gauges.iter().map(|e| (e.key.as_str(), fmt_f64(e.value))));
    out.push_str(",\n  \"histograms\": {");
    push_map(
        &mut out,
        snap.histograms.iter().map(|e| {
            let h = &e.value;
            let body = format!(
                "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                h.count(),
                fmt_f64(h.sum()),
                fmt_f64(h.mean()),
                fmt_f64(h.quantile(0.5)),
                fmt_f64(h.quantile(0.95)),
                fmt_f64(h.quantile(0.99)),
                fmt_f64(h.max()),
            );
            (e.key.as_str(), body)
        }),
    );
    out.push_str("\n}\n");
    out
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", json_escape(key), value));
    }
    if first {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::registry::Registry;
    use std::sync::Arc;

    fn sample_registry() -> Arc<Registry> {
        let clock = Arc::new(ManualClock::with_tick(1_000));
        let reg = Arc::new(Registry::with_clock(clock as Arc<dyn Clock>));
        reg.counter("obs_demo_total").add(7);
        reg.gauge_with("obs_demo_ratio", &[("kind", "test")]).set(0.5);
        let h = reg.histogram("obs_demo_seconds");
        for v in [0.001, 0.002, 0.003] {
            h.observe(v);
        }
        reg
    }

    #[test]
    fn exports_are_deterministic() {
        let reg = sample_registry();
        let snap = reg.snapshot();
        assert_eq!(to_prometheus(&snap), to_prometheus(&snap));
        assert_eq!(to_json(&snap), to_json(&snap));
    }

    #[test]
    fn prometheus_has_types_and_quantiles() {
        let text = to_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE obs_demo_total counter"));
        assert!(text.contains("obs_demo_total 7"));
        assert!(text.contains("# TYPE obs_demo_ratio gauge"));
        assert!(text.contains("obs_demo_ratio{kind=\"test\"} 0.5"));
        assert!(text.contains("obs_demo_seconds{quantile=\"0.5\"} 0.002"));
        assert!(text.contains("obs_demo_seconds_count 3"));
    }

    #[test]
    fn json_is_structured_and_escaped() {
        let text = to_json(&sample_registry().snapshot());
        assert!(text.contains("\"obs_demo_total\": 7"));
        assert!(text.contains("\"obs_demo_ratio{kind=\\\"test\\\"}\": 0.5"));
        assert!(text.contains("\"p95\": 0.003"));
    }
}
