//! Violation records and report formatting, including the
//! byte-deterministic JSON report (`results/lint_report.json`).

use std::fmt;

use crate::rules::Artifacts;

/// One lint violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (kebab-case, one of [`crate::rules::RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description, including the remedy.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.msg)
        } else {
            write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
        }
    }
}

/// Render a per-rule violation summary, e.g. `determinism: 2`.
pub fn summary(violations: &[Violation], rule_names: &[&'static str]) -> String {
    let mut out = String::new();
    for rule in rule_names {
        let n = violations.iter().filter(|v| v.rule == *rule).count();
        if n > 0 {
            out.push_str(&format!("  {rule}: {n}\n"));
        }
    }
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the full lint report as byte-deterministic JSON: keys sorted
/// at every level, arrays in the already-sorted orders produced by
/// [`crate::rules::run_analysis`], no timestamps. Two runs over the
/// same tree produce identical bytes (`tier1.sh` enforces this with a
/// run-twice `cmp`).
pub fn render_json(
    files: usize,
    enabled: &[&str],
    violations: &[Violation],
    art: &Artifacts,
) -> String {
    let mut o = String::new();
    o.push_str("{\n");
    // call_graph
    o.push_str(&format!(
        "  \"call_graph\": {{\"edges\": {}, \"fns\": {}}},\n",
        art.graph_edges, art.graph_fns
    ));
    o.push_str(&format!("  \"files\": {files},\n"));
    // lock_edges
    o.push_str("  \"lock_edges\": [");
    for (i, (from, to, witness)) in art.lock_edges.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        o.push_str(&format!(
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"witness\": \"{}\"}}",
            esc(from),
            esc(to),
            esc(witness)
        ));
    }
    o.push_str(if art.lock_edges.is_empty() { "],\n" } else { "\n  ],\n" });
    // lock_sites
    o.push_str("  \"lock_sites\": [");
    for (i, (lock, path, line)) in art.lock_sites.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        o.push_str(&format!(
            "    {{\"line\": {line}, \"lock\": \"{}\", \"path\": \"{}\"}}",
            esc(lock),
            esc(path)
        ));
    }
    o.push_str(if art.lock_sites.is_empty() { "],\n" } else { "\n  ],\n" });
    // rules
    o.push_str(&format!(
        "  \"rules\": [{}],\n",
        enabled.iter().map(|r| format!("\"{}\"", esc(r))).collect::<Vec<_>>().join(", ")
    ));
    // violation_counts (every enabled rule, zeroes included)
    o.push_str("  \"violation_counts\": {");
    for (i, rule) in enabled.iter().enumerate() {
        let n = violations.iter().filter(|v| v.rule == *rule).count();
        o.push_str(if i == 0 { "" } else { ", " });
        o.push_str(&format!("\"{}\": {n}", esc(rule)));
    }
    o.push_str("},\n");
    // violations
    o.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        o.push_str(&format!(
            "    {{\"line\": {}, \"msg\": \"{}\", \"path\": \"{}\", \"rule\": \"{}\"}}",
            v.line,
            esc(&v.msg),
            esc(&v.path),
            esc(v.rule)
        ));
    }
    o.push_str(if violations.is_empty() { "]\n" } else { "\n  ]\n" });
    o.push_str("}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_with_and_without_line() {
        let v = Violation { rule: "determinism", path: "a.rs".into(), line: 3, msg: "m".into() };
        assert_eq!(v.to_string(), "a.rs:3: [determinism] m");
        let v0 = Violation { rule: "whitespace", path: "a.rs".into(), line: 0, msg: "m".into() };
        assert_eq!(v0.to_string(), "a.rs: [whitespace] m");
    }

    #[test]
    fn summary_counts_by_rule() {
        let vs = vec![
            Violation { rule: "determinism", path: "a.rs".into(), line: 1, msg: String::new() },
            Violation { rule: "determinism", path: "b.rs".into(), line: 1, msg: String::new() },
        ];
        let s = summary(&vs, &["determinism", "whitespace"]);
        assert!(s.contains("determinism: 2"));
        assert!(!s.contains("whitespace"));
    }

    #[test]
    fn json_report_is_byte_deterministic_and_escaped() {
        let vs = vec![Violation {
            rule: "lock-order",
            path: "crates/a/src/x.rs".into(),
            line: 3,
            msg: "has \"quotes\" and\nnewline".into(),
        }];
        let art = Artifacts::default();
        let a = render_json(10, &["lock-order"], &vs, &art);
        let b = render_json(10, &["lock-order"], &vs, &art);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quotes\\\" and\\nnewline"), "{a}");
        assert!(a.contains("\"violation_counts\": {\"lock-order\": 1}"), "{a}");
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn json_report_empty_arrays_stay_on_one_line() {
        let art = Artifacts::default();
        let s = render_json(0, &[], &[], &art);
        assert!(s.contains("\"lock_sites\": [],"), "{s}");
        assert!(s.contains("\"violations\": []\n"), "{s}");
    }
}
