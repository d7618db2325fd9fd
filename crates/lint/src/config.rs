//! `lint.toml` parsing: per-rule allowlists with mandatory reasons.
//!
//! The workspace is offline (no serde/toml crates — see
//! `third_party/README.md`), so this module hand-parses the small TOML
//! subset the linter needs:
//!
//! ```toml
//! # comment
//! [allow.determinism]
//! "crates/obs/src/clock.rs" = "the one sanctioned wall-clock read"
//! ```
//!
//! A section `[allow.<rule>]` opens the allowlist for one rule; each
//! entry maps a key (usually a workspace-relative path, for api-parity a
//! function name) to a human-readable reason. Keys and reasons are
//! quoted strings with `\"` and `\\` escapes. [`LintConfig::to_toml`]
//! writes the same canonical form [`LintConfig::parse`] reads, and a
//! proptest asserts the round-trip.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed allowlist configuration: rule name → (key → reason).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Allow entries per rule, in canonical (sorted) order.
    pub allow: BTreeMap<String, BTreeMap<String, String>>,
}

impl LintConfig {
    /// Load from a file; a missing file yields the empty config.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LintConfig::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parse the `lint.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        let mut current: Option<String> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[') {
                let inner = inner
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
                let rule = inner.strip_prefix("allow.").ok_or_else(|| {
                    format!("line {lineno}: expected [allow.<rule>], got [{inner}]")
                })?;
                if rule.is_empty()
                    || !rule.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    return Err(format!(
                        "line {lineno}: rule name must be kebab-case, got {rule:?}"
                    ));
                }
                cfg.allow.entry(rule.to_string()).or_default();
                current = Some(rule.to_string());
                continue;
            }
            let rule = current
                .as_ref()
                .ok_or_else(|| format!("line {lineno}: entry before any [allow.<rule>] section"))?;
            let (key, rest) = parse_quoted(line)
                .ok_or_else(|| format!("line {lineno}: expected quoted key"))?;
            let rest = rest.trim_start();
            let rest = rest
                .strip_prefix('=')
                .ok_or_else(|| format!("line {lineno}: expected `=` after key"))?
                .trim_start();
            let (reason, tail) = parse_quoted(rest)
                .ok_or_else(|| format!("line {lineno}: expected quoted reason"))?;
            if !tail.trim().is_empty() {
                return Err(format!("line {lineno}: trailing junk after entry"));
            }
            if let Some(entries) = cfg.allow.get_mut(rule) {
                entries.insert(key, reason);
            }
        }
        Ok(cfg)
    }

    /// Write the canonical textual form (parse ∘ to_toml = identity).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for (rule, entries) in &self.allow {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("[allow.{rule}]\n"));
            for (key, reason) in entries {
                out.push_str(&format!("{} = {}\n", quote(key), quote(reason)));
            }
        }
        out
    }

    /// Is `key` allowlisted for `rule`?
    pub fn is_allowed(&self, rule: &str, key: &str) -> bool {
        self.allow.get(rule).is_some_and(|m| m.contains_key(key))
    }
}

/// Quote a string with `\\` and `\"` escapes.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a leading quoted string; returns (unescaped value, rest).
fn parse_quoted(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, '\\')) => value.push('\\'),
                Some((_, '"')) => value.push('"'),
                _ => return None,
            },
            '"' => return Some((value, &rest[i + 1..])),
            c => value.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_entries() {
        let text = "# header\n\n[allow.determinism]\n\"a/b.rs\" = \"timing\"\n\n[allow.api-parity]\n\"f_into\" = \"internal\"\n";
        let cfg = LintConfig::parse(text).expect("parse");
        assert!(cfg.is_allowed("determinism", "a/b.rs"));
        assert!(cfg.is_allowed("api-parity", "f_into"));
        assert!(!cfg.is_allowed("determinism", "f_into"));
    }

    #[test]
    fn escapes_round_trip() {
        let mut cfg = LintConfig::default();
        cfg.allow
            .entry("whitespace".into())
            .or_default()
            .insert("we\\ird \"path\".rs".into(), "rea\\so\"n".into());
        let text = cfg.to_toml();
        assert_eq!(LintConfig::parse(&text).expect("reparse"), cfg);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(LintConfig::parse("\"k\" = \"v\"").is_err(), "entry before section");
        assert!(LintConfig::parse("[allow.Bad]").is_err(), "non-kebab rule");
        assert!(LintConfig::parse("[determinism]").is_err(), "missing allow. prefix");
        assert!(LintConfig::parse("[allow.x]\n\"k\" \"v\"").is_err(), "missing =");
        assert!(LintConfig::parse("[allow.x]\n\"k\" = \"v\" extra").is_err(), "trailing junk");
    }

    #[test]
    fn missing_file_is_empty_config() {
        let cfg = LintConfig::load(Path::new("/nonexistent/lint.toml")).expect("load");
        assert_eq!(cfg, LintConfig::default());
    }
}
