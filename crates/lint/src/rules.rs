//! The invariant rules (DESIGN.md §11).
//!
//! Each rule is a pure function from scanned sources (plus the parsed
//! allowlist) to a list of [`Violation`]s, so the golden-fixture suite
//! can drive them with synthetic paths and the binary with the real
//! workspace.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::graph::CallGraph;
use crate::locks::{self, LockAnalysis};
use crate::report::Violation;
use crate::scanner::{tokenize, Token};

/// A scanned workspace source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (e.g. `crates/nn/src/lib.rs`).
    pub path: String,
    /// Raw file contents (whitespace rule, opt-out markers).
    pub raw: String,
    /// Token stream from [`tokenize`].
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Scan `raw` under the given workspace-relative `path`.
    pub fn new(path: impl Into<String>, raw: impl Into<String>) -> SourceFile {
        let raw = raw.into();
        let tokens = tokenize(&raw);
        SourceFile { path: path.into(), raw, tokens }
    }
}

/// All rule names, in report order. The last two are the v2
/// cross-function rules (DESIGN.md §16) built on [`crate::graph`] and
/// [`crate::locks`].
pub const RULE_NAMES: &[&str] = &[
    "determinism",
    "metric-naming",
    "panic-surface",
    "api-parity",
    "unsafe-budget",
    "doc-coverage",
    "whitespace",
    "lock-order",
    "blocking-under-lock",
];

/// The rules that need the workspace call graph / lock analysis.
pub const GRAPH_RULES: &[&str] = &["lock-order", "blocking-under-lock"];

/// Crates whose numerics must be bit-reproducible: no ambient clocks or
/// ambient RNG (DESIGN.md §9/§11). `obs` is here so that the *only*
/// wall-clock read in the workspace is the allowlisted
/// `MonotonicClock` in `crates/obs/src/clock.rs` — everything else
/// must go through an injected [`cc19_obs::Clock`].
pub const DETERMINISM_CRATES: &[&str] =
    &["tensor", "kernels", "nn", "ddnet", "ctsim", "obs", "monitor"];

/// Registry constructor methods whose first argument is a metric name
/// (the `cc19-obs` registration surface). When that argument is a string
/// literal, the metric-naming rule validates it.
pub const METRIC_CTORS: &[&str] = &[
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
    "histogram_with_bounds",
    "timer",
    "timer_with",
];

/// Tracing constructors whose call carries a span-path string literal
/// (the `cc19-obs` trace surface — the path is not always the
/// first argument, so the extractor takes the first literal in the
/// call). When present, the metric-naming rule validates it as a
/// dotted, crate-prefixed span path (DESIGN.md §17).
pub const SPAN_CTORS: &[&str] = &["trace_child", "trace_record"];

/// Paths that must stay panic-free and use typed errors: the
/// fault-tolerant link and transport, the whole serving dispatch crate,
/// and checkpoint I/O.
pub const PANIC_PATHS: &[&str] = &[
    "crates/dist/src/link.rs",
    "crates/dist/src/transport.rs",
    "crates/serve/src/",
    "crates/nn/src/checkpoint.rs",
    "crates/monitor/src/",
];

/// The per-file `unsafe` opt-out marker (must appear verbatim, typically
/// in a comment near the top of the file, with a reason string).
pub const UNSAFE_OPT_OUT: &str = "cc19-lint: allow(unsafe";

/// Token patterns a rule bans.
enum Needle {
    /// `A::B` path tail (matches any longer prefix, e.g. `std::time::A::B`).
    Path(&'static [&'static str]),
    /// `.name(` method call.
    Method(&'static str),
    /// `name!` macro invocation.
    Macro(&'static str),
    /// Bare identifier.
    Ident(&'static str),
}

impl Needle {
    fn matches_at(&self, toks: &[Token], i: usize) -> bool {
        let text = |k: usize| toks.get(k).map(|t| t.text.as_str());
        match self {
            Needle::Path(parts) => {
                let mut k = i;
                for (n, part) in parts.iter().enumerate() {
                    if text(k) != Some(part) {
                        return false;
                    }
                    k += 1;
                    if n + 1 < parts.len() {
                        if text(k) != Some(":") || text(k + 1) != Some(":") {
                            return false;
                        }
                        k += 2;
                    }
                }
                true
            }
            Needle::Method(name) => {
                text(i) == Some(".") && text(i + 1) == Some(name) && text(i + 2) == Some("(")
            }
            Needle::Macro(name) => text(i) == Some(name) && text(i + 1) == Some("!"),
            Needle::Ident(name) => text(i) == Some(name),
        }
    }

    fn describe(&self) -> String {
        match self {
            Needle::Path(parts) => parts.join("::"),
            Needle::Method(name) => format!(".{name}()"),
            Needle::Macro(name) => format!("{name}!"),
            Needle::Ident(name) => (*name).to_string(),
        }
    }
}

/// Scan non-test tokens for any needle; returns (line, description) hits.
fn find_needles(toks: &[Token], needles: &[Needle]) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        for n in needles {
            if n.matches_at(toks, i) {
                hits.push((toks[i].line, n.describe()));
            }
        }
    }
    hits
}

/// Cross-function analysis artifacts, surfaced in the JSON report.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// Function definitions in the call graph.
    pub graph_fns: usize,
    /// Resolved call edges.
    pub graph_edges: usize,
    /// Lock acquisition sites `(lock, path, line)`, sorted.
    pub lock_sites: Vec<(String, String, usize)>,
    /// May-hold-while-acquiring edges `(from, to, witness)`, sorted.
    pub lock_edges: Vec<(String, String, String)>,
}

/// Run the `enabled` subset of rules over the scanned workspace.
///
/// `manifests` are `(path, contents)` pairs for the root `Cargo.toml`
/// and every `crates/*/Cargo.toml` (doc-coverage rule); token rules use
/// `files` only.
pub fn run_rules(
    enabled: &[&str],
    files: &[SourceFile],
    manifests: &[(String, String)],
    cfg: &LintConfig,
) -> Vec<Violation> {
    run_analysis(enabled, files, manifests, cfg).0
}

/// [`run_rules`] plus the cross-function [`Artifacts`] for the report.
pub fn run_analysis(
    enabled: &[&str],
    files: &[SourceFile],
    manifests: &[(String, String)],
    cfg: &LintConfig,
) -> (Vec<Violation>, Artifacts) {
    let mut v = Vec::new();
    if enabled.contains(&"determinism") {
        v.extend(determinism(files, cfg));
    }
    if enabled.contains(&"metric-naming") {
        v.extend(metric_naming(files, cfg));
    }
    if enabled.contains(&"panic-surface") {
        v.extend(panic_surface(files, cfg));
    }
    if enabled.contains(&"api-parity") {
        v.extend(api_parity(files, cfg));
    }
    if enabled.contains(&"unsafe-budget") {
        v.extend(unsafe_budget(files, cfg));
    }
    if enabled.contains(&"doc-coverage") {
        v.extend(doc_coverage(manifests));
    }
    if enabled.contains(&"whitespace") {
        v.extend(whitespace(files));
    }
    let mut artifacts = Artifacts::default();
    if GRAPH_RULES.iter().any(|r| enabled.contains(r)) {
        let graph = CallGraph::build(files);
        let analysis = locks::analyze(files, &graph);
        artifacts.graph_fns = graph.fns.len();
        artifacts.graph_edges = graph.edge_count();
        artifacts.lock_sites = analysis.sites.clone();
        artifacts.lock_edges = analysis
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone(), e.witness.join(" → ")))
            .collect();
        if enabled.contains(&"lock-order") {
            v.extend(lock_order(&analysis, cfg));
        }
        if enabled.contains(&"blocking-under-lock") {
            v.extend(blocking_under_lock(&analysis, cfg));
        }
    }
    v.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (v, artifacts)
}

/// Which deterministic crate (if any) owns this path?
fn determinism_crate(path: &str) -> Option<&'static str> {
    DETERMINISM_CRATES
        .iter()
        .find(|c| path.strip_prefix("crates/").and_then(|p| p.strip_prefix(**c)).is_some_and(|p| p.starts_with('/')))
        .copied()
}

fn determinism(files: &[SourceFile], cfg: &LintConfig) -> Vec<Violation> {
    let needles = [
        Needle::Path(&["Instant", "now"]),
        Needle::Path(&["SystemTime", "now"]),
        Needle::Path(&["rand", "random"]),
        Needle::Ident("thread_rng"),
        Needle::Ident("from_entropy"),
    ];
    let mut out = Vec::new();
    for f in files {
        let Some(krate) = determinism_crate(&f.path) else { continue };
        if cfg.is_allowed("determinism", &f.path) {
            continue;
        }
        for (line, what) in find_needles(&f.tokens, &needles) {
            out.push(Violation {
                rule: "determinism",
                path: f.path.clone(),
                line,
                msg: format!(
                    "`{what}` is ambient nondeterministic state, banned in the \
                     bit-reproducible `{krate}` crate; seed/clock explicitly or \
                     allowlist this file in lint.toml with a reason"
                ),
            });
        }
    }
    out
}

/// Is `name` a legal metric name for a crate with registration prefix
/// `prefix` (snake_case, crate-prefixed — DESIGN.md §12)?
fn is_valid_metric_name(name: &str, prefix: &str) -> bool {
    let snake = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    snake && name.starts_with(prefix)
}

/// Is `path` a legal span path for crate `krate` — dotted snake_case
/// with the crate name as its first segment (`serve.cluster.wire`,
/// `monitor.cache`), at least two segments (DESIGN.md §17)?
fn is_valid_span_path(path: &str, krate: &str) -> bool {
    let seg_ok = |s: &str| {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut segs = path.split('.');
    let Some(first) = segs.next() else { return false };
    if first != krate.replace('-', "_") || !seg_ok(first) {
        return false;
    }
    let mut rest = 0usize;
    for s in segs {
        if !seg_ok(s) {
            return false;
        }
        rest += 1;
    }
    rest >= 1
}

/// Extract `(ctor, path)` pairs from `window`: every [`SPAN_CTORS`]
/// call starting within the first `limit` bytes whose balanced-paren
/// argument list carries a string literal — the first such literal is
/// the span path (`trace_child(ctx, "serve.enhance", t0, t1)` puts it
/// second).
fn extract_span_paths(window: &str, limit: usize) -> Vec<(&'static str, &str)> {
    let bytes = window.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    for &ctor in SPAN_CTORS {
        let mut from = 0usize;
        while let Some(pos) = window[from..].find(ctor) {
            let at = from + pos;
            from = at + 1;
            if at >= limit || (at > 0 && ident(bytes[at - 1])) {
                continue;
            }
            let mut j = at + ctor.len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) != Some(&b'(') || ident(*bytes.get(at + ctor.len()).unwrap_or(&b' ')) {
                continue;
            }
            // Scan the balanced argument extent for the first literal.
            let mut depth = 1usize;
            j += 1;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b'"' => {
                        let lit = j + 1;
                        if let Some(end) = window[lit..].find('"') {
                            out.push((ctor, &window[lit..lit + end]));
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    out
}

/// Extract `(ctor, name)` pairs from `window`: every [`METRIC_CTORS`]
/// call whose first argument is a string literal, where the call starts
/// within the first `limit` bytes (the literal itself may continue past
/// `limit`, e.g. onto a rustfmt-wrapped next line).
fn extract_metric_names(window: &str, limit: usize) -> Vec<(&'static str, &str)> {
    let bytes = window.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    for &ctor in METRIC_CTORS {
        let mut from = 0usize;
        while let Some(pos) = window[from..].find(ctor) {
            let at = from + pos;
            from = at + 1;
            if at >= limit || (at > 0 && ident(bytes[at - 1])) {
                continue;
            }
            let mut j = at + ctor.len();
            // `counter` must not match inside `counter_with`: the very
            // next non-whitespace byte has to open the call.
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) != Some(&b'(') {
                continue;
            }
            j += 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) != Some(&b'"') {
                continue; // dynamic name or a definition site: no obligation
            }
            let lit = j + 1;
            let Some(end) = window[lit..].find('"') else { continue };
            out.push((ctor, &window[lit..lit + end]));
        }
    }
    out
}

fn metric_naming(files: &[SourceFile], cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        let Some(krate) = crate_of(&f.path) else { continue };
        if f.path.contains("/tests/") || f.path.contains("/benches/") {
            continue;
        }
        if cfg.is_allowed("metric-naming", &f.path) {
            continue;
        }
        let prefix = format!("{}_", krate.replace('-', "_"));
        // Lines holding a live (non-test) registration call. The name
        // literal is invisible to the token stream (the scanner strips
        // strings precisely so rules can't be fooled by them), so it is
        // re-extracted from the raw text of those lines only.
        let mut lines: BTreeSet<usize> = BTreeSet::new();
        for (i, t) in f.tokens.iter().enumerate() {
            if !t.in_test
                && METRIC_CTORS.contains(&t.text.as_str())
                && f.tokens.get(i + 1).is_some_and(|n| n.text == "(")
            {
                lines.insert(t.line);
            }
        }
        let raw_lines: Vec<&str> = f.raw.lines().collect();
        for &line in &lines {
            let Some(first) = raw_lines.get(line - 1) else { continue };
            let window: String = raw_lines[line - 1..raw_lines.len().min(line + 1)].join("\n");
            for (ctor, name) in extract_metric_names(&window, first.len() + 1) {
                if !is_valid_metric_name(name, &prefix) {
                    out.push(Violation {
                        rule: "metric-naming",
                        path: f.path.clone(),
                        line,
                        msg: format!(
                            "metric name \"{name}\" (registered via `{ctor}`) must be \
                             snake_case with the `{prefix}` crate prefix (DESIGN.md §12); \
                             rename it or allowlist this file in lint.toml with a reason"
                        ),
                    });
                }
            }
        }
        // Same gate, extended to the tracing surface: span-path
        // literals recorded through the cc19-obs trace ctors must
        // be dotted snake_case under the crate's own namespace, so one
        // request's tree reads uniformly across broker, cluster wire,
        // and monitor cache spans (DESIGN.md §17). The window extends a
        // few lines because rustfmt puts the path argument of a
        // wrapped `trace_record` call on its own line.
        let mut span_lines: BTreeSet<usize> = BTreeSet::new();
        for (i, t) in f.tokens.iter().enumerate() {
            if !t.in_test
                && SPAN_CTORS.contains(&t.text.as_str())
                && f.tokens.get(i + 1).is_some_and(|n| n.text == "(")
            {
                span_lines.insert(t.line);
            }
        }
        for &line in &span_lines {
            let Some(first) = raw_lines.get(line - 1) else { continue };
            let window: String = raw_lines[line - 1..raw_lines.len().min(line + 3)].join("\n");
            for (ctor, path) in extract_span_paths(&window, first.len() + 1) {
                if !is_valid_span_path(path, krate) {
                    out.push(Violation {
                        rule: "metric-naming",
                        path: f.path.clone(),
                        line,
                        msg: format!(
                            "span path \"{path}\" (recorded via `{ctor}`) must be dotted \
                             snake_case with the `{krate}.` crate prefix (DESIGN.md §17); \
                             rename it or allowlist this file in lint.toml with a reason"
                        ),
                    });
                }
            }
        }
    }
    out
}

fn panic_surface(files: &[SourceFile], cfg: &LintConfig) -> Vec<Violation> {
    let needles = [
        Needle::Method("unwrap"),
        Needle::Method("expect"),
        Needle::Macro("panic"),
        Needle::Macro("unreachable"),
        Needle::Macro("todo"),
        Needle::Macro("unimplemented"),
    ];
    let mut out = Vec::new();
    for f in files {
        if !PANIC_PATHS.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        if cfg.is_allowed("panic-surface", &f.path) {
            continue;
        }
        for (line, what) in find_needles(&f.tokens, &needles) {
            out.push(Violation {
                rule: "panic-surface",
                path: f.path.clone(),
                line,
                msg: format!(
                    "`{what}` in a fault-tolerant path; return the module's typed \
                     error instead (recoverable failures must reach the caller)"
                ),
            });
        }
    }
    out
}

/// `crates/<name>/…` → `<name>`.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/").and_then(|p| p.split('/').next())
}

/// Is the `fn` keyword at token index `i` part of a `pub` item?
fn fn_is_pub(toks: &[Token], i: usize) -> bool {
    // Walk back over qualifiers (`const`, `unsafe`, `async`, `extern`,
    // an ABI string is stripped already) and a `pub(...)` group.
    let mut k = i;
    for _ in 0..8 {
        if k == 0 {
            return false;
        }
        k -= 1;
        match toks[k].text.as_str() {
            "const" | "unsafe" | "async" | "extern" => continue,
            ")" => {
                // Walk back to the matching `(`.
                let mut depth = 1usize;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match toks[k].text.as_str() {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            "pub" => return true,
            _ => return false,
        }
    }
    false
}

fn api_parity(files: &[SourceFile], cfg: &LintConfig) -> Vec<Violation> {
    // Per crate: all fn names, the test-corpus ident set, and the
    // public `*_into` definition sites.
    let mut fns: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut corpus: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut defs: Vec<(&str, &str, &SourceFile, usize)> = Vec::new();
    for f in files {
        let Some(krate) = crate_of(&f.path) else { continue };
        let in_tests_dir = f.path.contains("/tests/");
        for (i, t) in f.tokens.iter().enumerate() {
            if t.in_test || in_tests_dir {
                corpus.entry(krate).or_default().insert(t.text.as_str());
            }
            if t.text == "fn" {
                if let Some(name) = f.tokens.get(i + 1) {
                    fns.entry(krate).or_default().insert(name.text.as_str());
                    if !t.in_test
                        && !in_tests_dir
                        && name.text.len() > "_into".len()
                        && name.text.ends_with("_into")
                        && fn_is_pub(&f.tokens, i)
                    {
                        defs.push((krate, name.text.as_str(), f, name.line));
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (krate, name, f, line) in defs {
        if cfg.is_allowed("api-parity", name) {
            continue;
        }
        let base = &name[..name.len() - "_into".len()];
        let has_twin = fns.get(krate).is_some_and(|s| s.contains(base));
        if !has_twin {
            out.push(Violation {
                rule: "api-parity",
                path: f.path.clone(),
                line,
                msg: format!(
                    "pub fn `{name}` has no allocating twin `fn {base}` in crate \
                     `{krate}`; every buffer-reuse variant needs one (or an \
                     api-parity allowlist entry keyed by function name)"
                ),
            });
            continue;
        }
        let tested = corpus
            .get(krate)
            .is_some_and(|s| s.contains(name) && s.contains(base));
        if !tested {
            out.push(Violation {
                rule: "api-parity",
                path: f.path.clone(),
                line,
                msg: format!(
                    "parity pair `{base}`/`{name}` is not named together in any \
                     test of crate `{krate}`; add a bit-identity parity test"
                ),
            });
        }
    }
    out
}

fn unsafe_budget(files: &[SourceFile], cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if cfg.is_allowed("unsafe-budget", &f.path) || f.raw.contains(UNSAFE_OPT_OUT) {
            continue;
        }
        for t in &f.tokens {
            if t.text == "unsafe" {
                out.push(Violation {
                    rule: "unsafe-budget",
                    path: f.path.clone(),
                    line: t.line,
                    msg: format!(
                        "the workspace is `unsafe`-free by policy; opt this file \
                         out explicitly with `// {UNSAFE_OPT_OUT}, \"reason\")`"
                    ),
                });
            }
        }
    }
    out
}

/// Does `section` in this manifest contain `needle`?
fn manifest_section_contains(manifest: &str, section: &str, needle: &str) -> bool {
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if in_section && line.starts_with(needle) {
            return true;
        }
    }
    false
}

fn doc_coverage(manifests: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (path, text) in manifests {
        if path == "Cargo.toml" {
            if !manifest_section_contains(text, "[workspace.lints.rust]", "missing_docs") {
                out.push(Violation {
                    rule: "doc-coverage",
                    path: path.clone(),
                    line: 0,
                    msg: "root manifest must carry `missing_docs` in \
                          [workspace.lints.rust] (the enforced doc-coverage floor)"
                        .into(),
                });
            }
        } else if !manifest_section_contains(text, "[lints]", "workspace = true") {
            out.push(Violation {
                rule: "doc-coverage",
                path: path.clone(),
                line: 0,
                msg: "crate must opt into the shared lint table: add a [lints] \
                      section with `workspace = true`"
                    .into(),
            });
        }
    }
    out
}

fn whitespace(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        let mut push = |line: usize, msg: &str| {
            out.push(Violation { rule: "whitespace", path: f.path.clone(), line, msg: msg.into() });
        };
        for (idx, line) in f.raw.lines().enumerate() {
            let n = idx + 1;
            if line.contains('\r') {
                push(n, "carriage return (CRLF line ending)");
                continue;
            }
            if line != line.trim_end() {
                push(n, "trailing whitespace");
            }
            let indent: &str = &line[..line.len() - line.trim_start().len()];
            if indent.contains('\t') {
                push(n, "tab indentation (use spaces)");
            }
        }
        if !f.raw.is_empty() && !f.raw.ends_with('\n') {
            push(f.raw.lines().count(), "missing final newline");
        }
    }
    out
}

fn lock_order(analysis: &LockAnalysis, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for cycle in locks::find_cycles(&analysis.edges) {
        // Describe each leg of the cycle with its witnessing edge.
        let mut legs = Vec::new();
        let mut anchor: Option<(&str, usize)> = None;
        for k in 0..cycle.len() {
            let from = &cycle[k];
            let to = &cycle[(k + 1) % cycle.len()];
            if let Some(e) =
                analysis.edges.iter().find(|e| &e.from == from && &e.to == to)
            {
                legs.push(format!(
                    "`{from}` → `{to}` via {} ({}:{})",
                    e.witness.join(" → "),
                    e.path,
                    e.line
                ));
                if anchor.is_none() {
                    anchor = Some((&e.path, e.line));
                }
            }
        }
        let Some((path, line)) = anchor else { continue };
        if cfg.is_allowed("lock-order", path) {
            continue;
        }
        let ring: Vec<&str> = cycle.iter().map(String::as_str).collect();
        out.push(Violation {
            rule: "lock-order",
            path: path.to_string(),
            line,
            msg: format!(
                "lock-order cycle `{}` → `{}`: {}; a thread interleaving can \
                 deadlock — impose a single acquisition order (see the rank \
                 table in crates/serve/src/sync.rs)",
                ring.join("` → `"),
                cycle[0],
                legs.join("; ")
            ),
        });
    }
    out
}

fn blocking_under_lock(analysis: &LockAnalysis, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for hit in &analysis.blocking {
        if cfg.is_allowed("blocking-under-lock", &hit.path) {
            continue;
        }
        out.push(Violation {
            rule: "blocking-under-lock",
            path: hit.path.clone(),
            line: hit.line,
            msg: format!(
                "`{}` while holding `{}` (via {}): a blocked holder stalls \
                 every other thread on that lock — drop the guard before \
                 blocking, or move the wait out of the critical section",
                hit.what,
                hit.lock,
                hit.witness.join(" → ")
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: &str, path: &str, src: &str) -> Vec<Violation> {
        let files = [SourceFile::new(path, src)];
        run_rules(&[rule], &files, &[], &LintConfig::default())
    }

    #[test]
    fn determinism_scope_is_path_gated() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run("determinism", "crates/tensor/src/x.rs", src).len(), 1);
        assert!(run("determinism", "crates/serve/src/x.rs", src).is_empty(), "serve not gated");
        assert!(run("determinism", "crates/tensorx/src/x.rs", src).is_empty(), "prefix-safe");
    }

    #[test]
    fn metric_naming_checks_case_and_crate_prefix() {
        let bad = "fn f(reg: &R) { reg.counter(\"StepLoss\"); reg.gauge(\"tensor_lr\"); }\n";
        let v = run("metric-naming", "crates/ddnet/src/x.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].msg.contains("ddnet_"), "{v:?}");
        let ok = "fn f(reg: &R) { reg.counter(\"ddnet_steps_total\"); }\n";
        assert!(run("metric-naming", "crates/ddnet/src/x.rs", ok).is_empty());
    }

    #[test]
    fn span_path_naming_checks_prefix_dots_and_case() {
        // CamelCase segment and another crate's namespace both trip;
        // the path literal is the *second* argument of trace_child and
        // may sit on its own line in a rustfmt-wrapped call.
        let bad = "fn f(reg: &R, ctx: C) {\n\
                       reg.trace_child(ctx, \"Serve.Queue\", 0, 1);\n\
                       reg.trace_record(\n\
                           ctx,\n\
                           \"monitor.cache\",\n\
                           0, 1, S::Ok);\n\
                   }\n";
        let v = run("metric-naming", "crates/serve/src/x.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.msg.contains("serve.")), "{v:?}");
        // Dotted, crate-prefixed paths pass; a single-segment path (no
        // namespace under the crate) does not.
        let ok = "fn f(reg: &R, ctx: C) { reg.trace_child(ctx, \"serve.cluster.wire\", 0, 1); }\n";
        assert!(run("metric-naming", "crates/serve/src/x.rs", ok).is_empty());
        let flat = "fn f(reg: &R, ctx: C) { reg.trace_child(ctx, \"serve\", 0, 1); }\n";
        assert_eq!(run("metric-naming", "crates/serve/src/x.rs", flat).len(), 1);
    }

    #[test]
    fn span_path_naming_ignores_dynamic_paths_and_definitions() {
        let src = "impl Registry { pub fn trace_child(&self, ctx: C, path: &str) { x } }\n\
                   fn g(reg: &R, ctx: C, p: &str) { reg.trace_child(ctx, p, 0, 1); }\n";
        assert!(run("metric-naming", "crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn metric_naming_ignores_dynamic_names_and_definition_sites() {
        // A variable name carries no obligation; neither does the
        // registry's own `pub fn counter(&self, …)` definition.
        let src = "impl Registry { pub fn counter(&self, name: &str) -> Counter { x } }\n\
                   fn g(reg: &R, n: &str) { reg.counter(n); }\n";
        assert!(run("metric-naming", "crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn metric_naming_skips_test_code_and_test_files() {
        let in_test = "#[cfg(test)]\nmod t { fn f(r: &R) { r.counter(\"Bad\"); } }\n";
        assert!(run("metric-naming", "crates/ddnet/src/x.rs", in_test).is_empty());
        let bad = "fn helper(r: &R) { r.counter(\"Bad\"); }\n";
        assert!(run("metric-naming", "crates/ddnet/tests/x.rs", bad).is_empty());
    }

    #[test]
    fn metric_naming_reads_rustfmt_wrapped_literals() {
        let wrapped = "fn f(r: &R) {\n    r.histogram_with_bounds(\n        \"Wrong\",\n        &[],\n        B,\n    );\n}\n";
        let v = run("metric-naming", "crates/serve/src/x.rs", wrapped);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("\"Wrong\""), "{v:?}");
        assert!(v[0].msg.contains("serve_"), "{v:?}");
    }

    #[test]
    fn metric_naming_does_not_confuse_ctor_prefixes() {
        // `counter` must not fire on the `counter_with` call site, and the
        // labels argument must not be mistaken for the name.
        let ok = "fn f(r: &R) { r.counter_with(\"dist_faults_injected_total\", &[(\"kind\", \"drop\")]); }\n";
        assert!(run("metric-naming", "crates/dist/src/x.rs", ok).is_empty());
        let bad = "fn f(r: &R) { r.counter_with(\"Faults\", &[(\"kind\", \"drop\")]); }\n";
        assert_eq!(run("metric-naming", "crates/dist/src/x.rs", bad).len(), 1);
    }

    #[test]
    fn panic_surface_skips_test_tokens() {
        let src = "fn f() -> R { v.get(0) }\n#[cfg(test)]\nmod tests { fn t() { v.unwrap(); } }\n";
        assert!(run("panic-surface", "crates/serve/src/x.rs", src).is_empty());
        let bad = "fn f() { v.unwrap(); }\n";
        assert_eq!(run("panic-surface", "crates/serve/src/x.rs", bad).len(), 1);
    }

    #[test]
    fn panic_surface_covers_the_serve_cluster_module() {
        // The sharded cluster (router, node loop, wire protocol, weight
        // broadcast) lives under crates/serve/src/cluster/ and must stay
        // on the panic-free surface via the crates/serve/src/ prefix.
        for file in ["router.rs", "node.rs", "proto.rs", "ring.rs", "weights.rs", "mod.rs"] {
            let path = format!("crates/serve/src/cluster/{file}");
            assert!(
                PANIC_PATHS.iter().any(|p| path.starts_with(p)),
                "{path} fell off the panic-free surface"
            );
        }
        let bad = "fn f() { v.unwrap(); }\n";
        assert_eq!(run("panic-surface", "crates/serve/src/cluster/router.rs", bad).len(), 1);
    }

    #[test]
    fn monitor_crate_is_pinned_onto_both_rule_sets() {
        // The longitudinal-monitoring subsystem memoizes clinical
        // artifacts: its cache keys and burden numbers must be
        // bit-reproducible, and a panic in the cache path would take
        // down a serving replica mid-study.
        assert!(DETERMINISM_CRATES.contains(&"monitor"), "monitor fell off determinism");
        assert!(
            PANIC_PATHS.iter().any(|p| "crates/monitor/src/cache.rs".starts_with(p)),
            "crates/monitor/src/ fell off the panic-free surface"
        );
        let clocked = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run("determinism", "crates/monitor/src/timeline.rs", clocked).len(), 1);
        let bad = "fn f() { v.unwrap(); }\n";
        assert_eq!(run("panic-surface", "crates/monitor/src/cache.rs", bad).len(), 1);
        // tests and the demo example stay off the enforced surface
        assert!(run("panic-surface", "crates/monitor/tests/x.rs", bad).is_empty());
    }

    #[test]
    fn expect_field_access_is_not_a_call() {
        // `srv.expect[src]` (a field named `expect`) must not trip the rule.
        let src = "fn f() { let w = srv.expect[src]; }\n";
        assert!(run("panic-surface", "crates/dist/src/transport.rs", src).is_empty());
    }

    #[test]
    fn the_reliable_link_is_on_the_panic_surface() {
        let bad = "fn f() { v.unwrap(); }\n";
        assert_eq!(run("panic-surface", "crates/dist/src/link.rs", bad).len(), 1);
    }

    #[test]
    fn api_parity_requires_pub_and_twin_and_test() {
        // Private `_into` helpers carry no parity obligation.
        let private = "fn helper_into(a: &mut [f32]) {}\n";
        assert!(run("api-parity", "crates/tensor/src/x.rs", private).is_empty());
        // A pub one without a twin is a violation even when tested.
        let no_twin = "pub fn frob_into(d: &mut T) {}\n#[cfg(test)]\nmod t { fn p() { frob_into(x); frob(x); } }\n";
        let v = run("api-parity", "crates/tensor/src/x.rs", no_twin);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("no allocating twin"));
        // Twin present but never tested together.
        let untested = "pub fn frob_into(d: &mut T) {}\npub fn frob() -> T {}\n";
        let v = run("api-parity", "crates/tensor/src/x.rs", untested);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("parity test"));
        // Twin + parity test: clean.
        let ok = "pub fn frob_into(d: &mut T) {}\npub fn frob() -> T {}\n#[cfg(test)]\nmod t { fn p() { frob_into(x); frob(x); } }\n";
        assert!(run("api-parity", "crates/tensor/src/x.rs", ok).is_empty());
    }

    #[test]
    fn doc_coverage_checks_manifests() {
        let manifests = vec![
            ("Cargo.toml".to_string(), "[workspace.lints.rust]\nmissing_docs = \"warn\"\n".to_string()),
            ("crates/a/Cargo.toml".to_string(), "[package]\nname = \"a\"\n".to_string()),
            ("crates/b/Cargo.toml".to_string(), "[package]\n[lints]\nworkspace = true\n".to_string()),
        ];
        let v = run_rules(&["doc-coverage"], &[], &manifests, &LintConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].path, "crates/a/Cargo.toml");
    }

    #[test]
    fn whitespace_flags_each_kind() {
        let src = "fn a() {} \n\tlet x = 1;\nno_newline";
        let v = run("whitespace", "crates/data/src/x.rs", src);
        let msgs: Vec<&str> = v.iter().map(|x| x.msg.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("trailing")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("tab")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("final newline")), "{msgs:?}");
    }

    #[test]
    fn unsafe_budget_honors_opt_out_marker() {
        let bad = "pub fn f() { unsafe { core(); } }\n";
        assert_eq!(run("unsafe-budget", "crates/data/src/x.rs", bad).len(), 1);
        let opted = format!("// {UNSAFE_OPT_OUT}, \"simd kernel\")\n{bad}");
        assert!(run("unsafe-budget", "crates/data/src/x.rs", &opted).is_empty());
    }

    #[test]
    fn allowlist_suppresses_by_key() {
        let mut cfg = LintConfig::default();
        cfg.allow
            .entry("determinism".into())
            .or_default()
            .insert("crates/nn/src/x.rs".into(), "timing".into());
        let files = [SourceFile::new("crates/nn/src/x.rs", "fn f() { Instant::now(); }\n")];
        assert!(run_rules(&["determinism"], &files, &[], &cfg).is_empty());
    }

    #[test]
    fn lock_order_names_both_locks_and_the_witness() {
        let src = "impl P {\n    fn fwd(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n    fn bwd(&self) { let b = self.b.lock(); let a = self.a.lock(); }\n}\n";
        let v = run("lock-order", "crates/serve/src/pair.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("`pair::a`") && v[0].msg.contains("`pair::b`"), "{v:?}");
        assert!(v[0].msg.contains("fwd") && v[0].msg.contains("bwd"), "{v:?}");
        // Consistent ordering in both functions: no cycle.
        let ok = "impl P {\n    fn fwd(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n    fn again(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n}\n";
        assert!(run("lock-order", "crates/serve/src/pair.rs", ok).is_empty());
    }

    #[test]
    fn blocking_under_lock_flags_recv_but_not_condvar_waits() {
        let bad = "fn f(&self) {\n    let g = lock(&self.inner);\n    let v = self.rx.recv();\n    drop(g);\n}\n";
        let v = run("blocking-under-lock", "crates/serve/src/q.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains(".recv()") && v[0].msg.contains("q::inner"), "{v:?}");
        let ok = "fn f(&self) {\n    let mut g = lock(&self.inner);\n    while g.empty { g = wait(&self.cv, g); }\n}\n";
        assert!(run("blocking-under-lock", "crates/serve/src/q.rs", ok).is_empty());
    }
}
