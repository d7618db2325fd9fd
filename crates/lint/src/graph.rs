//! Token-level workspace call-graph extraction (DESIGN.md §16).
//!
//! Builds a cross-function view of the workspace from the
//! [`crate::scanner`] token stream: every function definition (with its
//! owning `impl` type and body token range), every syntactic call site
//! inside a body, and name-resolved call edges between them. The lock
//! rules traverse these edges to find acquisitions and blocking
//! operations reachable while a lock is held.
//!
//! This is deliberately *not* rustc name resolution. The documented
//! precision limits (DESIGN.md §16):
//!
//! * calls inside closures attribute to the enclosing named function;
//! * `Type::method(…)` resolves against `impl` owners tracked
//!   syntactically, and `module::func(…)` against file stems;
//! * `.method(…)` and bare `func(…)` calls resolve by name, preferring
//!   same-file, then same-crate, then any workspace definition — trait
//!   dispatch is name identity, so edges over-approximate;
//! * calls that resolve to nothing (std/vendored-shim functions) carry
//!   no edge; the lock model names the blocking ones by needle instead.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::SourceFile;
use crate::scanner::Token;

/// Reserved words never treated as call or function names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// One syntactic call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (the identifier directly before the `(`).
    pub name: String,
    /// `A` in `A::b(…)` (with `Self` already substituted by the impl
    /// owner); `None` for `.b(…)` and bare `b(…)` forms.
    pub qualifier: Option<String>,
    /// True for the `.b(…)` method-call form.
    pub method: bool,
    /// 1-based source line.
    pub line: usize,
    /// Token index of the callee name in the owning file.
    pub tok: usize,
    /// Resolved callee indices into [`CallGraph::fns`] (sorted, deduped;
    /// empty when the name resolves to nothing in the workspace).
    pub resolved: Vec<usize>,
}

/// One function definition found in the token stream.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Owning `impl` type when the definition sits inside an impl block.
    pub owner: Option<String>,
    /// Index into the scanned file slice.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Crate name (`crates/<name>/…`), or the first path segment.
    pub krate: String,
    /// True when the definition is test-only code (`#[cfg(test)]` /
    /// `#[test]` region or a `tests/` file).
    pub in_test: bool,
    /// Token range `[start, end]` of the body including both braces;
    /// `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body, in token order.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `path::name` (or `path::Owner::name`) — the stable display key.
    pub fn display(&self, files: &[SourceFile]) -> String {
        let stem = file_stem(&files[self.file].path);
        match &self.owner {
            Some(o) => format!("{stem}::{o}::{}", self.name),
            None => format!("{stem}::{}", self.name),
        }
    }
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every function definition, in (file, token) order.
    pub fns: Vec<FnDef>,
}

/// `crates/serve/src/broker.rs` → `broker`; `mod.rs` keeps its parent
/// directory name (`cluster/mod.rs` → `cluster`).
pub fn file_stem(path: &str) -> &str {
    let mut parts = path.rsplit('/');
    let base = parts.next().unwrap_or(path);
    let stem = base.strip_suffix(".rs").unwrap_or(base);
    if stem == "mod" || stem == "lib" || stem == "main" {
        parts.next().unwrap_or(stem)
    } else {
        stem
    }
}

pub(crate) fn is_ident(t: &str) -> bool {
    let mut chars = t.chars();
    chars.next().is_some_and(|c| c.is_alphabetic() || c == '_') && !KEYWORDS.contains(&t)
}

/// Skip a generic-argument group starting at the `<` token; returns the
/// index just past the matching `>`. `->` arrows inside (closure/fn
/// types) do not close angles.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                if j > 0 && toks[j - 1].text == "-" {
                    // `->` arrow inside a Fn() type, not a closer.
                } else {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// `impl` block regions `(body_start, body_end, owner)` for a file.
fn impl_regions(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "impl" {
            i += 1;
            continue;
        }
        // Item position only: `impl Trait` in type position follows
        // `->`, `(`, `,`, `<`, `=`, `&`, `+` or an identifier.
        let item_pos = matches!(
            i.checked_sub(1).map(|k| toks[k].text.as_str()),
            None | Some("}" | ";" | "]" | "{" | "unsafe")
        );
        if !item_pos {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(toks, j);
        }
        // Collect the implemented type: the last depth-0 identifier
        // before the body brace (after `for` when present, before any
        // `where` clause).
        let mut owner: Option<String> = None;
        let mut angle = 0usize;
        let mut in_where = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" if !(j > 0 && toks[j - 1].text == "-") => {
                    angle = angle.saturating_sub(1);
                }
                "{" if angle == 0 => break,
                ";" if angle == 0 => break,
                "for" if angle == 0 => owner = None,
                "where" if angle == 0 => in_where = true,
                t if angle == 0 && !in_where && is_ident(t) => owner = Some(t.to_string()),
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            i = j;
            continue;
        }
        // Match the body braces.
        let start = j;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(o) = owner {
            out.push((start, j, o));
        }
        i = start + 1; // descend: nested fns still get owners
    }
    out
}

/// Find the body `{` (or trailing `;`) of the fn whose name token is at
/// `name_tok`; returns `Some((body_start, body_end))` or `None`.
fn fn_body(toks: &[Token], name_tok: usize) -> Option<(usize, usize)> {
    let mut paren = 0usize;
    let mut angle = 0usize;
    let mut j = name_tok + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren = paren.saturating_sub(1),
            "<" => angle += 1,
            ">" if !(j > 0 && toks[j - 1].text == "-") => {
                angle = angle.saturating_sub(1);
            }
            "{" if paren == 0 && angle == 0 => {
                // Match the body braces.
                let start = j;
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((start, j));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some((start, toks.len() - 1));
            }
            ";" if paren == 0 && angle == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Where does the call's argument list open? Handles an optional
/// turbofish (`name::<T>(…)`); returns the index of the `(` token.
pub(crate) fn call_open(toks: &[Token], name_tok: usize) -> Option<usize> {
    let j = name_tok + 1;
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("(") => Some(j),
        Some(":")
            if toks.get(j + 1).is_some_and(|t| t.text == ":")
                && toks.get(j + 2).is_some_and(|t| t.text == "<") =>
        {
            let after = skip_angles(toks, j + 2);
            toks.get(after).is_some_and(|t| t.text == "(").then_some(after)
        }
        _ => None,
    }
}

/// Extract the raw (unresolved) call sites of one file.
fn extract_calls(toks: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_ident(&toks[i].text) {
            continue;
        }
        let Some(_) = call_open(toks, i) else { continue };
        let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
        match prev {
            Some("fn") => continue, // a definition, not a call
            Some(".") => out.push(CallSite {
                name: toks[i].text.clone(),
                qualifier: None,
                method: true,
                line: toks[i].line,
                tok: i,
                resolved: Vec::new(),
            }),
            Some(":") if i >= 2 && toks[i - 2].text == ":" => {
                let qualifier = i
                    .checked_sub(3)
                    .map(|k| toks[k].text.as_str())
                    .filter(|t| is_ident(t) || *t == "self" || *t == "Self" || *t == "crate")
                    .map(str::to_string);
                out.push(CallSite {
                    name: toks[i].text.clone(),
                    qualifier,
                    method: false,
                    line: toks[i].line,
                    tok: i,
                    resolved: Vec::new(),
                });
            }
            _ => out.push(CallSite {
                name: toks[i].text.clone(),
                qualifier: None,
                method: false,
                line: toks[i].line,
                tok: i,
                resolved: Vec::new(),
            }),
        }
    }
    out
}

impl CallGraph {
    /// Extract definitions and calls from every file and resolve edges.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let impls = impl_regions(&f.tokens);
            let in_tests_dir = f.path.contains("/tests/") || f.path.contains("/benches/");
            let krate = f
                .path
                .strip_prefix("crates/")
                .and_then(|p| p.split('/').next())
                .unwrap_or("")
                .to_string();
            let toks = &f.tokens;
            let mut fn_defs: Vec<(usize, FnDef)> = Vec::new();
            for i in 0..toks.len() {
                if toks[i].text != "fn" {
                    continue;
                }
                let Some(name) = toks.get(i + 1).filter(|t| is_ident(&t.text)) else { continue };
                let owner = impls
                    .iter()
                    .filter(|(s, e, _)| (*s..=*e).contains(&i))
                    .min_by_key(|(s, e, _)| e - s)
                    .map(|(_, _, o)| o.clone());
                fn_defs.push((
                    i,
                    FnDef {
                        name: name.text.clone(),
                        owner,
                        file: fi,
                        line: toks[i].line,
                        krate: krate.clone(),
                        in_test: toks[i].in_test || in_tests_dir,
                        body: fn_body(toks, i + 1),
                        calls: Vec::new(),
                    },
                ));
            }
            // Attribute each call site to the innermost enclosing body.
            for call in extract_calls(toks) {
                let target = fn_defs
                    .iter_mut()
                    .filter(|(_, d)| {
                        d.body.is_some_and(|(s, e)| (s..=e).contains(&call.tok))
                    })
                    .min_by_key(|(_, d)| d.body.map(|(s, e)| e - s).unwrap_or(usize::MAX));
                if let Some((_, d)) = target {
                    d.calls.push(call);
                }
            }
            fns.extend(fn_defs.into_iter().map(|(_, d)| d));
        }
        let mut graph = CallGraph { fns };
        graph.resolve(files);
        graph
    }

    fn resolve(&mut self, files: &[SourceFile]) {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, d) in self.fns.iter().enumerate() {
            if d.body.is_none() {
                continue; // bodyless trait declarations resolve nowhere
            }
            by_name.entry(d.name.clone()).or_default().push(i);
            if let Some(o) = &d.owner {
                by_owner.entry((o.clone(), d.name.clone())).or_default().push(i);
            }
        }
        let metas: Vec<(usize, String, Option<String>, bool)> = self
            .fns
            .iter()
            .map(|d| (d.file, d.krate.clone(), d.owner.clone(), d.in_test))
            .collect();
        let stems: Vec<String> =
            self.fns.iter().map(|d| file_stem(&files[d.file].path).to_string()).collect();
        for fi in 0..self.fns.len() {
            let (file, krate, owner, caller_in_test) = metas[fi].clone();
            let stem_of = |idx: usize| stems[idx].clone();
            let mut calls = std::mem::take(&mut self.fns[fi].calls);
            for call in &mut calls {
                let qual = call.qualifier.as_deref().map(|q| {
                    if q == "Self" || q == "self" {
                        owner.clone().unwrap_or_else(|| q.to_string())
                    } else {
                        q.to_string()
                    }
                });
                let mut cands: Vec<usize> = match &qual {
                    Some(q) => {
                        let owned = by_owner
                            .get(&(q.clone(), call.name.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if owned.is_empty() {
                            // Module-path call: `scanner::tokenize(…)`.
                            by_name
                                .get(&call.name)
                                .map(|v| {
                                    v.iter().copied().filter(|&i| stem_of(i) == *q).collect()
                                })
                                .unwrap_or_default()
                        } else {
                            owned
                        }
                    }
                    None => {
                        let all = by_name.get(&call.name).cloned().unwrap_or_default();
                        let same_file: Vec<usize> =
                            all.iter().copied().filter(|&i| metas[i].0 == file).collect();
                        if !same_file.is_empty() {
                            same_file
                        } else {
                            let same_crate: Vec<usize> = all
                                .iter()
                                .copied()
                                .filter(|&i| !metas[i].1.is_empty() && metas[i].1 == krate)
                                .collect();
                            if !same_crate.is_empty() {
                                same_crate
                            } else {
                                all
                            }
                        }
                    }
                };
                // Live code never resolves into test-only definitions.
                if !caller_in_test {
                    cands.retain(|&i| !metas[i].3);
                }
                cands.sort_unstable();
                cands.dedup();
                call.resolved = cands;
            }
            self.fns[fi].calls = calls;
        }
    }

    /// Total resolved edge count (for report stats).
    pub fn edge_count(&self) -> usize {
        self.fns
            .iter()
            .map(|d| {
                let mut tgts: BTreeSet<usize> = BTreeSet::new();
                for c in &d.calls {
                    tgts.extend(c.resolved.iter().copied());
                }
                tgts.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> (CallGraph, Vec<SourceFile>) {
        let files = vec![SourceFile::new("crates/serve/src/x.rs", src)];
        let g = CallGraph::build(&files);
        (g, files)
    }

    #[test]
    fn extracts_fns_with_impl_owners() {
        let src = "pub struct S;\nimpl S {\n    pub fn a(&self) { self.b(); }\n    fn b(&self) {}\n}\nfn free() { S::a(&s); }\n";
        let (g, _) = graph(src);
        let names: Vec<(String, Option<String>)> =
            g.fns.iter().map(|d| (d.name.clone(), d.owner.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("a".into(), Some("S".into())),
                ("b".into(), Some("S".into())),
                ("free".into(), None)
            ]
        );
    }

    #[test]
    fn resolves_method_path_and_bare_calls() {
        let src = "impl S {\n    pub fn a(&self) { self.b(); helper(); S::c(); }\n    fn b(&self) {}\n    fn c() {}\n}\nfn helper() {}\n";
        let (g, _) = graph(src);
        let a = &g.fns[0];
        let resolved: Vec<&str> = a
            .calls
            .iter()
            .flat_map(|c| c.resolved.iter().map(|&i| g.fns[i].name.as_str()))
            .collect();
        assert_eq!(resolved, vec!["b", "helper", "c"], "{:?}", a.calls);
    }

    #[test]
    fn impl_trait_return_type_is_not_an_impl_block() {
        let src = "fn s() -> impl Iterator<Item = u32> {\n    x\n}\nfn t() {}\n";
        let (g, _) = graph(src);
        assert_eq!(g.fns.len(), 2);
        assert!(g.fns.iter().all(|d| d.owner.is_none()), "{:?}", g.fns);
    }

    #[test]
    fn trait_impls_attribute_to_the_for_type() {
        let src = "impl fmt::Display for Wide<T> where T: Copy {\n    fn fmt(&self) { self.go(); }\n}\n";
        let (g, _) = graph(src);
        assert_eq!(g.fns[0].owner.as_deref(), Some("Wide"));
    }

    #[test]
    fn arrow_generics_do_not_corrupt_body_detection() {
        let src = "fn apply<F: Fn(usize) -> usize>(f: F) -> Vec<usize> {\n    inner()\n}\nfn inner() {}\n";
        let (g, _) = graph(src);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].calls.len(), 1, "{:?}", g.fns[0].calls);
        assert_eq!(g.fns[0].calls[0].name, "inner");
    }

    #[test]
    fn turbofish_collect_is_a_call() {
        let src = "fn f() { let v = it.collect::<Vec<f32>>(); }\n";
        let (g, _) = graph(src);
        assert!(g.fns[0].calls.iter().any(|c| c.name == "collect" && c.method));
    }

    #[test]
    fn live_code_never_resolves_into_test_fns() {
        let src = "fn live() { helper(); }\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n";
        let (g, _) = graph(src);
        let live = g.fns.iter().find(|d| d.name == "live").expect("live fn");
        assert!(live.calls[0].resolved.is_empty(), "{:?}", live.calls);
    }

    #[test]
    fn file_stems_fold_mod_and_lib() {
        assert_eq!(file_stem("crates/serve/src/broker.rs"), "broker");
        assert_eq!(file_stem("crates/serve/src/cluster/mod.rs"), "cluster");
        assert_eq!(file_stem("crates/tensor/src/lib.rs"), "src");
    }
}
