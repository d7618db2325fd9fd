//! Lock-site and held-region analysis (DESIGN.md §16).
//!
//! Identifies lock acquisitions (the `sync.rs` poison-recovering
//! helpers, `cc19_obs::lock` as cc19-dist calls it, raw `Mutex::lock` /
//! `RwLock::read`/`write` method calls), the token region each guard is
//! held over, and the blocking operations / further acquisitions
//! reachable inside that region — directly and across resolved call
//! edges. The lock-order and blocking-under-lock rules are thin
//! wrappers over this analysis.
//!
//! Lock identity is *name-based*: an acquisition of `self.inner` in
//! `broker.rs` is the lock `broker::inner`. Two paths to the same mutex
//! through different field chains get different names (this can miss a
//! cycle, never invent one); two distinct locks with identical field
//! names in one file would alias (none exist in scope). Held regions
//! are conservative: a guard dropped inside a nested block (`if
//! closed { drop(g); … }`) is treated as held until the enclosing
//! block closes, because the branch may not be taken.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{call_open, file_stem, is_ident, CallGraph};
use crate::rules::SourceFile;
use crate::scanner::Token;

/// Files whose lock discipline the lock rules audit: the serving stack
/// (broker/batcher/sync/cluster/wire), the dist link and transport, and
/// the monitoring crate. Callees outside these files are not traversed —
/// lock ordering is a module-local protocol, and the numeric crates
/// take no locks.
pub const LOCK_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/dist/src/link.rs",
    "crates/dist/src/transport.rs",
    "crates/monitor/src/",
];

/// Lock-primitive function names: call sites *of* these are modeled as
/// acquisitions or condvar waits, so their bodies are never traversed
/// (that would double-count the acquisition they implement).
const LOCK_HELPERS: &[&str] = &["lock", "wait", "wait_timeout"];

/// Method names that block the calling thread: channel receives, thread
/// joins, condvar waits, and TCP I/O.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "read_exact",
    "write_all",
    "read_to_end",
    "flush",
    "accept",
    "connect",
];

/// Of the blocking names, the condvar-wait family: exempt when the wait
/// is passed the *same* guard that is held (that is how a condvar is
/// used), a violation when any other lock is held across it.
const WAIT_FAMILY: &[&str] = &["wait", "wait_timeout"];

/// One lock acquisition and the region its guard is held over.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Canonical lock name, `<file-stem>::<receiver tail>`.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Token index of the acquisition name.
    pub tok: usize,
    /// Let-bound guard variable, when the binding is a simple ident.
    pub guard_var: Option<String>,
    /// Token range `[start, end]` the guard is considered held over.
    pub region: (usize, usize),
}

/// One blocking operation inside a function body.
#[derive(Debug, Clone)]
pub struct BlockingOp {
    /// Display form, e.g. `.recv()`.
    pub what: String,
    /// Bare callee name (exemption logic keys on this).
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Token index of the op name.
    pub tok: usize,
    /// Identifier tokens appearing in the argument list (condvar-guard
    /// exemption: `wait(&cv, guard)` names the guard it atomically
    /// releases).
    pub args: Vec<String>,
}

/// A may-hold-while-acquiring edge between two locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held at the outer acquisition.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// Call chain from the holder to the inner acquisition (fn names).
    pub witness: Vec<String>,
    /// Path of the file containing the inner acquisition.
    pub path: String,
    /// Line of the inner acquisition.
    pub line: usize,
}

/// A blocking operation reachable while a lock is held.
#[derive(Debug, Clone)]
pub struct BlockingHit {
    /// The held lock.
    pub lock: String,
    /// Display form of the blocking op.
    pub what: String,
    /// Call chain from the holder to the op (fn names).
    pub witness: Vec<String>,
    /// Path of the file containing the op.
    pub path: String,
    /// Line of the op.
    pub line: usize,
}

/// The full lock analysis over the scoped files.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// Every acquisition site: `(lock, path, line)`, sorted.
    pub sites: Vec<(String, String, usize)>,
    /// May-hold-while-acquiring edges, sorted and deduped by
    /// `(from, to)` keeping the first witness.
    pub edges: Vec<LockEdge>,
    /// Blocking operations under a held lock (live violations).
    pub blocking: Vec<BlockingHit>,
}

/// Is this path inside the lock-audited scope?
pub fn in_scope(path: &str) -> bool {
    LOCK_SCOPE.iter().any(|p| path.starts_with(p))
}

/// Collect identifier tokens of the receiver chain ending at the `.`
/// token `dot` (e.g. `self.ep.prev_slot` → `ep.prev_slot`).
fn receiver_tail(toks: &[Token], dot: usize) -> String {
    let mut idents: Vec<&str> = Vec::new();
    let mut k = dot;
    while let Some(prev) = k.checked_sub(1) {
        let t = toks[prev].text.as_str();
        if t == ")" {
            // Call result receiver: take the callee name as the tail.
            let mut depth = 1usize;
            let mut j = prev;
            while j > 0 && depth > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
            if j > 0 && is_ident(&toks[j - 1].text) {
                idents.push(&toks[j - 1].text);
            }
            break;
        }
        if is_ident(t) || t == "self" {
            idents.push(t);
            if prev >= 2 && toks[prev - 1].text == "." {
                k = prev - 1;
                continue;
            }
        }
        break;
    }
    idents.reverse();
    let tail: Vec<&str> = idents.into_iter().filter(|t| *t != "self").collect();
    if tail.is_empty() {
        "anon".to_string()
    } else {
        tail.join(".")
    }
}

/// Collect the first-argument identifier tail of a helper call
/// (`lock(&self.ep.prev_slot, …)` → `ep.prev_slot`).
fn first_arg_tail(toks: &[Token], open: usize) -> String {
    let mut idents: Vec<&str> = Vec::new();
    let mut depth = 0usize;
    let mut j = open + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" if depth == 0 => break,
            ")" => depth -= 1,
            "," | "[" if depth == 0 => break,
            "&" | "." | "mut" | "self" => {}
            t if is_ident(t) && depth == 0 => idents.push(t),
            _ => {}
        }
        j += 1;
    }
    if idents.is_empty() {
        "anon".to_string()
    } else {
        idents.join(".")
    }
}

/// All identifier tokens in the argument list opening at `open`.
fn arg_idents(toks: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            t if is_ident(t) => out.push(t.to_string()),
            _ => {}
        }
        j += 1;
    }
    out
}

/// Walk back from `anchor` to the start of its statement; returns the
/// token index of the first statement token.
fn stmt_start(toks: &[Token], anchor: usize, body_start: usize) -> usize {
    let mut k = anchor;
    while k > body_start {
        match toks[k - 1].text.as_str() {
            ";" | "{" | "}" => return k,
            _ => k -= 1,
        }
    }
    k
}

/// Walk forward from `anchor` to the `;` ending its statement (at the
/// anchor's nesting level); returns that token index (or the body end).
fn stmt_end(toks: &[Token], anchor: usize, body_end: usize) -> usize {
    let mut depth = 0isize;
    let mut j = anchor;
    while j <= body_end {
        match toks[j].text.as_str() {
            "(" | "{" | "[" => depth += 1,
            ")" | "}" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// The held region of a let-bound guard: from the end of the binding
/// statement to a same-depth `drop(var)` or the close of the enclosing
/// block, whichever comes first.
fn guard_region(toks: &[Token], bind_end: usize, body_end: usize, var: &str) -> (usize, usize) {
    let mut depth = 0isize;
    let mut j = bind_end + 1;
    while j <= body_end {
        match toks[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return (bind_end, j);
                }
            }
            "drop"
                if depth == 0
                    && toks.get(j + 1).is_some_and(|t| t.text == "(")
                    && toks.get(j + 2).is_some_and(|t| t.text == var)
                    && toks.get(j + 3).is_some_and(|t| t.text == ")") =>
            {
                return (bind_end, j);
            }
            _ => {}
        }
        j += 1;
    }
    (bind_end, body_end)
}

/// Per-function lock facts.
#[derive(Debug, Default, Clone)]
struct FnLocks {
    acquisitions: Vec<Acquisition>,
    blocking: Vec<BlockingOp>,
}

/// Extract acquisitions and blocking ops from one fn body.
fn scan_fn(file: &SourceFile, body: (usize, usize)) -> FnLocks {
    let toks = &file.tokens;
    let stem = file_stem(&file.path);
    let (b0, b1) = body;
    let mut out = FnLocks::default();
    for t in b0..=b1 {
        if toks[t].in_test {
            continue;
        }
        let text = toks[t].text.as_str();
        // Method acquisition: `recv.lock()` / `.read()` / `.write()`.
        if text == "."
            && toks
                .get(t + 1)
                .is_some_and(|n| matches!(n.text.as_str(), "lock" | "read" | "write"))
            && call_open(toks, t + 1).is_some()
        {
            let tail = receiver_tail(toks, t);
            push_acquisition(&mut out, toks, t + 1, b0, b1, format!("{stem}::{tail}"));
            continue;
        }
        // Helper acquisition: bare `lock(&self.inner, …)`.
        if text == "lock" && call_open(toks, t).is_some() {
            let prev = t.checked_sub(1).map(|k| toks[k].text.as_str());
            if !matches!(prev, Some("." | "fn")) {
                let open = call_open(toks, t).unwrap_or(t + 1);
                let tail = first_arg_tail(toks, open);
                push_acquisition(&mut out, toks, t, b0, b1, format!("{stem}::{tail}"));
                continue;
            }
        }
        // Blocking op: method or bare call of a blocking name.
        if is_ident(text) && BLOCKING_METHODS.contains(&text) {
            let Some(open) = call_open(toks, t) else { continue };
            let prev = t.checked_sub(1).map(|k| toks[k].text.as_str());
            if prev == Some("fn") {
                continue;
            }
            let method = prev == Some(".");
            // Bare calls only count for the sync helper wait family;
            // every other blocking name is a method on a channel,
            // stream, handle, or condvar.
            if !method && !WAIT_FAMILY.contains(&text) && prev != Some(":") {
                continue;
            }
            let what = if method { format!(".{text}()") } else { format!("{text}(…)") };
            out.blocking.push(BlockingOp {
                what,
                name: text.to_string(),
                line: toks[t].line,
                tok: t,
                args: arg_idents(toks, open),
            });
        }
    }
    out
}

/// Record one acquisition (name token at `name_tok`) with its guard
/// binding and held region.
fn push_acquisition(
    out: &mut FnLocks,
    toks: &[Token],
    name_tok: usize,
    body_start: usize,
    body_end: usize,
    lock: String,
) {
    let s = stmt_start(toks, name_tok, body_start);
    let end = stmt_end(toks, name_tok, body_end);
    // A binding only holds the *guard* when the acquisition call is the
    // whole initializer (`let g = lock(&m);`); a chained call
    // (`lock(&m).get(k).cloned()`) drops the temporary at the `;`.
    let call_is_whole_initializer = call_open(toks, name_tok).is_some_and(|open| {
        let mut depth = 0usize;
        let mut j = open;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return toks.get(j + 1).is_some_and(|t| t.text == ";");
                    }
                }
                _ => {}
            }
            j += 1;
        }
        false
    });
    let mut guard_var = None;
    if call_is_whole_initializer && toks.get(s).is_some_and(|t| t.text == "let") {
        let mut k = s + 1;
        if toks.get(k).is_some_and(|t| t.text == "mut") {
            k += 1;
        }
        if toks.get(k).is_some_and(|t| is_ident(&t.text))
            && toks.get(k + 1).is_some_and(|t| t.text == "=")
        {
            guard_var = Some(toks[k].text.clone());
        }
    }
    let region = match &guard_var {
        Some(var) => guard_region(toks, end, body_end, var),
        None => (name_tok, end), // temporary guard: held to statement end
    };
    out.acquisitions.push(Acquisition {
        lock,
        line: toks[name_tok].line,
        tok: name_tok,
        guard_var,
        region,
    });
}

/// Run the lock analysis over the scoped files of the workspace.
pub fn analyze(files: &[SourceFile], graph: &CallGraph) -> LockAnalysis {
    // Per-fn facts for every in-scope, non-test, non-helper fn.
    let mut facts: BTreeMap<usize, FnLocks> = BTreeMap::new();
    for (fi, d) in graph.fns.iter().enumerate() {
        if d.in_test || LOCK_HELPERS.contains(&d.name.as_str()) {
            continue;
        }
        let file = &files[d.file];
        if !in_scope(&file.path) {
            continue;
        }
        let Some(body) = d.body else { continue };
        facts.insert(fi, scan_fn(file, body));
    }

    let mut analysis = LockAnalysis::default();
    for (&fi, fl) in &facts {
        let path = files[graph.fns[fi].file].path.clone();
        for a in &fl.acquisitions {
            analysis.sites.push((a.lock.clone(), path.clone(), a.line));
        }
    }
    analysis.sites.sort();
    analysis.sites.dedup();

    // For each held region: direct nested acquisitions/blocking ops,
    // then a bounded traversal of calls made inside the region.
    let mut edges: Vec<LockEdge> = Vec::new();
    for (&fi, fl) in &facts {
        let holder = &graph.fns[fi];
        let holder_path = files[holder.file].path.clone();
        for a in &fl.acquisitions {
            let (r0, r1) = a.region;
            // Direct nested acquisitions.
            for b in &fl.acquisitions {
                if b.tok != a.tok && (r0..=r1).contains(&b.tok) {
                    edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        witness: vec![holder.name.clone()],
                        path: holder_path.clone(),
                        line: b.line,
                    });
                }
            }
            // Direct blocking ops (condvar waits on the held guard are
            // the sanctioned use and exempt).
            for op in &fl.blocking {
                if !(r0..=r1).contains(&op.tok) {
                    continue;
                }
                let exempt = WAIT_FAMILY.contains(&op.name.as_str())
                    && a.guard_var.as_ref().is_some_and(|v| op.args.contains(v));
                if !exempt {
                    analysis.blocking.push(BlockingHit {
                        lock: a.lock.clone(),
                        what: op.what.clone(),
                        witness: vec![holder.name.clone()],
                        path: holder_path.clone(),
                        line: op.line,
                    });
                }
            }
            // Transitive: traverse calls made while the guard is held.
            let mut visited: BTreeSet<usize> = BTreeSet::new();
            let mut stack: Vec<(usize, Vec<String>)> = Vec::new();
            for call in &holder.calls {
                if !(r0..=r1).contains(&call.tok) {
                    continue;
                }
                for &g in &call.resolved {
                    if facts.contains_key(&g) && visited.insert(g) {
                        stack.push((g, vec![holder.name.clone(), graph.fns[g].name.clone()]));
                    }
                }
            }
            while let Some((g, chain)) = stack.pop() {
                let gd = &graph.fns[g];
                let g_path = files[gd.file].path.clone();
                let gl = &facts[&g];
                for b in &gl.acquisitions {
                    edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        witness: chain.clone(),
                        path: g_path.clone(),
                        line: b.line,
                    });
                }
                for op in &gl.blocking {
                    analysis.blocking.push(BlockingHit {
                        lock: a.lock.clone(),
                        what: op.what.clone(),
                        witness: chain.clone(),
                        path: g_path.clone(),
                        line: op.line,
                    });
                }
                if chain.len() >= 8 {
                    continue;
                }
                for call in &gd.calls {
                    for &h in &call.resolved {
                        if facts.contains_key(&h) && visited.insert(h) {
                            let mut next = chain.clone();
                            next.push(graph.fns[h].name.clone());
                            stack.push((h, next));
                        }
                    }
                }
            }
        }
    }
    edges.sort_by(|x, y| {
        (&x.from, &x.to, &x.path, x.line).cmp(&(&y.from, &y.to, &y.path, y.line))
    });
    edges.dedup_by(|x, y| x.from == y.from && x.to == y.to);
    analysis.edges = edges;
    analysis
        .blocking
        .sort_by(|x, y| (&x.path, x.line, &x.lock).cmp(&(&y.path, y.line, &y.lock)));
    analysis.blocking.dedup_by(|x, y| x.path == y.path && x.line == y.line && x.lock == y.lock);
    analysis
}

/// Elementary cycles in the may-hold-while-acquiring graph, each
/// rotated to start at its lexicographically smallest lock; sorted.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS only through nodes >= start, closing back to start: every
        // elementary cycle is found exactly once, rooted at its
        // smallest node.
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<(usize, Vec<&str>)> = vec![(0, path.clone())];
        let _ = &mut path;
        while let Some((_, p)) = stack.pop() {
            let last = p[p.len() - 1];
            let Some(nexts) = adj.get(last) else { continue };
            for &n in nexts {
                if n == start {
                    cycles.insert(p.iter().map(|s| s.to_string()).collect());
                } else if n > start && !p.contains(&n) && p.len() < 6 {
                    let mut np = p.clone();
                    np.push(n);
                    stack.push((0, np));
                }
            }
        }
    }
    cycles.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceFile;

    fn analyze_src(src: &str) -> LockAnalysis {
        let files = vec![SourceFile::new("crates/serve/src/fix.rs", src)];
        let graph = CallGraph::build(&files);
        analyze(&files, &graph)
    }

    #[test]
    fn helper_and_method_acquisitions_get_canonical_names() {
        let src = "fn a(&self) {\n    let g = lock(&self.inner);\n    let h = self.state.lock();\n}\n";
        let a = analyze_src(src);
        let locks: Vec<&str> = a.sites.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(locks, vec!["fix::inner", "fix::state"]);
    }

    #[test]
    fn nested_acquisition_makes_an_edge_and_opposite_orders_cycle() {
        let src = "impl P {\n    fn fwd(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n    fn bwd(&self) { let b = self.b.lock(); let a = self.a.lock(); }\n}\n";
        let a = analyze_src(src);
        assert!(a.edges.iter().any(|e| e.from == "fix::a" && e.to == "fix::b"), "{:?}", a.edges);
        assert!(a.edges.iter().any(|e| e.from == "fix::b" && e.to == "fix::a"), "{:?}", a.edges);
        let cycles = find_cycles(&a.edges);
        assert_eq!(cycles, vec![vec!["fix::a".to_string(), "fix::b".to_string()]]);
    }

    #[test]
    fn recv_under_held_lock_is_a_blocking_hit() {
        let src = "fn f(&self) {\n    let g = lock(&self.inner);\n    let v = self.rx.recv();\n    drop(g);\n}\n";
        let a = analyze_src(src);
        assert_eq!(a.blocking.len(), 1, "{:?}", a.blocking);
        assert_eq!(a.blocking[0].what, ".recv()");
        assert_eq!(a.blocking[0].lock, "fix::inner");
    }

    #[test]
    fn drop_at_same_depth_ends_the_region() {
        let src = "fn f(&self) {\n    let g = lock(&self.inner);\n    drop(g);\n    let v = self.rx.recv();\n}\n";
        let a = analyze_src(src);
        assert!(a.blocking.is_empty(), "{:?}", a.blocking);
    }

    #[test]
    fn condvar_wait_on_the_held_guard_is_exempt() {
        let src = "fn f(&self) {\n    let mut g = lock(&self.inner);\n    while g.empty { g = wait(&self.cv, g); }\n}\n";
        let a = analyze_src(src);
        assert!(a.blocking.is_empty(), "{:?}", a.blocking);
    }

    #[test]
    fn condvar_wait_on_a_different_guard_is_not_exempt() {
        let src = "fn f(&self) {\n    let outer = lock(&self.a);\n    let mut g = lock(&self.b);\n    g = wait(&self.cv, g);\n    drop(g);\n    drop(outer);\n}\n";
        let a = analyze_src(src);
        // The wait is exempt for the `b` region (its own guard) but a
        // blocking hit for the held `a` region.
        assert_eq!(a.blocking.len(), 1, "{:?}", a.blocking);
        assert_eq!(a.blocking[0].lock, "fix::a");
    }

    #[test]
    fn cross_function_acquisition_carries_a_witness_chain() {
        let src = "impl P {\n    fn outer(&self) { let g = self.a.lock(); self.inner_step(); }\n    fn inner_step(&self) { let h = self.b.lock(); }\n}\n";
        let a = analyze_src(src);
        let e = a
            .edges
            .iter()
            .find(|e| e.from == "fix::a" && e.to == "fix::b")
            .expect("cross-fn edge");
        assert_eq!(e.witness, vec!["outer".to_string(), "inner_step".to_string()]);
    }

    #[test]
    fn temporary_guard_is_held_to_statement_end_only() {
        let src = "fn f(&self) {\n    let v = lock(&self.slot).get(&k).cloned();\n    let w = self.rx.recv();\n}\n";
        let a = analyze_src(src);
        assert!(a.blocking.is_empty(), "recv is after the temporary: {:?}", a.blocking);
    }

    #[test]
    fn test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod t {\n    fn f(&self) { let g = lock(&self.a); let v = rx.recv(); }\n}\n";
        let a = analyze_src(src);
        assert!(a.sites.is_empty() && a.blocking.is_empty());
    }
}
