//! Property test: call-graph extraction is invariant under comment,
//! string-literal, and whitespace noise (DESIGN.md §16).
//!
//! The graph walks the comment-and-string-stripped token stream, never
//! raw text, so spoofed `fn` definitions and call syntax inside
//! comments or string literals must neither add nor remove nodes or
//! edges — and real structure must survive arbitrary reformatting. A
//! generated module with a known call structure is rendered twice,
//! plain and noisy, and the two graph shapes must be identical.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cc19_lint::graph::CallGraph;
use cc19_lint::SourceFile;

/// Graph shape: sorted fn displays and resolved call edges —
/// everything the lock rules consume.
type Shape = (Vec<String>, BTreeSet<(String, String)>);

fn shape(files: &[SourceFile]) -> Shape {
    let g = CallGraph::build(files);
    let mut fns: Vec<String> = g.fns.iter().map(|d| d.display(files)).collect();
    fns.sort();
    let mut edges = BTreeSet::new();
    for d in &g.fns {
        for c in &d.calls {
            for &r in &c.resolved {
                edges.insert((d.display(files), g.fns[r].display(files)));
            }
        }
    }
    (fns, edges)
}

/// One generated function: raw callee seeds (reduced mod the module's
/// fn count at render time) and its noise decorations.
#[derive(Debug, Clone)]
struct FnSpec {
    raw_calls: Vec<usize>,
    /// Comment line above the item.
    pre_comment: Option<String>,
    /// Comment line inside the body spoofing a definition and a call.
    body_comment: Option<String>,
    /// String literal inside the body spoofing a call.
    body_string: Option<String>,
    /// Blank lines before the item.
    blank_before: usize,
    /// Leading indentation applied to the whole item.
    indent: usize,
}

/// Printable-ASCII payload (space..tilde) for comment bodies.
fn comment_payload() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..95, 0..30)
        .prop_map(|v| v.into_iter().map(|i| (b' ' + i as u8) as char).collect())
}

/// Printable-ASCII payload with `"` and `\` substituted, so it can sit
/// inside a string literal without ending or escaping it.
fn string_payload() -> impl Strategy<Value = String> {
    comment_payload().prop_map(|s| s.replace(['"', '\\'], "_"))
}

/// The shim has no `option::of`; emulate with a (keep, payload) pair.
fn maybe(
    payload: impl Strategy<Value = String>,
) -> impl Strategy<Value = Option<String>> {
    (proptest::bool::ANY, payload).prop_map(|(keep, p)| keep.then_some(p))
}

fn fn_spec() -> impl Strategy<Value = FnSpec> {
    (
        proptest::collection::vec(0usize..64, 0..3),
        (maybe(comment_payload()), maybe(comment_payload()), maybe(string_payload())),
        (0usize..3, 0usize..5),
    )
        .prop_map(
            |(raw_calls, (pre_comment, body_comment, body_string), (blank_before, indent))| {
                FnSpec {
                    raw_calls,
                    pre_comment,
                    body_comment,
                    body_string,
                    blank_before,
                    indent,
                }
            },
        )
}

/// A module of 3–6 functions `f0..f{n-1}`.
fn module() -> impl Strategy<Value = Vec<FnSpec>> {
    proptest::collection::vec(fn_spec(), 3..7)
}

/// Render the module. With `noise: false` the layout is canonical; with
/// noise, comments/strings/whitespace vary but the token structure the
/// graph should see is identical.
fn render(specs: &[FnSpec], noise: bool) -> String {
    let n = specs.len();
    let mut s = String::from("//! Generated module.\n\n");
    for (i, spec) in specs.iter().enumerate() {
        let pad = if noise { " ".repeat(spec.indent) } else { String::new() };
        if noise {
            for _ in 0..spec.blank_before {
                s.push('\n');
            }
            if let Some(c) = &spec.pre_comment {
                s.push_str(&format!("// {c}\n"));
            }
        }
        s.push_str(&format!("{pad}fn f{i}() {{\n"));
        if noise {
            if let Some(c) = &spec.body_comment {
                s.push_str(&format!("{pad}    // fn spoof{i}() {{ spoofed(); }} n{c}\n"));
            }
            if let Some(lit) = &spec.body_string {
                s.push_str(&format!("{pad}    let _s = \"fn fake() {{ f0(); }} {lit}\";\n"));
            }
        }
        for &raw in &spec.raw_calls {
            s.push_str(&format!("{pad}    f{}();\n", raw % n));
        }
        s.push_str(&format!("{pad}}}\n\n"));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_shape_is_invariant_under_noise(specs in module()) {
        let path = "crates/gen/src/genmod.rs".to_string();
        let plain = SourceFile::new(path.clone(), render(&specs, false));
        let noisy = SourceFile::new(path, render(&specs, true));
        let a = shape(std::slice::from_ref(&plain));
        let b = shape(std::slice::from_ref(&noisy));
        prop_assert_eq!(a, b, "noise changed the extracted call graph");
    }

    #[test]
    fn every_generated_call_edge_is_resolved(specs in module()) {
        let path = "crates/gen/src/genmod.rs".to_string();
        let file = SourceFile::new(path, render(&specs, false));
        let (_, edges) = shape(std::slice::from_ref(&file));
        let n = specs.len();
        for (i, spec) in specs.iter().enumerate() {
            for &raw in &spec.raw_calls {
                let pair = (format!("genmod::f{i}"), format!("genmod::f{}", raw % n));
                prop_assert!(edges.contains(&pair), "missing edge {:?} in {:?}", pair, edges);
            }
        }
    }
}
