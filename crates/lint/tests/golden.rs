//! Golden-fixture suite + live-workspace gate.
//!
//! Each file in `crates/lint/fixtures/` is a known-bad (or known-clean)
//! snippet carrying its own directives:
//!
//! ```text
//! //~ path: crates/tensor/src/fixture.rs      (pseudo-path the rules see)
//! //~ expect: determinism                      (or `none`; repeatable)
//! //~ allow: <rule> <key> <reason…>            (optional lint.toml entry)
//! ```
//!
//! The suite asserts every fixture trips *exactly* its intended rule
//! set — no more, no fewer — and that the live workspace passes clean
//! with the checked-in `lint.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cc19_lint::walk::{collect_manifests, collect_sources, find_root};
use cc19_lint::{run_rules, LintConfig, SourceFile, RULE_NAMES};

struct Fixture {
    file: String,
    pseudo_path: String,
    expect: BTreeSet<String>,
    cfg: LintConfig,
    raw: String,
}

fn load_fixtures() -> Vec<Fixture> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    assert!(names.len() >= 8, "expected a fixture per rule, found {}", names.len());
    names
        .into_iter()
        .map(|p| {
            let raw = std::fs::read_to_string(&p).expect("read fixture");
            let mut pseudo_path = None;
            let mut expect = BTreeSet::new();
            let mut cfg = LintConfig::default();
            for line in raw.lines() {
                if let Some(rest) = line.strip_prefix("//~ path:") {
                    pseudo_path = Some(rest.trim().to_string());
                } else if let Some(rest) = line.strip_prefix("//~ expect:") {
                    let rest = rest.trim();
                    if rest != "none" {
                        expect.insert(rest.to_string());
                    }
                } else if let Some(rest) = line.strip_prefix("//~ allow:") {
                    let mut parts = rest.trim().splitn(3, ' ');
                    let rule = parts.next().expect("allow rule").to_string();
                    let key = parts.next().expect("allow key").to_string();
                    let reason = parts.next().unwrap_or("").to_string();
                    cfg.allow.entry(rule).or_default().insert(key, reason);
                }
            }
            Fixture {
                file: p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
                pseudo_path: pseudo_path.expect("fixture needs a //~ path: directive"),
                expect,
                cfg,
                raw,
            }
        })
        .collect()
}

#[test]
fn each_fixture_trips_exactly_its_intended_rules() {
    for fx in load_fixtures() {
        let files = [SourceFile::new(fx.pseudo_path.clone(), fx.raw.clone())];
        let violations = run_rules(RULE_NAMES, &files, &[], &fx.cfg);
        let tripped: BTreeSet<String> =
            violations.iter().map(|v| v.rule.to_string()).collect();
        assert_eq!(
            tripped, fx.expect,
            "fixture {} (as {}) tripped {tripped:?}, expected {:?}; violations: {violations:#?}",
            fx.file, fx.pseudo_path, fx.expect
        );
        for v in &violations {
            assert_eq!(v.path, fx.pseudo_path, "violation must point at the fixture");
            assert!(v.line > 0, "token rules must carry a line number: {v:?}");
        }
    }
}

#[test]
fn expected_rules_are_real_rules() {
    for fx in load_fixtures() {
        for rule in &fx.expect {
            assert!(
                RULE_NAMES.contains(&rule.as_str()),
                "fixture {} expects unknown rule {rule}",
                fx.file
            );
        }
    }
}

#[test]
fn every_rule_has_a_tripping_fixture() {
    let covered: BTreeSet<String> =
        load_fixtures().into_iter().flat_map(|f| f.expect).collect();
    // doc-coverage operates on manifests, not sources; it is covered by
    // the unit tests in rules.rs and by the live-workspace gate below.
    for rule in RULE_NAMES.iter().filter(|r| **r != "doc-coverage") {
        assert!(covered.contains(*rule), "no fixture trips `{rule}`");
    }
}

#[test]
fn live_workspace_passes_clean() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let files = collect_sources(&root).expect("collect sources");
    assert!(files.len() > 50, "workspace walk looks wrong: {} files", files.len());
    let manifests = collect_manifests(&root).expect("collect manifests");
    let violations = run_rules(RULE_NAMES, &files, &manifests, &cfg);
    assert!(
        violations.is_empty(),
        "live workspace must pass cc19-lint clean:\n{}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn obs_real_clock_exemption_is_pinned() {
    // The single place the workspace may read the wall clock is
    // `MonotonicClock` in `crates/obs/src/clock.rs`; every other crate
    // goes through an injected `cc19_obs::Clock`. Prune that one
    // allowlist entry and the determinism rule must fire — and *only*
    // at that file, proving no second ambient clock has crept into the
    // determinism-linted crates.
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let mut cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let removed = cfg
        .allow
        .get_mut("determinism")
        .and_then(|m| m.remove("crates/obs/src/clock.rs"));
    assert!(removed.is_some(), "lint.toml must carry the obs clock exemption");
    let files = collect_sources(&root).expect("collect sources");
    let manifests = collect_manifests(&root).expect("collect manifests");
    let clock_hits: Vec<_> = run_rules(RULE_NAMES, &files, &manifests, &cfg)
        .into_iter()
        .filter(|v| v.rule == "determinism")
        .collect();
    assert!(!clock_hits.is_empty(), "pruning the exemption must expose the clock read");
    for v in &clock_hits {
        assert_eq!(
            v.path, "crates/obs/src/clock.rs",
            "a wall-clock read outside MonotonicClock: {v}"
        );
    }
}

#[test]
fn unsafe_opt_outs_are_pinned_to_the_simd_files() {
    // The workspace's `unsafe` budget is spent in exactly one place: the
    // AVX2 microkernel module of cc19-kernels (DESIGN.md §13). A file
    // "carries the budget" when it has both the opt-out marker and real
    // `unsafe` tokens — the marker *string* also appears inside string
    // literals in the lint rule sources themselves, which the token
    // check excludes. Growing this set is a deliberate act: add the file
    // here and justify it in its marker reason.
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = collect_sources(&root).expect("collect sources");
    let opted: BTreeSet<String> = files
        .iter()
        .filter(|f| {
            f.raw.contains(cc19_lint::rules::UNSAFE_OPT_OUT)
                && f.tokens.iter().any(|t| t.text == "unsafe")
        })
        .map(|f| f.path.clone())
        .collect();
    let expect: BTreeSet<String> = [
        // #[global_allocator] counting shim for the warm 512² enhance's
        // allocation bound (DESIGN.md §8).
        "crates/ddnet/tests/plan_alloc.rs".to_string(),
        // #[global_allocator] largest-request shim: a repeated
        // `enhance_timed` call allocates no arena (DESIGN.md §8).
        "crates/ddnet/tests/timed_plan.rs".to_string(),
        // AVX2 intrinsics (DESIGN.md §13).
        "crates/kernels/src/microkernel.rs".to_string(),
        // #[global_allocator] counting shim for the diagnose ratchet
        // (DESIGN.md §16): GlobalAlloc is an unsafe trait.
        "crates/pipeline/tests/alloc_ratchet.rs".to_string(),
        // #[global_allocator] largest-request shim for the forward GEMM
        // convolution's workspace bound (DESIGN.md §8).
        "crates/tensor/tests/conv_workspace.rs".to_string(),
    ]
    .into_iter()
    .collect();
    assert_eq!(opted, expect, "the unsafe opt-out file set changed — update the golden list");
    // The dispatch/probe layer must stay entirely safe code: the SIMD
    // budget never leaks out of the microkernel module.
    for f in &files {
        if f.path == "crates/kernels/src/simd.rs" {
            assert!(
                !f.tokens.iter().any(|t| t.text == "unsafe"),
                "simd.rs must remain safe code"
            );
        }
    }
}

#[test]
fn every_lint_toml_section_names_a_live_rule() {
    // An `[allow.<rule>]` header for a rule that no longer exists parses
    // cleanly (even with no entries under it), and the load-bearing gate
    // below only prunes entries — so a deleted rule's section would
    // survive silently. Every section must name a rule in RULE_NAMES.
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    for rule in cfg.allow.keys() {
        assert!(
            RULE_NAMES.contains(&rule.as_str()),
            "lint.toml has an [allow.{rule}] section, but `{rule}` is not a rule (see --list-rules)"
        );
    }
}

#[test]
fn live_allowlist_entries_are_load_bearing() {
    // Every entry in the checked-in lint.toml must still be needed:
    // removing it must produce at least one violation. This keeps the
    // allowlist from rotting into a pile of stale exemptions.
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let files = collect_sources(&root).expect("collect sources");
    let manifests = collect_manifests(&root).expect("collect manifests");
    for (rule, entries) in &cfg.allow {
        for key in entries.keys() {
            let mut pruned = cfg.clone();
            if let Some(m) = pruned.allow.get_mut(rule) {
                m.remove(key);
            }
            let violations = run_rules(RULE_NAMES, &files, &manifests, &pruned);
            assert!(
                violations.iter().any(|v| v.rule == rule),
                "allowlist entry [{rule}] {key:?} no longer suppresses anything — delete it"
            );
        }
    }
}
