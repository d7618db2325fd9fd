#!/usr/bin/env bash
# Tier-1 verification gate (ROADMAP.md): release build + full test suite
# + chaos/serve smokes + static analysis (cc19-lint, clippy when present).
# Usage: scripts/tier1.sh
# Exits 0 with "TIER-1 PASS" iff every stage succeeds.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

# Every tracked file under results/ as it stands now; the last stage
# fails if the run changed any of them.
results_state() { git ls-files -z -- results | xargs -0 -r sha256sum 2>&1; }
results_at_start=$(results_state)

# run_twice WHAT "ARTEFACT..." CMD...: run a deterministic stage twice and
# byte-compare every artefact it writes between the two runs.
run1() { echo "${1%/*}/.${1##*/}.run1"; }
run_twice() {
    local what=$1 files=$2 f
    shift 2
    [ "$status" -eq 0 ] || return 0
    if ! "$@"; then
        echo "tier-1: $what FAILED (first run)"
        status=1
        return 0
    fi
    for f in $files; do cp "$f" "$(run1 "$f")"; done
    if ! "$@"; then
        echo "tier-1: $what FAILED (second run)"
        status=1
    else
        for f in $files; do
            if ! cmp -s "$f" "$(run1 "$f")"; then
                echo "tier-1: $what NOT DETERMINISTIC (${f##*/} differs between runs)"
                diff "$(run1 "$f")" "$f" | head -20
                status=1
            fi
        done
    fi
    for f in $files; do rm -f "$(run1 "$f")"; done
}

echo "=== tier-1: cargo build --release ==="
if ! cargo build --release; then
    echo "tier-1: BUILD FAILED"
    status=1
fi

echo
echo "=== tier-1: the frozen benchmark package builds ==="
# benchmark/ is frozen between [benchmark] changes, but it builds against
# the crates' current public surface (benchmark/README.md lists the calls
# it makes). Building it here makes a crate change that breaks that
# surface fail in its own change, not at the next measurement. The build
# re-resolves the frozen lock file's path-crate edges, so the committed
# benchmark/Cargo.lock is put back afterwards; the target directory is
# the one benchmark/run.sh uses.
if [ "$status" -eq 0 ]; then
    cp benchmark/Cargo.lock benchmark/.Cargo.lock.frozen
    if ! CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}" \
        cargo build --release --offline --manifest-path benchmark/Cargo.toml; then
        echo "tier-1: FROZEN BENCHMARK PACKAGE BUILD FAILED"
        status=1
    fi
    mv benchmark/.Cargo.lock.frozen benchmark/Cargo.lock
fi

echo
echo "=== tier-1: cargo test -q ==="
if [ "$status" -eq 0 ]; then
    if ! cargo test -q; then
        echo "tier-1: TESTS FAILED"
        status=1
    fi
fi

echo
echo "=== tier-1: SIMD kernel parity (auto + forced-scalar dispatch) ==="
# The scalar/AVX2 kernel ladder must agree under both dispatch modes
# (DESIGN.md §13): the plain `cargo test` above already ran the parity
# suite under auto dispatch (AVX2 wherever the host supports it); this
# stage re-runs the cc19-kernels suite in a fresh process with
# CC19_SIMD=scalar, pinning the public entry points to the forced-scalar
# ladder bit-for-bit. Inference runs DDnet's deconvolutions and the
# classifier's 3D convolutions on that ladder (DESIGN.md §8), so the
# inference plan's own suite (cc19-nn) and both networks' plan-vs-tape
# parity suites (cc19-ddnet, cc19-analysis) re-run on the scalar twin too,
# and so does the serial-vs-pooled bit-identity suite (`pool_identity.rs`
# in cc19-tensor, cc19-kernels, cc19-ddnet and computecovid19).
if [ "$status" -eq 0 ]; then
    if ! CC19_SIMD=scalar cargo test -q -p cc19-kernels -p cc19-nn -p cc19-ddnet -p cc19-analysis \
        || ! CC19_SIMD=scalar cargo test -q -p cc19-tensor -p computecovid19 --test pool_identity; then
        echo "tier-1: KERNEL PARITY FAILED (CC19_SIMD=scalar)"
        status=1
    fi
fi

echo
echo "=== tier-1: kernel and tensor suites in a release build (entry guards, 512² panels) ==="
# conv2d_with / deconv2d_with / conv3d_with assert their buffer lengths
# before the AVX2 microkernel's unchecked loads (DESIGN.md §13). The
# plain `cargo test` above is a debug build; this stage runs the
# cc19-kernels suite, entry_guards.rs included, with release codegen.
# It also runs the cc19-tensor suite, whose 512² cases — the panelled
# GEMM convolution's bit parity with the full lowering (panel_conv.rs)
# and its workspace bound (conv_workspace.rs) — and the 512² enhance
# digest (computecovid19's digests.rs) are ignored in the debug build,
# which keeps its cases at 128² or smaller (DESIGN.md §8), and so is
# the warm 512² enhance's allocation bound (cc19-ddnet's plan_alloc.rs:
# the output and GEMM panel workspace, nothing else). The serial-vs-pooled
# bit-identity suite runs here too, its 512² enhance included.
if [ "$status" -eq 0 ]; then
    if ! cargo test --release -q -p cc19-kernels -p cc19-tensor \
        || ! cargo test --release -q -p computecovid19 --test digests --test pool_identity \
        || ! cargo test --release -q -p cc19-ddnet --test plan_alloc --test pool_identity; then
        echo "tier-1: KERNEL/TENSOR SUITE FAILED (--release)"
        status=1
    fi
fi

echo
echo "=== tier-1: distributed chaos suite (CC19_FAULT_SEED pinned) ==="
# Pin the fault-injection seed so a chaos failure reproduces exactly
# (DESIGN.md §9); the suite re-runs under faults the same ring/trainer
# paths the plain tests cover fault-free.
if [ "$status" -eq 0 ]; then
    if ! CC19_FAULT_SEED="${CC19_FAULT_SEED:-1234}" cargo test -q -p cc19-dist --test chaos; then
        echo "tier-1: CHAOS SUITE FAILED (CC19_FAULT_SEED=${CC19_FAULT_SEED:-1234})"
        status=1
    fi
fi

echo
echo "=== tier-1: cluster chaos (kill a worker mid-load, CC19_FAULT_SEED pinned) ==="
# Sharded serve cluster under the seeded fault plan (DESIGN.md §14): one
# of three workers dies mid-load with wire drops/duplicates/corruption on
# top; zero lost, zero double-served, and every surviving diagnosis
# bit-identical to the single-node baseline.
if [ "$status" -eq 0 ]; then
    if ! CC19_FAULT_SEED="${CC19_FAULT_SEED:-1234}" cargo test -q -p cc19-serve --test cluster_chaos; then
        echo "tier-1: CLUSTER CHAOS FAILED (CC19_FAULT_SEED=${CC19_FAULT_SEED:-1234})"
        status=1
    fi
fi

echo
echo "=== tier-1: serving smoke (64 mixed-priority requests, byte-identical CSV) ==="
# Deterministic cc19-serve smoke: paused server, 64 seeded requests,
# exactly-once delivery, dynamic batching observed (DESIGN.md §10).
# Under CC19_OBS_DETERMINISTIC=1 the test writes
# results/serve_smoke_metrics.csv from a frozen manual clock — run it
# twice and the files must be byte-identical.
run_twice "SERVE SMOKE" results/serve_smoke_metrics.csv \
    env CC19_OBS_DETERMINISTIC=1 cargo test -q -p cc19-serve --test smoke

echo
echo "=== tier-1: monitoring smoke (4-timestep progression, byte-identical CSV) ==="
# Deterministic cc19-monitor smoke: a pinned-seed progression series plus
# one content-addressed cache-hit replay through PatientSeries
# (DESIGN.md §15). Under CC19_OBS_DETERMINISTIC=1 the test writes
# results/monitor_timeline.csv from a frozen manual clock — run it twice
# and the files must be byte-identical.
run_twice "MONITOR SMOKE" results/monitor_timeline.csv \
    env CC19_OBS_DETERMINISTIC=1 cargo test -q -p cc19-monitor --test smoke

echo
echo "=== tier-1: observability report (byte-identical under manual clock) ==="
# obs_report sweeps every instrumented subsystem (GEMM/conv kernels,
# ctsim stages, a tiny training run, a faulty 4-rank all-reduce, a serve
# smoke, a kill-and-recover cluster pass) into the cc19-obs registry and
# exports results/bench_obs.json plus the per-request critical-path
# report results/trace_report.json (DESIGN.md §17).
# Under CC19_OBS_DETERMINISTIC=1 every clock read is causally ordered on
# the auto-ticking manual clock, so two runs must produce byte-identical
# output (DESIGN.md §12) — run it twice and compare both artifacts.
if [ "$status" -eq 0 ]; then
    if ! cargo build -q --release -p cc19-bench --bin obs_report; then
        echo "tier-1: OBS REPORT BUILD FAILED"
        status=1
    fi
fi
run_twice "OBS REPORT" "results/bench_obs.json results/trace_report.json" \
    env CC19_OBS_DETERMINISTIC=1 ./target/release/obs_report

echo
echo "=== tier-1: request tracing (stitched span trees, byte-identical JSONL) ==="
# The cc19-serve trace suite (DESIGN.md §17) runs one request through a
# single-node server on a fully injected manual clock and 2×12 requests
# through a 3-worker cluster (healthy + scheduled-kill phases), asserting
# span parentage, stage tiling, the segments-sum-to-e2e invariant, and
# that a killed worker's orphaned dispatch span is marked `redispatched`.
# Under CC19_OBS_DETERMINISTIC=1 the cluster test writes
# results/trace_smoke.jsonl — run it twice and the exports must be
# byte-identical.
run_twice "REQUEST TRACING" results/trace_smoke.jsonl \
    env CC19_OBS_DETERMINISTIC=1 cargo test -q -p cc19-serve --test trace

echo
echo "=== tier-1: no wait timer, deleted serve knob, second stage timer, second span system, second allocation gate or second thread pool ==="
# The batching window, the router/node polling intervals and the
# enhancement slice-batching mode are deleted knobs (DESIGN.md §10, §14),
# not defaults to tune back in. The serve worker's trace spans are the
# only stage timer (DESIGN.md §12, §17): the Framework's clock and
# Diagnosis's stage durations stay deleted, and so does cc19-obs's
# second span system.
if grep -rnE 'max_delay|CMD_WAIT|BUSY_POLL|enhance_mode|EnhanceMode|t_enhance|t_segment|t_classify|\bt_total\b|started_ns|fn with_clock' crates/serve/src crates/pipeline/src; then echo "tier-1: A BATCH WINDOW, POLL INTERVAL, DELETED SERVE KNOB OR SECOND STAGE TIMER IS BACK UNDER crates/serve/src OR crates/pipeline/src"; status=1; fi
if grep -rnE 'span::enter|span!\(|SpanStore|span_stats|trace_jsonl' crates examples; then echo "tier-1: THE DELETED cc19-obs SPAN SYSTEM IS BACK UNDER crates/ OR examples/"; status=1; fi
# The counting-allocator ratchet (crates/pipeline/tests/alloc_ratchet.rs)
# is the one allocation gate (DESIGN.md §16): the static hot-path
# allocation rule, its seed markers, inline opt-outs and report
# inventory stay deleted.
if grep -rnE 'cc19-hot|allow\(alloc|hot-path-alloc|alloc_sites' crates examples tests lint.toml; then echo "tier-1: THE DELETED STATIC ALLOCATION RULE IS BACK UNDER crates/, examples/, tests/ OR lint.toml"; status=1; fi
# Two executors walk the networks (DESIGN.md §8): the tape for training
# and the plan recorder for inference. The tape-free evaluator and the
# timed ladder executor stay deleted.
if grep -rn "impl Exec for" crates examples tests | grep -vE "impl Exec for (Tape|Recorder)\b"; then echo "tier-1: A THIRD EXECUTOR IS BACK (only Tape and the plan's Recorder implement Exec)"; status=1; fi
# The rayon shim's pool is the one source of intra-op threads (DESIGN.md
# §8): the numeric crates spawn none of their own, so its bounded size,
# its serial request workers and its bit-identical splits hold.
if grep -rnE 'thread::scope|thread::spawn' crates/tensor/src crates/kernels/src crates/nn/src crates/ddnet/src crates/analysis/src; then echo "tier-1: A NUMERIC CRATE SPAWNS ITS OWN THREADS (use the rayon pool)"; status=1; fi

echo
echo "=== tier-1: static analysis ==="
# cc19-lint enforces the repo-specific invariants the compiler can't
# (DESIGN.md §11): determinism (no ambient clocks/RNG in numeric crates
# or in cc19-obs beyond the allowlisted MonotonicClock), metric naming
# (snake_case, crate-prefixed cc19-obs registrations), panic-free
# fault-tolerant paths, *_into/allocating API parity with tests, the
# unsafe budget, doc-coverage opt-in, and the whitespace gate
# (trailing whitespace / tab indent / CR / missing final newline — the
# `cargo fmt --check` stand-in for this vendored toolchain).
# The v2 cross-function rules (DESIGN.md §16) add lock-order cycles and
# blocking-under-lock, and the run exports results/lint_report.json.
# Allocation is not linted: the alloc_ratchet test above counts it. The report is byte-deterministic
# (sorted keys, no timestamps) — run the linter twice and compare, the
# same determinism gate bench_obs.json gets above.
run_twice "STATIC ANALYSIS (cc19-lint)" results/lint_report.json \
    cargo run -q -p cc19-lint -- --report results/lint_report.json
if [ "$status" -eq 0 ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        if ! cargo clippy --workspace --all-targets -q -- -D warnings; then
            echo "tier-1: STATIC ANALYSIS FAILED (clippy -D warnings)"
            status=1
        fi
    else
        echo "tier-1: NOTICE — clippy not installed in this toolchain; skipping the"
        echo "        clippy -D warnings stage (cc19-lint still ran)."
    fi
fi

echo
echo "=== tier-1: tracked results/ files unchanged by the run ==="
# Every artefact a stage above writes is either untracked or
# byte-deterministic, so a tier-1 run must leave results/ as it found it:
# a tracked file that changed is an artefact that drifted from its
# committed state, or a stage that appends.
if [ "$results_at_start" != "$(results_state)" ]; then
    echo "tier-1: THE RUN CHANGED TRACKED FILES UNDER results/"
    diff <(echo "$results_at_start") <(results_state) | head -20
    git status --short -- results | head -20
    status=1
fi

echo
if [ "$status" -eq 0 ]; then
    echo "TIER-1 PASS"
else
    echo "TIER-1 FAIL"
fi
exit "$status"
