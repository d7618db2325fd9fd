#!/usr/bin/env bash
# The one command: build the benchmark and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#       every workload (or NAME), each in its own process, untraced for
#       the end-to-end metrics and then traced for the per-layer ones,
#       after a host fingerprint.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass; the last line of standard output is the result object.
#
# Builds into and writes only under $CARGO_TARGET_DIR (default
# target/benchmark). Exits non-zero on any correctness failure.
set -euo pipefail

if [ -n "${CC19_OBS_DETERMINISTIC+set}" ]; then
    echo "refusing to run: CC19_OBS_DETERMINISTIC is set, this benchmark needs the real clock" >&2
    exit 2
fi

# From the repository root, so that .cargo/config.toml (target-cpu=native) applies.
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/cc19-benchmark"

workload="" seed=11 seconds=25 trace=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "$1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *) echo "unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done

pass() {
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out-dir "$CARGO_TARGET_DIR"
}

if [ -n "$trace" ]; then
    pass "$workload" "$trace"
    exit
fi

echo "host nproc $(nproc)"
"$bin" --fingerprint
echo "host rustc $(rustc -V)"
echo "host rustflags ${RUSTFLAGS:-$(grep -s rustflags .cargo/config.toml || echo none)}"
echo "host commit $(git rev-parse HEAD 2>/dev/null || echo none)"
echo "host seed $seed"

status=0
for w in ${workload:-direct_study slice_512 served_open clustered_closed}; do
    pass "$w" 0 || status=1
    pass "$w" 1 || status=1
done
exit $status
