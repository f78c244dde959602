#!/usr/bin/env sh
# Repository CI gate: formatting, lints, build, tests.
#
# Usage: scripts/ci.sh
# Works fully offline; every dependency is in-tree.
set -eu

cd "$(dirname "$0")/.."

# Snapshot of the tracked-file changes present before the run; the last
# step fails if the run itself modified a tracked file.
in_git=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=true
    tracked_before=$(git diff --binary | cksum)
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# The benchmark package is a workspace of its own; run its tests (input
# lists, every workload's output checks on a tiny run, the traced split).
echo "==> cargo test perfbench"
cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml

# Drive the fixer end to end over every FAS fixture and every built-in
# construct: exit 2 means a usage/IO failure or a panic, and unparseable
# JSON output means the machine interface regressed. Exit 1 (diagnostics
# remain after fixing) is expected for fixtures with unfixable errors.
echo "==> gabm lint --fix --dry-run smoke"
GABM=target/release/gabm
for f in tests/fixtures/*.fas; do
    out=$("$GABM" lint "$f" --fix --dry-run --format json) || status=$?
    status=${status:-0}
    if [ "$status" -ge 2 ]; then
        echo "FAIL: gabm lint --fix --dry-run $f exited $status" >&2
        exit 1
    fi
    case "$out" in
        '{'*'"fix"'*) ;;
        *) echo "FAIL: unparseable --fix output for $f: $out" >&2; exit 1 ;;
    esac
    status=0
done
for c in input-stage output-stage power-supply slew-rate; do
    out=$("$GABM" lint --construct "$c" --fix --dry-run --format json) || {
        echo "FAIL: gabm lint --fix --dry-run --construct $c failed" >&2
        exit 1
    }
    case "$out" in
        '{'*'"fix"'*) ;;
        *) echo "FAIL: unparseable --fix output for construct $c: $out" >&2; exit 1 ;;
    esac
done

# Bytecode VM gate: the differential suite holds the VM to ulp-scale
# agreement with the interpreter, and the disasm golden pins the listing
# format that `gabm compile --disasm` promises.
echo "==> fasvm differential suite + disasm golden"
cargo test -q -p gabm-fasvm --test differential --test disasm_golden

# Interpreter vs VM vs CMOS on the comparator transient: the harness
# asserts both FAS backends take the same Newton trajectory and produce
# the same output waveform (a mismatch aborts the run).
echo "==> harness fasvm"
target/release/harness fasvm

# Parallel characterization gate: the Monte-Carlo distribution fingerprint
# must be bitwise identical whatever GABM_THREADS says (the harness also
# asserts this in-process across pools of 1/2/4/8 workers).
echo "==> harness parchar (PARCHAR-DIST)"
dist1=$(GABM_THREADS=1 target/release/harness parchar | grep '^PARCHAR-DIST')
dist4=$(GABM_THREADS=4 target/release/harness parchar | grep '^PARCHAR-DIST')
if [ "$dist1" != "$dist4" ]; then
    echo "FAIL: Monte-Carlo distribution depends on GABM_THREADS:" >&2
    echo "  GABM_THREADS=1: $dist1" >&2
    echo "  GABM_THREADS=4: $dist4" >&2
    exit 1
fi

# Tracing gate: the disabled-probe overhead on the comparator transient
# must stay within 2% (asserted in-process by the harness — a violation
# aborts the run before the TRACEOV-OK line), and the traced phase must
# produce a valid Chrome trace covering all four instrumented layers.
echo "==> harness traceov (TRACEOV-OK + TRACE_traceov.json)"
rm -f TRACE_traceov.json
target/release/harness traceov | grep '^TRACEOV-OK' || {
    echo "FAIL: harness traceov printed no TRACEOV-OK line" >&2
    exit 1
}
trace_report=$("$GABM" trace TRACE_traceov.json) || {
    echo "FAIL: gabm trace rejected TRACE_traceov.json" >&2
    exit 1
}
for root in sim.tran fasvm.compile charac.monte_carlo par.job; do
    case "$trace_report" in
        *"$root"*) ;;
        *) echo "FAIL: trace is missing the $root root: $trace_report" >&2; exit 1 ;;
    esac
done

# A traced end-to-end run through the gabm CLI round-trips its own
# validator (the --trace plumbing is shared with the harness).
echo "==> gabm --trace smoke"
rm -f TRACE_lint.json
"$GABM" lint --construct slew-rate --trace TRACE_lint.json
"$GABM" trace TRACE_lint.json > /dev/null
rm -f TRACE_lint.json

# The run must leave tracked files as it found them (generated outputs
# belong in .gitignore'd paths).
if $in_git; then
    echo "==> tracked files unchanged by the run"
    if [ "$(git diff --binary | cksum)" != "$tracked_before" ]; then
        echo "FAIL: the run modified tracked files:" >&2
        git diff --stat >&2
        exit 1
    fi
fi

echo "CI OK"
