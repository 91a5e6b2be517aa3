#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
#
# Usage: scripts/check.sh
#
# Runs the same three checks a future CI job should run. Fails fast on the
# first broken step so local iterations stay quick.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sdimm-lint (cycle arithmetic, secret hygiene, timing constants, panic budget, wall-clock, secret flow)"
cargo run --release -q -p sdimm-lint -- --json target/lint-report.json

echo "==> sdimm-lint L6 secret-flow self-scan (JSON kept as a CI artifact)"
cargo run --release -q -p sdimm-lint -- --pass l6 --json target/lint-l6.json > /dev/null

echo "==> cargo test -q"
cargo test -q

echo "==> telemetry overhead gate (disabled sink/wear <2%, enabled recorder/wear <5%)"
cargo run --release -q -p sdimm-bench --bin telemetry_overhead -- \
  --json target/telemetry-overhead.json

echo "==> audit-strict feature compiles"
cargo check -q -p sdimm-bench --features audit-strict

echo "==> audited quick-scale fig6 (DDR replay + ORAM oracle must be clean)"
# Build first so the timing below measures the run, not compilation.
cargo build --release -q -p sdimm-bench --bin fig6
fig6_t0=$(date +%s%N)
SDIMM_BENCH_SCALE=quick cargo run --release -q -p sdimm-bench --bin fig6 -- --audit \
  --flight-recorder target/quick-fig6-flight \
  --profile-folded target/quick-fig6.folded \
  --metrics-json target/quick-fig6.metrics.json \
  --trace-json target/quick-fig6.trace.json > /dev/null
fig6_t1=$(date +%s%N)
# One-line wall-clock record for the audited run, kept as a CI artifact
# so simulator-throughput trends are visible across commits.
echo "audited_quick_fig6_wall_ms=$(( (fig6_t1 - fig6_t0) / 1000000 ))" \
  | tee target/quick-fig6.timing.txt

echo "==> audited quick-scale fig6 on DDR4-2400 (spec-driven backend: bank-group replay must be clean)"
SDIMM_BENCH_SCALE=quick cargo run --release -q -p sdimm-bench --bin fig6 -- \
  --audit --standard ddr4_2400 > /dev/null

echo "==> protocol-crossover figure (all four standards; byte-stable across runs)"
# Two runs from sibling directories, compared byte-for-byte: the report
# must be a pure function of the simulated streams (provenance + cycles,
# no wall clock). The compared copy is kept as a CI artifact.
cargo build --release -q -p sdimm-bench --bin crossover
mkdir -p target/crossover-1 target/crossover-2
(cd target/crossover-1 && SDIMM_BENCH_SCALE=quick ../../target/release/crossover > /dev/null)
(cd target/crossover-2 && SDIMM_BENCH_SCALE=quick ../../target/release/crossover > /dev/null)
cmp target/crossover-1/BENCH_crossover.json target/crossover-2/BENCH_crossover.json \
  || { echo "crossover reports differ between runs — figure is nondeterministic"; exit 1; }
cp target/crossover-1/BENCH_crossover.json target/BENCH_crossover.json

echo "==> simulator-throughput + crypto perf gates (bench_compare vs committed baselines)"
cargo run --release -q -p sdimm-bench --bin bench_compare

echo "==> folded profile validates (no empty stacks, weights sum to sampled cycles)"
cargo run --release -q -p sdimm-bench --bin validate_folded -- target/quick-fig6.folded

echo "==> RowHammer threat report (wear counts must match the replay recount; byte-stable)"
# Two runs compared byte-for-byte, like the crossover figure: the wear
# observatory's report must be a pure function of the simulated command
# streams. The binary itself exits nonzero if any cell's per-row ACT
# totals disagree with the auditor's independent recount.
cargo build --release -q -p sdimm-bench --bin hammer_report
mkdir -p target/hammer-1 target/hammer-2
SDIMM_BENCH_SCALE=quick ./target/release/hammer_report \
  --report target/hammer-1/BENCH_hammer.json
SDIMM_BENCH_SCALE=quick ./target/release/hammer_report \
  --report target/hammer-2/BENCH_hammer.json > /dev/null
cmp target/hammer-1/BENCH_hammer.json target/hammer-2/BENCH_hammer.json \
  || { echo "hammer reports differ between runs — observatory is nondeterministic"; exit 1; }
cp target/hammer-1/BENCH_hammer.json target/BENCH_hammer.json

echo "==> timing-leakage gate (secure protocols indistinguishable, NonSecure detected)"
# Run twice and compare byte-for-byte: the verdict must be a pure
# function of the simulated streams, never of host timing or entropy.
SDIMM_BENCH_SCALE=quick cargo run --release -q -p sdimm-bench --bin leakage_gate -- \
  --report target/leakage-report.json
SDIMM_BENCH_SCALE=quick cargo run --release -q -p sdimm-bench --bin leakage_gate -- \
  --report target/leakage-report-2.json > /dev/null
cmp target/leakage-report.json target/leakage-report-2.json \
  || { echo "leakage reports differ between runs — gate is nondeterministic"; exit 1; }

echo "==> ledger: DDR replay of every trace workload, then the pinned seed-42 fingerprints"
# --verify replays each trace workload's command streams through the DDR
# auditor; each --workload run exits nonzero if its simulated fingerprint
# differs from the one pinned in the benchmark (--seconds 0 runs the
# minimum three repetitions).
cargo build --release -q -p sdimm-bench --bin ledger
./target/release/ledger --verify
for w in indep4-gromacs split4-gems freecursive-mcf nonsecure-lbm; do
  ./target/release/ledger --workload "$w" --seed 42 --seconds 0 > /dev/null \
    || { echo "ledger: $w does not reproduce its pinned fingerprint"; exit 1; }
done

echo "==> all checks passed"
