#!/usr/bin/env bash
# Byte-compares this checkout's figure and report outputs with those of
# another revision, to show that a change moves no output.
#
# Usage: scripts/same_outputs.sh <rev>
#
# Builds <rev> from `git archive` in a temporary directory, offline and
# with its own target directory, and builds this checkout as it stands
# (uncommitted edits included). Every binary of both builds runs in a
# fresh directory outside any checkout, so report provenance reads
# `unknown` on both sides. Compares stdout, stderr, the exit status and
# every file a run writes with `cmp`, prints one line per
# output, and exits 1 if any output differs (2 on bad usage). The
# temporary directory is removed on exit. Not a check.sh step: it needs a
# second build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") \
  || { echo "$0: unknown revision \`$1\`" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"

bins=(fig6 fig8 fig9 fig10 fig11 lowpower offdimm crossover hammer_report leakage_gate
  table1 table2 fig13 area stash coresident probe probe2 calibrate)
# The example applications drive the protocols and `Machine` through
# their public API.
examples=(quickstart protocol_compare secure_kv attack_demo)
bin_flags=(-p sdimm-bench -p sdimm-examples)
for b in "${bins[@]}" "${examples[@]}"; do bin_flags+=(--bin "$b"); done
echo "==> building $(git rev-parse --short=12 "$rev") (old) and this checkout (new)"
(cd "$tmp/src" && cargo build --release --offline -q "${bin_flags[@]}" --target-dir "$tmp/target")
cargo build --release --offline -q "${bin_flags[@]}" --target-dir target
old_bin="$tmp/target/release"
new_bin="$PWD/target/release"

# One case: a name, a binary and its arguments, run at quick scale from
# a fresh directory per side.
cases=(
  "fig6-ddr3|fig6 --audit --standard ddr3_1600"
  "fig6-ddr4|fig6 --audit --standard ddr4_2400"
  "fig8|fig8 --audit"
  "fig9|fig9 --audit"
  "fig10|fig10 --audit"
  "fig11|fig11 --audit"
  "lowpower|lowpower --audit"
  "offdimm|offdimm --audit"
  "fig6-instrumented|fig6 --audit --flight-recorder flight --profile-folded quick-fig6.folded \
--metrics-json quick-fig6.metrics.json --trace-json quick-fig6.trace.json"
  "crossover|crossover"
  "hammer_report|hammer_report --report BENCH_hammer.json"
  "leakage_gate|leakage_gate --report leakage-report.json"
  "table1|table1"
  "table2|table2"
  "fig13|fig13"
  "area|area"
  "stash|stash"
  "coresident|coresident"
  "probe|probe"
  "probe2|probe2"
  "calibrate|calibrate"
  "quickstart|quickstart"
  "protocol_compare|protocol_compare"
  "secure_kv|secure_kv"
  "attack_demo|attack_demo"
)

for case in "${cases[@]}"; do
  name=${case%%|*}
  read -r -a cmd <<< "${case#*|}"
  echo "==> $name"
  for side in old new; do
    dir="$tmp/run/$side/$name"
    mkdir -p "$dir"
    bin_dir=$old_bin
    [ "$side" = new ] && bin_dir=$new_bin
    status=0
    (cd "$dir" && SDIMM_BENCH_SCALE=quick "$bin_dir/${cmd[0]}" "${cmd[@]:1}" \
      > "$dir/stdout" 2> "$dir/stderr") || status=$?
    echo "$status" > "$dir/exit-status"
  done
done

echo "==> comparing"
differ=0
for case in "${cases[@]}"; do
  name=${case%%|*}
  outputs=$( (cd "$tmp/run/old/$name" && find . -type f; cd "$tmp/run/new/$name" && find . -type f) \
    | sed 's|^\./||' | sort -u)
  while IFS= read -r out; do
    old="$tmp/run/old/$name/$out" new="$tmp/run/new/$name/$out"
    if [ ! -f "$old" ] || [ ! -f "$new" ]; then
      echo "MISSING  $name/$out (written by one side only)"
      differ=1
    elif cmp -s "$old" "$new"; then
      echo "same     $name/$out"
    else
      echo "DIFFERS  $name/$out"
      differ=1
    fi
  done <<< "$outputs"
done
if [ "$differ" -ne 0 ]; then
  echo "outputs differ from $1"
  exit 1
fi
echo "every output is byte-identical to $1"
