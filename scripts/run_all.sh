#!/usr/bin/env bash
# Builds everything, runs the example requests, the full test suite,
# every experiment bench, the differential fuzzer, and all examples.
# Outputs land in ./out.  Fails fast: any failing step aborts the script
# with a pointer to the command that broke.
set -euo pipefail
trap 'echo "run_all.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

mkdir -p out out/metrics

# Validate and run every example request (scripted ones included).
./build/tools/aqt-sim --batch examples/requests | tee out/batch_output.txt

# Static determinism audit of the sources themselves (AUD001..AUD007);
# any finding aborts the script via the ERR trap above.
./build/tools/aqt-audit --metrics-out out/metrics/audit.metrics.json \
  src tools tests | tee out/audit_output.txt

# Record every example request (with the --replay-twice true determinism
# check), then re-verify each recorded run offline with aqt-verify; stable
# runs with an applicable theorem also get their certificate written next to
# the trace.  Each request also drops its metrics snapshot (JSON +
# Prometheus + CSV) and packet-lifecycle event stream into out/metrics/.
mkdir -p out/traces
for s in examples/requests/*.json; do
  name=$(basename "$s" .json)
  ./build/tools/aqt-sim --request "$s" \
    --record-run "out/traces/$name.trace" --replay-twice true \
    --profile true \
    --metrics-out "out/metrics/$name.metrics.json" \
    --metrics-prom "out/metrics/$name.prom" \
    --metrics-csv "out/metrics/$name.metrics.csv" \
    --events "out/metrics/$name.events.jsonl" >/dev/null
  ./build/tools/aqt-verify --certificate "out/traces/$name.cert" \
    --metrics-out "out/metrics/$name.verify.json" \
    "out/traces/$name.trace"
done 2>&1 | tee out/verify_output.txt

# Flight-recorder pass: timeseries + Perfetto trace + online watchdog on a
# stable reference run, both artifact validators, and the HTML report.
./build/tools/aqt-sim --topology ring:12 --protocol NTG \
  --adversary stochastic --w 12 --r 1/5 --d 4 --steps 20000 \
  --watchdog true \
  --timeseries out/metrics/flight.csv \
  --trace-out out/metrics/flight.trace.json \
  --metrics-out out/metrics/flight.metrics.json | tee out/flight_output.txt
python3 scripts/validate_trace_event.py out/metrics/flight.trace.json
python3 scripts/lint_prometheus.py out/metrics/*.prom
./build/tools/aqt-report --timeseries out/metrics/flight.csv \
  --metrics out/metrics/flight.metrics.json --notes out/flight_output.txt \
  --title "flight recorder reference run" --out out/metrics/flight.html

ctest --test-dir build --output-on-failure 2>&1 | tee out/test_output.txt

for b in build/bench/bench_*; do
  echo "=== $(basename "$b") ==="
  if [ "$(basename "$b")" = "bench_e12_engine_perf" ]; then
    # The engine-perf bench also writes a machine-readable perf snapshot used
    # to track steps/sec across commits.
    "$b" --perf-json=out/metrics/BENCH_engine_perf.json
  else
    "$b"
  fi
done 2>&1 | tee out/bench_output.txt

./build/tools/aqt-fuzz --trials 200 --steps 80 \
  --metrics-out out/metrics/fuzz.metrics.json | tee out/fuzz_output.txt

for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue  # skip CMake's own directories
  echo "=== $(basename "$e") ==="
  "$e"
done 2>&1 | tee out/examples_output.txt

echo "All outputs in ./out"
