#!/usr/bin/env bash
# Build, test, and regenerate every paper artifact in one go.
# Outputs land in test_output.txt / bench_output.txt at the repo root, the
# per-figure CSVs in the working directory, and the telemetry artifacts
# (Prometheus text + Chrome trace JSON per instrumented bench, see
# docs/OBSERVABILITY.md) under $TELEMETRY_DIR (default telemetry-out/).
set -euo pipefail

cd "$(dirname "$0")/.."

TELEMETRY_DIR="${TELEMETRY_DIR:-telemetry-out}"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Every bench registered in bench/CMakeLists.txt must exist — a missing
# binary means the build silently dropped an artifact, so fail loudly
# instead of skipping it.
BENCHES=(
  fig2_ptw_ratio fig3_heatmap_ibs fig4_heatmap_abit fig5_cdf fig6_hitrate
  table4_detected_pages table_overhead table_speedup profiler_compare
  ablation_fusion ablation_epoch ablation_shootdown ablation_gating
  robustness chaos topology consolidation arch_compare
  micro_hotpath
)
missing=0
for b in "${BENCHES[@]}"; do
  if [ ! -x "build/bench/$b" ]; then
    echo "ERROR: bench binary build/bench/$b is missing" >&2
    missing=$((missing + 1))
  fi
done
if [ "$missing" -gt 0 ]; then
  echo "ERROR: $missing bench binaries missing — check the build log" >&2
  exit 1
fi

# Benches with telemetry plumbing export their own metrics + trace files.
declare -A TELEMETRY_FLAGS=(
  [table_speedup]=1 [fig6_hitrate]=1 [robustness]=1 [chaos]=1
  [table_overhead]=1
)
mkdir -p "$TELEMETRY_DIR"

{
  for b in "${BENCHES[@]}"; do
    echo "==================== $b ===================="
    if [ "${TELEMETRY_FLAGS[$b]:-0}" = "1" ]; then
      "build/bench/$b" \
        "--metrics-out=$TELEMETRY_DIR/$b.prom" \
        "--trace-out=$TELEMETRY_DIR/$b.trace.json"
    elif [ "$b" = "topology" ]; then
      # N-tier ladder x devmon ablation (docs/TOPOLOGY.md); keeps the CSV.
      build/bench/topology --csv-out=topology.csv
    else
      "build/bench/$b"
    fi
    echo
  done
  # Fleet consolidation (docs/CONSOLIDATION.md) is a separate mode of the
  # consolidation bench: a latency service plus churning batch tenants
  # under quota arbitration. Writes fleet.csv plus its own telemetry pair.
  echo "==================== consolidation --fleet ===================="
  build/bench/consolidation --fleet --qos=latency \
    "--metrics-out=$TELEMETRY_DIR/fleet.prom" \
    "--trace-out=$TELEMETRY_DIR/fleet.trace.json"
  echo
} 2>&1 | tee bench_output.txt

# micro_hotpath refreshes the tracked BENCH_hotpath.json; an empty or
# missing file means the bench did not run to completion.
if [ ! -s BENCH_hotpath.json ]; then
  echo "ERROR: micro_hotpath did not write BENCH_hotpath.json" >&2
  exit 1
fi

echo "Done. See test_output.txt, bench_output.txt, fig*_*.csv, fleet.csv," \
     "topology.csv, BENCH_hotpath.json and $TELEMETRY_DIR/*.prom /" \
     "*.trace.json."
