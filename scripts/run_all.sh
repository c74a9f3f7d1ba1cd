#!/usr/bin/env bash
# Full experiment battery at publication scale.  Results land under ./runs/;
# every experiment directory gets a config.snapshot, results.csv, report.txt
# and an append-only manifest.jsonl (certify directories have no snapshot;
# simulate and couple write cycles.csv / couple.csv instead of results).
#
# Usage: scripts/run_all.sh [WORKERS]
set -euo pipefail

workers="${1:-4}"
here="$(cd "$(dirname "$0")" && pwd)"
configs="$here/configs"
runs="${RUNS_DIR:-runs}"

mkdir -p "$runs"

echo "== one-shot sanity =="
regenlab simulate --cycles 1000 --out "$runs/simulate-demo"
regenlab greeks --cycles 100000
regenlab greeks --config "$configs/greeks_mm1.cfg" --cycles 100000
regenlab couple --t 256 --out "$runs/couple-demo"

echo "== closed-form bound values =="
regenlab bounds poisson-inverse-tail --t 1024 --x 147 --gamma 1
regenlab bounds renewal-count-tail --t 20 --x 6.67 --mu 1 --laplace exp:1
regenlab bounds brownian-sup-tail --t 100 --x 40 --d 1

echo "== certifications (oracle vs bound) =="
for name in poisson-inverse renewal-count block-maximal random-sum \
            grid-increment brownian-sup nagaev; do
  regenlab certify "$name" --out "$runs/certify-$name"
done

echo "== experiments =="
regenlab rate   --config "$configs/rate_gamma.cfg"            --out "$runs/rate-shared"      --workers "$workers"
# the uncoupled null must FAIL its rate threshold: exit 1, not 0 or a fault
rc=0
regenlab rate   --config "$configs/rate_independent_null.cfg" --out "$runs/rate-independent" --workers "$workers" || rc=$?
[ "$rc" -eq 1 ] || { echo "rate-independent: expected exit 1 (FAIL), got $rc" >&2; exit 1; }
regenlab tail   --config "$configs/tail_gamma.cfg"            --out "$runs/tail-shared"      --workers "$workers"
regenlab phis   --config "$configs/phis_gamma.cfg"            --out "$runs/phis-shared"      --workers "$workers"
regenlab maxima --config "$configs/maxima_pareto.cfg"         --out "$runs/maxima-pareto"    --workers "$workers"

echo "All runs complete; see $runs/"
