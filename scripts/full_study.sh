#!/usr/bin/env bash
# Full study at paper-scale budgets: clean + random baselines for all
# controllers, delay-constrained attacks on each rule-based target and on the
# learned controller, transfer matrix, burst-trace case study, and the
# retraining mixing-probability sweep. At configs/default.yaml it runs to
# the end in about 16 s of wall time (16.5, 16.4 and 15.8 s measured) at
# --workers 2 on a 2-core host with Python 3.11.
set -euo pipefail
cd "$(dirname "$0")/.."
# ccprobe runs from its source tree
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

# run one ccprobe subcommand, then print "[time] <subcommand> <seconds>" to
# stderr; the CSVs carry no timings
ccprobe() {
    local t0=$EPOCHREALTIME
    python3 -m ccprobe "$@"
    local t1=$EPOCHREALTIME
    awk -v c="$1" -v a="$t0" -v b="$t1" 'BEGIN { printf "[time] %s %.2f\n", c, b - a }' >&2
}

CFG=${1:-configs/default.yaml}
OUT=${CCPROBE_OUT:-runs/full}
mkdir -p "$OUT"

ccprobe baseline --config "$CFG" --controllers reno,cubic,vegas,illinois,lp,bbrlite \
    --setting both --out "$OUT/baseline" --workers "$(nproc)"

seed=1
for target in reno cubic vegas illinois lp; do
    ccprobe attack --config "$CFG" --controller "$target" \
        --out "$OUT/attacks" --seed "$seed" --workers "$(nproc)"
    seed=$((seed + 1))
done

ccprobe train --config "$CFG" --out "$OUT/train" --workers "$(nproc)"
ccprobe attack --config "$CFG" --controller learned \
    --checkpoint "$OUT/train/learned.ckpt" --out "$OUT/attacks" --seed "$seed" \
    --workers "$(nproc)"

ccprobe transfer --config "$CFG" --traces "$OUT/attacks" \
    --controllers reno,cubic,vegas,illinois,lp,learned \
    --checkpoint "$OUT/train/learned.ckpt" --out "$OUT/transfer" \
    --workers "$(nproc)"

ccprobe lp-case --config "$CFG" --checkpoint "$OUT/train/learned.ckpt" \
    --out "$OUT/lp-case" --workers "$(nproc)"

# sweep-p also writes the configured mix_p's retrained.ckpt and
# retrain_eval.csv, which a retrain call would compute again
ccprobe sweep-p --config "$CFG" --init "$OUT/train/learned.ckpt" \
    --pool-adv "$OUT/attacks" --out "$OUT/sweep" --workers "$(nproc)"

echo "full study complete: see $OUT/"
