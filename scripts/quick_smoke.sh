#!/usr/bin/env bash
# End-to-end smoke run with tiny budgets (about 5 s on 2 cores). Exercises
# every subcommand; outputs land under runs/smoke.
set -euo pipefail
cd "$(dirname "$0")/.."
# ccprobe runs from its source tree
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

OUT=runs/smoke
CFG=$OUT/cfg.yaml
mkdir -p "$OUT"
cat > "$CFG" <<'EOF'
sim: {episode_duration_s: 10.0}
traces: {n: 3}
adversary: {episodes: 48, rollouts: 4}
train: {episodes: 48, population: 16}
seed: 7
EOF

python3 -m ccprobe gen-trace --n 3 --length 100 --out "$OUT/traces" --seed 7
python3 -m ccprobe export --trace "$OUT/traces/trace_000.trace" --dest "$OUT/trace_000.mahi"

python3 -m ccprobe baseline --config "$CFG" --controllers reno,cubic,vegas,illinois,lp,bbrlite \
    --setting both --out "$OUT/baseline" --workers "$(nproc)"
python3 -m ccprobe lp-case --config "$CFG" --out "$OUT/lp-case"

python3 -m ccprobe attack --config "$CFG" --controller reno  --out "$OUT/attacks" --seed 1 \
    --workers "$(nproc)"
python3 -m ccprobe attack --config "$CFG" --controller vegas --out "$OUT/attacks" --seed 2 \
    --workers "$(nproc)"
python3 -m ccprobe transfer --config "$CFG" --traces "$OUT/attacks" \
    --controllers reno,vegas --out "$OUT/transfer" --workers "$(nproc)"

python3 -m ccprobe train --config "$CFG" --out "$OUT/train" --workers "$(nproc)"
# the learned factory (policy read once from the checkpoint) reaches the
# forked workers with its jobs
python3 -m ccprobe baseline --config "$CFG" --controllers reno,learned \
    --checkpoint "$OUT/train/learned.ckpt" --setting clean \
    --out "$OUT/baseline-learned" --workers "$(nproc)"
python3 -m ccprobe retrain --config "$CFG" --init "$OUT/train/learned.ckpt" \
    --pool-adv "$OUT/attacks" --mix-p 0.2 --episodes 32 --out "$OUT/retrain" \
    --workers "$(nproc)"
python3 -m ccprobe sweep-p --config "$CFG" --init "$OUT/train/learned.ckpt" \
    --pool-adv "$OUT/attacks" --episodes 32 --out "$OUT/sweep" \
    --workers "$(nproc)"

echo "smoke run complete: see $OUT/"
