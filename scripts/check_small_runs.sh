#!/bin/sh
# For each of the presets small, fig1a and recovery (whose config differs
# most: no marks, checkpoint percentages 20-60), run `all` four ways and
# compare every artifact byte for byte: with one job, with two (the dataset
# written by a forked process beside the later stages, whatever the runner's
# core count), with each stage after gen in a fresh process (so every reader
# parses from disk), and with the stages that read neither addresses.jsonl
# nor events.jsonl run while both files are moved aside; and check that the
# dataset, loaded and written again by the library, keeps its bytes.  Then
# check that the command-line flags set the config keys they name, that a
# failed dataset write leaves the same files under both --jobs settings, and
# that no run left a temporary *.tmp file behind.
# Needs awareflow importable (installed, or PYTHONPATH=src) and no scipy:
#
#     sh scripts/check_small_runs.sh [scratch-dir]
set -eu
dir=${1:-$(mktemp -d)}
run() { python -m awareflow.cli "$@"; }
compare() { python "$(dirname "$0")/compare_runs.py" "$@"; }

# load the dataset directory $1 (and its truth) and write it into $2
rewrite() {
  python - "$1" "$2" <<'PY'
import os
import sys

from awareflow import files
from awareflow.domain import DATASET_FILES

src, dst = sys.argv[1:]
calendar = files.read_calendar(os.path.join(src, "calendar.json"))
dataset = files.load_dataset(*(os.path.join(src, n) for n in DATASET_FILES), calendar=calendar)
truth = files.read_truth(src, dataset.population.ids)
files.save_dataset(dataset, dst)
files.write_calendar(os.path.join(dst, "calendar.json"), dataset.calendar)
files.write_truth(truth, dst)
PY
}

check() {
  config=$1
  d="$dir/$config"
  run all --config "$config" --out "$d/s"
  rewrite "$d/s/dataset" "$d/rewritten"
  compare "$d/s/dataset" "$d/rewritten"
  run all --config "$config" --out "$d/s1" --jobs 1
  compare "$d/s" "$d/s1"
  run all --config "$config" --out "$d/j2" --jobs 2
  compare "$d/s1" "$d/j2"
  cp -r "$d/s" "$d/s2"
  for stage in infer-net label segment cohort geo-corr regress report; do
    run "$stage" --config "$config" --out "$d/s2"
  done
  compare "$d/s" "$d/s2"
  cp -r "$d/s" "$d/s3"
  mkdir "$d/aside"
  mv "$d/s3/dataset/addresses.jsonl" "$d/s3/dataset/events.jsonl" "$d/aside/"
  for stage in segment cohort geo-corr regress report; do
    run "$stage" --config "$config" --out "$d/s3"
  done
  mv "$d/aside/addresses.jsonl" "$d/aside/events.jsonl" "$d/s3/dataset/"
  compare "$d/s" "$d/s3"
}

for config in small fig1a recovery; do
  check "$config"
done
# the flags set their keys over the config before it is checked: `all` on
# small with --seed and --phase-thresholds writes what `all` writes over a
# copy of small that carries the same seed and phase thresholds
d="$dir/flags"
mkdir -p "$d"
echo '{"growth_high": 0.9, "sustain_days": 2}' > "$d/th.json"
python - "$d" <<'PY'
import json
import sys

from awareflow.presets import load_preset

d = sys.argv[1]
config = load_preset("small")
config["seed"] = 8
with open(f"{d}/th.json") as fh:
    config["phase_thresholds"] = json.load(fh)
with open(f"{d}/config.json", "w") as fh:
    json.dump(config, fh)
PY
run all --config small --seed 8 --phase-thresholds "$d/th.json" --out "$d/by_flags"
run all --config "$d/config.json" --out "$d/by_file"
compare "$d/by_flags" "$d/by_file"
# a failed dataset write (a directory where events.jsonl is written) exits 2
# and leaves the same files with two jobs as with one: no stage after gen
d="$dir/failed_write"
for jobs in 1 2; do
  mkdir -p "$d/j$jobs/dataset/events.jsonl.tmp"
  code=0
  run all --config small --out "$d/j$jobs" --jobs "$jobs" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "all with a failed dataset write and --jobs $jobs exited $code, not 2" >&2
    exit 1
  fi
done
compare "$d/j1" "$d/j2"
rmdir "$d/j1/dataset/events.jsonl.tmp" "$d/j2/dataset/events.jsonl.tmp"
# every write renames its <name>.tmp into place or removes it
leftover=$(find "$dir" -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "temporary files left behind:" >&2
  echo "$leftover" >&2
  exit 1
fi
