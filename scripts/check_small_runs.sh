#!/bin/sh
# For each of the presets small, fig1a and recovery (whose config differs
# most: no marks, checkpoint percentages 20-60), run `all` four ways and
# compare every artifact byte for byte: with one job, with two (the dataset
# written by a forked process beside the later stages, whatever the runner's
# core count), with each stage after gen in a fresh process (so every reader
# parses from disk), and with the stages that read neither the address
# columns nor events.jsonl run while those files are moved aside.  Export
# the dataset as JSONL, as data brought in by hand, and check that `all`
# with the config less its simulator section stores it as gen stored the
# generated dataset, byte for byte, and writes the same analytic
# artifacts, and that a second such run, with the other --jobs setting,
# changes no file.  Then check that a stage refuses artifacts older than the
# dataset (exit 4) until the later stages run again, that the command-line
# flags set the config keys they name, that a failed dataset write leaves
# the same files under both --jobs settings, that scripts/stage_peaks.py
# runs, and that no run left a temporary *.tmp file behind.
# Needs awareflow importable (installed, or PYTHONPATH=src) and no scipy:
#
#     sh scripts/check_small_runs.sh [scratch-dir]
set -eu
dir=${1:-$(mktemp -d)}
run() { python -m awareflow.cli "$@"; }
compare() { python "$(dirname "$0")/compare_runs.py" "$@"; }

# export the dataset that gen stored in $1 into $2 as data brought in:
# the four JSONL tables of save_dataset, beside its calendar.json
export_jsonl() {
  python - "$@" <<'PY'
import os
import sys

from awareflow import files

src, dst = sys.argv[1:]
dataset = files.load_stored(src)
files.save_dataset(dataset, dst)
files.write_calendar(os.path.join(dst, "calendar.json"), dataset.calendar)
PY
}

# write the preset $1 less its simulator section into the config file $2
without_simulator() {
  python - "$@" <<'PY'
import json
import sys

from awareflow.presets import load_preset

config = load_preset(sys.argv[1])
del config["simulator"]
with open(sys.argv[2], "w") as fh:
    json.dump(config, fh)
PY
}

# copy the analytic artifacts of the run $1 into $2: every file outside
# dataset/ but the manifests and the report
analytic() {
  mkdir "$2"
  find "$1" -maxdepth 1 -type f ! -name 'manifest_*' ! -name 'report.*' -exec cp {} "$2" \;
}

check() {
  config=$1
  d="$dir/$config"
  run all --config "$config" --out "$d/s"
  without_simulator "$config" "$d/ingest.json"
  export_jsonl "$d/s/dataset" "$d/h/dataset"
  run all --config "$d/ingest.json" --out "$d/h" --jobs 1
  # the stored files, less the brought tables that gen keeps as their source
  mkdir "$d/stored"
  cp "$d/h/dataset/"*.npy "$d/h/dataset/regions.jsonl" "$d/h/dataset/events.jsonl" \
    "$d/h/dataset/calendar.json" "$d/stored/"
  compare "$d/s/dataset" "$d/stored"
  analytic "$d/s" "$d/s_analytic"
  analytic "$d/h" "$d/h_analytic"
  compare "$d/s_analytic" "$d/h_analytic"
  cp -r "$d/h" "$d/h2"
  run all --config "$d/ingest.json" --out "$d/h2" --jobs 2
  compare "$d/h" "$d/h2"
  run all --config "$config" --out "$d/s1" --jobs 1
  compare "$d/s" "$d/s1"
  run all --config "$config" --out "$d/j2" --jobs 2
  compare "$d/s1" "$d/j2"
  cp -r "$d/s" "$d/s2"
  for stage in label infer-net segment cohort geo-corr regress report; do
    run "$stage" --config "$config" --out "$d/s2"
  done
  compare "$d/s" "$d/s2"
  cp -r "$d/s" "$d/s3"
  mkdir "$d/aside"
  mv "$d/s3/dataset/addresses."*.npy "$d/s3/dataset/events.jsonl" "$d/aside/"
  for stage in segment cohort geo-corr regress report; do
    run "$stage" --config "$config" --out "$d/s3"
  done
  mv "$d/aside/"* "$d/s3/dataset/"
  compare "$d/s" "$d/s3"
}

for config in small fig1a recovery; do
  check "$config"
done
# provenance: over a copy of a finished run, a dataset generated again with
# another seed makes `regress` exit 4 (its upstream manifests record the old
# dataset), and once every later stage has run again in order with that
# seed, `report` runs
d="$dir/provenance"
cp -r "$dir/small/s" "$d"
run gen --config small --seed 8 --out "$d"
code=0
run regress --config small --seed 8 --out "$d" 2>"$d/err" || code=$?
if [ "$code" -ne 4 ]; then
  echo "regress over a regenerated dataset exited $code, not 4:" >&2
  cat "$d/err" >&2
  exit 1
fi
for stage in label infer-net segment cohort geo-corr regress report; do
  run "$stage" --config small --seed 8 --out "$d"
done
# the per-stage timing script runs over a copy of a finished run
python "$(dirname "$0")/stage_peaks.py" small "$dir/small/s" --repeats 1
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
