#!/bin/sh
# Run `all --config small` three ways and compare every artifact byte for
# byte: with one job, with each stage after gen in a fresh process (so every
# reader parses from disk), and with the stages that read neither
# addresses.jsonl nor events.jsonl run while both files are moved aside;
# then check that no run left a temporary *.tmp file behind.
# Needs awareflow importable (installed, or PYTHONPATH=src) and no scipy:
#
#     sh scripts/check_small_runs.sh [scratch-dir]
set -eu
dir=${1:-$(mktemp -d)}
run() { python -m awareflow.cli "$@"; }
compare() { python "$(dirname "$0")/compare_runs.py" "$@"; }

run all --config small --out "$dir/s"
run all --config small --out "$dir/s1" --jobs 1
compare "$dir/s" "$dir/s1"
cp -r "$dir/s" "$dir/s2"
for stage in infer-net label segment cohort geo-corr regress report; do
  run "$stage" --config small --out "$dir/s2"
done
compare "$dir/s" "$dir/s2"
cp -r "$dir/s" "$dir/s3"
mkdir "$dir/aside"
mv "$dir/s3/dataset/addresses.jsonl" "$dir/s3/dataset/events.jsonl" "$dir/aside/"
for stage in segment cohort geo-corr regress report; do
  run "$stage" --config small --out "$dir/s3"
done
mv "$dir/aside/addresses.jsonl" "$dir/aside/events.jsonl" "$dir/s3/dataset/"
compare "$dir/s" "$dir/s3"
# every write renames its <name>.tmp into place or removes it
leftover=$(find "$dir" -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "temporary files left behind:" >&2
  echo "$leftover" >&2
  exit 1
fi
