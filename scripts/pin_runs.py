#!/usr/bin/env python3
"""Rewrite the pinned bytes of the bundled runs.

Runs `awareflow all` on each config of CONFIGS in a temporary directory and
writes the SHA-256 of every file it leaves to tests/run_digests.tsv, one
``config, file, sha256`` line per file.  `tests/test_cli.py` runs the same
configs and names every file whose bytes differ from these pins.  A change
that alters bytes on purpose reruns this script and says which files
changed and why.  Needs awareflow importable (installed, or PYTHONPATH=src):

    python3 scripts/pin_runs.py
"""

import hashlib
import json
import os
import sys
import tempfile

from awareflow import cli
from awareflow.presets import load_preset

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "run_digests.tsv")

# config name -> (preset, settings over its sections); perf-10k is the perf
# preset at the scale of perfbench's PERF_SCALE
CONFIGS = {
    "small": ("small", {}),
    "fig1a": ("fig1a", {}),
    "recovery": ("recovery", {}),
    "perf-10k": (
        "perf", {"simulator": {"n_individuals": 10_000}, "regression": {"sample_size": 1_000}},
    ),
}


def run_digests(name, directory):
    """Run `all` on config ``name`` into ``directory``/run; the SHA-256 of
    every file it wrote, by path relative to the run directory."""
    preset, settings = CONFIGS[name]
    config = load_preset(preset)
    for section, values in settings.items():
        config[section].update(values)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(directory, "run")
    if cli.main(["all", "--config", path, "--out", out]) != 0:
        raise SystemExit(f"`all` on {name} failed")
    digests = {}
    for dirpath, _, names in os.walk(out):
        for file in names:
            with open(os.path.join(dirpath, file), "rb") as fh:
                rel = os.path.relpath(os.path.join(dirpath, file), out).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_pins():
    """config name -> {file: SHA-256} of the pins file."""
    pins = {}
    with open(PINS) as fh:
        next(fh)  # the header
        for line in fh:
            config, file, digest = line.split()
            pins.setdefault(config, {})[file] = digest
    return pins


def main():
    lines = ["config\tfile\tsha256\n"]
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as directory:
            digests = run_digests(name, directory)
        lines += [f"{name}\t{file}\t{digests[file]}\n" for file in sorted(digests)]
    with open(PINS, "w") as fh:
        fh.writelines(lines)
    print(f"{len(lines) - 1} files pinned in {os.path.normpath(PINS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
