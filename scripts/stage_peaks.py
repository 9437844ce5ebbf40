#!/usr/bin/env python3
"""Wall time and peak RSS of a fresh `all` and of each stage after gen, each
run in a fresh process.

    python3 scripts/stage_peaks.py <config> [<finished run>] [--repeats N]

Runs ``python -m awareflow.cli all --config <config>`` N times (3 by
default), each into a new temporary directory.  Then copies the finished run
directory, or without one the first of those `all` runs, into a temporary
directory and runs ``python -m awareflow.cli <stage> --config <config> --out
<copy>`` for every stage after gen, in pipeline order, N times over, so that
the runs of each stage alternate with those of the others.  Every stage
parses what it reads from disk, as a stage run alone does.  Prints one line
for `all` and one per stage: the median wall time and the median peak RSS
(``os.wait4``'s ``ru_maxrss``, the largest of the process and of the
children it reaped, such as the dataset writer `all` forks) of its runs.
Exits 1 if a run fails, leaving the run directory as it was in every case.
Needs awareflow importable (installed, or PYTHONPATH=src).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

from awareflow.cli import STAGES


def run_stage(stage, config, out):
    """(wall seconds, peak RSS in MB) of one fresh ``awareflow <stage>``."""
    cmd = [sys.executable, "-m", "awareflow.cli", stage, "--config", config, "--out", out]
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            text = err.read().decode(errors="replace")
            raise SystemExit(f"{stage} exited {proc.returncode}:\n{text}")
    return wall, usage.ru_maxrss / 1024  # Linux counts ru_maxrss in KB


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="preset name or JSON config path")
    parser.add_argument(
        "run", nargs="?", help="a finished run directory (left unchanged); default: a fresh `all`"
    )
    parser.add_argument("--repeats", type=int, default=3, help="runs of `all` and of each stage")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.run is not None and not os.path.isdir(args.run):
        parser.error("needs --repeats of at least 1 and, if named, a run directory")
    stages = list(STAGES)[1:]
    runs = {"all": [], **{stage: [] for stage in stages}}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.repeats):
            fresh = os.path.join(tmp, f"all-{k}")
            runs["all"].append(run_stage("all", args.config, fresh))
            if k:
                shutil.rmtree(fresh)
        out = os.path.join(tmp, "run")
        shutil.copytree(args.run or os.path.join(tmp, "all-0"), out)
        for _ in range(args.repeats):
            for stage in stages:
                runs[stage].append(run_stage(stage, args.config, out))
    print(f"{'stage':<10} {'wall_s':>8} {'peak_mb':>8}")
    for stage, measured in runs.items():
        walls, peaks = zip(*measured)
        print(f"{stage:<10} {median(walls):>8.3f} {median(peaks):>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
