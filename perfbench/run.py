#!/usr/bin/env python3
"""Pipeline benchmark for awareflow.

    python3 perfbench/run.py --workload perf-all [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it runs the workload's CLI invocation in fresh processes,
one at a time, for ``--seconds`` seconds, verifies every run's artifacts and
prints the end-to-end metrics.  With ``--trace 1`` it does the same untraced
runs, then one traced pass in its own process (``awareflow.cli.main`` with
the wrappers of ``tracer.py`` installed) and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program is run from this checkout's ``src/``; without it the benchmark
exits with status 2 and prints no result.  Scratch files go under
``.bench_build/`` and the run directories are removed at exit.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESETS = SRC / "awareflow" / "presets"
WORK = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "perfbench-traces"

# One benchmark invocation should end within three minutes; no child
# process may outlive this budget.
RUN_BUDGET_S = 170.0
REGRESS_SETUPS = 3
CONFIG_WRITES = 20
RECORDED_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "AWAREFLOW_NO_NUMBA",
)
REGRESS_OUTPUTS = ("schedule.tsv", "regression.tsv", "profiles.tsv")

# The perf preset at a tenth of its population: with 100k individuals one
# `all` takes about a minute on 2 cores, too long for the repeated runs a
# steady median needs.  Everything else in the preset is kept.
PERF_SCALE = {"simulator.n_individuals": 10_000, "regression.sample_size": 1_000}


@dataclass(frozen=True)
class Workload:
    command: str
    preset: str
    overrides: dict
    why: str


WORKLOADS = {
    "perf-all": Workload(
        "all", "perf", PERF_SCALE,
        "full run from nothing: simulation, JSONL write and hashing dominate (gen is about 70%)",
    ),
    "perf-regress": Workload(
        "regress", "perf", PERF_SCALE,
        "fresh-process re-fit over a finished run: the JSONL read path (load_dataset, read_edges) dominates",
    ),
}

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "out_mb": "MB"}


@dataclass
class Op:
    """One timed CLI invocation and its verification."""

    wall: float
    rss_mb: float
    returncode: int
    stages: dict
    tail: list
    out_mb: float = 0.0
    digest: str = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def workload_config(workload):
    cfg = json.loads((PRESETS / f"{workload.preset}.json").read_text(encoding="utf-8"))
    for dotted, value in workload.overrides.items():
        node = cfg
        *parents, key = dotted.split(".")
        for part in parents:
            node = node[part]
        node[key] = value
    return cfg


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(argv, timeout):
    """Run ``awareflow <argv>`` in a fresh interpreter; time it, take its RSS.

    ``stages`` holds the time between successive ``[<stage>] ok`` lines; the
    first stage's time also covers interpreter start and imports.
    """
    cmd = [sys.executable, "-m", "awareflow.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    stages, tail, last, status = {}, [], t0, None
    try:
        for line in proc.stdout:
            now = time.perf_counter()
            line = line.rstrip("\n")
            tail = (tail + [line])[-5:]
            if line.startswith("[") and line.endswith("] ok"):
                stages[line[1:-4]] = now - last
                last = now
        # wait4 gives this child's own peak RSS, not the children's maximum
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        watchdog.cancel()
        if status is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, stages, tail)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_problems(out_dir):
    """Every hash in every manifest must match the bytes on disk."""
    problems = []
    manifests = sorted(out_dir.glob("manifest_*.json"))
    if not manifests:
        return ["no manifest written"]
    for path in manifests:
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        for side in ("inputs", "outputs"):
            for rel, expected in manifest.get(side, {}).items():
                # inputs from outside the run (the bundled patterns) are
                # recorded by file name only
                candidates = (out_dir / rel, PRESETS / rel)
                found = next((c for c in candidates if c.is_file()), None)
                if found is None:
                    problems.append(f"{path.name}: {side} {rel} missing")
                elif sha256_file(found) != expected:
                    problems.append(f"{path.name}: {side} {rel} hash mismatch")
    return problems


def analytic_digest(out_dir):
    """SHA-256 over every artifact outside ``dataset/``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel.startswith("dataset/"):
            continue
        h.update(f"{rel}\0{sha256_file(path)}\n".encode())
    return h.hexdigest()


def tree_mb(out_dir):
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) / 1e6


def verify(op, out_dir, reference=None, expect=None):
    """Fill in the op's problems, digest and output size."""
    if op.returncode != 0:
        op.problems.append(f"exit code {op.returncode}: {' | '.join(op.tail)}")
    op.problems += manifest_problems(out_dir)
    op.digest = analytic_digest(out_dir)
    op.out_mb = tree_mb(out_dir)
    if reference is not None and op.digest != reference:
        op.problems.append(f"analytic digest {op.digest[:12]} differs from {reference[:12]}")
    for name, digest in (expect or {}).items():
        if sha256_file(out_dir / name) != digest:
            op.problems.append(f"{name} differs from the setup run")
    return op


def read_stats(out_dir, stage):
    path = out_dir / f"manifest_{stage.replace('-', '_')}.json"
    return json.loads(path.read_text(encoding="utf-8")).get("stats", {})


def workload_shape(out_dir):
    gen = read_stats(out_dir, "gen")
    return {
        "individuals": gen.get("individuals"),
        "events": gen.get("events"),
        "edges": read_stats(out_dir, "infer-net").get("edges"),
        "events_jsonl_bytes": (out_dir / "dataset" / "events.jsonl").stat().st_size,
        "checkpoints": read_stats(out_dir, "regress").get("checkpoints"),
        "phases_complete": read_stats(out_dir, "segment").get("complete"),
    }


PROBE = (
    "import json, time; t = time.perf_counter(); import awareflow.cli; "
    "s = time.perf_counter() - t; import numpy, awareflow.kernels as k; "
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'import_s': s, 'backend': k.BACKEND, "
    "'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"
)


def probe():
    """Fresh interpreter: time to import ``awareflow.cli``, kernel backend, BLAS."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment(jobs, info):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": info["backend"],
        "blas": info["blas"],
        "cores": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "env_vars": {k: os.environ[k] for k in RECORDED_ENV if k in os.environ},
    }


class Bench:
    """One benchmark invocation: setup, timed runs, optional traced pass."""

    def __init__(self, name, workload, seed, seconds, jobs, work):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.jobs = jobs
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.run_config = workload_config(workload)
        self.config_path = None
        self.config_ids = itertools.count()
        self.ops = []
        self.setup_times = []
        self.reference = None  # analytic digest every run must reproduce
        self.expect = None  # regress outputs the setup run wrote
        self.target_dir = None  # where `regress` runs
        self.shape = None

    def argv(self, out_dir):
        return [
            self.workload.command, "--config", str(self.config_path), "--out", str(out_dir),
            "--seed", str(self.seed), "--jobs", str(self.jobs),
        ]

    def remaining(self):
        return self.deadline - time.perf_counter()

    def new_config(self):
        """Write the run config to a new file; returns the seconds it took."""
        self.config_path = self.work / f"config-{next(self.config_ids)}.json"
        t0 = time.perf_counter()
        text = json.dumps(self.run_config, sort_keys=True)
        with open(self.config_path, "x", encoding="utf-8") as fh:
            fh.write(text)
        return time.perf_counter() - t0

    def setup(self, repeats):
        """The finished runs `regress` reads; each must reproduce the first."""
        for k in range(repeats):
            t0 = time.perf_counter()
            self.new_config()
            out_dir = self.work / f"setup-{k}"
            op = run_cli(["all", *self.argv(out_dir)[1:]], self.remaining())
            self.setup_times.append(time.perf_counter() - t0)
            verify(op, out_dir, self.reference)
            if op.problems:
                raise SystemExit(f"setup run {k} failed: " + "; ".join(op.problems))
            if k == 0:
                self.reference, self.target_dir = op.digest, out_dir
                self.shape = workload_shape(out_dir)
                self.expect = {n: sha256_file(out_dir / n) for n in REGRESS_OUTPUTS}
            else:
                shutil.rmtree(out_dir)

    def out_dir_for_op(self, label):
        if self.target_dir is not None:
            return self.target_dir
        out_dir = self.work / label
        shutil.rmtree(out_dir, ignore_errors=True)
        return out_dir

    def finish_op(self, op, out_dir):
        verify(op, out_dir, self.reference, self.expect)
        if self.reference is None and op.ok:
            self.reference = op.digest
        if self.shape is None and op.ok:
            self.shape = workload_shape(out_dir)
        if out_dir != self.target_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(op)
        return op

    def timed_runs(self):
        start = time.perf_counter()
        while not self.ops or time.perf_counter() - start < self.seconds:
            if self.target_dir is None:
                # `all` needs only its config: write it afresh before each run,
                # so the setup samples spread over the whole measurement
                self.setup_times += [self.new_config() for _ in range(CONFIG_WRITES)]
            out_dir = self.out_dir_for_op(f"op-{len(self.ops)}")
            self.finish_op(run_cli(self.argv(out_dir), self.remaining()), out_dir)

    def traced_run(self):
        """One pass of ``awareflow.cli.main`` in this process, traced."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        out_dir = self.out_dir_for_op("traced")
        t0 = time.perf_counter()
        import awareflow.cli as cli

        import_s = time.perf_counter() - t0
        trace = tracer.Tracer(tracer.TARGETS)
        captured = io.StringIO()
        with trace, contextlib.redirect_stdout(captured):
            t1 = time.perf_counter()
            c1 = time.process_time()
            code = cli.main(self.argv(out_dir))
            wall = time.perf_counter() - t1
            cpu = time.process_time() - c1
        op = Op(import_s + wall, 0.0, code, {}, captured.getvalue().splitlines()[-5:])
        self.finish_op(op, out_dir)
        TRACES.mkdir(parents=True, exist_ok=True)
        spans_path = TRACES / f"{self.name}-{self.seed}.jsonl"
        trace.write_spans(spans_path)
        return trace, op, wall, cpu, spans_path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the preset's seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "awareflow" / "cli.py").is_file():
        print(f"error: no awareflow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else workload_config(workload)["seed"]
    jobs = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return report(args, workload, seed, jobs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, workload, seed, jobs, work):
    bench = Bench(args.workload, workload, seed, args.seconds, jobs, work)
    info = probe()
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(environment(jobs, info), sort_keys=True))

    if workload.command == "regress":
        bench.setup(REGRESS_SETUPS if args.trace == 0 else 1)
    bench.timed_runs()
    untraced = median([op.wall for op in bench.ops])

    if args.trace:
        trace, op, wall, cpu, spans_path = bench.traced_run()
        imports = [info["import_s"]] + [probe()["import_s"] for _ in range(2)]
        values = trace.metrics()
        values["cli.import.s"] = median(imports)
        values["trace.wall_s"] = op.wall
        values["trace.overhead_s"] = op.wall - untraced
        units = tracer.metric_units(trace.targets)
        metrics = {name: values[name] for name in units}
        stage_sum = sum(v for k, v in metrics.items() if k.startswith("cli.stage.") and k.endswith(".s"))
        print(
            f"traced pass: import {op.wall - wall:.3f} s + main {wall:.3f} s"
            f" (cpu {cpu:.3f} s); stages sum {stage_sum:.3f} s;"
            f" untraced median {untraced:.3f} s; spans {len(trace.spans)} -> {spans_path.relative_to(ROOT)}"
        )
        print("absent: " + (", ".join(trace.absent) or "none"))
        if trace.unsized:
            print("unsized: " + ", ".join(sorted(trace.unsized)))
    else:
        metrics = {
            "wall_s": untraced,
            "peak_rss_mb": median([op.rss_mb for op in bench.ops]),
            "setup_s": median(bench.setup_times),
            "out_mb": median([op.out_mb for op in bench.ops]),
        }
        units = E2E_UNITS

    failed = sum(not op.ok for op in bench.ops)
    print("shape: " + json.dumps(bench.shape, sort_keys=True))
    print(f"digest: {bench.reference}")
    for k, op in enumerate(bench.ops):
        stages = " ".join(f"{s}={t:.2f}" for s, t in op.stages.items())
        status = "ok" if op.ok else "FAILED " + "; ".join(op.problems)
        print(f"run {k}: wall {op.wall:.3f} s rss {op.rss_mb:.1f} MB out {op.out_mb:.2f} MB {status} {stages}")
    print(f"setup runs: {len(bench.setup_times)}, median {median(bench.setup_times):.6f} s")
    print(f"failed_frac {failed / len(bench.ops)} ratio ({failed} of {len(bench.ops)})")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
