"""End-to-end command line runs on a miniature world: artifact layout,
manifest determinism, exit codes, flag handling."""

import builtins
import io
import json
import math
import os
import random
import re
import runpy
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from awareflow import cli, domain, files
from awareflow.config import load_run_config
from awareflow.errors import CohortError, NumericalError, ParseError
from awareflow.presets import load_preset

from conftest import assert_no_child_left, tree_hashes, wait_until_exited
from oracles import edge_file_scan, graph_edge_sets, jsonl_file_scan, jsonl_values, tsv_file_scan

STEP_MANIFESTS = (
    "manifest_gen.json",
    "manifest_infer_net.json",
    "manifest_label.json",
    "manifest_segment.json",
    "manifest_cohort.json",
    "manifest_geo_corr.json",
    "manifest_regress.json",
    "manifest_report.json",
)

ARTIFACTS = (
    "networks.edges",
    "qualified.txt",
    "labels.tsv",
    "national_trend.tsv",
    "province_trend.tsv",
    "phases.tsv",
    "trends.tsv",
    "cross_ratios.tsv",
    "neighborhood_ratios.tsv",
    "neighborhood_phase_means.tsv",
    "aware_purchasing_power.tsv",
    "hysteresis.tsv",
    "lead_days.tsv",
    "geo_correlations.tsv",
    "schedule.tsv",
    "regression.tsv",
    "profiles.tsv",
    "report.json",
    "report.txt",
)


@pytest.fixture(scope="module")
def all_run(micro_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("all_run")
    assert cli.main(["all", "--config", micro_config, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def ingest_config(micro_config, tmp_path_factory):
    """The micro config less its simulator section: `gen` then stores the
    JSONL tables brought into the dataset directory."""
    with open(micro_config) as fh:
        config = json.load(fh)
    del config["simulator"]
    path = tmp_path_factory.mktemp("cfg") / "ingest.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture(scope="module")
def jsonl_export(all_run, tmp_path_factory):
    """A run directory whose dataset is brought in: all_run's dataset as
    the four JSONL tables save_dataset exports, beside its calendar.json."""
    out = tmp_path_factory.mktemp("jsonl_export")
    dataset = files.load_stored(os.path.join(all_run, "dataset"))
    files.save_dataset(dataset, out / "dataset")
    files.write_calendar(out / "dataset" / "calendar.json", dataset.calendar)
    return str(out)


@pytest.fixture(scope="module")
def jsonl_run(jsonl_export, ingest_config, tmp_path_factory):
    """`all` over jsonl_export, with the micro config less its simulator section."""
    out = tmp_path_factory.mktemp("jsonl_run")
    shutil.copytree(jsonl_export, out, dirs_exist_ok=True)
    assert cli.main(["all", "--config", ingest_config, "--out", str(out)]) == 0
    return str(out)


def column_files(table):
    """The names of the column files of ``table`` in the dataset directory."""
    return [f"{table}.{name}.npy" for name in domain.COLUMN_TABLES[table].DTYPES]


def hand_brought(fault):
    """``fault``, made on jsonl_export, whose tables `gen` then reads: the
    config loses its simulator section."""
    def brought(out, config):
        del config["simulator"]
        return fault(out, config)

    brought.hand_brought = True
    return brought


def test_all_writes_every_artifact(all_run):
    for name in ARTIFACTS + STEP_MANIFESTS + ("manifest_all.json",):
        assert os.path.exists(os.path.join(all_run, name)), name
    tables = column_files("population") + column_files("addresses")
    dataset = sorted(os.listdir(os.path.join(all_run, "dataset")))
    assert dataset == sorted([*tables, "regions.jsonl", "events.jsonl", "calendar.json"])
    # every dataset file is read by a stage after gen
    read = set()
    for name in set(STEP_MANIFESTS) - {"manifest_gen.json"}:
        with open(os.path.join(all_run, name)) as fh:
            read.update(json.load(fh)["inputs"])
    assert [name for name in dataset if f"dataset/{name}" not in read] == []
    # every write renamed its temporary file into place
    assert not [name for _, _, names in os.walk(all_run) for name in names if name.endswith(".tmp")]


# the outputs a stage leaves loaded for the stages after it
KEPT_OUTPUTS = {
    "gen": {"dataset", "addresses", "events"},
    "infer-net": {"networks.edges"},
    "label": {"labels.tsv", "qualified.txt"},
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_lets_each_artifact_go_after_its_last_reader(micro_config, tmp_path, monkeypatch, jobs):
    held, states = [], []

    def watched(cmd):
        def run(state):
            held.append(set(state.loaded))  # what the stage before left loaded
            states.append(state)
            return cmd(state)
        return run

    for name, cmd in list(cli.STEP_FUNCS.items()):
        monkeypatch.setitem(cli.STEP_FUNCS, name, watched(cmd))
    out = str(tmp_path / "run")
    assert cli.main(["all", "--config", micro_config, "--out", out, "--jobs", jobs]) == 0
    held = held[1:] + [set(states[-1].loaded)]  # after each stage
    names = list(cli.STAGES)
    seen = set()
    for k, name in enumerate(names):
        seen |= set(cli.STAGES[name].reads) | KEPT_OUTPUTS.get(name, set())
        later = {artifact for s in names[k + 1 :] for artifact in cli.STAGES[s].reads}
        assert held[k] == seen & later, name
    assert held[-1] == set()
    assert {"events", "addresses"} <= held[0] and "events" not in held[2]


def test_manifest_shape(all_run, micro_config):
    with open(os.path.join(all_run, "manifest_label.json")) as fh:
        m = json.load(fh)
    assert m["command"] == "label"
    assert m["seed"] == 7
    assert set(m) == {
        "command", "version", "seed", "config_sha256", "inputs", "outputs", "stats",
    }
    assert "labels.tsv" in m["outputs"] and "qualified.txt" in m["outputs"]
    # paths are relative: determinism must survive a directory rename
    assert not any(p.startswith("/") for p in list(m["inputs"]) + list(m["outputs"]))
    assert m["stats"]["qualified"] > 0 and m["stats"]["aware"] > 0
    with open(os.path.join(all_run, "manifest_all.json")) as fh:
        top = json.load(fh)
    assert top["stats"]["steps"] == list(cli.STEP_FUNCS)


def test_report_is_consistent_with_manifests(all_run):
    with open(os.path.join(all_run, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(all_run, "manifest_segment.json")) as fh:
        seg = json.load(fh)
    assert report["phases_complete"] == seg["stats"]["complete"]
    assert report["final_percentage"] == seg["stats"]["final_percentage"]
    assert report["population"]["individuals"] == 400
    txt = open(os.path.join(all_run, "report.txt")).read()
    assert "phases" in txt and "checkpoints:" in txt


def test_stepwise_run_matches_all(all_run, micro_config, tmp_path):
    out = tmp_path / "steps"
    for name in cli.STEP_FUNCS:
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 0
    want = tree_hashes(all_run)
    got = tree_hashes(str(out))
    del want["manifest_all.json"]  # only `all` writes the umbrella manifest
    assert got == want


def test_same_seed_runs_are_byte_identical(all_run, micro_config, tmp_path, monkeypatch):
    log = tmp_path / "hashed.txt"
    sha256_file = files.sha256_file

    def logged(path):
        # a file, so that the forked dataset writer's hashes are seen too
        with open(log, "a") as fh:
            fh.write(f"{path}\n")
        return sha256_file(path)

    monkeypatch.setattr(files, "sha256_file", logged)
    for jobs in ("1", "2"):
        out = tmp_path / f"again{jobs}"
        assert cli.main(["all", "--config", micro_config, "--out", str(out), "--jobs", jobs]) == 0
        assert tree_hashes(str(out)) == tree_hashes(all_run)
        # seven manifests list the dataset files; each is hashed once
        hashed = log.read_text().splitlines()
        dataset = [p for p in hashed if os.path.dirname(p) == str(out / "dataset")]
        assert len(dataset) == len(set(dataset)) == len(os.listdir(out / "dataset"))


def test_jobs_do_not_change_any_artifact(micro_config, tmp_path):
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["all", "--config", micro_config, "--out", str(out), "--jobs", jobs]) == 0
        trees.append(tree_hashes(str(out)))
    assert trees[0] == trees[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_overlapped_run_flushes_output_before_the_fork(micro_config, tmp_path, monkeypatch):
    class Buffered(io.StringIO):
        pending = False

        def write(self, text):
            self.pending = True
            return super().write(text)

        def flush(self):
            self.pending = False

    monkeypatch.setattr(sys, "stdout", Buffered())
    monkeypatch.setattr(sys, "stderr", Buffered())
    print("before the run")
    print("before the run", file=sys.stderr)
    forks, fork = [], os.fork

    def watched_fork():
        forks.append((sys.stdout.pending, sys.stderr.pending))
        return fork()

    monkeypatch.setattr(os, "fork", watched_fork)
    args = ["all", "--config", micro_config, "--out", str(tmp_path / "run"), "--jobs", "2"]
    assert cli.main(args) == 0
    assert forks == [(False, False)]
    assert_no_child_left()


class ExitedForked(cli.jobs.Forked):
    """A forked child that has exited, unreaped, when the constructor returns."""

    def __init__(self, fn, *args):
        super().__init__(fn, *args)
        wait_until_exited(self.pid)


def failed_dataset_write(micro_config, out, jobs):
    """Run `all` into ``out`` with ``events.jsonl`` unwritable; the tree it leaves."""
    blocker = out / "dataset" / "events.jsonl.tmp"
    blocker.mkdir(parents=True)  # atomic_output cannot open it, even as root
    assert cli.main(["all", "--config", micro_config, "--out", str(out), "--jobs", jobs]) == 2
    assert [p for p in out.rglob("*.tmp") if p != blocker] == []
    return tree_hashes(str(out))


@pytest.mark.parametrize("jobs", ["1", "2", "2-failed-first"])
def test_a_failed_dataset_write_exits_2_without_gen_manifest(
    micro_config, tmp_path, capfd, monkeypatch, jobs
):
    if jobs == "2-failed-first":
        # the writer has failed before `all` reaches its first stage boundary
        monkeypatch.setattr(cli.jobs, "Forked", ExitedForked)
    tree = failed_dataset_write(micro_config, tmp_path / "run", jobs[0])
    out, err = capfd.readouterr()
    assert "cannot write" in err and "events.jsonl" in err
    assert "Traceback" not in err
    assert "manifest_gen.json" not in tree
    assert_no_child_left()
    if jobs == "2-failed-first":
        assert "[infer-net]" not in out
        assert tree == failed_dataset_write(micro_config, tmp_path / "one", "1")


@pytest.mark.skipif(not cli.jobs.can_fork(2), reason="needs os.fork")
def test_a_dataset_write_that_fails_after_later_stages_leaves_the_files_of_one_job(
    micro_config, tmp_path, capfd, monkeypatch
):
    one = failed_dataset_write(micro_config, tmp_path / "one", "1")
    labels = tmp_path / "two" / "labels.tsv"
    write_jsonl = files.write_jsonl

    def held(path, *args):
        # the forked writer inherits this: it fails on events.jsonl only
        # once `label` has written its outputs, or after 10 s
        deadline = time.monotonic() + 10
        while str(path).endswith("events.jsonl") and not labels.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        write_jsonl(path, *args)

    monkeypatch.setattr(files, "write_jsonl", held)
    capfd.readouterr()
    two = failed_dataset_write(micro_config, tmp_path / "two", "2")
    assert "[label] ok" in capfd.readouterr().out
    assert_no_child_left()
    assert two == one


def bad_patterns(tmp_path, config):
    path = tmp_path / "patterns.txt"
    path.write_bytes(b"(mask)\n\xff\xfe\n")
    return ["--patterns", str(path)]


def huge_sample(tmp_path, config):
    config["regression"]["sample_size"] = 10**9  # regress draws it after schedule.tsv


@pytest.mark.parametrize("fault", [bad_patterns, huge_sample], ids=["label", "regress"])
def test_a_later_stage_failure_leaves_what_one_process_leaves(micro_config, tmp_path, capsys, fault):
    with open(micro_config) as fh:
        config = json.load(fh)
    extra = fault(tmp_path, config) or []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        args = ["all", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs, *extra]
        assert cli.main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert_no_child_left()
        trees.append(tree_hashes(str(out)))
    assert "manifest_gen.json" in trees[0]
    assert trees[0] == trees[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_loading_a_file_the_writer_owns_waits_for_it(micro_config, tmp_path, monkeypatch):
    go = tmp_path / "go"
    write_columns = files.write_columns

    def held(directory, table, data):
        # the forked writer inherits this: it writes the address columns
        # only once the test says go, or after 10 s
        deadline = time.monotonic() + 10
        while table == "addresses" and not go.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return write_columns(directory, table, data)

    monkeypatch.setattr(files, "write_columns", held)
    state = cli.PipelineState(load_run_config(micro_config, out_dir=str(tmp_path)), fork_writer=True)
    try:
        cli.STEP_FUNCS["gen"](state)
        assert state.writer is not None
        assert not (tmp_path / "dataset" / "addresses.individual_id.npy").exists()
        assert not (tmp_path / "manifest_gen.json").exists()  # it waits for the writer
        addresses = state.loaded.pop("addresses")
        go.touch()
        assert state.load("addresses") == addresses
        assert state.writer is None
        assert (tmp_path / "manifest_gen.json").exists()
    finally:
        go.touch()
        state.join()
    assert_no_child_left()


def test_different_seed_differs(all_run, micro_config, tmp_path):
    out = tmp_path / "seeded"
    assert cli.main(["gen", "--config", micro_config, "--out", str(out), "--seed", "8"]) == 0
    with open(os.path.join(str(out), "manifest_gen.json")) as fh:
        m = json.load(fh)
    with open(os.path.join(all_run, "manifest_gen.json")) as fh:
        base = json.load(fh)
    assert m["seed"] == 8
    assert m["config_sha256"] != base["config_sha256"]
    assert m["outputs"]["dataset/events.jsonl"] != base["outputs"]["dataset/events.jsonl"]


def test_fresh_interpreter_reproduces_run(all_run, micro_config, tmp_path):
    out = tmp_path / "fresh"
    code = (
        "import sys; from awareflow import cli; "
        f"sys.exit(cli.main(['all', '--config', {micro_config!r}, '--out', {str(out)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert tree_hashes(str(out)) == tree_hashes(all_run)


def test_regress_leaves_numpy_ma_unimported(all_run, micro_config, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    code = (
        "import sys; from awareflow import cli; "
        f"code = cli.main(['regress', '--config', {micro_config!r}, '--out', {str(out)!r}]); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def run_with(micro_config, out, **settings):
    """`all` over the micro config with ``settings`` replaced; the exit code."""
    with open(micro_config) as fh:
        config = {**json.load(fh), **settings}
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(config))
    return cli.main(["all", "--config", str(path), "--out", str(out)])


def test_every_table_is_declared_and_reads_back_to_its_bytes(all_run, micro_config, tmp_path):
    no_marks = tmp_path / "no_marks"
    assert run_with(micro_config, no_marks, marks=[]) == 0
    # without event marks hysteresis.tsv is its header alone
    header = "\t".join(name for name, _ in cli.TABLES["hysteresis.tsv"]) + "\n"
    assert (no_marks / "hysteresis.tsv").read_text() == header
    for run in (all_run, str(no_marks)):
        tabular = {
            name for name in os.listdir(run)
            if os.path.isfile(os.path.join(run, name))
            and not name.endswith(".json") and name not in ("networks.edges", "report.txt")
        }
        assert tabular == set(cli.TABLES)
        for name, table in cli.TABLES.items():
            path = os.path.join(run, name)
            header = name != "qualified.txt"
            copy = tmp_path / "copy"
            files.write_tsv(copy, table, files.read_tsv(path, table, header=header), header=header)
            with open(path, "rb") as fh:
                assert copy.read_bytes() == fh.read(), name


def test_a_world_without_group_pairs_writes_an_empty_cross_ratio_table(micro_config, tmp_path):
    with open(micro_config) as fh:
        config = json.load(fh)
    config["simulator"]["n_individuals"] = 1  # one group per grouping: no pair
    out = tmp_path / "run"
    # regress then refuses the sample of the cohort of one
    assert run_with(micro_config, out, simulator=config["simulator"]) == 2
    header = "\t".join(name for name, _ in cli.TABLES["cross_ratios.tsv"]) + "\n"
    assert (out / "cross_ratios.tsv").read_text() == header


# the bytes of numbers, JSON and line ends, and one that is never UTF-8
MUTATION_BYTES = b'0123456789-+._\t\r\n NI{}"\xff'


def mutated(data, rng):
    """``data`` with one byte replaced, inserted or deleted at a random place."""
    at = rng.randrange(len(data))
    op = rng.choice(("replace", "insert", "delete"))
    byte = b"" if op == "delete" else bytes([rng.choice(MUTATION_BYTES)])
    return data[:at] + byte + data[at + (op != "insert"):]


def tsv_reader(table):
    """(read, scan) of a TSV table: read_tsv and tsv_file_scan, cells as repr."""
    columns = cli.TABLES[table]
    arrays = [parse in (np.uint64, np.int64) for _, parse in columns]

    def cells(parsed):
        return [[repr(int(v) if a else v) for v in c] for a, c in zip(arrays, parsed)]

    def scan(data):
        want = tsv_file_scan(data, columns)
        return want if isinstance(want, tuple) else cells(want)

    return lambda path: cells(c.tolist() for c in files.read_tsv(path, columns)), scan


def jsonl_reader(fields):
    """(read, scan) of a JSONL table: read_jsonl and jsonl_file_scan."""
    def read(path):
        return jsonl_values(fields, *files.read_jsonl(path, fields))

    return read, lambda data: jsonl_file_scan(data, fields)


def test_readers_agree_with_their_oracles_on_mutated_files(
    all_run, jsonl_run, tmp_path, monkeypatch
):
    monkeypatch.setattr(files, "READ_CHUNK_BYTES", 2048)  # hundreds of reads of a large file
    dataset = os.path.join(all_run, "dataset")
    population = os.path.join(jsonl_run, "dataset", "population.jsonl")
    ids = files.read_population(population).ids

    def edge_scan(data):
        want = edge_file_scan(data, ids)
        return want if isinstance(want, dict) else (want[0], f"bad edge line {want[1]!r}")

    readers = {
        os.path.join(all_run, "labels.tsv"): tsv_reader("labels.tsv"),
        os.path.join(all_run, "regression.tsv"): tsv_reader("regression.tsv"),
        os.path.join(all_run, "networks.edges"): (
            lambda path: graph_edge_sets(files.read_edges(path, ids)), edge_scan,
        ),
        population: jsonl_reader(domain.POPULATION_FIELDS),
        os.path.join(dataset, "events.jsonl"): jsonl_reader(domain.EVENT_FIELDS),
    }
    rng = random.Random(20211)
    refused = 0
    for source, (read, scan) in readers.items():
        with open(source, "rb") as fh:
            data = fh.read()
        path = tmp_path / os.path.basename(source)
        for _ in range(60):
            path.write_bytes(edited := mutated(data, rng))
            want = scan(edited)
            if isinstance(want, tuple):
                refused += 1
                with pytest.raises(ParseError) as exc:
                    read(path)
                assert str(exc.value) == f"{path}:{want[0]}: {want[1]}"
            else:
                assert read(path) == want
    assert 50 < refused < 250  # both outcomes are checked


def test_marks_at_the_int64_extremes_run(micro_config, tmp_path):
    marks = [{"label": "first", "timestamp": -(2**63)}, {"label": "last", "timestamp": 2**63 - 1}]
    out = tmp_path / "run"
    assert run_with(micro_config, out, marks=marks) == 0
    events, times, dates, *_, status = files.read_tsv(
        out / "hysteresis.tsv", cli.TABLES["hysteresis.tsv"]
    )
    # nobody is aware at the first mark, and the cohort never grows past the last
    assert events.tolist() == ["first"] + ["last"] * 3
    assert times.tolist() == [-(2**63)] + [2**63 - 1] * 3
    assert set(dates) == {"NA"}
    assert status.tolist() == ["zero_baseline"] + ["absent"] * 3
    # at the last mark the never aware still count as unaware: its models see
    # the sample's members that ever became aware, not the whole sample
    names = [name for name, _ in cli.TABLES["regression.tsv"]]
    rows = dict(zip(names, files.read_tsv(out / "regression.tsv", cli.TABLES["regression.tsv"])))
    (qualified,) = files.read_tsv(out / "qualified.txt", cli.TABLES["qualified.txt"], header=False)
    aware = files.read_tsv(out / "labels.tsv", cli.TABLES["labels.tsv"])[0]
    ever_aware = int(np.isin(cli.regression_sample(7, 150, qualified), aware).sum())
    last = rows["trigger"] == "event_last"
    pct = rows["kind"] == "percentage"
    assert last.any() and set(rows["n_aware"][last]) == {ever_aware}
    assert max(rows["n_aware"][pct]) <= ever_aware < 150
    assert set(rows["n_obs"][last]) == {150} and set(rows["error"][last]) == {"NA"}


# The SHA-256 of every file `all` writes on each bundled config, as
# scripts/pin_runs.py writes them.  A change that alters a file on purpose
# reruns the script and says why.
PIN_RUNS = runpy.run_path(os.path.join(os.path.dirname(__file__), "..", "scripts", "pin_runs.py"))
PINS = PIN_RUNS["read_pins"]()
SMALL_RUN_SHA256 = PINS["small"]


@pytest.mark.parametrize("config", list(PIN_RUNS["CONFIGS"]))
def test_bundled_runs_keep_their_pinned_bytes(tmp_path, config):
    got, want = PIN_RUNS["run_digests"](config, str(tmp_path)), PINS[config]
    differ = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    assert not differ, f"{config}: {len(differ)} files differ from the pins: {', '.join(differ)}"


def test_small_preset_dataset_bytes_are_pinned(tmp_path):
    assert cli.main(["gen", "--config", "small", "--out", str(tmp_path)]) == 0
    pinned = {
        name.removeprefix("dataset/"): digest
        for name, digest in SMALL_RUN_SHA256.items() if name.startswith("dataset/")
    }
    assert tree_hashes(str(tmp_path / "dataset")) == pinned


def test_a_capped_epidemic_curve_does_not_overflow(tmp_path):
    config = load_preset("small")
    config["simulator"]["regions"]["epidemic_growth"] = 1e308
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0


def test_small_preset_run_bytes_are_pinned(tmp_path):
    assert cli.main(["all", "--config", "small", "--out", str(tmp_path)]) == 0
    assert tree_hashes(str(tmp_path)) == SMALL_RUN_SHA256


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, awareflow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_small_run_without_scipy_keeps_pinned_bytes(tmp_path):
    # a None entry makes every `import scipy...` raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None; from awareflow import cli; "
        f"sys.exit(cli.main(['all', '--config', 'small', '--out', {str(tmp_path)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert tree_hashes(str(tmp_path)) == SMALL_RUN_SHA256


def test_compare_runs_script_flags_changed_files(all_run, tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_runs.py")
    copy = tmp_path / "copy"
    shutil.copytree(all_run, copy)
    compare = [sys.executable, script, all_run, str(copy)]
    assert subprocess.run(compare, capture_output=True).returncode == 0
    (copy / "labels.tsv").write_text("changed\n")
    (copy / "dataset" / "calendar.json").unlink()
    proc = subprocess.run(compare, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "differs: labels.tsv" in proc.stdout
    assert f"only in {all_run}: dataset/calendar.json" in proc.stdout


# --- exit codes ---------------------------------------------------------------

def test_missing_dataset_names_gen(tmp_path, micro_config, capsys):
    out = tmp_path / "empty"
    assert cli.main(["infer-net", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `gen` first" in capsys.readouterr().err


def test_missing_labels_names_label(tmp_path, micro_config, capsys):
    out = tmp_path / "halfway"
    assert cli.main(["gen", "--config", micro_config, "--out", str(out)]) == 0
    assert cli.main(["segment", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `label` first" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"bogus": 1}')
    assert cli.main(["gen", "--config", str(path)]) == 2
    assert "unknown run config keys: bogus" in capsys.readouterr().err


def test_unknown_regression_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"regression": {"wibble": 1}}')
    assert cli.main(["gen", "--config", str(path)]) == 2
    assert "unknown regression keys: wibble" in capsys.readouterr().err


def test_malformed_json_config_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": }')
    assert cli.main(["gen", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:1:10: invalid JSON" in err


@pytest.mark.parametrize(
    "name, value",
    # each value once escaped as a traceback: the uint64 seed hash, the
    # int64 threshold arithmetic, the int64 qualification key
    [("seed", 2**64), ("threshold", 10**19), ("history_months", 10**17)],
)
def test_oversized_integer_setting_exits_2(tmp_path, capsys, name, value):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**load_preset("small"), name: value}))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"{name} must be in [" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unknown_preset_exits_2(capsys):
    assert cli.main(["gen", "--config", "not_a_preset"]) == 2
    assert "neither a preset" in capsys.readouterr().err


def test_bad_phase_thresholds_exit_2(tmp_path, micro_config, capsys):
    th = tmp_path / "th.json"
    th.write_text('{"province_share": 1.5}')
    args = ["segment", "--config", micro_config, "--phase-thresholds", str(th)]
    assert cli.main(args) == 2
    assert "province_share must be in (0, 1]" in capsys.readouterr().err
    th.write_text('{"wibble": 1}')
    assert cli.main(args) == 2
    assert "unknown phase threshold keys: wibble" in capsys.readouterr().err


def test_missing_patterns_file_exits_2(micro_config, capsys):
    args = ["label", "--config", micro_config, "--patterns", "/no/such/file.txt"]
    assert cli.main(args) == 2
    assert "does not exist" in capsys.readouterr().err


def test_corrupt_dataset_exits_4(jsonl_export, tmp_path, ingest_config, capsys):
    out = tmp_path / "corrupt"
    shutil.copytree(jsonl_export, out)
    pop = out / "dataset" / "population.jsonl"
    with open(pop, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 4
    assert "invalid JSON" in capsys.readouterr().err


def append(name, data):
    def fault(out, config):
        with open(out / name, "ab") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    return fault


def replace(name, text):
    def fault(out, config):
        (out / name).write_text(text)
    return fault


def repeat_lines(name, n):
    """Append a copy of the last ``n`` lines."""
    def fault(out, config):
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[-n:]))
    return fault


def events_of_first_individual(*timestamps):
    """Append a query event at each of ``timestamps`` by the first individual."""
    def fault(out, config):
        iid = np.load(out / "dataset" / "population.ids.npy", allow_pickle=False)[0]
        for ts in timestamps:
            line = f'{{"type":"query","individual_id":{iid},"timestamp":{ts}'
            append("dataset/events.jsonl", line + ',"query_text":"x"}\n')(out, config)
    return fault


def patterns_file(out, data):
    path = out / "patterns.txt"
    path.write_bytes(data)
    return ["--patterns", str(path)]


def substitute(name, pattern, repl):
    """Replace the first match of ``pattern`` in ``name``.  A pattern that
    matches nothing, or a replacement that leaves the file as it was, fails
    the test, which would otherwise run over an unchanged file."""
    def fault(out, config):
        path = out / name
        before = path.read_text()
        text, n = re.subn(pattern, repl, before, count=1)
        assert n == 1, f"{pattern!r} matches nothing in {name}"
        assert text != before, f"{pattern!r} leaves {name} as it was"
        path.write_text(text)
    return fault


def substitute_phase(phase, edit):
    """substitute on phases.tsv with the (pattern, replacement) that ``edit``
    makes of the start_day, end_day and complete cells of ``phase``'s row."""
    def fault(out, config):
        for line in (out / "phases.tsv").read_text().splitlines():
            name, start, end, _, _, complete = line.split("\t")
            if name == phase:
                edited = edit(int(start), int(end), int(complete))
                return substitute("phases.tsv", *edited)(out, config)
        raise AssertionError(f"phases.tsv has no {phase} row")
    return fault


def phase_thresholds_file(out, text):
    path = out / "thresholds.json"
    path.write_text(text)
    return ["--phase-thresholds", str(path)]


def directory_in_place_of(name):
    """Replace the file ``name`` with an empty directory."""
    def fault(out, config):
        (out / name).unlink()
        (out / name).mkdir()
    return fault


def directory_argument(flag):
    """Pass ``flag`` an empty directory."""
    def fault(out, config):
        (out / "a-directory").mkdir()
        return [flag, str(out / "a-directory")]
    return fault


def cut_lines(name, n):
    """Keep the first ``n`` lines."""
    def fault(out, config):
        path = out / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:n]))
    return fault


def manifest_value(name, key, value):
    """Set ``key`` of the manifest ``name`` to ``value``."""
    def fault(out, config):
        manifest = json.loads((out / name).read_text())
        manifest[key] = value
        (out / name).write_text(json.dumps(manifest))
    return fault


def rerun(stage, *flags):
    """Run ``stage`` again over the finished run, with ``flags``."""
    def fault(out, config):
        path = out.parent / "rerun.json"
        path.write_text(json.dumps(config))
        assert cli.main([stage, "--config", str(path), "--out", str(out), *flags]) == 0
    return fault


def resegmented(out, config):
    """Run segment again with other phase thresholds, which change phases.tsv."""
    flags = phase_thresholds_file(out, '{"growth_high": 0.9, "sustain_days": 2}')
    rerun("segment", *flags)(out, config)


# (id, stage, fault, exit code, what the message names): artifacts that no
# longer match the manifests of the stages that wrote or read them
PROVENANCE_FAULTS = (
    ("stale-upstream", "regress", rerun("gen", "--seed", "8"), 4, "run `label` again"),
    ("truncated-upstream", "cohort", cut_lines("labels.tsv", 50), 4, "run `label` again"),
    ("resegmented", "report", resegmented, 4, "run `cohort` again"),
    # the digests match, but regression.tsv was fitted on another seed's sample
    ("report-other-seed", "report", rerun("regress", "--seed", "9"), 4, "run `regress` again"),
    (
        "manifest-missing", "cohort", lambda out, config: (out / "manifest_segment.json").unlink(),
        3, "run `segment` first",
    ),
)


def simulator_setting(section, **values):
    def fault(out, config):
        config["simulator"][section].update(values)
    return fault


def config_setting(path, value):
    """A fault that sets the config value at the key ``path``."""
    def fault(out, config):
        *parents, key = path
        node = config
        for part in parents:
            node = node[part]
        node[key] = value
    return fault


# A fault in each config section and the message it gives: an unknown key, a
# wrongly typed value or one out of bounds, in one message form for every section.
CONFIG_FAULTS = (
    ("top-unknown-key", ("bogus",), 1, "unknown run config keys: bogus"),
    ("top-wrong-type", ("patterns",), 5, "patterns must be of type str"),
    ("caps-unknown-key", ("caps",), {"bogus": 2}, "unknown caps keys: bogus"),
    ("caps-wrong-type", ("caps",), {"home": "10"}, "caps.home must be of type int"),
    (
        "phase-thresholds-unknown-key", ("phase_thresholds",), {"bogus": 1},
        "unknown phase threshold keys: bogus",
    ),
    (
        "phase-thresholds-wrong-type", ("phase_thresholds",), {"sustain_days": 2.5},
        "phase_thresholds.sustain_days must be of type int",
    ),
    ("regression-unknown-key", ("regression", "bogus"), 1, "unknown regression keys: bogus"),
    ("regression-wrong-type", ("regression", "tol"), "small", "regression.tol must be of type float"),
    (
        "mark-unknown-key", ("marks",), [{"label": "x", "timestamp": 0, "bogus": 1}],
        "unknown mark keys: bogus",
    ),
    (
        "mark-label-not-a-string", ("marks",), [{"label": 5, "timestamp": 0}],
        "marks[0].label must be of type str",
    ),
    # marks carry no scope: only the simulator's shocks act on one region
    (
        "mark-unknown-scope", ("marks",), [{"label": "x", "timestamp": 0, "scope": "national"}],
        "unknown mark keys: scope",
    ),
    (
        "simulator-section-unknown-key", ("simulator", "network", "bogus"), 1,
        "unknown simulator.network keys: bogus",
    ),
    (
        "simulator-section-wrong-type", ("simulator", "regions", "n_cities"), 2.5,
        "simulator.regions.n_cities must be of type int",
    ),
    ("simulator-event-unknown-key", ("simulator", "events", 0, "bogus"), 1, "unknown event keys: bogus"),
    (
        "simulator-event-wrong-type", ("simulator", "events", 0, "magnitude"), "big",
        "simulator.events[0].magnitude must be of type float",
    ),
    (
        "top-out-of-bounds", ("threshold",), 0,
        "threshold must be in [1, 9223372036854775807], got 0",
    ),
    ("caps-out-of-bounds", ("caps",), {"home": 1}, "caps.home must be >= 2, got 1"),
    # a window past the calendar's range is refused by its length first
    (
        "simulator-n-days-out-of-bounds", ("simulator", "n_days"), 3_000_000,
        "simulator.n_days must be in [1, 1000], got 3000000",
    ),
    (
        "simulator-section-out-of-bounds", ("simulator", "network", "school_p"), 1.5,
        "simulator.network.school_p must be in [0, 1], got 1.5",
    ),
    (
        "regression-max-iter-zero", ("regression", "max_iter"), 0,
        "regression.max_iter must be in [1, 10000], got 0",
    ),
    ("regression-tol-negative", ("regression", "tol"), -1, "regression.tol must be > 0, got -1"),
    (
        "regression-ridge-negative", ("regression", "ridge"), -1,
        "regression.ridge must be > 0, got -1",
    ),
    (
        "regression-coef-cap-negative", ("regression", "coef_cap"), -1,
        "regression.coef_cap must be > 0, got -1",
    ),
    (
        "regression-p-threshold-above-one", ("regression", "p_threshold"), 2,
        "regression.p_threshold must be in (0, 1], got 2",
    ),
    # JSON's NaN and Infinity, and 1e400, which it reads as infinity
    (
        "regression-tol-nan", ("regression", "tol"), math.nan,
        "regression.tol must be finite, got nan",
    ),
    (
        "regression-p-threshold-infinity", ("regression", "p_threshold"), math.inf,
        "regression.p_threshold must be finite, got inf",
    ),
    (
        "simulator-intercept-nan", ("simulator", "hazard", "intercept"), math.nan,
        "simulator.hazard.intercept must be finite, got nan",
    ),
    (
        "simulator-probability-nan", ("simulator", "demographics", "education_probs"),
        {"bachelor": math.nan},
        "simulator.demographics.education_probs.bachelor must be finite, got nan",
    ),
    (
        "phase-thresholds-beyond-a-double", ("phase_thresholds",), {"growth_high": 10**400},
        "phase_thresholds.growth_high must be finite, got 1" + "0" * 400,
    ),
    # the run's seed is the one seed: the simulator takes it from there
    ("simulator-seed", ("simulator", "seed"), 7, "unknown simulator keys: seed"),
    # a ridge of 0 would make the penalized refit of a separated fit unpenalized
    ("regression-ridge-zero", ("regression", "ridge"), 0, "regression.ridge must be > 0, got 0"),
    # a key of a level table that names no level would be hashed but change nothing
    (
        "simulator-hazard-unknown-level", ("simulator", "hazard", "education", "Bachelor"), 5,
        "invalid simulator config: hazard.education: unknown keys ['Bachelor']",
    ),
    (
        "simulator-hazard-unknown-layer", ("simulator", "hazard", "layer_weights", "famly"), 9,
        "invalid simulator config: hazard.layer_weights: unknown keys ['famly']",
    ),
    (
        "simulator-demographics-unknown-level",
        ("simulator", "demographics", "education_probs", "phd"), 0.1,
        "invalid simulator config: demographics.education_probs: unknown keys ['phd']",
    ),
)


DEEP = 100_000  # nesting far beyond the interpreter's recursion limit
POPULATION_LINE = (
    '{"id":999999,"gender":"male","age":40000,"education":"bachelor",'
    '"occupation":"white_collar","purchasing_power":4,"has_child":false,'
    '"married":false,"home_city":0,"qualified":true}\n'
)


# (stage, fault, exit code); a fault edits the finished run or the config
# and returns extra command-line arguments, if any
FAULTS = [
    pytest.param("segment", append("labels.tsv", "garbage\n"), 4, id="labels-garbage"),
    pytest.param("segment", append("qualified.txt", "garbage\n"), 4, id="qualified-garbage"),
    pytest.param("segment", append("qualified.txt", "-5\n"), 4, id="qualified-negative-id"),
    pytest.param("report", append("phases.tsv", "garbage\n"), 4, id="phases-garbage"),
    *(
        pytest.param(stage, repeat_lines("phases.tsv", 1), 4, id=f"phases-repeated-row-{stage}")
        for stage in ("cohort", "regress")
    ),
    pytest.param(
        "cohort",
        substitute_phase("Normal", lambda s, e, c: (rf"\nNormal\t{s}\t", f"\nNormal\t{e + 1}\t")),
        4, id="phases-end-before-start",
    ),
    pytest.param(
        "regress",
        substitute_phase("Beginning", lambda s, e, c: (rf"Beginning\t{s}\t", f"Beginning\t{s - 1}\t")),
        4, id="phases-overlap",
    ),
    pytest.param(
        "cohort",
        substitute_phase("Beginning", lambda s, e, c: (rf"(Beginning.*)\t{c}\n", rf"\1\t{1 - c}\n")),
        4, id="phases-complete-differs",
    ),
    pytest.param("cohort", substitute("phases.tsv", r"Beginning\t", "Bogus\t"), 4, id="phases-unknown"),
    pytest.param(
        "regress", substitute("phases.tsv", r"\t\d+(\t\S+\t\S+\t\d\n)$", r"\t500\1"), 4,
        id="phases-past-the-window",
    ),
    pytest.param(
        "cohort", substitute("phases.tsv", r"(Beginning\t\d+\t\d+\t)[^\t]+", r"\g<1>1999-01-01"), 4,
        id="phases-wrong-date",
    ),
    pytest.param(
        "cohort",
        substitute_phase("Beginning", lambda s, e, c: (rf"Beginning\t{s}\t", f"Beginning\t{s + 1}\t")),
        4, id="phases-gap",
    ),
    pytest.param(
        "report", replace("phases.tsv", "phase\tstart_day\tend_day\tstart_date\tend_date\tcomplete\n"),
        4, id="phases-header-only",
    ),
    pytest.param(
        "report", append("geo_correlations.tsv", "city\tdistance_to_epicenter\t0\n"), 4,
        id="geo-short-row",
    ),
    pytest.param(
        "cohort", append("networks.edges", "family 999999999 999999998\n"), 4,
        id="edges-unknown-id",
    ),
    pytest.param("cohort", append("networks.edges", "family 1 1\n"), 4, id="edges-self-loop"),
    # every event then names an unknown individual
    pytest.param(
        "gen", hand_brought(replace("dataset/population.jsonl", "")), 4, id="population-empty"
    ),
    pytest.param("segment", repeat_lines("qualified.txt", 5), 4, id="qualified-duplicate-id"),
    pytest.param("segment", repeat_lines("labels.tsv", 3), 4, id="labels-duplicate-id"),
    # line 2 keeps its first_aware_ts
    pytest.param(
        "segment", substitute("labels.tsv", r"(\n\d+\t-?\d+\t)-?\d+\t", r"\g<1>-999\t"), 4,
        id="labels-day-mismatch",
    ),
    pytest.param(
        "cohort", substitute("labels.tsv", r"(\n\d+\t-?\d+\t-?\d+\t)[^\n]*", r"\g<1>1999-01-01"),
        4, id="labels-date-mismatch",
    ),
    pytest.param("infer-net", replace("dataset/calendar.json", "{}\n"), 4, id="calendar-empty"),
    pytest.param("report", replace("manifest_gen.json", "not json\n"), 4, id="manifest-not-json"),
    pytest.param(
        "report", manifest_value("manifest_regress.json", "outputs", []), 4,
        id="manifest-outputs-not-an-object",
    ),
    pytest.param(
        "report", manifest_value("manifest_cohort.json", "stats", {"lead_days": 5}), 4,
        id="manifest-stat-lead-days-not-an-object",
    ),
    pytest.param(
        "report", manifest_value("manifest_regress.json", "stats", {"missing_percentages": 5}), 4,
        id="manifest-stat-missing-percentages-not-a-list",
    ),
    *(
        pytest.param(stage, fault, code, id=name)
        for name, stage, fault, code, _ in PROVENANCE_FAULTS
    ),
    pytest.param(
        "segment", lambda out, config: ["--phase-thresholds", str(out / "missing.json")], 2,
        id="missing-phase-thresholds",
    ),
    pytest.param(
        "label", lambda out, config: config.update(threshold="3"), 2, id="threshold-string"
    ),
    pytest.param(
        "gen", lambda out, config: config["simulator"].update(n_individuals="10"), 2,
        id="simulator-count-string",
    ),
    pytest.param(
        "infer-net", lambda out, config: config.update(dataset_dir=5), 2, id="dataset-dir-number"
    ),
    *(
        pytest.param("label", config_setting(path, value), 2, id=name)
        for name, path, value, _ in CONFIG_FAULTS
    ),
    pytest.param(
        "gen", lambda out, config: ["--out", str(out / "labels.tsv")], 2, id="out-is-a-file"
    ),
    pytest.param(
        "gen", lambda out, config: config.update(dataset_dir=str(out / "labels.tsv")), 2,
        id="dataset-dir-is-a-file",
    ),
    pytest.param(
        "infer-net", append("dataset/regions.jsonl", b"\xff\xfe{}"), 4, id="dataset-not-utf8"
    ),
    pytest.param(
        "label", lambda out, config: patterns_file(out, b"(mask)\n\xff\xfe\n"), 2,
        id="patterns-not-utf8",
    ),
    # an OSError names the file: writing an output exits 2, reading an artifact 4,
    # reading a config or pattern file 2
    pytest.param("label", directory_in_place_of("labels.tsv"), 2, id="labels-is-a-directory"),
    pytest.param(
        "cohort", directory_in_place_of("networks.edges"), 4, id="edges-is-a-directory"
    ),
    pytest.param("label", directory_argument("--config"), 2, id="config-is-a-directory"),
    pytest.param("label", directory_argument("--patterns"), 2, id="patterns-is-a-directory"),
    pytest.param(
        "label",
        append(
            "dataset/events.jsonl",
            f'{{"type":"query","individual_id":1,"timestamp":{10**20},"query_text":"x"}}\n',
        ),
        4, id="event-timestamp-overflow",
    ),
    pytest.param(
        "label",
        append(
            "dataset/events.jsonl",
            '{"type":"query","individual_id":999999999,"timestamp":0,"query_text":"x"}\n',
        ),
        4, id="event-unknown-individual",
    ),
    pytest.param("label", events_of_first_individual(4_102_444_800), 4, id="event-past-calendar"),
    # a day number near 2**63 wraps in int64; the timestamps' range is too
    # wide to pack into one sort key
    pytest.param(
        "label", events_of_first_individual(2**63 - 1, 9_223_372_036_854_700_000), 4,
        id="events-past-end-near-int64-max",
    ),
    pytest.param(
        "gen",
        hand_brought(append(
            "dataset/addresses.jsonl",
            f'{{"individual_id":1,"address_id":1,"kind":"home","active_interval":[0,{10**20}]}}\n',
        )),
        4, id="address-interval-overflow",
    ),
    pytest.param(
        "gen", hand_brought(append("dataset/population.jsonl", POPULATION_LINE)), 4,
        id="population-age-overflow",
    ),
    pytest.param("segment", append("qualified.txt", "999999999\n"), 4, id="qualified-unknown-id"),
    pytest.param(
        "segment",
        substitute("dataset/regions.jsonl", r'"province_id":\d+', f'"province_id":{2**63}'), 4,
        id="region-province-overflow",
    ),
    pytest.param(
        "infer-net", append("dataset/regions.jsonl", "[" * DEEP + "\n"), 4,
        id="regions-deep-nesting",
    ),
    # a city other than the epicenter, whose distance is 0.0
    pytest.param(
        "geo-corr",
        substitute(
            "dataset/regions.jsonl", r'"distance_to_epicenter":(?!0\.0,)[^,]+',
            '"distance_to_epicenter":NaN',
        ),
        4, id="region-distance-nan",
    ),
    pytest.param(
        "regress", substitute("dataset/regions.jsonl", r'"gdp":[^,]+', '"gdp":Infinity'), 4,
        id="region-gdp-infinity",
    ),
    # an int longer than the interpreter converts from a string
    pytest.param(
        "gen",
        hand_brought(
            append("dataset/population.jsonl", POPULATION_LINE.replace("40000", "1" * 5000))
        ),
        4,
        id="population-int-too-many-digits",
    ),
    # one "}" ending the line, so the line goes through the block parser
    pytest.param(
        "label", append("dataset/events.jsonl", '{"a":' + "[" * DEEP + "]" * DEEP + "}\n"), 4,
        id="events-deep-nesting",
    ),
    pytest.param(
        "report", replace("manifest_gen.json", "[" * DEEP + "\n"), 4, id="manifest-deep-nesting"
    ),
    pytest.param(
        "segment", lambda out, config: phase_thresholds_file(out, "[" * DEEP), 2,
        id="phase-thresholds-deep-nesting",
    ),
    pytest.param(
        "gen", lambda out, config: config["simulator"].update(calendar_start="2019-13-01"), 2,
        id="calendar-start-not-a-date",
    ),
    pytest.param(
        "gen", lambda out, config: config["simulator"]["events"][0].update(timestamp=10**19), 2,
        id="shock-timestamp-overflow",
    ),
    pytest.param(
        "cohort", lambda out, config: config.update(marks=[{"label": "x", "timestamp": 10**19}]),
        2, id="mark-timestamp-overflow",
    ),
    *(
        pytest.param("gen", simulator_setting(section, **values), 2, id=name)
        for name, section, values in (
            ("attr-noise-negative", "regions", {"attr_noise": -0.1}),
            ("age-range-reversed", "demographics", {"age_min": 70, "age_max": 16}),
            ("age-max-overflow", "demographics", {"age_max": 40000}),
            ("age-min-negative", "demographics", {"age_min": -5}),
            (
                "purchasing-power-negative", "demographics",
                {"purchasing_power_probs": [0.5, -0.1] + [0.1] * 5},
            ),
            ("purchasing-power-all-zero", "demographics", {"purchasing_power_probs": [0] * 7}),
            (
                "purchasing-power-nan", "demographics",
                {"purchasing_power_probs": [math.nan] + [0.1] * 6},
            ),
            ("family-size-inf", "network", {"family_size_probs": [0.5, math.inf]}),
            ("education-nan", "demographics", {"education_probs": {"bachelor": math.nan}}),
            ("female-p-above-one", "demographics", {"female_p": 1.5}),
            ("has-child-p-negative", "demographics", {"has_child_p": -0.5}),
            ("married-p-above-one", "demographics", {"married_p": 2}),
            ("qualified-p-negative", "demographics", {"qualified_p": -1}),
            ("school-p-above-one", "network", {"school_p": 1.01}),
            ("company-p-negative", "network", {"company_p": -0.1}),
            ("distance-scale-zero", "hazard", {"distance_scale_km": 0}),
            ("distance-scale-negative", "hazard", {"distance_scale_km": -1000.0}),
            ("distance-scale-nan", "hazard", {"distance_scale_km": math.nan}),
            ("distance-scale-inf", "hazard", {"distance_scale_km": math.inf}),
            ("max-distance-negative", "regions", {"max_distance_km": -1.0}),
            ("max-distance-inf", "regions", {"max_distance_km": math.inf}),
            ("max-distance-nan", "regions", {"max_distance_km": math.nan}),
        )
    ),
]


@pytest.mark.parametrize("stage, fault, code", FAULTS)
def test_faults_exit_with_documented_code(
    request, micro_config, tmp_path, capsys, stage, fault, code
):
    out = tmp_path / "run"
    run = "jsonl_export" if getattr(fault, "hand_brought", False) else "all_run"
    shutil.copytree(request.getfixturevalue(run), out)
    with open(micro_config) as fh:
        config = json.load(fh)
    extra = fault(out, config) or []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main([stage, "--config", str(cfg_path), "--out", str(out), *extra]) == code
    assert "error:" in capsys.readouterr().err


BROUGHT = ("dataset/population.jsonl", "dataset/addresses.jsonl")  # the tables gen only reads


def manifest(run, stage):
    with open(os.path.join(run, cli.manifest_name(stage))) as fh:
        return json.load(fh)


def test_gen_stores_a_brought_dataset_as_it_stores_a_generated_one(all_run, jsonl_run):
    def stored(run):
        """The dataset files and analytic artifacts of ``run``."""
        return {
            name: digest for name, digest in tree_hashes(run).items()
            if not name.startswith(("manifest_", "report.")) and name not in BROUGHT
        }

    assert stored(jsonl_run) == stored(all_run)
    assert set(BROUGHT) <= set(tree_hashes(jsonl_run))
    # gen lists what it wrote, and no brought table; its stats are a
    # generated run's, less the simulator's truth
    generated, brought = manifest(all_run, "gen"), manifest(jsonl_run, "gen")
    assert brought["inputs"] == {} and brought["outputs"] == generated["outputs"]
    del generated["stats"]["truth_aware"]
    assert brought["stats"] == generated["stats"]
    for stage in list(cli.STAGES)[1:]:
        inputs = manifest(jsonl_run, stage)["inputs"]
        assert inputs.keys() == manifest(all_run, stage)["inputs"].keys(), stage


def test_report_over_a_brought_dataset_fills_its_population_block(all_run, jsonl_run):
    def report(run):
        with open(os.path.join(run, "report.json")) as fh:
            return {**json.load(fh), "config_sha256": None}

    want = report(all_run)
    del want["population"]["truth_aware"]
    assert report(jsonl_run) == want
    assert set(want["population"]) == {"individuals", "regions", "addresses", "events", "n_days"}


def test_gen_stores_the_columns_of_brought_tables_and_keeps_them(
    jsonl_export, ingest_config, tmp_path
):
    out = tmp_path / "run"
    shutil.copytree(jsonl_export, out)
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 0
    names = set(os.listdir(out / "dataset"))
    assert {"population.jsonl", "addresses.jsonl"} <= names
    assert set(column_files("population") + column_files("addresses")) <= names
    # and gen run again reads them to the same bytes
    want = tree_hashes(str(out))
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 0
    assert tree_hashes(str(out)) == want


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_again_over_an_ingested_dataset_writes_the_same_bytes(
    jsonl_run, ingest_config, tmp_path, jobs
):
    out = tmp_path / "run"
    shutil.copytree(jsonl_run, out)
    assert cli.main(["all", "--config", ingest_config, "--out", str(out), "--jobs", jobs]) == 0
    assert tree_hashes(str(out)) == tree_hashes(jsonl_run)


@pytest.mark.parametrize("name", domain.DATASET_FILES)
def test_gen_without_a_brought_table_exits_3_naming_it(
    jsonl_export, ingest_config, tmp_path, capsys, name
):
    out = tmp_path / "run"
    shutil.copytree(jsonl_export, out)
    (out / "dataset" / name).unlink()
    want = tree_hashes(str(out))
    capsys.readouterr()
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"dataset/{name}" in err and "simulator section" in err and "Traceback" not in err, err
    assert tree_hashes(str(out)) == want


@pytest.mark.parametrize("name", domain.DATASET_FILES)
def test_an_ingest_that_fails_on_a_bad_line_writes_no_file(
    jsonl_export, ingest_config, tmp_path, capsys, name
):
    out = tmp_path / "run"
    shutil.copytree(jsonl_export, out)
    with open(out / "dataset" / name, "a", encoding="utf-8") as fh:
        fh.write("{\n")
    want = tree_hashes(str(out))
    capsys.readouterr()
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 4
    assert f"{name}:" in capsys.readouterr().err
    assert tree_hashes(str(out)) == want


def column_edit(name, edit):
    """Save ``edit`` of the column in dataset/``name`` over it, pickle allowed."""
    def fault(out, config):
        path = out / "dataset" / name
        np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=True)
    return fault


def truncated(name, n):
    """Cut the last ``n`` bytes of dataset/``name``."""
    def fault(out, config):
        path = out / "dataset" / name
        path.write_bytes(path.read_bytes()[:-n])
    return fault


def removed(name):
    return lambda out, config: (out / "dataset" / name).unlink()


# (id, stage, fault, exit code, the file and what the message names)
COLUMN_FAULTS = (
    (
        "column-wrong-dtype", "segment",
        column_edit("population.age.npy", lambda c: c.astype(np.int64)), 4,
        "population.age.npy", "expected a column of int16, found int64",
    ),
    (
        "column-wrong-length", "cohort", column_edit("population.married.npy", lambda c: c[:-1]),
        4, "population.married.npy", "expected 400 rows, found 399",
    ),
    (
        "column-unsorted-ids", "geo-corr", column_edit("population.ids.npy", lambda c: c[::-1]),
        4, "population.ids.npy", "row 1: the rows must ascend by ids without ties",
    ),
    (
        "column-repeated-ids", "regress",
        column_edit("population.ids.npy", lambda c: np.repeat(c[::2], 2)), 4,
        "population.ids.npy", "row 1: the rows must ascend by ids without ties",
    ),
    (
        "column-unsorted-addresses", "infer-net",
        column_edit("addresses.individual_id.npy", lambda c: c[::-1]), 4,
        "addresses.individual_id.npy",
        "the rows must ascend by individual_id, kind, address_id, active_start",
    ),
    (
        "column-enum-out-of-range", "label",
        column_edit("population.occupation.npy", lambda c: np.full_like(c, 7)), 4,
        "population.occupation.npy", "row 0: occupation code must be in [0, 6], got 7",
    ),
    (
        "column-bool-byte", "segment",
        column_edit("population.has_child.npy", lambda c: np.full(len(c), 2, np.uint8).view(bool)),
        4, "population.has_child.npy", "row 0: has_child must be a byte 0 or 1, got 2",
    ),
    (
        "column-negative-home-city", "segment",
        column_edit("population.home_city.npy", lambda c: c - 10**6), 4,
        "population.home_city.npy", "row 0: home_city must be an unsigned 64-bit integer",
    ),
    (
        "column-truncated", "cohort", truncated("population.home_city.npy", 3), 4,
        "population.home_city.npy", "expected 3200 bytes of data, found 3197",
    ),
    (
        "column-header-truncated", "infer-net", truncated("addresses.kind.npy", 3000), 4,
        "addresses.kind.npy", "not a .npy file",
    ),
    (
        "column-object-array", "infer-net",
        column_edit("addresses.kind.npy", lambda c: c.astype(object)), 4,
        "addresses.kind.npy", "expected a column of int8, found object",
    ),
    (
        "column-missing", "segment", removed("population.gender.npy"), 3,
        "population.gender.npy", "run `gen` first",
    ),
    (
        "address-column-missing", "infer-net", removed("addresses.active_end.npy"), 3,
        "addresses.active_end.npy", "run `gen` first",
    ),
)


@pytest.mark.parametrize(
    "stage, fault, code, name, message",
    [pytest.param(*case[1:], id=case[0]) for case in COLUMN_FAULTS],
)
def test_column_faults_name_the_file(
    all_run, micro_config, tmp_path, capsys, stage, fault, code, name, message
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    fault(out, None)
    capsys.readouterr()
    assert cli.main([stage, "--config", micro_config, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert f"dataset/{name}" in err and message in err, err


@pytest.mark.parametrize(
    "stage, fault, code, message",
    [pytest.param(*case[1:], id=case[0]) for case in PROVENANCE_FAULTS],
)
def test_provenance_faults_name_the_stage_to_rerun(
    all_run, micro_config, tmp_path, capsys, stage, fault, code, message
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    with open(micro_config) as fh:
        fault(out, json.load(fh))
    capsys.readouterr()
    assert cli.main([stage, "--config", micro_config, "--out", str(out)]) == code
    assert message in capsys.readouterr().err


def fuzz_edit(data, rng):
    """``data`` with one byte flipped, inserted or deleted, cut at a line, or
    one line repeated or dropped; never ``data`` itself."""
    op = rng.choice(("flip", "insert", "delete", "cut", "repeat", "drop"))
    if op in ("cut", "repeat", "drop"):
        lines = data.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        kept = {"cut": [], "repeat": lines[k:k + 1] * 2 + lines[k + 1:], "drop": lines[k + 1:]}
        return b"".join(lines[:k] + kept[op])
    at = rng.randrange(len(data))
    if op == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if op == "insert":
        return data[:at] + bytes([rng.randrange(256)]) + data[at:]
    return data[:at] + data[at + 1:]


def test_every_edit_of_what_a_stage_reads_fails_it(all_run, micro_config, tmp_path, capsys):
    # targets: (stage, file) for a dataset or artifact file the stage reads,
    # (stage, file, manifest, key) for the digest that a manifest the stage
    # reads records for a file the stage reads
    targets = []
    state = cli.PipelineState(load_run_config(micro_config, out_dir=all_run))
    for name, spec in cli.STAGES.items():
        manifests = tuple(map(cli.manifest_name, spec.upstream))
        read = {state.rel(path) for path in state.files(spec.reads + manifests)}
        targets += [
            (name, state.rel(path)) for path in state.files(spec.reads)  # not the patterns
            if path.startswith(all_run) and not os.path.basename(path).startswith("manifest_")
        ]
        for manifest in manifests:
            with open(os.path.join(all_run, manifest)) as fh:
                recorded = json.load(fh)
            targets += [
                (name, file, manifest, key)
                for key in ("inputs", "outputs") for file in recorded[key] if file in read
            ]
    rng = random.Random(20261)
    start = time.monotonic()
    for case in range(240):
        stage, file, *digest = rng.choice(targets)
        out = tmp_path / "run"
        shutil.copytree(all_run, out)
        if digest:
            manifest, key = digest
            recorded = json.loads((out / manifest).read_text())
            old = recorded[key][file]
            recorded[key][file] = fuzz_edit(old.encode(), rng).decode("latin-1")
            files.write_json(out / manifest, recorded)
        else:
            (out / file).write_bytes(fuzz_edit((out / file).read_bytes(), rng))
        code = cli.main([stage, "--config", micro_config, "--out", str(out)])
        assert 2 <= code <= 5, (case, stage, file, digest, capsys.readouterr().err)
        capsys.readouterr()
        shutil.rmtree(out)
    assert time.monotonic() - start < 30
    # the targets cover every stage that reads anything, with both kinds
    assert {t[0] for t in targets} == {name for name, spec in cli.STAGES.items() if spec.reads}
    assert {len(t) for t in targets} == {2, 4}


@pytest.mark.parametrize("name, path, value, message", CONFIG_FAULTS)
def test_config_faults_name_the_section(micro_config, tmp_path, capsys, name, path, value, message):
    with open(micro_config) as fh:
        config = json.load(fh)
    config_setting(path, value)(None, config)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["label", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("stage", list(cli.STEP_FUNCS))
def test_manifest_lists_every_file_the_stage_opens(
    all_run, micro_config, tmp_path, monkeypatch, stage
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    opened = set()
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            # an output is written as <name>.tmp, then renamed to <name>
            opened.add(os.path.realpath(file).removesuffix(".tmp"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert cli.main([stage, "--config", micro_config, "--out", str(out)]) == 0
    monkeypatch.undo()

    manifest_path = out / cli.manifest_name(stage)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    listed = set(manifest["inputs"]) | set(manifest["outputs"])
    # a manifest cannot list itself; the config is recorded by its digest
    exempt = {os.path.realpath(micro_config), os.path.realpath(manifest_path)}
    root = os.path.realpath(out)
    for path in sorted(opened - exempt):
        rel = os.path.relpath(path, root)
        key = os.path.basename(path) if rel.startswith("..") else rel
        assert key in listed, f"{stage} opened {key} but its manifest omits it"


# the stages that read the dataset tables but not its event log
EVENTLESS_STAGES = ("infer-net", "segment", "cohort", "geo-corr", "regress")


def test_stages_without_events_run_without_events_jsonl(all_run, micro_config, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    (out / "dataset" / "events.jsonl").unlink()
    want = tree_hashes(str(out))
    for name in EVENTLESS_STAGES:
        for artifact in cli.STAGES[name].writes + (cli.manifest_name(name),):
            (out / artifact).unlink()
    for name in EVENTLESS_STAGES:
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 0
    assert tree_hashes(str(out)) == want
    assert cli.main(["label", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `gen` first" in capsys.readouterr().err


# the stages that read the dataset tables but not its address table
ADDRESSLESS_STAGES = ("label", "segment", "cohort", "geo-corr", "regress")


def test_stages_without_addresses_run_without_the_address_columns(
    all_run, micro_config, tmp_path, capsys
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    for name in column_files("addresses"):
        (out / "dataset" / name).unlink()
    want = tree_hashes(str(out))
    for name in ADDRESSLESS_STAGES:
        for artifact in cli.STAGES[name].writes + (cli.manifest_name(name),):
            (out / artifact).unlink()
    for name in ADDRESSLESS_STAGES:
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 0
    assert tree_hashes(str(out)) == want
    assert cli.main(["infer-net", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `gen` first" in capsys.readouterr().err


def test_gen_infers_a_missing_window_once_and_writes_it(jsonl_export, ingest_config, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(jsonl_export, out)
    calendar = out / "dataset" / "calendar.json"
    calendar.unlink()
    assert cli.main(["gen", "--config", ingest_config, "--out", str(out)]) == 0
    events = files.read_events(out / "dataset" / "events.jsonl")
    assert files.read_calendar(calendar) == domain.infer_calendar(events)
    assert "dataset/calendar.json" in manifest(str(out), "gen")["outputs"]


def test_a_stage_over_a_dataset_not_stored_by_gen_exits_3_naming_gen(
    all_run, jsonl_export, micro_config, tmp_path, capsys
):
    # without calendar.json
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    (out / "dataset" / "calendar.json").unlink()
    for name in EVENTLESS_STAGES + ("label",):
        capsys.readouterr()
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "dataset/calendar.json" in err and "run `gen` first" in err, (name, err)
    # with the tables only as JSONL
    out = tmp_path / "brought"
    shutil.copytree(jsonl_export, out)
    assert cli.main(["infer-net", "--config", micro_config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "dataset/population.ids.npy" in err and "run `gen` first" in err, err


def test_a_failed_stage_leaves_no_manifest_behind(all_run, micro_config, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    with open(micro_config) as fh:
        config = json.load(fh)
    config["regression"]["sample_size"] = 10**9
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    # the sample is drawn after schedule.tsv is written
    assert cli.main(["regress", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not (out / "manifest_regress.json").exists()
    capsys.readouterr()
    assert cli.main(["report", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `regress` first" in capsys.readouterr().err


def test_analytic_failures_exit_5(monkeypatch, micro_config, capsys):
    for exc in (NumericalError("boom"), CohortError("empty")):
        monkeypatch.setattr(cli, "run_subcommand", lambda *a, exc=exc: (_ for _ in ()).throw(exc))
        assert cli.main(["report", "--config", micro_config]) == 5
        assert "error:" in capsys.readouterr().err


def test_patterns_flag_changes_labeling(tmp_path, micro_config):
    out = tmp_path / "nopatterns"
    assert cli.main(["gen", "--config", micro_config, "--out", str(out)]) == 0
    silent = tmp_path / "silent.txt"
    silent.write_text("(zzz_nonexistent_term)\n")
    args = ["label", "--config", micro_config, "--out", str(out), "--patterns", str(silent)]
    assert cli.main(args) == 0
    with open(out / "manifest_label.json") as fh:
        m = json.load(fh)
    assert m["stats"]["aware"] == 0
    with open(out / "labels.tsv") as fh:
        assert len(fh.readlines()) == 1  # header only
