"""End-to-end command line runs on a miniature world: artifact layout,
manifest determinism, exit codes, flag handling."""

import builtins
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from awareflow import analytics, cli, domain, files
from awareflow.config import load_run_config
from awareflow.domain import Calendar
from awareflow.errors import CohortError, NumericalError, ParseError
from awareflow.presets import load_preset

from conftest import assert_no_child_left, small_world_config, tree_hashes, wait_until_exited
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
def micro_config(tmp_path_factory):
    # run the CLI against the same 400-person world the unit tests use;
    # history_months must match the simulated purchase history depth
    sim = small_world_config()
    run = {
        "seed": 7,
        "threshold": 3,
        "history_months": sim.history_months,
        "regression": {"sample_size": 150},
        "simulator": sim.to_dict(),
    }
    path = tmp_path_factory.mktemp("cfg") / "micro.json"
    path.write_text(json.dumps(run))
    return str(path)


@pytest.fixture(scope="module")
def all_run(micro_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("all_run")
    assert cli.main(["all", "--config", micro_config, "--out", str(out)]) == 0
    return str(out)


def test_all_writes_every_artifact(all_run):
    for name in ARTIFACTS + STEP_MANIFESTS + ("manifest_all.json",):
        assert os.path.exists(os.path.join(all_run, name)), name
    for name in (
        "population.jsonl", "regions.jsonl", "addresses.jsonl",
        "events.jsonl", "calendar.json",
    ):
        assert os.path.exists(os.path.join(all_run, "dataset", name)), name
    # every write renamed its temporary file into place
    assert not [name for _, _, names in os.walk(all_run) for name in names if name.endswith(".tmp")]


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
    write_jsonl = files.write_jsonl

    def held(path, *args):
        # the forked writer inherits this: it writes addresses.jsonl only
        # once the test says go, or after 10 s
        deadline = time.monotonic() + 10
        while str(path).endswith("addresses.jsonl") and not go.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        write_jsonl(path, *args)

    monkeypatch.setattr(files, "write_jsonl", held)
    state = cli.PipelineState(load_run_config(micro_config, out_dir=str(tmp_path)), fork_writer=True)
    try:
        cli.STEP_FUNCS["gen"](state)
        assert state.writer is not None
        assert not os.path.exists(state.dataset_path("addresses.jsonl"))
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


def test_readers_agree_with_their_oracles_on_mutated_files(all_run, tmp_path, monkeypatch):
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 16)  # a few hundred blocks per JSONL file
    dataset = os.path.join(all_run, "dataset")
    ids = files.read_population(os.path.join(dataset, "population.jsonl")).ids

    def edge_scan(data):
        want = edge_file_scan(data, ids)
        return want if isinstance(want, dict) else (want[0], f"bad edge line {want[1]!r}")

    readers = {
        os.path.join(all_run, "labels.tsv"): tsv_reader("labels.tsv"),
        os.path.join(all_run, "regression.tsv"): tsv_reader("regression.tsv"),
        os.path.join(all_run, "networks.edges"): (
            lambda path: graph_edge_sets(files.read_edges(path, ids)), edge_scan,
        ),
        os.path.join(dataset, "population.jsonl"): jsonl_reader(domain.POPULATION_FIELDS),
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
    # as many aware as the last percentage checkpoint, not the whole sample
    names = [name for name, _ in cli.TABLES["regression.tsv"]]
    rows = dict(zip(names, files.read_tsv(out / "regression.tsv", cli.TABLES["regression.tsv"])))
    last = rows["trigger"] == "event_last"
    pct = rows["kind"] == "percentage"
    assert last.any() and set(rows["n_aware"][last]) == {max(rows["n_aware"][pct])}
    assert set(rows["n_obs"][last]) == {150} and set(rows["error"][last]) == {"NA"}


# The dataset bytes of `gen --config small`, which the batched event and
# edge writers must reproduce exactly.
SMALL_DATASET_SHA256 = {
    "addresses.jsonl": "5c379d8645893f366d2bc7310723cfdf343389071dc42c9ed904663a71170c06",
    "calendar.json": "d7b4a1642b58953a818455192559feae2bc0fe523e1c32e7d0d82b56769e99b5",
    "events.jsonl": "b8f7554081370eb7a856ad369341f27a85d477752c55dcc49c79b74d1affa1a7",
    "population.jsonl": "3f317e0411148533011a9f58234168e7a08840b6ae2a99417faa0617ca59acf5",
    "regions.jsonl": "489a8f4b63abc45f62abef0ca78821a809eae8950aa8d9af67944b1608c41020",
    "truth_labels.jsonl": "33d2a42f714b7a1ec205be37986c84ae1544e877e1505402095b5f4e93cc4312",
    "truth_network.edges": "4fe6d332c4b40e8a3886859923e8602e953ecd09e39af97aeff759e61e2d5868",
}


def test_small_preset_dataset_bytes_are_pinned(tmp_path):
    assert cli.main(["gen", "--config", "small", "--out", str(tmp_path)]) == 0
    assert tree_hashes(str(tmp_path / "dataset")) == SMALL_DATASET_SHA256


# Every file `all --config small` writes.  A change that alters an artifact
# on purpose updates its hash here and says why.
SMALL_RUN_SHA256 = {
    **{f"dataset/{name}": digest for name, digest in SMALL_DATASET_SHA256.items()},
    "aware_purchasing_power.tsv": "935e92eb95c629e4feab1a5d9221b46cefe29d2b261c56b3a9c74d753ccab809",
    "cross_ratios.tsv": "9f5c210ab0bf8f8a9567d71e974a477a4422a61d6fd81344b2ae2fc34af36c46",
    "geo_correlations.tsv": "0cf48c74783108399fe652baef025a9feea582def14aec573a472ef475cc1987",
    "hysteresis.tsv": "21b6da6121709e3cf30ab31f9d227614c2037de8f8951bf7d5fff54f6c40f8b9",
    "labels.tsv": "65332539e38dd6b1c4572c14b3d6f5bc8a942d2156bd9280a10351d8c02b6b5b",
    "lead_days.tsv": "3b673607f9eb22f552deb7c1a6c2b640375b463bc9cb97cb4a8c3877138d2e94",
    "manifest_all.json": "ceb3983ac1cc12df4b5a523aca73312338cb267c960c774e3e394f6e30044068",
    "manifest_cohort.json": "7550bb467e1d4cfd55c79d6ca79eb34550c97f9b8859ca7efa9dfd822311c611",
    "manifest_gen.json": "e341f47f6b14ca21b3e0c977629a73d1d676e8d3bad36b7a3f0352e9656e8621",
    "manifest_geo_corr.json": "682ff163c43f15cd017826dc45a955178c11db1d97eeb086db6a356959fea61b",
    "manifest_infer_net.json": "5fe08458f06ddc658c9dbc1aed3182a92d16394dbf2d31efb8feaab5c7595bdf",
    "manifest_label.json": "6045389bc01aacb28a70e714d1d0cd676caf7d86d7ac3288fe21064b4d056a22",
    "manifest_regress.json": "2293b1fd6b5ef759372d6201e30301520ae0ce953dc920520103263f7bf2b2f0",
    "manifest_report.json": "adc7cc3e6891a46fbf57faad2d2a25a10d011d5f0fd00c36e1a5f8a26f1fa34e",
    "manifest_segment.json": "5f99abbcf340ccad3132ce9534415d4b023964f72a4022fdc27b637fec1a4c7d",
    "national_trend.tsv": "b2724a4658eada235eb8993d8c5a8bfe5684ff5072bdd82ff16e6c0518068005",
    "neighborhood_phase_means.tsv": "dd782110f2e37f59511522cbdc85f488fb68c1853566ba09185666ec9fb1ade6",
    "neighborhood_ratios.tsv": "d0ffc7261ac860edf33990dbfd9133df1b2859074c749c7477e393c0da8a9755",
    "networks.edges": "4fe6d332c4b40e8a3886859923e8602e953ecd09e39af97aeff759e61e2d5868",
    "phases.tsv": "619315e18b7ce2acfc7acd83e452d651b4cd1f6e90ac678413dc5ca4d75bcb30",
    "profiles.tsv": "6fed53510b701c54a950daee70da9db331d69a122a5bd476e91d1f075cc2de9c",
    "province_trend.tsv": "82cdf41d8213e301f7642fa6c0641e51a8b648a0de77cf1b55322d7b6bc7762b",
    "qualified.txt": "2e79ce90974ad7eb391209a00ee459302f79f464af75e26db65b3fc9fc3e87d5",
    "regression.tsv": "0bac88e86388e77945881a420207d980957dc54b1b1ca4a461af0faa1c937251",
    "report.json": "488f27a9346e8128032555517cd1eafac9a1da0ecef2a68517d0c911487e0809",
    "report.txt": "346fa7087bd5db47dd88d27da2fc221e1a2167bef21fb502191c3533873a7841",
    "schedule.tsv": "a0274ac9d4380a3c7fbb1076a362ab0b36c5725d241635570ddc7cd7946e4f00",
    "trends.tsv": "08266b1ded3aa47a777d46c9143bbb7580dcd8a8c7b344b1a64b74eb855dd66a",
}


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


def test_corrupt_dataset_exits_4(tmp_path, micro_config, capsys):
    out = tmp_path / "corrupt"
    assert cli.main(["gen", "--config", micro_config, "--out", str(out)]) == 0
    pop = out / "dataset" / "population.jsonl"
    with open(pop, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    assert cli.main(["infer-net", "--config", micro_config, "--out", str(out)]) == 4
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
        with open(out / "dataset" / "population.jsonl") as fh:
            iid = json.loads(fh.readline())["id"]
        for ts in timestamps:
            line = f'{{"type":"query","individual_id":{iid},"timestamp":{ts}'
            append("dataset/events.jsonl", line + ',"query_text":"x"}\n')(out, config)
    return fault


def patterns_file(out, data):
    path = out / "patterns.txt"
    path.write_bytes(data)
    return ["--patterns", str(path)]


def substitute(name, pattern, repl):
    def fault(out, config):
        path = out / name
        path.write_text(re.sub(pattern, repl, path.read_text(), count=1))
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
    (
        "simulator-section-out-of-bounds", ("simulator", "network", "school_p"), 1.5,
        "simulator.network.school_p must be in [0, 1], got 1.5",
    ),
    (
        "regression-max-iter-zero", ("regression", "max_iter"), 0,
        "regression.max_iter must be >= 1, got 0",
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
        "cohort", substitute("phases.tsv", r"\t0\t11\t", "\t12\t11\t"), 4,
        id="phases-end-before-start",
    ),
    pytest.param(
        "regress", substitute("phases.tsv", r"Beginning\t12\t", "Beginning\t11\t"), 4,
        id="phases-overlap",
    ),
    pytest.param(
        "cohort", substitute("phases.tsv", r"(Beginning[^\n]*)\t0\n", r"\1\t1\n"), 4,
        id="phases-complete-differs",
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
        "cohort", substitute("phases.tsv", r"Beginning\t12\t", "Beginning\t13\t"), 4, id="phases-gap"
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
    # no address names an unknown individual here: the edges are what fail
    *(
        pytest.param(
            stage, replace("dataset/population.jsonl", ""), 4, id=f"population-empty-{stage}"
        )
        for stage in ("cohort", "regress")
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
        "infer-net",
        append(
            "dataset/addresses.jsonl",
            f'{{"individual_id":1,"address_id":1,"kind":"home","active_interval":[0,{10**20}]}}\n',
        ),
        4, id="address-interval-overflow",
    ),
    pytest.param(
        "infer-net", append("dataset/population.jsonl", POPULATION_LINE), 4,
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
        "infer-net",
        append("dataset/population.jsonl", POPULATION_LINE.replace("40000", "1" * 5000)), 4,
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
    all_run, micro_config, tmp_path, capsys, stage, fault, code
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    with open(micro_config) as fh:
        config = json.load(fh)
    extra = fault(out, config) or []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main([stage, "--config", str(cfg_path), "--out", str(out), *extra]) == code
    assert "error:" in capsys.readouterr().err


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


PHASE_CALENDAR = Calendar.from_dates("2019-12-01", "2020-01-11")  # days 0 to 41
PHASE_ROWS = [
    ("Normal", 0, 11, "2019-12-01", "2019-12-12", 0),
    ("Beginning", 12, 39, "2019-12-13", "2020-01-09", 0),
    ("Growth", 40, 41, "2020-01-10", "2020-01-11", 0),
]


@pytest.mark.parametrize("k, row, line_no, message", [
    (2, ("Normal", 40, 41, "2020-01-10", "2020-01-11", 0), 4, "repeated phase 'Normal'"),
    (1, ("Beginning", 12, 11, "2019-12-13", "2019-12-12", 0), 3,
     "phase 'Beginning' ends on day 11, before it starts on day 12"),
    (1, ("Beginning", 11, 39, "2019-12-12", "2020-01-09", 0), 3,
     "phase 'Beginning' starts on day 11, not after the previous phase ends on day 11"),
    (2, ("Growth", 5, 6, "2019-12-06", "2019-12-07", 0), 4,
     "phase 'Growth' starts on day 5, not after the previous phase ends on day 39"),
    (2, ("Growth", 40, 41, "2020-01-10", "2020-01-11", 1), 4, "complete is 1 here but 0 on line 2"),
    (0, ("Normal", 0, 11, "2019-12-01", "2019-12-12", 2), 2, "complete is 2, not 0 or 1"),
    (2, ("Bogus", 40, 41, "2020-01-10", "2020-01-11", 0), 4, "unknown phase 'Bogus'"),
    (0, ("Growth", 0, 11, "2019-12-01", "2019-12-12", 0), 2, "phase 'Growth' cannot come first"),
    (1, ("Growth", 12, 39, "2019-12-13", "2020-01-09", 0), 3, "phase 'Growth' cannot follow 'Normal'"),
    (0, ("Normal", 1, 11, "2019-12-02", "2019-12-12", 0), 2,
     "phase 'Normal' starts on day 1, not on day 0"),
    (2, ("Growth", 41, 41, "2020-01-11", "2020-01-11", 0), 4,
     "phase 'Growth' starts on day 41, not on day 40"),
    (2, ("Growth", 40, 500, "2020-01-10", "2020-01-11", 0), 4,
     "phase 'Growth' ends on day 500; the window ends on day 41"),
    (2, ("Growth", 40, 40, "2020-01-10", "2020-01-10", 0), 4,
     "phase 'Growth' ends on day 40; the window ends on day 41"),
    (1, ("Beginning", 12, 39, "1999-01-01", "2020-01-09", 0), 3,
     "dates 1999-01-01 to 2020-01-09 are not 2019-12-13 to 2020-01-09"),
    (2, ("Growth", 40, 41, "2020-01-10", "2020-01-10", 0), 4,
     "dates 2020-01-10 to 2020-01-10 are not 2020-01-10 to 2020-01-11"),
    (0, ("Normal", 0, 11, "2019-12-01", "2019-12-12", 1), 2,
     "complete is 1, but 3 of the five phases are present"),
])
def test_check_phases_names_the_bad_line(k, row, line_no, message):
    def check(rows):
        columns = [list(column) for column in zip(*rows)] or [[]] * 6
        cli.check_phases("phases.tsv", PHASE_CALENDAR, columns)

    check(PHASE_ROWS)
    with pytest.raises(ParseError) as exc:
        check(PHASE_ROWS[:k] + [row] + PHASE_ROWS[k + 1:])
    assert (exc.value.line_no, str(exc.value)) == (line_no, f"phases.tsv:{line_no}: {message}")
    with pytest.raises(ParseError, match="^phases.tsv:1: no phases$"):
        check([])


def test_check_phases_without_a_calendar_leaves_the_window_and_dates_unchecked():
    def check(rows):
        cli.check_phases("phases.tsv", None, [list(column) for column in zip(*rows)])

    check([("Normal", 0, 11, "1999-01-01", "", 0), ("Beginning", 12, 500, "", "", 0)])
    five = [(name, k, k, "", "", 1) for k, name in enumerate(analytics.PHASE_ORDER)]
    check(five)
    check([(name, k, k, "", "", 0) for k, name in enumerate(analytics.PHASE_ORDER[1:])])
    with pytest.raises(ParseError, match="^phases.tsv:3: phase 'Beginning' starts on day 13,"):
        check([("Normal", 0, 11, "", "", 0), ("Beginning", 13, 500, "", "", 0)])
    with pytest.raises(ParseError, match="^phases.tsv:2: complete is 0, but 5 of the five phases"):
        check([row[:5] + (0,) for row in five])


LABEL_CALENDAR = Calendar.from_dates("2020-01-01", "2020-01-10")
# first_aware_ts, first_aware_day and first_aware_date as cmd_label writes them:
# day 3 of the window, and days before and after it
LABEL_ROWS = [
    (LABEL_CALENDAR.day_start_ts(3) + 100, 3, "2020-01-04"),
    (LABEL_CALENDAR.day_start_ts(-2), -2, "NA"),
    (LABEL_CALENDAR.day_start_ts(10) - 1, 9, "2020-01-10"),
    (LABEL_CALENDAR.day_start_ts(10), 10, "NA"),
]


@pytest.mark.parametrize("k, row, message", [
    (0, (LABEL_ROWS[0][0], 4, "2020-01-04"),
     f"first_aware_day 4 is not day 3 of first_aware_ts {LABEL_ROWS[0][0]}"),
    (2, (LABEL_ROWS[2][0], 9, "2020-01-09"), "first_aware_date '2020-01-09' is not '2020-01-10', day 9"),
    (1, (LABEL_ROWS[1][0], -2, "2019-12-30"), "first_aware_date '2019-12-30' is not 'NA', day -2"),
    (3, (LABEL_ROWS[3][0], 10, "2020-01-11"), "first_aware_date '2020-01-11' is not 'NA', day 10"),
])
def test_check_label_days_names_the_bad_line(k, row, message):
    def check(rows):
        ts, day, date = zip(*rows) if rows else ((), (), ())
        cli.check_label_days(
            "labels.tsv", LABEL_CALENDAR, np.array(ts, dtype=np.int64),
            np.array(day, dtype=np.int64), np.array(date, dtype=object),
        )

    check(LABEL_ROWS)
    check([])
    with pytest.raises(ParseError) as exc:
        check(LABEL_ROWS[:k] + [row] + LABEL_ROWS[k + 1:])
    line_no = k + 2
    assert (exc.value.line_no, str(exc.value)) == (line_no, f"labels.tsv:{line_no}: {message}")


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


def test_stages_without_addresses_run_without_addresses_jsonl(
    all_run, micro_config, tmp_path, capsys
):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    (out / "dataset" / "addresses.jsonl").unlink()
    want = tree_hashes(str(out))
    for name in ADDRESSLESS_STAGES:
        for artifact in cli.STAGES[name].writes + (cli.manifest_name(name),):
            (out / artifact).unlink()
    for name in ADDRESSLESS_STAGES:
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 0
    assert tree_hashes(str(out)) == want
    assert cli.main(["infer-net", "--config", micro_config, "--out", str(out)]) == 3
    assert "run `gen` first" in capsys.readouterr().err


def test_without_calendar_every_stage_lists_events(all_run, micro_config, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(all_run, out)
    (out / "dataset" / "calendar.json").unlink()
    for name in EVENTLESS_STAGES + ("label",):
        assert cli.main([name, "--config", micro_config, "--out", str(out)]) == 0
        with open(out / cli.manifest_name(name)) as fh:
            assert "dataset/events.jsonl" in json.load(fh)["inputs"], name


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
