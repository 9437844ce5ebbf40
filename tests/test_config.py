"""Run configuration: the preset generator, the config digests, how often
a run checks its config, and that every setting reaches an artifact."""

import collections
import copy
import hashlib
import importlib.util
import json
import os
import shutil
import typing
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest

from awareflow import cli, config, files, simulate
from awareflow.config import RunConfig
from awareflow.domain import SECONDS_PER_DAY, Timestamp
from awareflow.errors import ConfigError
from awareflow.presets import PRESET_NAMES, default_patterns_path, load_preset, preset_path

from conftest import small_world_config, tree_hashes

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_presets.py")


def test_preset_generator_writes_the_bundled_presets(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_presets", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT_DIR", str(tmp_path))
    script.main()
    assert sorted(os.listdir(tmp_path)) == sorted(f"{name}.json" for name in PRESET_NAMES)
    for name in PRESET_NAMES:
        assert (tmp_path / f"{name}.json").read_bytes() == preset_path(name).read_bytes(), name


def micro_run_config():
    """The micro config of tests/test_cli.py: a partial regression section
    and no caps, phase thresholds or marks."""
    sim = small_world_config()
    run = {
        "seed": 7,
        "threshold": 3,
        "history_months": sim.history_months,
        "regression": {"sample_size": 150},
        "simulator": sim.to_dict(),
    }
    return json.loads(json.dumps(run))


# config_sha256 of every manifest and report.json: the digest hashes the
# config as given, with no section filled out to its defaults
DIGESTS = {
    "small": "e69d18e4a1e9f629b892702da2f37571732de90e31dac4d49553c8d2d2fdfdc2",
    "fig1a": "e4db7b16f8def5ab59b68f3c1d597399b510ec63853cc46fe7264a3c2b68449d",
    "recovery": "5bd3f8fa7f19f3ffb6db053bca88ba3f0e3691e95cc85a431febb27febccc626",
    "perf": "ccd547c0baf525a44e896612b1f39227be93fa2d2e20082a95042edb33e7000a",
    "micro": "3bd9a3e70d9beba1accfff87bc7915c97b5bd3aeb16a7794d79e79e08f05826c",
}


@pytest.mark.parametrize("name", DIGESTS)
def test_config_digests_are_pinned(name):
    data = micro_run_config() if name == "micro" else load_preset(name)
    assert RunConfig.from_dict(data).digest() == DIGESTS[name]


def test_all_builds_and_checks_the_config_once(tmp_path, monkeypatch):
    calls = collections.Counter()

    def count(owner, name, label):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    # the values that one walk over the micro config checks, --out included
    out = str(tmp_path / "run")
    count(config, "_setting", "value checks")
    RunConfig.from_dict({**micro_run_config(), "out_dir": out})
    per_walk = calls.pop("value checks")
    assert per_walk > 0

    count(RunConfig, "from_dict", "builds")
    count(RunConfig, "validate", "run config cross-field checks")
    count(simulate.SimConfig, "validate", "simulator cross-field checks")
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(micro_run_config()))
    assert cli.main(["all", "--config", str(path), "--out", out]) == 0
    assert calls == {
        "builds": 1,
        "value checks": per_walk,
        "run config cross-field checks": 1,
        "simulator cross-field checks": 1,
    }



def set_key(data, path, value):
    """``data`` with the value at the key path ``path`` set to ``value``."""
    *parents, last = path
    node = data
    for part in parents:
        node = node[part]
    node[last] = value
    return data


@pytest.mark.parametrize("path, message", [
    (("simulator", "n_individuals"), "simulator.n_individuals must be in [1, 2147483647]"),
    (("simulator", "history_months"), "simulator.history_months must be in [1, 120000]"),
    (("simulator", "regions", "n_cities"), "simulator.regions.n_cities must be in [1, 10000]"),
])
def test_a_size_past_what_its_arrays_hold_is_refused(path, message):
    data = set_key(load_preset("small"), path, 2**62)
    with pytest.raises(ConfigError) as refused:
        RunConfig.from_dict(data)
    assert str(refused.value) == f"{message}, got {2**62}"


@pytest.mark.parametrize("value", [10_001, 2**63, 2**64])
def test_a_max_iter_past_its_bound_is_refused(value):
    # every unpenalized fit of a separated checkpoint runs all max_iter
    # iterations, so a huge one never finishes
    data = set_key(load_preset("small"), ("regression", "max_iter"), value)
    with pytest.raises(ConfigError) as refused:
        RunConfig.from_dict(data)
    assert str(refused.value) == f"regression.max_iter must be in [1, 10000], got {value}"


def test_an_int_for_a_float_setting_is_a_double(small_world):
    _, dataset, _ = small_world
    key = ("simulator", "hazard", "occupation", "white_collar")
    for value in (2**64, -(2**70)):
        cfg = RunConfig.from_dict(set_key(load_preset("small"), key, value))
        got = cfg.simulator.hazard.occupation["white_collar"]
        assert type(got) is float and got == value
        # which numpy holds as a double, not as an object
        base = simulate.hazard_base(cfg.simulator, dataset.population, dataset.distance_km())
        assert base.dtype == np.float64
    # the ints of a list setting too, and one beyond a double is refused
    probs = ("simulator", "demographics", "purchasing_power_probs")
    cfg = RunConfig.from_dict(set_key(load_preset("small"), probs, [1, 2, 3, 4, 5, 6, 7]))
    assert cfg.simulator.demographics.purchasing_power_probs == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    with pytest.raises(ConfigError, match=r"white_collar must be finite, got 1797\d{305}$"):
        RunConfig.from_dict(set_key(load_preset("small"), key, 2**1024))


# The settings that by design reach no artifact, with the reason.
INERT = {
    "out_dir": "where the run is written; the gate names it with --out",
    "dataset_dir": "where the dataset is written",
    "jobs": "how many processes write the run; no byte may depend on it",
    "simulator.events[0].label": "it only names the shock in config errors",
}
# moves of the string settings that take one of a few values
STRING_MOVES = {
    "calendar_start": lambda date: str(np.datetime64(date) + 1),
    "age_mode": lambda mode: "brackets" if mode == "linear" else "linear",
    "scope": lambda scope: "city" if scope == "province" else "province",
}


def dotted(key):
    """The name of the setting at the key path ``key``, as in marks[0].label."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in key)[1:]


def leaf_settings(cls, value, path=()):
    """(key path, type, value) of every leaf setting of the declaration
    ``cls``, valued as in the built section ``value``: a section is walked
    field by field, a list section through its first item, a dict setting
    through its first key."""
    for f in fields(cls):
        if not f.init:
            continue
        key, v = (*path, f.name), getattr(value, f.name)
        if is_dataclass(f.type):
            yield from leaf_settings(f.type, v, key)
        elif typing.get_origin(f.type) is list:
            yield from leaf_settings(typing.get_args(f.type)[0], v[0], (*key, 0))
        elif typing.get_origin(f.type) is dict:
            first = next(iter(v))
            yield (*key, first), typing.get_args(f.type)[1], v[first]
        else:
            yield key, f.type, v


def moves(key, tp, value):
    """Values inside the Bounds of ``tp`` for the setting at ``key``, now
    ``value``, in the order the gate tries them.  Moves of +1 or x1.1 leave
    many settings without effect on a 400-person world, so a number moves
    to its lower Bounds end, by 10 or by a factor of 10, and last to its
    upper end, which may ask for a far larger run; a timestamp moves by a
    whole day, and a list through its first item."""
    bounds = getattr(tp, "__metadata__", ())
    kind = typing.get_args(tp)[0] if bounds else tp
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return [(m, *value[1:]) for m in moves(key, item, value[0])]
    if kind is str:
        return [STRING_MOVES.get(key[-1], lambda text: f"{text} moved")(value)]
    if tp == Timestamp:
        return [value + SECONDS_PER_DAY]
    ends = [end for b in bounds for end in (None if b.open_lo else b.lo, b.hi)]
    if kind is int:
        steps = [value + 1, value - 1, value * 10, value // 10]
    else:
        steps = [value + 10, value - 10, value * 10, value / 10]
        if len(ends) == 2 and None not in ends:
            steps.insert(0, sum(ends) / 2)
    return [
        v for v in dict.fromkeys([*ends[::2], *steps, *ends[1::2]])  # the upper ends last
        if v is not None and v != value and not any(b.problem(v) for b in bounds)
    ]


def run_all(config, out):
    """Run `all` on the JSON ``config`` into a fresh ``out``; its exit code."""
    shutil.rmtree(out, ignore_errors=True)
    path = out.parent / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["all", "--config", str(path), "--out", str(out)])


def artifacts(out):
    """The SHA-256 of each file of the run ``out`` but the manifests, by path;
    report.json as its object less config_sha256, which hashes the config
    and so moves with every setting."""
    digests = {
        name: digest for name, digest in tree_hashes(out).items()
        if not os.path.basename(name).startswith("manifest_")
    }
    if "report.json" in digests:
        digests["report.json"] = json.loads((out / "report.json").read_bytes())
        del digests["report.json"]["config_sha256"]
    return digests


def test_every_setting_changes_an_artifact(tmp_path):
    # the micro world with every setting written out: one process, the
    # marks of its window, a province shock, so that its scope_id acts, and
    # phase thresholds that it passes through all five phases with, so that
    # each threshold acts
    data = {**micro_run_config(), "jobs": 1}
    data["simulator"]["events"][0]["scope"] = "province"
    data["phase_thresholds"] = {"growth_high": 0.3, "province_share": 0.3}
    cfg = RunConfig.from_dict(data)
    cfg.marks = cfg.event_marks(cfg.simulator.calendar())
    base = json.loads(json.dumps({k: v for k, v in asdict(cfg).items() if k != "source"}))
    out = tmp_path / "run"
    assert run_all(base, out) == 0
    assert len(files.read_tsv(out / "phases.tsv", cli.TABLES["phases.tsv"])[0]) == 5
    everything = tree_hashes(out)
    want = artifacts(out)

    patterns = tmp_path / "patterns.txt"
    with open(default_patterns_path()) as fh:
        patterns.write_text("".join(fh.readlines()[:-1]))  # one pattern fewer

    settings = list(leaf_settings(RunConfig, cfg))
    assert set(INERT) <= {dotted(key) for key, *_ in settings}
    inert = []
    for key, tp, value in settings:
        if dotted(key) in INERT:
            continue
        for moved in [str(patterns)] if key == ("patterns",) else moves(key, tp, value):
            config = copy.deepcopy(base)
            *parents, last = key
            node = config
            for part in parents:
                node = node[part]
            node[last] = moved
            run_all(config, out)
            # a file that both runs wrote differs; a run that a move makes
            # fail counts by the files it wrote before it failed
            got = artifacts(out)
            if any(got[name] != want[name] for name in got.keys() & want.keys()):
                break
        else:
            inert.append(dotted(key))
    assert inert == []

    # two processes: not a byte differs, manifests included
    assert run_all({**base, "jobs": 2}, out) == 0
    assert tree_hashes(out) == everything
