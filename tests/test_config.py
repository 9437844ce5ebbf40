"""Run configuration: the preset generator, the config digests and how often
a run checks its config."""

import collections
import importlib.util
import json
import os

import pytest

from awareflow import cli, config, simulate
from awareflow.config import RunConfig
from awareflow.presets import PRESET_NAMES, load_preset, preset_path

from conftest import small_world_config

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
    "small": "7904cfba44c7aef2103e4f245ce9a2cfec141d3cf0f47e33ab837e84aeeac552",
    "fig1a": "41c54f9061bc6975144466904a9b36c45ec31cee9f032e00da978e246e4e8a4f",
    "recovery": "5f8ef527be41d6cfdfec163ca7c3c150686f7543ff3ace3abb982ea0467342a5",
    "perf": "d2865e796f2ccbccdc5e8f43d0090d4cccabfae80381a0b1d8265aadcfaa131d",
    "micro": "7aac0bf18cbdca0a2098da6b63a32b19a6f213a4bc832c854dd5be35e3a31cd5",
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
    count(simulate, "_setting", "value checks")
    RunConfig.from_dict({**micro_run_config(), "out_dir": out})
    per_walk = calls.pop("value checks")
    assert per_walk > 0

    count(config, "build_section", "builds")
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
