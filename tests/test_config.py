"""Run configuration: the preset generator and the config digests."""

import importlib.util
import json
import os

import pytest

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
