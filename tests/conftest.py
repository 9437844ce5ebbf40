"""Shared fixtures: one small simulated world reused across test modules.

The world is big enough to exercise every pipeline stage (three network
layers, a mid-window shock, qualified and unqualified shoppers) while
staying fast to generate, so it is built once per session.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

import awareflow
from awareflow.awareness import (
    compile_query_set,
    filter_qualified,
    history_window,
    label_awareness,
)
from awareflow.domain import EVENT_TYPES, EventLog, intern_texts
from awareflow.files import load_patterns
from awareflow.netinfer import infer_networks
from awareflow.presets import default_patterns_path
from awareflow.simulate import (
    HazardCoefficients,
    RegionConfig,
    ShockEvent,
    SimConfig,
    generate,
)


# interpreters that tests start import the package from the same tree
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(awareflow.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="module")
def micro_config(tmp_path_factory):
    """The path of a run config over the 400-person world the unit tests use;
    history_months matches the simulated purchase history depth."""
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


def make_events(rows):
    """The canonical EventLog of (kind name, individual id, timestamp, text,
    is_ppe) rows."""
    kind, iid, ts, text, ppe = zip(*rows) if rows else ((),) * 5
    codes_of = {}
    code = intern_texts(text, codes_of)
    return EventLog.canonical(
        [EVENT_TYPES.index(k) for k in kind], iid, ts, code, ppe, list(codes_of)
    )


def random_event_columns(n, calendar, n_ids=200, seed=0):
    """Event columns (kind, individual_id, timestamp, text_code, is_ppe) of
    ``n`` random rows over the 400 days before the ``calendar`` opens: texts
    are codes into five texts, ids run from 1 to ``n_ids``."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 2, size=n).astype(np.uint8)
    ts = rng.integers(calendar.day_start_ts(-400), calendar.day_start_ts(0), size=n)
    iid = rng.integers(1, n_ids + 1, size=n).astype(np.uint64)
    code = rng.integers(0, 5, size=n).astype(EventLog.DTYPES["text_code"])
    return kind, iid, ts, code, (kind == 1) & (rng.random(n) < 0.3)


def traced_peak(fn, *args):
    """The most bytes that ``fn(*args)`` held at once above what was held
    when it was called, as tracemalloc counts them (numpy buffers included)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def tree_hashes(root):
    """The SHA-256 of every file under ``root``, by path relative to it."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def assert_no_child_left():
    """The test process has no child: every forked one was reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_until_exited(pid):
    """Wait for the child ``pid`` to exit, leaving it unreaped."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


# the seed that generates the small world
SMALL_WORLD_SEED = 321


def small_world_config():
    cfg = SimConfig(
        n_individuals=400,
        n_days=40,
        regions=RegionConfig(n_cities=6, n_provinces=3, max_distance_km=1800.0),
        hazard=HazardCoefficients(intercept=-6.0),
        history_months=6,
        query_noise=0.0,
        stockout_day=30,
    )
    cal = cfg.calendar()
    cfg.events = [ShockEvent("drill", cal.day_start_ts(12) + 43200, 5.0)]
    return cfg


@pytest.fixture(scope="session")
def small_world():
    cfg = small_world_config()
    cfg.validate()
    dataset, truth = generate(cfg, SMALL_WORLD_SEED)
    return cfg, dataset, truth


@pytest.fixture(scope="session")
def matcher():
    return compile_query_set(load_patterns(default_patterns_path()))


@pytest.fixture(scope="session")
def timeline_small(small_world, matcher):
    _, dataset, _ = small_world
    return label_awareness(dataset.events, matcher)


@pytest.fixture(scope="session")
def qualified_small(small_world):
    cfg, dataset, _ = small_world
    window = history_window(dataset.calendar, months=cfg.history_months)
    return filter_qualified(dataset.events, window)


@pytest.fixture(scope="session")
def graph_small(small_world):
    _, dataset, _ = small_world
    return infer_networks(dataset.addresses, dataset.population.ids)
