"""Run configuration: the settings of one pipeline run and their checks.

Each section of a run config is declared once, by a dataclass whose
defaults fill what the JSON leaves out; README.md lists them.  A field's
annotation declares its type and bounds, as ``Annotated[int, Bounds(1)]``.
simulate.build_section builds the config and checks every value in one
walk; validate() adds the checks that span fields.  Faults raise ConfigError.
"""

import hashlib
import json
import os
from dataclasses import MISSING, dataclass, field, fields, make_dataclass
from typing import Annotated

from . import files
from .analytics import EventMark, PhaseThresholds, default_event_marks
from .domain import Bounds
from .errors import ConfigError
from .netinfer import DEFAULT_CAPS
from .presets import PRESET_NAMES, default_patterns_path, load_preset
from .regress import FeatureSpec, FitConfig
from .simulate import HistoryMonths, SimConfig, build_section

INT64_MAX = 2**63 - 1

# The caps section: per address kind, the largest group infer-net links.
Caps = make_dataclass("Caps", [(k, Annotated[int, Bounds(2)], v) for k, v in DEFAULT_CAPS.items()])


@dataclass
class RegressionConfig(FitConfig):
    """The regression section: the fit settings of FitConfig, the sample
    size, the age term, the checkpoint percentages and the p-value
    threshold of the typical profile."""

    sample_size: Annotated[int, Bounds(1)] = 100_000
    age_mode: str = FeatureSpec.age_mode
    pct_min: Annotated[int, Bounds(1, 100)] = 1
    pct_max: Annotated[int, Bounds(1, 100)] = 95
    p_threshold: Annotated[float, Bounds(0, 1, open_lo=True)] = 0.05


@dataclass
class RunConfig:
    """The settings of one run, every section built into its dataclass.

    ``source`` keeps the JSON object the config was built from, so that
    digest() hashes the config as written: a regression section of
    {"sample_size": 150} stays that.
    """

    out_dir: str = "runs/out"
    dataset_dir: str = None  # defaults to <out_dir>/dataset
    seed: Annotated[int, Bounds(0, 2**64 - 1)] = 1  # keys the uint64 random streams
    # processes `all` may use: 1 writes the dataset inline, 2 or more in a
    # forked writer beside the later stages, 0 = the usable cores
    jobs: Annotated[int, Bounds(0, INT64_MAX)] = 0
    patterns: str = None  # None = bundled default pattern file
    threshold: Annotated[int, Bounds(1, INT64_MAX)] = 3
    history_months: HistoryMonths = 60
    min_purchases_per_month: Annotated[int, Bounds(1, INT64_MAX)] = 1
    caps: Caps = field(default_factory=Caps)
    phase_thresholds: PhaseThresholds = field(
        default_factory=PhaseThresholds, metadata={"label": "phase threshold"}
    )
    # None = canonical event list; [] = no events
    marks: list[EventMark] = field(default=None, metadata={"label": "mark"})
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    simulator: SimConfig = None
    source: dict = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, data):
        """The run config of the JSON object ``data``, built and checked."""
        cfg = build_section(cls, data, "run config", "")
        cfg.source = data
        return cfg.validate()

    def validate(self):
        """The checks that span fields: build_section checks each field's type
        and bounds as it builds the config.  Raises ConfigError."""
        problems = []
        if self.patterns is not None and not os.path.exists(self.patterns):
            problems.append(f"pattern file {self.patterns!r} does not exist")
        reg = self.regression
        if reg.pct_min > reg.pct_max:
            problems.append("regression percentages must satisfy 1 <= min <= max <= 100")
        if problems:
            raise ConfigError("; ".join(problems))
        FeatureSpec(age_mode=reg.age_mode).validate()
        if self.simulator is not None:
            self.simulator.validate()
        return self

    def resolved_dataset_dir(self):
        return self.dataset_dir or os.path.join(self.out_dir, "dataset")

    def patterns_path(self):
        return self.patterns or default_patterns_path()

    def event_marks(self, calendar):
        """The marks, or the canonical event list when the config has none."""
        return default_event_marks(calendar) if self.marks is None else self.marks

    def digest(self):
        """Hash of the config as given, less where it is written and how many
        processes write it.  A top-level key that the JSON leaves out hashes as
        its default, a phase_thresholds or regression section as {}."""
        data = {f.name: f.default for f in fields(self) if f.default is not MISSING}
        data.update(caps=dict(DEFAULT_CAPS), phase_thresholds={}, regression={})
        data.update(self.source or {})
        for key in ("out_dir", "dataset_dir", "jobs", "source"):
            data.pop(key)
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_run_config(spec_arg, phase_thresholds=None, **flags):
    """The run config of ``spec_arg``, a bundled preset name or the path of a
    JSON file, with each top-level key of ``flags`` that is not None set over
    it, and the phase_thresholds section read from the JSON file of that path
    when one is given."""
    if spec_arg in PRESET_NAMES:
        data = load_preset(spec_arg)
    elif os.path.exists(spec_arg):
        data = files.read_json(spec_arg, config=True)
    else:
        raise ConfigError(
            f"config {spec_arg!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            f"nor an existing file"
        )
    if phase_thresholds is not None:
        if not os.path.exists(phase_thresholds):
            raise ConfigError(f"phase threshold file {phase_thresholds!r} does not exist")
        flags["phase_thresholds"] = files.read_json(phase_thresholds, config=True)
    if isinstance(data, dict):  # from_dict refuses anything else
        data.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig.from_dict(data)
