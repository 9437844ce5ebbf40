"""Run configuration: the settings of one pipeline run and their checks.

Each section of a run config is declared once, by a dataclass whose
defaults fill what the JSON leaves out; README.md lists them.  The same
code, simulate.build_section and simulate.type_problems, checks every
section against its declaration, and a fault raises ConfigError.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, make_dataclass

from . import files
from .analytics import EventMark, PhaseThresholds, default_event_marks
from .errors import AnalyticsError, ConfigError
from .netinfer import DEFAULT_CAPS
from .presets import PRESET_NAMES, default_patterns_path, load_preset
from .regress import FeatureSpec, FitConfig
from .simulate import SimConfig, build_section, mark_problems, type_problems

INT64_MAX = 2**63 - 1

# Integer run settings as (name, low, high).  The seed keys the uint64
# random streams and the counts meet int64 arrays; 10,000 years of history
# keep the qualification key (individual row * n_months + month) in int64.
INT_SETTINGS = (
    ("seed", 0, 2**64 - 1),
    ("jobs", 0, INT64_MAX),
    ("threshold", 1, INT64_MAX),
    ("history_months", 1, 12 * 10_000),
    ("min_purchases_per_month", 1, INT64_MAX),
)

# The caps section: per address kind, the largest group infer-net links.
Caps = make_dataclass("Caps", [(kind, int, cap) for kind, cap in DEFAULT_CAPS.items()])


@dataclass
class RegressionConfig(FitConfig):
    """The regression section: the fit settings of FitConfig, the sample
    size, the age term, the checkpoint percentages and the p-value
    threshold of the typical profile."""

    sample_size: int = 100_000
    age_mode: str = FeatureSpec.age_mode
    pct_min: int = 1
    pct_max: int = 95
    p_threshold: float = 0.05


@dataclass
class RunConfig:
    """The settings of one run.

    Each field holds the JSON it was given, so that digest() hashes the
    config as written: a regression section of {"sample_size": 150} stays
    that.  A field's type declares its JSON; settings() builds each section
    into that dataclass, whose defaults fill what the JSON leaves out.
    """

    out_dir: str = "runs/out"
    dataset_dir: str = None  # defaults to <out_dir>/dataset
    seed: int = 1
    jobs: int = 0  # accepted and range-checked; no effect (fits run serially)
    patterns: str = None  # None = bundled default pattern file
    threshold: int = 3
    history_months: int = 60
    min_purchases_per_month: int = 1
    caps: Caps = field(default_factory=lambda: dict(DEFAULT_CAPS))
    phase_thresholds: PhaseThresholds = field(
        default_factory=dict, metadata={"label": "phase threshold"}
    )
    # None = canonical event list; [] = no events
    marks: list[EventMark] = field(default=None, metadata={"label": "mark"})
    regression: RegressionConfig = field(default_factory=dict)
    simulator: SimConfig = None

    @classmethod
    def from_dict(cls, data):
        cls.build(data)  # refuses a non-object and unknown keys before cls(**data)
        return cls(**data).validate()

    @classmethod
    def build(cls, data):
        """The run config of the JSON object ``data`` with every section built."""
        return build_section(cls, data, "run config", "")

    def settings(self):
        """This config with every section built into its declared dataclass."""
        return self.build(vars(self))

    def validate(self):
        """Type-check every section, then range-check; raises ConfigError."""
        s = self.settings()
        problems = type_problems(s, "")
        if problems:
            raise ConfigError("; ".join(problems))
        problems = [
            f"{name} must be an integer in [{low}, {high}]"
            for name, low, high in INT_SETTINGS
            if not low <= getattr(s, name) <= high
        ]
        if s.patterns is not None and not os.path.exists(s.patterns):
            problems.append(f"pattern file {s.patterns!r} does not exist")
        problems += [f"cap for {k!r} must be >= 2" for k, v in asdict(s.caps).items() if v < 2]
        problems += mark_problems(s.marks or [], "mark")
        reg = s.regression
        if reg.sample_size < 1:
            problems.append("regression.sample_size must be >= 1")
        if not 1 <= reg.pct_min <= reg.pct_max <= 100:
            problems.append("regression percentages must satisfy 1 <= min <= max <= 100")
        if problems:
            raise ConfigError("; ".join(problems))
        FeatureSpec(age_mode=reg.age_mode).validate()
        try:
            s.phase_thresholds.validate()
        except AnalyticsError as exc:
            raise ConfigError(str(exc))
        if s.simulator is not None:
            s.simulator.validate()
        return self

    def resolved_dataset_dir(self):
        return self.dataset_dir or os.path.join(self.out_dir, "dataset")

    def patterns_path(self):
        return self.patterns or default_patterns_path()

    def event_marks(self, calendar):
        """The marks, or the canonical event list when the config has none."""
        marks = self.settings().marks
        return default_event_marks(calendar) if marks is None else marks

    def digest(self):
        """Hash of the semantic config: everything except where it is written
        and how many threads write it."""
        data = asdict(self)
        for key in ("out_dir", "dataset_dir", "jobs"):
            data.pop(key)
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_run_config(spec_arg):
    """--config accepts a bundled preset name or a path to a JSON file."""
    if spec_arg in PRESET_NAMES:
        return RunConfig.from_dict(load_preset(spec_arg))
    if not os.path.exists(spec_arg):
        raise ConfigError(
            f"config {spec_arg!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            f"nor an existing file"
        )
    return RunConfig.from_dict(files.read_json(spec_arg, config=True))
