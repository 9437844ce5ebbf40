"""Batch analytics for awareness diffusion in e-commerce event logs.

Pipeline stages: synthesize or ingest a dataset, infer multiplex social
networks from shared addresses, label per-individual awareness from query
logs, segment the diffusion into phases, compute cohort and geographic
inequality metrics, and fit time-evolving logistic regressions.
"""

from .awareness import (
    AwarenessTimeline,
    NEVER,
    QueryMatcher,
    awareness_percentage,
    compile_query_set,
    filter_qualified,
    label_awareness,
)
from .domain import (
    AddressColumns,
    Calendar,
    Dataset,
    EventLog,
    PopulationColumns,
    RegionColumns,
    infer_calendar,
    raise_violations,
    validate_dataset,
)
from .errors import (
    AnalyticsError,
    AwareflowError,
    CohortError,
    ConfigError,
    DegenerateOutcomeError,
    IntegrityError,
    MissingArtifactError,
    NumericalError,
    ParseError,
    PatternSyntaxError,
)
from .netinfer import (
    DEFAULT_CAPS,
    LAYERS,
    MultiplexGraph,
    infer_networks,
)
from .analytics import (
    EventMark,
    PhaseSegmentation,
    PhaseThresholds,
    cross_group_ratio,
    geo_correlation_series,
    group_trend,
    hysteresis,
    lead_days,
    neighborhood_awareness_ratio,
    segment_phases,
    spearman,
)
from .regress import (
    FeatureSpec,
    FitConfig,
    checkpoint_schedule,
    fit_logistic,
    run_time_evolving,
    typical_profile,
)
from .simulate import GroundTruth, SimConfig, generate, generate_population, simulate_diffusion
from .files import (
    load_dataset,
    load_patterns,
    read_edges,
    save_dataset,
    write_edges,
)

__version__ = "0.1.0"
