"""Command-line pipeline driver.

Subcommands cover the full run: ``gen`` simulates a dataset, ``infer-net``
rebuilds the shared-address networks, ``label`` derives awareness labels
and the qualified cohort, ``segment`` computes trends and phases,
``cohort`` the group-level analytics, ``geo-corr`` the geographic
correlation series, ``regress`` the time-evolving model suite, ``report``
a summary bundle, and ``all`` chains them in order.

Each stage is declared once, by ``@stage(name, reads=..., writes=...)`` in
pipeline order.  The subcommand list, the order of ``all``, every
manifest's inputs and outputs and the stage named by a missing-artifact
error all come from these declarations.

Every subcommand writes its artifacts plus a deterministic manifest (no
timestamps, no absolute paths) so that identical config + seed runs are
byte-identical.  A manifest's ``inputs`` hash every file the stage read,
the dataset tables it declares included; its ``outputs`` every file it
wrote.  Only ``gen`` and ``infer-net`` touch the address table, so only
their manifests list ``addresses.jsonl``; only ``gen`` and ``label`` touch
the event log, so only theirs list ``events.jsonl`` while ``calendar.json``
exists.  Every file goes through ``files``: artifacts of earlier stages
through validating readers, outputs atomically, and a stage removes its old
manifest first.  When ``jobs`` allows two processes, `all` hands the
dataset write to a forked writer (see ``jobs``) and runs the analytic
stages from memory meanwhile; their manifests wait for the writer.

Exit codes: 0 ok, 2 config error or unwritable output, 3 missing artifact,
4 a dataset file or an earlier stage's artifact unreadable or failing its
checks, 5 numerical/analytic failure.
"""

import argparse
import itertools
import os
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import __version__, files, jobs
from .analytics import (
    GROUPINGS,
    PHASE_ORDER,
    Phase,
    PhaseSegmentation,
    cross_ratio,
    daily_counts,
    geo_correlation_series,
    group_trend,
    growth_rates,
    hysteresis_table,
    lead_days,
    aware_group_means,
    national_percentage,
    neighborhood_awareness_ratio,
    phase_means,
    province_percentages,
    segment_phases,
    GEO_FACTORS,
)
from .awareness import (
    AwarenessTimeline,
    compile_query_set,
    filter_qualified,
    history_window,
    label_awareness,
)
from .config import RunConfig, load_run_config  # RunConfig is re-exported
from .domain import DATASET_FILES, raise_violations, validate_dataset
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
from .kernels import counter_uniforms
from .netinfer import LAYERS, infer_networks
from .presets import PRESET_NAMES
from .regress import (
    FeatureSpec,
    checkpoint_columns,
    checkpoint_schedule,
    regression_table,
    run_time_evolving,
    typical_profile,
)
from .simulate import TRUTH_FILES, generate

# RNG stream for drawing the regression sample; simulator streams are < 100
SAMPLE_STREAM = 101
CALENDAR_FILE = "calendar.json"
*TABLE_FILES, ADDRESSES_FILE, EVENTS_FILE = DATASET_FILES
DATASET_GROUPS = {"addresses": (ADDRESSES_FILE,), "events": (EVENTS_FILE,), "truth": TRUTH_FILES}
WRITER_FILES = (*DATASET_FILES, *TRUTH_FILES)  # what write_dataset writes

# Columns of every TSV artifact, as (name, parse) pairs for files.read_tsv;
# the writers take the header from here.  Ids, timestamps and days that
# later stages read back parse to the numpy types they are stored in; a
# column that holds NA cells parses NA to None.
NUMBER, NA_INT = files.parse_number, files.parse_int
DAY = (("day", int), ("date", str))  # the columns by_day ends with
CHECKPOINT = (("position", int), ("kind", str), ("trigger", str), ("time", int), ("date", str))
TABLES = {
    "labels.tsv": (
        ("individual_id", np.uint64), ("first_aware_ts", np.int64),
        ("first_aware_day", np.int64), ("first_aware_date", str),
    ),
    "qualified.txt": (("individual_id", np.uint64),),  # the one file without a header
    "national_trend.tsv": (
        *DAY, ("new_aware", int), ("cumulative_aware", int), ("percentage", NUMBER),
        ("growth_rate", NUMBER),
    ),
    "province_trend.tsv": (
        *DAY, ("province_id", int), ("percentage", NUMBER), ("growth_rate", NUMBER),
    ),
    "phases.tsv": (
        ("phase", str), ("start_day", int), ("end_day", int),
        ("start_date", str), ("end_date", str), ("complete", int),
    ),
    "trends.tsv": (
        ("grouping", str), ("group", str), ("group_size", int), *DAY, ("percentage", NUMBER),
    ),
    "cross_ratios.tsv": (
        ("grouping", str), ("group_a", str), ("group_b", str), *DAY, ("ratio", NUMBER),
    ),
    "neighborhood_ratios.tsv": (
        ("layer", str), *DAY, ("ratio", NUMBER), ("numerator", NUMBER), ("denominator", NUMBER),
        ("n_aware", int), ("n_unaware", int), ("status", str),
    ),
    "neighborhood_phase_means.tsv": (
        ("layer", str), ("phase", str), ("mean_ratio", NUMBER), ("n_defined", int),
        ("n_days", int),
    ),
    "aware_purchasing_power.tsv": (
        ("group", str), *DAY, ("mean_purchasing_power", NUMBER), ("n_aware", int),
    ),
    "hysteresis.tsv": (
        ("event", str), ("event_time", int), ("event_date", str), ("baseline_count", int),
        ("threshold", NUMBER), ("duration_seconds", NA_INT), ("status", str),
    ),
    "lead_days.tsv": (
        ("factorization_a", str), ("factorization_b", str), ("a_leads", int),
        ("b_leads", int), ("ties", int), ("defined_days", int),
    ),
    "geo_correlations.tsv": (("level", str), ("factor", str), *DAY, ("rho", NUMBER)),
    "schedule.tsv": (*CHECKPOINT, ("value", NUMBER)),
    "regression.tsv": (
        *CHECKPOINT, ("n_obs", int), ("n_aware", int), ("converged", NA_INT),
        ("ridge", NA_INT), ("n_iter", NA_INT), ("feature", str), ("coefficient", NUMBER),
        ("std_error", NUMBER), ("z", NUMBER), ("p_value", NUMBER), ("odds_ratio", NUMBER),
        ("error", str),
    ),
    "profiles.tsv": (
        ("phase", str), ("feature", str), ("direction", str),
        ("n_significant", int), ("n_models", int),
    ),
}


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------

def check_phases(path, calendar, columns):
    """Refuse phases.tsv columns that segment_phases does not write, naming
    the line: phases other than a run of PHASE_ORDER from Normal or
    Beginning, days that do not follow on from day 0, a ``complete`` other
    than 1 exactly when all five phases are present, and, given the
    ``calendar``, a last day other than the window's or dates other than
    those of the days.  A file without phases names its header."""
    names, starts, ends, _, _, completes = columns
    if not len(names):
        raise ParseError(path, 1, "no phases")
    iso = calendar.iso_dates() if calendar else []
    for k, (name, start, end, start_date, end_date, c) in enumerate(zip(*columns)):
        phase, prev = f"phase {name!r}", (ends[k - 1] if k else -1)  # prev: the last day before it
        if name not in PHASE_ORDER:
            problem = f"unknown {phase}"
        elif name in names[:k]:
            problem = f"repeated {phase}"
        elif k and PHASE_ORDER.index(name) != PHASE_ORDER.index(names[k - 1]) + 1:
            problem = f"{phase} cannot follow {names[k - 1]!r}"
        elif not k and name not in PHASE_ORDER[:2]:  # only Normal can be empty
            problem = f"{phase} cannot come first"
        elif start > end:
            problem = f"{phase} ends on day {end}, before it starts on day {start}"
        elif k and start <= prev:
            problem = (
                f"{phase} starts on day {start}, not after the previous phase ends on day {prev}"
            )
        elif start != prev + 1:
            problem = f"{phase} starts on day {start}, not on day {prev + 1}"
        elif c not in (0, 1):
            problem = f"complete is {c}, not 0 or 1"
        elif c != completes[0]:
            problem = f"complete is {c} here but {completes[0]} on line 2"
        elif c != (len(names) == len(PHASE_ORDER)):
            problem = f"complete is {c}, but {len(names)} of the five phases are present"
        elif calendar and (end >= len(iso) or k == len(names) - 1 and end < len(iso) - 1):
            problem = f"{phase} ends on day {end}; the window ends on day {len(iso) - 1}"
        elif calendar and (start_date != iso[start] or end_date != iso[end]):
            problem = f"dates {start_date} to {end_date} are not {iso[start]} to {iso[end]}"
        else:
            continue
        raise ParseError(path, k + 2, problem)


def check_label_days(path, calendar, ts, day, date):
    """Refuse labels.tsv rows whose first_aware_day or first_aware_date is
    not what cmd_label writes for their first_aware_ts, naming the line."""
    want_day = calendar.day_of(ts)
    want_date = calendar.dates_of(ts)
    bad_day = day != want_day
    bad = bad_day | (date != want_date)
    if bad.any():
        k = int(np.argmax(bad))
        if bad_day[k]:
            problem = f"first_aware_day {day[k]} is not day {want_day[k]} of first_aware_ts {ts[k]}"
        else:
            problem = f"first_aware_date {date[k]!r} is not {want_date[k]!r}, day {day[k]}"
        raise ParseError(path, k + 2, problem)


def phase_segmentation(columns):
    """The PhaseSegmentation of phases.tsv columns."""
    names, starts, ends, _, _, complete = columns
    phases = [Phase(*phase) for phase in zip(names, starts, ends)]
    return PhaseSegmentation(phases, bool(complete[0]))


# ---------------------------------------------------------------------------
# stage declarations and pipeline state
# ---------------------------------------------------------------------------

# A stage reads and writes artifacts: files in the run directory, named by
# file name, or the groups "dataset" (the population and region files plus
# calendar.json; without calendar.json the window is inferred from the
# events, so events.jsonl takes its place), "addresses" (addresses.jsonl),
# "events" (events.jsonl), "truth" (the simulator's ground truth next to
# them) and "patterns" (the query pattern file).
Stage = namedtuple("Stage", "name reads writes")
STAGES = {}  # stage name -> Stage, in pipeline order
STEP_FUNCS = {}  # stage name -> cmd_<stage>; `all` and each subcommand dispatch here


def manifest_name(command):
    return f"manifest_{command.replace('-', '_')}.json"


def producer(artifact):
    """The stage that writes ``artifact``."""
    return next(
        s.name for s in STAGES.values()
        if artifact in s.writes or artifact == manifest_name(s.name)
    )


def stage(name, reads=(), writes=()):
    """Declare the decorated body as stage ``name``; declare in pipeline order.

    The body returns the manifest stats.  The ``cmd_<stage>`` that takes
    its place removes the stage's old manifest, runs the body, then writes
    the manifest (inputs: the files of ``reads``; outputs: the files of
    ``writes``), so that a manifest marks a completed run of its stage.
    """
    spec = STAGES[name] = Stage(name, tuple(reads), tuple(writes))

    def declare(body):
        def cmd(state):
            files.discard(state.out_path(manifest_name(name)))
            stats = body(state)
            return write_manifest(
                state, name, state.files(spec.reads), state.files(spec.writes), stats
            )

        cmd.__name__ = cmd.__qualname__ = body.__name__
        cmd.__doc__ = body.__doc__
        STEP_FUNCS[name] = cmd
        return cmd

    return declare


class PipelineState:
    """Artifacts of one run, cached in memory for `all`.

    ``load`` serves an artifact from ``loaded`` when an earlier stage of the
    same process left it there, otherwise parses it from disk through its
    validating reader, otherwise raises MissingArtifactError naming the
    stage that writes it.  ``digests`` maps each file path hashed into a
    manifest to its SHA-256, so that `all` hashes each file once, and
    ``config_sha256`` is the config's digest, hashed once per run.

    ``writer`` is the forked dataset writer of `gen` while it runs, when
    ``fork_writer`` lets `gen` start one; ``pending`` holds the manifests
    that wait for it, and ``join`` reaps it and writes them.  `all` calls
    ``join(wait=False)`` before each stage, so that a writer that failed
    stops the run before the next stage starts.
    """

    def __init__(self, cfg, fork_writer=False):
        self.cfg = cfg
        self.config_sha256 = cfg.digest()
        self.loaded = {}
        self.digests = {}
        self.fork_writer = fork_writer
        self.writer = None
        self.pending = []

    def join(self, wait=True):
        """Wait for the dataset writer (without ``wait``, only if it has
        exited) and take its digests; then write the manifests that waited
        for it, in pipeline order.  A writer that failed raises its error;
        those manifests are not written, and the outputs of every stage
        after gen are removed, as a one-process run never writes them."""
        writer, self.writer = self.writer, None
        if writer is None:
            return
        try:
            digests = writer.result() if wait else writer.poll()
        except Exception:
            for command, _, outputs, _ in self.pending:
                if command != "gen":
                    for path in outputs:
                        files.discard(path)
            raise
        if digests is None:  # still writing
            self.writer = writer
            return
        pending, self.pending = self.pending, []
        self.digests.update(digests)
        for manifest in pending:
            write_manifest(self, *manifest)

    # paths -----------------------------------------------------------------

    def out_path(self, name):
        return os.path.join(self.cfg.out_dir, name)

    def dataset_path(self, name):
        return os.path.join(self.cfg.resolved_dataset_dir(), name)

    def rel(self, path):
        rp = os.path.relpath(path, self.cfg.out_dir)
        if rp.startswith(".."):
            # out-of-tree input (e.g. the bundled pattern file): a relative
            # path would encode where the run directory sits, breaking
            # byte-identity across runs, so record just the file name
            return os.path.basename(path)
        return rp.replace(os.sep, "/")

    def files(self, artifacts):
        """Every file of the named artifacts."""
        out = []
        for name in artifacts:
            if name == "dataset":
                out += [self.dataset_path(n) for n in TABLE_FILES]
                # the file that fixes the observation window
                window = self.dataset_path(CALENDAR_FILE)
                if not os.path.exists(window):
                    window = self.dataset_path(EVENTS_FILE)
                out.append(window)
            elif name in DATASET_GROUPS:
                out += [self.dataset_path(n) for n in DATASET_GROUPS[name]]
            elif name == "patterns":
                out.append(self.cfg.patterns_path())
            else:
                out.append(self.out_path(name))
        return out

    # artifacts -------------------------------------------------------------

    def load(self, name):
        if name not in self.loaded:
            paths = self.files([name])
            # a file the writer owns, or a manifest that waits for it
            if self.writer is not None and (
                name.startswith("manifest_")
                or not {self.dataset_path(n) for n in WRITER_FILES}.isdisjoint(paths)
            ):
                self.join()
            for path in paths:
                if not os.path.exists(path):
                    raise MissingArtifactError(path, producer(name))
            self.loaded[name] = self._read(name, paths)
        return self.loaded[name]

    def _read(self, name, paths):
        if name == "dataset":
            *tables, last = paths
            if os.path.basename(last) == CALENDAR_FILE:
                return files.load_dataset(*tables, None, None, calendar=files.read_calendar(last))
            return files.load_dataset(*tables, None, last)
        (path,) = paths
        if name == "addresses":
            return files.load_addresses(path, self.load("dataset").population.ids)
        if name == "events":
            dataset = self.load("dataset")
            if dataset.events is not None:
                return dataset.events
            return files.load_events(path, dataset.population.ids, dataset.calendar)
        if name == "networks.edges":
            return files.read_edges(path, self.load("dataset").population.ids)
        if name.startswith("manifest_"):
            return files.read_manifest(path)
        header = name != "qualified.txt"
        columns = files.read_tsv(path, TABLES[name], header=header)
        if name == "phases.tsv":
            # report reads no dataset file: it checks the days without the window
            check_phases(path, getattr(self.loaded.get("dataset"), "calendar", None), columns)
        if name not in ("qualified.txt", "labels.tsv"):
            return columns
        ids, *rest = columns
        repeated = np.ones(len(ids), dtype=bool)
        repeated[np.unique(ids, return_index=True)[1]] = False
        if repeated.any():
            k = int(np.argmax(repeated))
            raise ParseError(path, k + 1 + header, f"repeated individual id {ids[k]}")
        if name == "qualified.txt":
            return np.sort(ids)
        check_label_days(path, self.load("dataset").calendar, *rest)
        return AwarenessTimeline(ids, rest[0])

    def cohort(self):
        """The dataset, the qualified ids and the timeline of the qualified."""
        dataset, qualified = self.load("dataset"), self.load("qualified.txt")
        return dataset, qualified, self.load("labels.tsv").restrict(qualified)

    def write_table(self, name, columns):
        """Write the TSV artifact ``name``: one column per name of TABLES[name]."""
        files.write_tsv(self.out_path(name), TABLES[name], columns, header=name != "qualified.txt")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(state, command, inputs, outputs, stats=None):
    """Write the manifest of ``command``, or keep it in ``state.pending``
    while the dataset writer runs; returns its path."""
    path = state.out_path(manifest_name(command))
    if state.writer is not None:
        state.pending.append((command, inputs, outputs, stats))
        return path
    cfg = state.cfg
    digests = state.digests
    # a process writes each file once, before any stage reads it, so a
    # file hashed when it was written or read keeps that digest
    for p in (*inputs, *outputs):
        if p not in digests:
            digests[p] = files.sha256_file(p)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config_sha256": state.config_sha256,
        "inputs": {state.rel(p): digests[p] for p in inputs},
        "outputs": {state.rel(p): digests[p] for p in outputs},
        "stats": stats or {},
    }
    files.write_json(path, manifest)
    return path


def records(table, columns):
    """The rows of the leading ``columns`` of ``table``, as dicts keyed by
    the names TABLES declares for them."""
    names = [name for name, _ in TABLES[table]]
    return [{n: c[k] for n, c in zip(names, columns)} for k in range(len(columns[0]))]


def by_day(iso, keys, width=0):
    """The leading columns of a table of one row per series and day: the
    ``width`` columns of ``keys``, one tuple per series (``()`` for a series
    without key columns), repeated once per day of the window ``iso``, the
    day, its date."""
    n, D = len(keys), len(iso)
    columns = list(zip(*keys)) or [()] * width
    return [*(np.repeat(c, D) for c in columns), np.tile(np.arange(D), n), iso * n]


# ---------------------------------------------------------------------------
# stages, in pipeline order
# ---------------------------------------------------------------------------

def write_dataset(dataset, truth, ddir):
    """Write the dataset and truth files into ``ddir``, calendar.json
    aside; returns the SHA-256 of each, by path."""
    paths = [*files.save_dataset(dataset, ddir).values(), *files.write_truth(truth, ddir).values()]
    return {path: files.sha256_file(path) for path in paths}


@stage("gen", writes=("dataset", "addresses", "events", "truth"))
def cmd_gen(state):
    cfg = state.cfg
    if cfg.simulator is None:
        raise ConfigError("config has no simulator section; `gen` needs one")
    ddir = cfg.resolved_dataset_dir()
    files.make_dir(ddir, "dataset directory")
    dataset, truth = generate(cfg.simulator, cfg.seed)
    raise_violations(validate_dataset(dataset), "generated dataset")
    # first, so that state.files() finds the calendar from here on
    files.write_calendar(state.dataset_path(CALENDAR_FILE), dataset.calendar)
    if state.fork_writer:
        state.writer = jobs.Forked(write_dataset, dataset, truth, ddir)
    else:
        state.digests.update(write_dataset(dataset, truth, ddir))
    # later stages see the dataset as they would load it from disk
    state.loaded["dataset"] = replace(dataset, events=None, addresses=None)
    state.loaded["addresses"] = dataset.addresses
    state.loaded["events"] = dataset.events
    return {
        "individuals": dataset.population.n,
        "regions": len(dataset.regions),
        "addresses": len(dataset.addresses),
        "events": len(dataset.events),
        "truth_aware": len(truth.timeline),
        "n_days": dataset.calendar.n_days,
    }


@stage("infer-net", reads=("dataset", "addresses"), writes=("networks.edges",))
def cmd_infer_net(state):
    ids = state.load("dataset").population.ids
    # infer_networks fills in the kinds the caps section leaves out
    graph = infer_networks(state.load("addresses"), ids, caps=vars(state.cfg.caps))
    files.write_edges(graph, state.out_path("networks.edges"))
    state.loaded["networks.edges"] = graph
    return {"edges": {name: int(graph.layer(name).edge_count) for name in LAYERS}}


@stage(
    "label", reads=("dataset", "events", "patterns"), writes=("qualified.txt", "labels.tsv")
)
def cmd_label(state):
    cfg = state.cfg
    calendar = state.load("dataset").calendar
    events = state.load("events")
    matcher = compile_query_set(files.load_patterns(cfg.patterns_path()))
    window = history_window(calendar, cfg.history_months)
    qualified = filter_qualified(events, window, min_per_month=cfg.min_purchases_per_month)
    timeline = label_awareness(events, matcher, threshold=cfg.threshold)

    state.write_table("qualified.txt", [qualified])
    ts = timeline.first_aware
    state.write_table(
        "labels.tsv", [timeline.ids, ts, calendar.day_of(ts), calendar.dates_of(ts)]
    )
    state.loaded["labels.tsv"] = timeline
    state.loaded["qualified.txt"] = qualified
    return {
        "aware": len(timeline),
        "qualified": int(len(qualified)),
        "qualified_aware": int(np.isin(timeline.ids, qualified).sum()),
        "threshold": cfg.threshold,
    }


@stage(
    "segment",
    reads=("dataset", "labels.tsv", "qualified.txt"),
    writes=("national_trend.tsv", "province_trend.tsv", "phases.tsv"),
)
def cmd_segment(state):
    dataset, qualified, tlq = state.cohort()
    iso = dataset.calendar.iso_dates()

    new, cum = daily_counts(tlq, dataset.calendar)
    nat = national_percentage(tlq, dataset, qualified)
    state.write_table(
        "national_trend.tsv", [*by_day(iso, [()]), new, cum, nat, growth_rates(nat)]
    )
    prov_ids, prov = province_percentages(tlq, dataset, qualified)
    state.write_table(
        "province_trend.tsv",
        [*by_day(iso, [()] * len(prov)), np.repeat(prov_ids, len(iso)), prov, growth_rates(prov)],
    )

    seg = segment_phases(prov, nat, state.cfg.phase_thresholds)
    phases = seg.phases
    state.write_table("phases.tsv", [
        [p.name for p in phases], [p.start_day for p in phases], [p.end_day for p in phases],
        [iso[p.start_day] for p in phases], [iso[p.end_day] for p in phases],
        [seg.complete] * len(phases),
    ])
    return {
        "complete": seg.complete,
        "phases": {p.name: [p.start_day, p.end_day] for p in phases},
        "final_percentage": float(nat[-1]),
    }


@stage(
    "cohort",
    reads=("dataset", "labels.tsv", "qualified.txt", "networks.edges", "phases.tsv"),
    writes=(
        "trends.tsv",
        "cross_ratios.tsv",
        "neighborhood_ratios.tsv",
        "neighborhood_phase_means.tsv",
        "aware_purchasing_power.tsv",
        "hysteresis.tsv",
        "lead_days.tsv",
    ),
)
def cmd_cohort(state):
    dataset, qualified, tlq = state.cohort()
    calendar = dataset.calendar
    graph = state.load("networks.edges")
    seg = phase_segmentation(state.load("phases.tsv"))
    iso = calendar.iso_dates()
    D = calendar.n_days

    # per-group awareness trends, and pairwise cross-group ratios of them
    trends = {g: group_trend(tlq, dataset, g, qualified) for g in GROUPINGS}
    series = [(g, s) for g in GROUPINGS for s in trends[g]]
    state.write_table("trends.tsv", [
        *by_day(iso, [(g, s.key, s.size) for g, s in series]),
        np.array([s.values for _, s in series]),
    ])
    pairs = [(g, a, b) for g in GROUPINGS for a, b in itertools.combinations(trends[g], 2)]
    state.write_table("cross_ratios.tsv", [
        *by_day(iso, [(g, a.key, b.key) for g, a, b in pairs], width=3),
        np.array([cross_ratio(a.values, b.values) for _, a, b in pairs]),
    ])

    # neighborhood awareness ratios per layer per day, plus phase means
    day_ends = calendar.day_ends()
    ratios = [
        r for layer in LAYERS for r in neighborhood_awareness_ratio(graph, layer, tlq, day_ends)
    ]
    ratio = np.array([np.nan if r.value is None else r.value for r in ratios])
    parts = ("numerator", "denominator", "n_aware", "n_unaware")
    state.write_table("neighborhood_ratios.tsv", [
        *by_day(iso, [(layer,) for layer in LAYERS]), ratio,
        *([getattr(r, part) for r in ratios] for part in parts), [r.reason or "ok" for r in ratios],
    ])
    state.write_table(
        "neighborhood_phase_means.tsv",
        phase_means(LAYERS, ratio.reshape(len(LAYERS), D), seg.phases),
    )

    # mean purchasing power of the aware, by occupation, day by day
    pp_values = dataset.population.purchasing_power.astype(np.float64)
    names, means, counts = aware_group_means(tlq, dataset, "occupation", pp_values, qualified)
    state.write_table("aware_purchasing_power.tsv", [
        names * D, np.repeat(np.arange(D), len(names)), np.repeat(iso, len(names)),
        means.T, counts.T,
    ])

    # hysteresis per event mark
    marks = state.cfg.event_marks(calendar)
    state.write_table("hysteresis.tsv", hysteresis_table(tlq, marks, calendar))

    # which factorization's fastest group leads, day by day
    ld = lead_days(trends["occupation"], trends["purchasing_power"])
    state.write_table("lead_days.tsv", [
        ["occupation"], ["purchasing_power"], [ld.a_leads], [ld.b_leads], [ld.ties],
        [ld.defined_days],
    ])
    return {
        "lead_days": {"a_leads": ld.a_leads, "b_leads": ld.b_leads, "ties": ld.ties},
        "groupings": list(GROUPINGS),
    }


@stage(
    "geo-corr",
    reads=("dataset", "labels.tsv", "qualified.txt"),
    writes=("geo_correlations.tsv",),
)
def cmd_geo_corr(state):
    dataset, qualified, tlq = state.cohort()
    plans = [("city", "distance_to_epicenter")]
    plans += [("province", f) for f in GEO_FACTORS]
    rho = np.array([
        geo_correlation_series(dataset, tlq, factor, level=level, cohort_ids=qualified)
        for level, factor in plans
    ])
    state.write_table("geo_correlations.tsv", [*by_day(dataset.calendar.iso_dates(), plans), rho])
    return {"series": len(plans)}


def regression_sample(seed, size, qualified):
    """Deterministic sample of ``size`` of the qualified cohort for model fitting."""
    if size >= len(qualified):
        raise ConfigError(
            f"regression.sample_size ({size}) must be smaller than the "
            f"qualified cohort ({len(qualified)}); the rest estimates "
            f"network features"
        )
    u = counter_uniforms(seed, SAMPLE_STREAM, qualified, 0)
    order = np.lexsort((qualified, u))
    return np.sort(qualified[order[:size]])


@stage(
    "regress",
    reads=("dataset", "labels.tsv", "qualified.txt", "networks.edges", "phases.tsv"),
    writes=("schedule.tsv", "regression.tsv", "profiles.tsv"),
)
def cmd_regress(state):
    cfg = state.cfg
    dataset, qualified, tlq = state.cohort()
    calendar = dataset.calendar
    graph = state.load("networks.edges")
    seg = phase_segmentation(state.load("phases.tsv"))
    reg = cfg.regression

    marks = cfg.event_marks(calendar)
    schedule = checkpoint_schedule(tlq, qualified, marks, pct_min=reg.pct_min, pct_max=reg.pct_max)
    entries = schedule.entries
    state.write_table(
        "schedule.tsv", [*checkpoint_columns(entries, calendar), [c.value for c in entries]]
    )

    sample = regression_sample(cfg.seed, reg.sample_size, qualified)
    # the regression section is the fit's FitConfig
    models = run_time_evolving(
        dataset, graph, tlq, schedule, sample, FeatureSpec(age_mode=reg.age_mode), reg
    )
    state.write_table("regression.tsv", regression_table(models, calendar))

    profile = typical_profile(models, seg, calendar, p_threshold=reg.p_threshold)
    state.write_table(
        "profiles.tsv", [[getattr(e, name) for e in profile] for name, _ in TABLES["profiles.tsv"]]
    )
    return {
        "checkpoints": len(entries),
        "missing_percentages": schedule.missing,
        "sample_size": int(len(sample)),
        "failed_fits": sum(1 for m in models if m.result is None),
        "ridge_fits": sum(1 for m in models if m.result is not None and m.result.ridge_used),
    }


@stage(
    "report",
    # the manifest of every earlier stage, for its stats
    reads=tuple(map(manifest_name, STAGES))
    + ("phases.tsv", "profiles.tsv", "geo_correlations.tsv", "hysteresis.tsv"),
    writes=("report.json", "report.txt"),
)
def cmd_report(state):
    """Summary bundle assembled from the artifacts (never from memory, so
    `all` and stepwise invocations produce identical bytes)."""
    cfg = state.cfg
    stats = {
        name: state.load(manifest_name(name))["stats"] for name in STAGES if name != "report"
    }
    gen_stats = stats["gen"]
    label_stats = stats["label"]
    segment_stats = stats["segment"]
    regress_stats = stats["regress"]

    phases = records("phases.tsv", state.load("phases.tsv")[:5])
    profiles = records("profiles.tsv", state.load("profiles.tsv")[:3])
    geo_peak = {}
    levels, factors, days, dates, rhos = state.load("geo_correlations.tsv")
    for level, factor, day, date, rho in zip(levels, factors, days, dates, rhos):
        if rho is None or not np.isfinite(rho):
            continue
        key = f"{level}/{factor}"
        if key not in geo_peak or abs(rho) > abs(geo_peak[key]["rho"]):
            geo_peak[key] = {"day": day, "date": date, "rho": rho}
    *_, hys_status = state.load("hysteresis.tsv")
    n_hys_ok = int((hys_status == "ok").sum())

    report = {
        "version": __version__,
        "seed": cfg.seed,
        "config_sha256": state.config_sha256,
        "population": gen_stats,
        "network_edges": stats["infer-net"].get("edges", {}),
        "labeling": label_stats,
        "phases": phases,
        "phases_complete": segment_stats.get("complete"),
        "final_percentage": segment_stats.get("final_percentage"),
        "lead_days": stats["cohort"].get("lead_days"),
        "hysteresis_defined": n_hys_ok,
        "schedule": {
            "checkpoints": regress_stats.get("checkpoints"),
            "missing_percentages": regress_stats.get("missing_percentages"),
            "failed_fits": regress_stats.get("failed_fits"),
        },
        "profiles": profiles,
        "geo_peak_rho": geo_peak,
    }
    files.write_json(state.out_path("report.json"), report)

    ld = report["lead_days"] or {}
    lines = [
        f"awareness pipeline report (seed {cfg.seed})",
        "",
        f"individuals: {gen_stats.get('individuals')}  events: {gen_stats.get('events')}",
        f"qualified: {label_stats.get('qualified')}  aware: {label_stats.get('aware')}"
        f"  final pct: {files.format_value(report['final_percentage'])}",
        "edges: "
        + "  ".join(f"{k}={v}" for k, v in sorted(report["network_edges"].items())),
        "",
        "phases" + ("" if report["phases_complete"] else " (incomplete)") + ":",
        *(
            f"  {p['phase']:<10} {p['start_date']} .. {p['end_date']}"
            f" (days {p['start_day']}-{p['end_day']})"
            for p in phases
        ),
        "",
        f"checkpoints: {report['schedule']['checkpoints']}"
        f"  missing: {len(report['schedule']['missing_percentages'] or [])}"
        f"  failed fits: {report['schedule']['failed_fits']}",
        f"lead days (occupation vs purchasing power): "
        f"{ld.get('a_leads')} vs {ld.get('b_leads')} (ties {ld.get('ties')})",
        "",
        "typical profile:",
        *(f"  {pr['phase']:<10} {pr['direction']:<8} {pr['feature']}" for pr in profiles),
    ]
    files.write_text(state.out_path("report.txt"), ["\n".join(lines), "\n"])
    return {}


def cmd_all(state):
    files.discard(state.out_path(manifest_name("all")))
    for name, cmd in STEP_FUNCS.items():
        state.join(wait=False)
        cmd(state)
        print(f"[{name}] ok", flush=True)
    manifests = [state.out_path(manifest_name(name)) for name in STAGES]
    return write_manifest(state, "all", [], manifests, {"steps": list(STEP_FUNCS)})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

EXIT_CODES = (
    ((ConfigError, PatternSyntaxError), 2),
    ((MissingArtifactError,), 3),
    ((ParseError, IntegrityError), 4),
    ((NumericalError, DegenerateOutcomeError, AnalyticsError, CohortError), 5),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="awareflow",
        description="batch pipeline for awareness diffusion analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STEP_FUNCS, "all"):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument(
            "--config",
            default="small",
            help=f"preset name ({', '.join(PRESET_NAMES)}) or JSON config path",
        )
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--jobs", type=int, default=None,
            help="processes `all` may use: 1 writes the dataset inline, 2 or more "
            "write it in a forked process while the later stages run, 0 means "
            "the usable cores (the presets' setting); single stages use one",
        )
        p.add_argument(
            "--phase-thresholds", default=None, help="JSON file of phase thresholds"
        )
        p.add_argument("--patterns", default=None, help="query pattern file")
    return parser


def run_subcommand(name, cfg):
    files.make_dir(cfg.out_dir, "output directory")
    state = PipelineState(cfg, fork_writer=name == "all" and jobs.can_fork(cfg.jobs))
    try:
        if name == "all":
            return cmd_all(state)
        return STEP_FUNCS[name](state)
    finally:
        # on every exit path: no writer left running, and the manifests of
        # the stages that completed written as a one-process run writes them
        state.join()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        flags = dict(seed=args.seed, out_dir=args.out, jobs=args.jobs, patterns=args.patterns)
        cfg = load_run_config(args.config, args.phase_thresholds, **flags)
        manifest = run_subcommand(args.command, cfg)
        print(f"[{args.command}] manifest: {manifest}")
        return 0
    except AwareflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for classes, code in EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
