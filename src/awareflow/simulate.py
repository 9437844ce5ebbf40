"""Synthetic population, event-log, and awareness-diffusion generator.

Produces datasets with known ground truth: the true multiplex network
comes from the address groups it plants, and the true first-aware moment
of every individual is recorded as diffusion runs.  The regions,
individuals and address groups come from a numpy Generator seeded with
the run's seed, and every event from counter-based streams (hash of seed,
stream, individual id, and month or day), so results are bitwise
reproducible and the events do not depend on evaluation order or chunking.
"""

import math
import numbers
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Annotated

import numpy as np

from . import kernels
from .awareness import NEVER, AwarenessTimeline, history_window
from .domain import (
    ADDRESS_KINDS,
    SECONDS_PER_DAY,
    EDUCATIONS,
    EVENT_KIND_PURCHASE,
    EVENT_KIND_QUERY,
    MAX_PURCHASING_POWER,
    OCCUPATIONS,
    AddressColumns,
    Bounds,
    Calendar,
    Dataset,
    EventLog,
    PopulationColumns,
    RegionColumns,
    Timestamp,
    month_start_ts,
)
from .errors import ConfigError
from .netinfer import LAYERS, MultiplexGraph, build_from_groups
from .regress import expit

# counter-rng stream ids, one per decision kind
S_AWARE = 1
S_MOMENT = 2
S_QUERY_JITTER = 3
S_SUPPRESS = 4
S_TEXT = 5
S_POST = 6
S_POST_TS = 7
S_NOISE_Q = 8
S_NOISE_TS = 9
S_NOISE_TEXT = 10
S_BG_BUY = 11
S_BG_TS = 12
S_BG_CAT = 13
S_PPE_TS = 14
S_HIST_PRESENT = 15
S_HIST_EXTRA = 16
S_HIST_SKIP = 17
S_HIST_TS = 18
S_HIST_CAT = 19

DEFAULT_AWARE_TEXTS = (
    "wuhan pneumonia cases",
    "hubei epidemic news",
    "new coronavirus symptoms",
    "covid outbreak latest",
    "unexplained pneumonia wuhan",
    "n95 mask virus protection",
    "wuhan virus what is it",
    "viral pneumonia treatment",
)

DEFAULT_NOISE_TEXTS = (
    "cheap flights to sanya",
    "winter coat sale",
    "phone screen repair",
    "spring festival train tickets",
    "hotpot restaurant nearby",
    "laptop price comparison",
    "yoga class schedule",
    "electric kettle reviews",
)

DEFAULT_CATEGORIES = (
    "groceries",
    "apparel",
    "electronics",
    "household",
    "books",
    "toys",
    "beauty",
    "snacks",
)


def _weights_ok(weights):
    """Whether ``weights`` normalize into probabilities: each finite and
    >= 0, with a finite sum above 0."""
    return all(0 <= w < math.inf for w in weights) and 0 < sum(weights) < math.inf


def build_section(cls, values, label, path, problems=None):
    """``cls(**values)`` from a JSON object, built and checked in one walk.

    A field typed as a dataclass, or as ``list[X]`` of one, is built from its
    JSON in turn; ``_setting`` checks every other value.  Messages name the
    object ``label`` (a field's ``label`` metadata, else its key); ``path`` is
    its dotted key, "" at the top.  Raises ConfigError at once for a value
    that is not an object, a list field that is not a list, unknown keys and
    missing keys, and after the walk for each value of a wrong type or out of
    bounds."""
    if not isinstance(values, dict):
        raise ConfigError(f"{label} must be an object")
    declared = [f for f in fields(cls) if f.init]
    unknown = sorted(set(values) - {f.name for f in declared})
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    missing = [
        f.name for f in declared
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{label} lacks keys: {', '.join(missing)}")
    top = problems is None
    problems = [] if top else problems
    built = {}
    for f in declared:
        value = values.get(f.name)
        if f.name not in values or value is None and f.default is None:
            continue
        key = f"{path}.{f.name}" if path else f.name
        name = f.metadata.get("label", key)
        if is_dataclass(f.type):
            built[f.name] = build_section(f.type, value, name, key, problems)
        elif typing.get_origin(f.type) is list:
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list")
            (item_cls,) = typing.get_args(f.type)
            built[f.name] = [
                build_section(item_cls, item, name, f"{key}[{i}]", problems)
                for i, item in enumerate(value)
            ]
        else:
            built[f.name] = _setting(f.type, value, key, problems)
    if top and problems:
        raise ConfigError("; ".join(problems))
    return cls(**built)


def _setting(tp, value, key, problems):
    """``value``, the JSON at ``key`` of a field typed ``tp``, a list taken as
    a tuple.  Appends to ``problems`` why it lacks that type or, item by item,
    why it is not finite or lies outside the Bounds of ``Annotated[X, Bounds]``.
    """
    bounds = getattr(tp, "__metadata__", ())
    tp = typing.get_args(tp)[0] if bounds else tp
    origin = typing.get_origin(tp)
    if origin is tuple and isinstance(value, (list, tuple)):
        value = tuple(value)
        items = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    elif origin is dict and isinstance(value, dict):
        items = [(f"{key}.{k}", v) for k, v in value.items()]
    else:
        items = None if origin else [(key, value)]
    # the type of each item: X of tuple[X, ...] or of dict[str, X]
    kind = typing.get_args(tp)[origin is dict] if origin else tp
    if items is None or not all(_is_a(kind, v) for _, v in items):
        name = {tuple: "list", dict: "object"}.get(origin, kind.__name__)
        problems.append(f"{key} must be of type {name}")
        return value
    if kind is float:  # as doubles: numpy would hold an int past 2**64 as an object
        items = [(k, float(v) if abs(v) <= sys.float_info.max else v) for k, v in items]
        cast = [v for _, v in items]
        value = tuple(cast) if origin is tuple else dict(zip(value, cast)) if origin else cast[0]
    for k, v in items:
        if kind is float and not abs(v) <= sys.float_info.max:  # NaN or beyond a double
            problems.append(f"{k} must be finite, got {v}")
        else:
            problems += [f"{k} {p}" for b in bounds if (p := b.problem(v))]
    return value


def _is_a(kind, v):
    """Whether ``v`` is a JSON value of type ``kind``: a bool is no number,
    and an int counts as a float."""
    kind = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(v, kind) and not isinstance(v, bool)


Probability = Annotated[float, Bounds(0, 1)]
GroupSize = Annotated[int, Bounds(1, 500)]  # the largest school or company group
# at most 10,000 years, whose month numbers and timestamps int64 holds
HistoryMonths = Annotated[int, Bounds(1, 12 * 10_000)]


@dataclass
class ShockEvent:
    """External attention shock: a bump on the hazard's linear predictor.

    The bump applies on the day containing ``timestamp`` and halves each
    day after.  scope limits it to one province or city.
    """

    label: str
    timestamp: Timestamp
    magnitude: float
    scope: str = "national"
    scope_id: int = 0


@dataclass
class HazardCoefficients:
    """Per-day awareness hazard on the logit scale.

    hazard = sigmoid(intercept + demographics + sum_layer w * aware_frac
                     + shock * shock_level - distance * km / scale)
    """

    intercept: float = -7.0
    female: float = -0.3
    age_per_year: float = -0.01
    age_center: float = 40.0
    education: dict[str, float] = field(
        default_factory=lambda: {
            "college_or_lower": -0.5,
            "bachelor": 0.0,
            "postgraduate": 0.4,
        }
    )
    occupation: dict[str, float] = field(
        default_factory=lambda: {
            "hospital_staff": 1.0,
            "education_research": 0.5,
            "white_collar": 0.0,
            "government": 0.3,
            "blue_collar": -0.4,
            "agri_forestry_husbandry_fishery": -0.8,
            "individual_operation_service": -0.3,
        }
    )
    purchasing_power_per_level: float = 0.10
    has_child: float = 0.20
    married: float = 0.10
    layer_weights: dict[str, float] = field(
        default_factory=lambda: {"family": 3.0, "schoolmate": 1.0, "workmate": 2.0}
    )
    shock: float = 1.0
    distance: float = 1.0
    distance_scale_km: Annotated[float, Bounds(0, open_lo=True)] = 1000.0


@dataclass
class RegionConfig:
    # the region table holds each city's daily cases as a tuple of Python ints
    n_cities: Annotated[int, Bounds(1, 10_000)] = 12
    n_provinces: int = 4
    max_distance_km: Annotated[float, Bounds(0)] = 2500.0
    epidemic_growth: float = 0.22
    epidemic_start_day: int = 0
    spread_km_per_day: float = 150.0
    attr_noise: Annotated[float, Bounds(0)] = 0.10


@dataclass
class DemographicsConfig:
    female_p: Probability = 0.49
    age_min: int = 16
    age_max: int = 70
    education_probs: dict[str, float] = field(
        default_factory=lambda: {
            "college_or_lower": 0.45,
            "bachelor": 0.45,
            "postgraduate": 0.10,
        }
    )
    occupation_probs: dict[str, float] = field(
        default_factory=lambda: {
            "hospital_staff": 0.04,
            "education_research": 0.08,
            "white_collar": 0.30,
            "government": 0.08,
            "blue_collar": 0.25,
            "agri_forestry_husbandry_fishery": 0.10,
            "individual_operation_service": 0.15,
        }
    )
    purchasing_power_probs: tuple[float, ...] = (0.08, 0.15, 0.22, 0.25, 0.18, 0.08, 0.04)
    has_child_p: Probability = 0.45
    married_p: Probability = 0.60
    qualified_p: Probability = 0.90


@dataclass
class NetworkConfig:
    family_size_probs: tuple[float, ...] = (0.20, 0.35, 0.25, 0.15, 0.05)
    school_p: Probability = 0.25
    school_size_min: Annotated[int, Bounds(1)] = 5
    school_size_max: GroupSize = 30
    company_p: Probability = 0.50
    company_size_min: Annotated[int, Bounds(1)] = 3
    company_size_max: GroupSize = 15


@dataclass
class SimConfig:
    n_individuals: Annotated[int, Bounds(1, 2**31 - 1)] = 1000  # the graph's rows are int32
    calendar_start: str = "2019-12-01"
    n_days: Annotated[int, Bounds(1)] = 88
    regions: RegionConfig = field(default_factory=RegionConfig)
    demographics: DemographicsConfig = field(default_factory=DemographicsConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    hazard: HazardCoefficients = field(default_factory=HazardCoefficients)
    events: list[ShockEvent] = field(default_factory=list, metadata={"label": "event"})
    stockout_day: int = 62
    query_noise: Probability = 0.0
    history_months: HistoryMonths = 60
    unqualified_month_p: Probability = 0.75
    extra_purchase_p: Probability = 0.20
    post_aware_query_p: Probability = 0.03
    background_query_p: Probability = 0.02
    background_purchase_p: Probability = 0.01
    aware_query_texts: tuple[str, ...] = DEFAULT_AWARE_TEXTS
    noise_query_texts: tuple[str, ...] = DEFAULT_NOISE_TEXTS
    purchase_categories: tuple[str, ...] = DEFAULT_CATEGORIES
    ppe_category: str = "n95 respirator mask"

    def calendar(self):
        start = Calendar.from_dates(self.calendar_start, self.calendar_start)
        return Calendar(start.start_day, self.n_days)

    def text_pool(self):
        """The texts event columns code into: aware query texts, noise query
        texts, purchase categories, the PPE category."""
        return (
            self.aware_query_texts + self.noise_query_texts
            + self.purchase_categories + (self.ppe_category,)
        )

    def validate(self):
        """The checks that span fields: build_section checks each field's type
        and bounds as it builds the config.  Raises ConfigError."""
        problems = []
        try:
            self.calendar().date_of(self.n_days - 1)
        except (ValueError, OverflowError):
            problems.append(f"calendar_start {self.calendar_start!r} is not a date in range")
        d = self.demographics
        net = self.network
        r = self.regions
        if not 1 <= r.n_provinces <= r.n_cities:
            problems.append("regions.n_provinces must be in [1, n_cities]")
        age_cap = np.iinfo(np.int16).max  # ages are held as int16
        if not 0 <= d.age_min <= d.age_max <= age_cap:
            problems.append(
                f"demographics ages need 0 <= age_min <= age_max <= {age_cap}, "
                f"got [{d.age_min}, {d.age_max}]"
            )
        for name, probs, allowed in (
            ("education_probs", d.education_probs, EDUCATIONS),
            ("occupation_probs", d.occupation_probs, OCCUPATIONS),
        ):
            unknown = set(probs) - set(allowed)
            if unknown:
                problems.append(f"demographics.{name}: unknown keys {sorted(unknown)}")
            if not _weights_ok(probs.values()):
                problems.append(
                    f"demographics.{name}: probabilities must be finite, >= 0 and sum > 0"
                )
        for name, allowed in (
            ("education", EDUCATIONS), ("occupation", OCCUPATIONS), ("layer_weights", LAYERS)
        ):
            unknown = set(getattr(self.hazard, name)) - set(allowed)
            if unknown:
                problems.append(f"hazard.{name}: unknown keys {sorted(unknown)}")
        pp = d.purchasing_power_probs
        if len(pp) != MAX_PURCHASING_POWER:
            problems.append(
                f"demographics.purchasing_power_probs needs {MAX_PURCHASING_POWER} entries"
            )
        elif not _weights_ok(pp):
            problems.append("demographics.purchasing_power_probs must be finite, >= 0 and sum > 0")
        fam = net.family_size_probs
        if not _weights_ok(fam):
            problems.append("network.family_size_probs must be nonempty, finite, >= 0, sum > 0")
        else:
            feasible = [k + 1 for k, p in enumerate(fam) if p > 0]
            if min(feasible) > self.n_individuals:
                problems.append(
                    f"smallest possible family size {min(feasible)} exceeds the "
                    f"population of {self.n_individuals}"
                )
            if len(fam) > 10:
                problems.append("family sizes above 10 would exceed the home-layer cap")
        for label, lo, hi in (
            ("school", net.school_size_min, net.school_size_max),
            ("company", net.company_size_min, net.company_size_max),
        ):
            if lo > hi:
                problems.append(f"network.{label} size range [{lo}, {hi}] is invalid")
        problems += [
            f"event {ev.label!r}: unknown scope {ev.scope!r}"
            for ev in self.events if ev.scope not in ("national", "province", "city")
        ]
        for name in ("aware_query_texts", "noise_query_texts", "purchase_categories"):
            if not getattr(self, name):
                problems.append(f"{name} must not be empty")
        if self.ppe_category in self.purchase_categories:
            problems.append("ppe_category must not appear in purchase_categories")
        if problems:
            raise ConfigError("invalid simulator config: " + "; ".join(problems))
        return self

    def to_dict(self):
        """The config as nested dicts, lists and tuples, which JSON writes as arrays."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return build_section(cls, data, "simulator", "simulator").validate()


@dataclass
class GroundTruth:
    """What the generator knows and the pipeline must recover."""

    timeline: AwarenessTimeline
    graph: MultiplexGraph


def _chunk_sizes(rng, total, size_probs):
    """Partition `total` into chunk sizes drawn from size_probs (1-based).

    The draws are those of one ``rng.choice(len(probs), p=probs)`` per
    chunk, which maps one ``rng.random()`` through the cumulative
    probabilities; they are made in batches that the chunks use up: no
    chunk exceeds len(probs), so ceil(remaining / len(probs)) more chunks
    are always needed.
    """
    sizes = []
    remaining = total
    probs = np.asarray(size_probs, dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    while remaining > 0:
        draws = cdf.searchsorted(rng.random(-(-remaining // len(cdf))), side="right") + 1
        sizes += draws.tolist()
        remaining -= int(draws.sum())
    if sizes:
        sizes[-1] += remaining  # the last chunk takes only what is left
    return sizes


def _make_regions(rng, config):
    r = config.regions
    n_c, n_p = r.n_cities, r.n_provinces
    dist = np.zeros(n_c)
    if n_c > 1:
        base = np.linspace(0.0, 1.0, n_c)[1:]
        jitter = rng.uniform(0.9, 1.1, size=n_c - 1)
        dist[1:] = np.maximum(50.0, base * jitter * r.max_distance_km)
    rel = dist / max(r.max_distance_km, 1.0)

    def coupled(level, slope, lo=0.0, hi=1.0, scale=1.0):
        noise = rng.normal(0.0, r.attr_noise, size=n_c)
        return np.clip((level + slope * rel + noise) * scale, lo, hi)

    gdp = 90_000.0 * np.exp(-1.2 * rel) * rng.lognormal(0.0, r.attr_noise, size=n_c)
    tight = coupled(0.70, -0.35)
    paddy = coupled(0.55, -0.30)
    innov = coupled(0.65, -0.35)
    illit = coupled(0.04, +0.12)
    ethnic = coupled(0.05, +0.18)
    pop = np.maximum(10_000, rng.lognormal(12.5, 0.4, size=n_c)).astype(np.int64)

    lag = dist / max(r.spread_km_per_day, 1e-9)
    # city x day
    t = np.arange(config.n_days, dtype=np.float64) - r.epidemic_start_day - lag[:, None]
    # a curve past the cap may overflow to inf, which the cap absorbs
    with np.errstate(over="ignore"):
        curve = np.where(t >= 0, np.exp(r.epidemic_growth * t), 0.0)
    cases = np.minimum(curve, pop[:, None] / 50).astype(np.int64)
    return RegionColumns(
        city_id=np.arange(n_c),
        province_id=np.arange(n_c) * n_p // n_c,
        name=[f"city_{c:03d}" for c in range(n_c)],
        distance_to_epicenter=dist,
        gdp=gdp,
        daily_confirmed_cases=list(map(tuple, cases.tolist())),
        cultural_tightness=tight,
        paddy_rice_pct=paddy,
        innovation_index=innov,
        illiteracy_pct=illit,
        multi_ethnic_household_pct=ethnic,
        population_count=pop,
    )


def _prob_vector(probs, keys):
    v = np.array([probs.get(k, 0.0) for k in keys], dtype=np.float64)
    return v / v.sum()


class PurchaseHistory:
    """The purchases before the window, in ``months`` (month numbers).

    Each month, a qualified individual buys once and any other with
    ``unqualified_month_p``, and a buyer buys again with ``extra_purchase_p``.
    An unqualified individual who would buy every month skips one: ``stuck``
    holds their rows and ``skip`` those months.  Every draw is a counter
    stream keyed on (individual id, month number), so ``month`` draws any
    month alone, and ``month_rows`` counts each month's purchases."""

    def __init__(self, config, seed, population, months):
        self.config, self.seed, self.months = config, seed, months
        self.ids, self.qualified = population.ids, population.qualified
        stuck = np.flatnonzero(~self.qualified)
        for month in months:
            stuck = stuck[self._uniforms(S_HIST_PRESENT, stuck, month) < config.unqualified_month_p]
        self.stuck = stuck
        self.skip = months[(self._uniforms(S_HIST_SKIP, stuck, 0) * len(months)).astype(np.int64)]
        self.month_rows = [sum(map(len, self.buyers(month))) for month in months]

    def _uniforms(self, stream, rows, tag):
        # a month before 1970 has a negative number, and the tag is a uint64
        return kernels.counter_uniforms(self.seed, stream, self.ids[rows], int(tag) % 2**64)

    def buyers(self, month):
        """The rows of the individuals who buy in ``month`` once, and of
        those who buy again."""
        once = self.qualified.copy()
        unqualified = np.flatnonzero(~once)
        draws = self._uniforms(S_HIST_PRESENT, unqualified, month)
        once[unqualified] = draws < self.config.unqualified_month_p
        once[self.stuck[self.skip == month]] = False
        rows = np.flatnonzero(once)
        return rows, rows[self._uniforms(S_HIST_EXTRA, rows, month) < self.config.extra_purchase_p]

    def month(self, month):
        """The purchases of ``month`` as the five event columns (kind,
        individual_id, timestamp, text_code, is_ppe), the first purchases
        and then the second ones, coded into ``config.text_pool()``."""
        start, end = month_start_ts([month, month + 1]).tolist()
        n_categories = len(self.config.purchase_categories)
        first_category = len(self.config.aware_query_texts) + len(self.config.noise_query_texts)
        rows = self.buyers(month)
        ts, cat = (
            np.concatenate([self._uniforms(s, r, 2 * month + g) for g, r in enumerate(rows)])
            for s in (S_HIST_TS, S_HIST_CAT)
        )
        rows = np.concatenate(rows)
        return (
            np.full(len(rows), EVENT_KIND_PURCHASE, dtype=np.uint8), self.ids[rows],
            start + (ts * (end - start - 1)).astype(np.int64),
            first_category + (cat * n_categories).astype(np.int64), np.zeros(len(rows), dtype=bool),
        )


def generate_population(config, seed):
    """Build the static world of run ``seed``: individuals, regions,
    addresses, history.

    Returns (dataset, truth_graph, history): dataset.events is empty and
    ``history`` is the PurchaseHistory whose ``month`` draws a month of the
    pre-window purchases, which are only counted here.
    """
    rng = np.random.default_rng(seed)
    calendar = config.calendar()
    regions = _make_regions(rng, config)
    n = config.n_individuals
    d = config.demographics

    city_pop = regions.population_count.astype(np.float64)
    home_city = rng.choice(len(regions), size=n, p=city_pop / city_pop.sum())
    gender = (rng.random(n) < d.female_p).astype(np.int8)  # 1 = female
    age = rng.integers(d.age_min, d.age_max + 1, size=n).astype(np.int16)
    education = rng.choice(
        len(EDUCATIONS), size=n, p=_prob_vector(d.education_probs, EDUCATIONS)
    ).astype(np.int8)
    occupation = rng.choice(
        len(OCCUPATIONS), size=n, p=_prob_vector(d.occupation_probs, OCCUPATIONS)
    ).astype(np.int8)
    pp_probs = np.asarray(d.purchasing_power_probs, dtype=np.float64)
    purchasing_power = (
        rng.choice(MAX_PURCHASING_POWER, size=n, p=pp_probs / pp_probs.sum()) + 1
    ).astype(np.int8)
    has_child = rng.random(n) < d.has_child_p
    married = rng.random(n) < d.married_p
    qualified = rng.random(n) < d.qualified_p

    ids = np.arange(1, n + 1, dtype=np.uint64)
    population = PopulationColumns(
        ids=ids,
        gender=gender,
        age=age,
        education=education,
        occupation=occupation,
        purchasing_power=purchasing_power,
        has_child=has_child,
        married=married,
        home_city=home_city,
        qualified=qualified,
    )

    # shared-address groups; everyone is glued to one home, schools and
    # companies are opt-in samples within the home city
    first_month, n_m = history_window(calendar, config.history_months)
    hist_start = int(month_start_ts(first_month))
    window_end = calendar.day_start_ts(calendar.n_days) - 1
    interval = (hist_start, window_end)

    net = config.network
    groups = {"family": [], "schoolmate": [], "workmate": []}
    group_members, group_kinds, group_addresses = [], [], []
    next_addr = {"home": 1_000_000, "school_dorm": 2_000_000, "company": 3_000_000}

    def add_group(kind, layer, member_rows):
        member_rows = np.asarray(member_rows, dtype=np.int64)
        group_members.append(member_rows)
        group_kinds.append(ADDRESS_KINDS.index(kind))
        group_addresses.append(next_addr[kind])
        next_addr[kind] += 1
        groups[layer].append(member_rows)

    for c in range(len(regions)):
        rows_c = np.flatnonzero(home_city == c)
        if len(rows_c) == 0:
            continue
        perm = rng.permutation(rows_c)
        offset = 0
        for size in _chunk_sizes(rng, len(perm), net.family_size_probs):
            add_group("home", "family", perm[offset : offset + size])
            offset += size

        attend = perm[rng.random(len(perm)) < net.school_p]
        offset = 0
        while offset < len(attend):
            size = int(rng.integers(net.school_size_min, net.school_size_max + 1))
            add_group("school_dorm", "schoolmate", attend[offset : offset + size])
            offset += size

        employed = perm[rng.random(len(perm)) < net.company_p]
        offset = 0
        while offset < len(employed):
            size = int(rng.integers(net.company_size_min, net.company_size_max + 1))
            add_group("company", "workmate", employed[offset : offset + size])
            offset += size

    truth_graph = build_from_groups(ids, groups)

    history = PurchaseHistory(config, seed, population, np.arange(first_month, first_month + n_m))

    # same canonical order the JSONL reader produces, so a generated
    # dataset compares equal after a save/load round trip
    sizes = [len(m) for m in group_members]
    member_rows = np.concatenate(group_members)
    addresses = AddressColumns(
        individual_id=ids[member_rows],
        address_id=np.repeat(group_addresses, sizes),
        kind=np.repeat(group_kinds, sizes),
        active_start=np.full(len(member_rows), interval[0]),
        active_end=np.full(len(member_rows), interval[1]),
    ).canonical()
    dataset = Dataset(population, regions, addresses, EventLog.empty(), calendar)
    return dataset, truth_graph, history


def hazard_base(config, cols, distance_km):
    """Per-individual hazard logit before network exposure and shocks."""
    hz = config.hazard
    z = np.full(cols.n, hz.intercept, dtype=np.float64)
    z += hz.female * (cols.gender == 1)
    z += hz.age_per_year * (cols.age.astype(np.float64) - hz.age_center)
    edu = np.array([hz.education.get(e, 0.0) for e in EDUCATIONS])
    occ = np.array([hz.occupation.get(o, 0.0) for o in OCCUPATIONS])
    z += edu[cols.education]
    z += occ[cols.occupation]
    z += hz.purchasing_power_per_level * (cols.purchasing_power.astype(np.float64) - 4.0)
    z += hz.has_child * cols.has_child
    z += hz.married * cols.married
    z -= hz.distance * distance_km / hz.distance_scale_km
    return z


def hazard_probability(config, base, layer_fracs, shock_level):
    """Per-day awareness hazard of individuals with hazard_base logits ``base``,
    aware-neighbor fractions ``layer_fracs[layer]`` and shock levels."""
    hz = config.hazard
    z = np.array(base, dtype=np.float64)
    for name in LAYERS:
        z += hz.layer_weights.get(name, 0.0) * np.asarray(layer_fracs[name])
    z += hz.shock * np.asarray(shock_level)
    return expit(z)


def simulate_diffusion(dataset, graph, config, seed):
    """Run the daily awareness process of run ``seed``; returns
    (window_events, day_rows, truth): the events as a list of chunks, each
    the five event columns (kind, individual_id, timestamp, text_code,
    is_ppe) coded into ``config.text_pool()``, day by day, and the rows of
    each day.  A day's events fall within that day.

    Emits, per newly aware individual, three awareness queries the same
    day (each independently suppressed with probability query_noise) and
    a PPE purchase while stock lasts; plus background noise queries and
    purchases for everyone.
    """
    cols = dataset.population
    calendar = dataset.calendar
    n = cols.n
    ids = cols.ids

    z0 = hazard_base(config, cols, dataset.distance_km())
    layer_csr = {}
    inv_deg = {}
    counts = {}
    for name in LAYERS:
        lyr = graph.layer(name)
        layer_csr[name] = (lyr.indptr, lyr.indices)
        deg = lyr.degrees().astype(np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        inv_deg[name] = inv
        counts[name] = np.zeros(n, dtype=np.int64)

    province = dataset.province_of_individuals()
    event_rows = []
    for ev in config.events:
        day0 = int(calendar.day_of(ev.timestamp))
        if ev.scope == "national":
            mask = None
        elif ev.scope == "province":
            mask = province == ev.scope_id
        else:
            mask = cols.home_city == ev.scope_id
        event_rows.append((day0, float(ev.magnitude), mask))

    aware = np.zeros(n, dtype=bool)
    first_moment = np.full(n, NEVER, dtype=np.int64)
    first_day = np.full(n, -1, dtype=np.int64)
    noise = config.query_noise

    ppe_code = len(config.text_pool()) - 1
    n_aware = len(config.aware_query_texts)
    n_noise = len(config.noise_query_texts)
    n_categories = len(config.purchase_categories)

    chunks = []
    day_rows = []

    def emit(kind, iid, ts, code, ppe=False):
        n_rows = len(iid)
        chunks.append((np.full(n_rows, kind, dtype=np.uint8), iid, ts, code, np.full(n_rows, ppe)))

    for d in range(calendar.n_days):
        day_start = calendar.day_start_ts(d)
        first_chunk = len(chunks)

        shock = np.zeros(n, dtype=np.float64)
        for day0, mag, mask in event_rows:
            if d < day0:
                continue
            f = mag * 0.5 ** (d - day0)
            if f < 1e-9:
                continue
            if mask is None:
                shock += f
            else:
                shock[mask] += f

        un = np.flatnonzero(~aware)
        if len(un):
            fracs = {name: counts[name][un] * inv_deg[name][un] for name in LAYERS}
            p = hazard_probability(config, z0[un], fracs, shock[un])
            u = kernels.counter_uniforms(seed, S_AWARE, ids[un], d)
            new = un[u < p]
        else:
            new = np.empty(0, dtype=np.int64)

        if len(new):
            new_ids = ids[new]
            um = kernels.counter_uniforms(seed, S_MOMENT, new_ids, d)
            # first-aware moment in the first half of the day so the three
            # same-day queries always fit before midnight
            moment = day_start + (um * (SECONDS_PER_DAY // 2)).astype(np.int64)
            first_moment[new] = moment
            first_day[new] = d
            aware[new] = True
            new64 = new.astype(np.int64)
            for name in LAYERS:
                indptr, indices = layer_csr[name]
                kernels.increment_neighbor_counts(indptr, indices, new64, counts[name])

            room = day_start + SECONDS_PER_DAY - 1 - moment
            for k in (1, 2, 3):
                tag = (d << 2) | k
                uj = kernels.counter_uniforms(seed, S_QUERY_JITTER, new_ids, tag)
                ts_k = moment + (uj * room).astype(np.int64)
                keep = kernels.counter_uniforms(seed, S_SUPPRESS, new_ids, tag) >= noise
                ut = kernels.counter_uniforms(seed, S_TEXT, new_ids, tag)
                codes = (ut * n_aware).astype(np.int64)
                emit(EVENT_KIND_QUERY, new_ids[keep], ts_k[keep], codes[keep])

            if d <= config.stockout_day:
                up = kernels.counter_uniforms(seed, S_PPE_TS, new_ids, d)
                ts_p = moment + (up * room).astype(np.int64)
                emit(
                    EVENT_KIND_PURCHASE, new_ids, ts_p,
                    np.full(len(new_ids), ppe_code), ppe=True,
                )

        # individuals aware before today occasionally keep searching
        post = np.flatnonzero(aware & (first_day < d))
        if len(post) and config.post_aware_query_p > 0:
            pids = ids[post]
            sel = kernels.counter_uniforms(seed, S_POST, pids, d) < config.post_aware_query_p
            pids = pids[sel]
            if len(pids):
                tag = d << 2
                keep = kernels.counter_uniforms(seed, S_SUPPRESS, pids, tag) >= noise
                pids = pids[keep]
            if len(pids):
                ts_q = day_start + (
                    kernels.counter_uniforms(seed, S_POST_TS, pids, d) * (SECONDS_PER_DAY - 1)
                ).astype(np.int64)
                ut = kernels.counter_uniforms(seed, S_TEXT, pids, d << 2)
                emit(EVENT_KIND_QUERY, pids, ts_q, (ut * n_aware).astype(np.int64))

        if config.background_query_p > 0:
            sel = kernels.counter_uniforms(seed, S_NOISE_Q, ids, d) < config.background_query_p
            nids = ids[sel]
            if len(nids):
                ts_q = day_start + (
                    kernels.counter_uniforms(seed, S_NOISE_TS, nids, d) * (SECONDS_PER_DAY - 1)
                ).astype(np.int64)
                ut = kernels.counter_uniforms(seed, S_NOISE_TEXT, nids, d)
                codes = n_aware + (ut * n_noise).astype(np.int64)
                emit(EVENT_KIND_QUERY, nids, ts_q, codes)

        if config.background_purchase_p > 0:
            sel = kernels.counter_uniforms(seed, S_BG_BUY, ids, d) < config.background_purchase_p
            bids = ids[sel]
            if len(bids):
                ts_b = day_start + (
                    kernels.counter_uniforms(seed, S_BG_TS, bids, d) * (SECONDS_PER_DAY - 1)
                ).astype(np.int64)
                uc = kernels.counter_uniforms(seed, S_BG_CAT, bids, d)
                codes = n_aware + n_noise + (uc * n_categories).astype(np.int64)
                emit(EVENT_KIND_PURCHASE, bids, ts_b, codes)
        day_rows.append(sum(len(chunk[1]) for chunk in chunks[first_chunk:]))

    aware_rows = np.flatnonzero(first_moment != NEVER)
    timeline = AwarenessTimeline(ids[aware_rows], first_moment[aware_rows])
    return chunks, day_rows, GroundTruth(timeline=timeline, graph=graph)


def generate(config, seed):
    """Full synthetic run of ``seed``, the run's seed: population, history,
    diffusion, merged log.  The config is not checked here;
    SimConfig.from_dict checks one read from JSON.

    The five event columns are allocated once, at their final length: the
    history is drawn into their head, a month's bucket at a time, and the
    window's day-major chunks are copied into their tail.  Every bucket, a
    history month or a window day, holds the rows of its own span of time,
    so EventLog.canonical sorts the columns in place a bucket at a time.
    """
    dataset, truth_graph, history = generate_population(config, seed)
    window, day_rows, truth = simulate_diffusion(dataset, truth_graph, config, seed)
    bounds = np.cumsum([0, *history.month_rows, *day_rows])
    n_history = bounds[len(history.months)]
    columns = [np.empty(bounds[-1], dtype) for dtype in EventLog.DTYPES.values()]
    for column, parts in zip(columns, zip(*window)):
        np.concatenate(parts, out=column[n_history:])
    del window
    for month, lo, hi in zip(history.months, bounds, bounds[1:]):
        for column, values in zip(columns, history.month(month)):
            column[lo:hi] = values
    dataset.events = EventLog.canonical(*columns, config.text_pool(), bounds=bounds)
    return dataset, truth
