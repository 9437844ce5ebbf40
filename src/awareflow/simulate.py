"""Synthetic population, event-log, and awareness-diffusion generator.

Produces datasets with known ground truth: the true multiplex network
comes from the address groups it plants, and the true first-aware moment
of every individual is recorded as diffusion runs.  Every draw comes from
counter-based streams (a hash of seed, stream, key and tag; the key is an
individual id, a city index or a group index), the regions, individuals
and address groups as much as the events, so results are bitwise
reproducible and no draw depends on evaluation order or chunking.
"""

import math
from dataclasses import asdict, dataclass, field
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
from .netinfer import DEFAULT_CAPS, KIND_TO_LAYER, LAYERS, MultiplexGraph, build_from_memberships
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
S_CITY_JITTER = 20
S_NORMAL_RADIUS = 21
S_NORMAL_ANGLE = 22
S_PERSON = 23
S_GROUP_SIZE = 24

# the tags of the S_PERSON draws, one per decision about an individual
PERSON_TAGS = (
    "home_city", "gender", "age", "education", "occupation", "purchasing_power",
    "has_child", "married", "qualified", "order", "schoolmate", "workmate",
)
# the tags of the S_NORMAL_* draws of a city, one per attribute
CITY_NORMAL_TAGS = ("tightness", "paddy", "innovation", "illiteracy", "ethnic", "gdp", "population")

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


Probability = Annotated[float, Bounds(0, 1)]
# at most 10,000 years, whose month numbers and timestamps int64 holds
HistoryMonths = Annotated[int, Bounds(1, 12 * 10_000)]


@dataclass
class ShockEvent:
    """External attention shock: a bump on the hazard's linear predictor.

    The bump applies on the day containing ``timestamp`` and halves each
    day after.  scope limits it to the province or city ``scope_id``; a
    national shock ignores scope_id.
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
    school_size_max: Annotated[int, Bounds(1, DEFAULT_CAPS["school_dorm"])] = 30
    company_p: Probability = 0.50
    company_size_min: Annotated[int, Bounds(1)] = 3
    company_size_max: Annotated[int, Bounds(1, DEFAULT_CAPS["company"])] = 15


@dataclass
class SimConfig:
    n_individuals: Annotated[int, Bounds(1, 2**31 - 1)] = 1000  # the graph's rows are int32
    calendar_start: str = "2019-12-01"
    # the region table holds a case count per city and day, and each day
    # costs the diffusion a pass over the population
    n_days: Annotated[int, Bounds(1, 1000)] = 88
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
        """The checks that span fields: config.build_section checks each field's type
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
            if len(fam) > (cap := DEFAULT_CAPS["home"]):
                problems.append(f"family sizes above {cap} would exceed the home-layer cap")
        for label, lo, hi in (
            ("school", net.school_size_min, net.school_size_max),
            ("company", net.company_size_min, net.company_size_max),
        ):
            if lo > hi:
                problems.append(f"network.{label} size range [{lo}, {hi}] is invalid")
        n_scopes = {"national": None, "province": r.n_provinces, "city": r.n_cities}
        for ev in self.events:
            if ev.scope not in n_scopes:
                problems.append(f"event {ev.label!r}: unknown scope {ev.scope!r}")
            elif n_scopes[ev.scope] is not None and not 0 <= ev.scope_id < n_scopes[ev.scope]:
                problems.append(
                    f"event {ev.label!r}: {ev.scope} scope_id {ev.scope_id} is not in "
                    f"[0, {n_scopes[ev.scope]})"
                )
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


@dataclass
class GroundTruth:
    """What the generator knows and the pipeline must recover."""

    timeline: AwarenessTimeline
    graph: MultiplexGraph


def _pick(u, weights):
    """The index that each uniform of ``u`` picks from ``weights``, each
    index with a chance in proportion to its weight; an index of weight 0
    is never picked."""
    cdf = np.cumsum(weights, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _normals(seed, keys, tag):
    """Standard normals by Box-Muller from the S_NORMAL_RADIUS and
    S_NORMAL_ANGLE draws of ``keys`` at ``tag``."""
    u = kernels.counter_uniforms(seed, S_NORMAL_RADIUS, keys, tag)
    v = kernels.counter_uniforms(seed, S_NORMAL_ANGLE, keys, tag)
    return np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)


def _city_groups(seed, layer, cities, size_of):
    """Each row's group number when the rows of each city (``cities``,
    ascending) are split into groups in their order.

    The k-th group of city c takes the size that ``size_of`` maps the
    S_GROUP_SIZE draw of the key c << 32 | k at the layer's tag to, and the
    city's last group what is left.  A city of m rows needs at most m
    groups, so every city's draws are made at once, m of them, and the
    groups are numbered from 0 across the cities.
    """
    count = np.bincount(cities)
    first = (np.cumsum(count) - count)[cities]  # the position of each city's first row
    count = count[cities]
    k = np.arange(len(cities)) - first
    keys = (cities.astype(np.uint64) << np.uint64(32)) | k.astype(np.uint64)
    size = size_of(kernels.counter_uniforms(seed, S_GROUP_SIZE, keys, LAYERS.index(layer)))
    begin = np.cumsum(size) - size
    begin -= begin[first]  # where the k-th group would begin within its city
    opens = np.zeros(len(cities), dtype=bool)
    opens[(first + begin)[begin < count]] = True
    return np.cumsum(opens) - 1


def _make_regions(config, seed):
    r = config.regions
    n_c, n_p = r.n_cities, r.n_provinces
    cities = np.arange(n_c)
    dist = np.zeros(n_c)
    if n_c > 1:
        base = np.linspace(0.0, 1.0, n_c)[1:]
        jitter = 0.9 + 0.2 * kernels.counter_uniforms(seed, S_CITY_JITTER, cities[1:], 0)
        dist[1:] = np.maximum(50.0, base * jitter * r.max_distance_km)
    rel = dist / max(r.max_distance_km, 1.0)

    def noise(name):
        return r.attr_noise * _normals(seed, cities, CITY_NORMAL_TAGS.index(name))

    def coupled(name, level, slope):
        return np.clip(level + slope * rel + noise(name), 0.0, 1.0)

    gdp = 90_000.0 * np.exp(-1.2 * rel) * np.exp(noise("gdp"))
    tight = coupled("tightness", 0.70, -0.35)
    paddy = coupled("paddy", 0.55, -0.30)
    innov = coupled("innovation", 0.65, -0.35)
    illit = coupled("illiteracy", 0.04, +0.12)
    ethnic = coupled("ethnic", 0.05, +0.18)
    lognormal = np.exp(12.5 + 0.4 * _normals(seed, cities, CITY_NORMAL_TAGS.index("population")))
    pop = np.maximum(10_000, lognormal).astype(np.int64)

    lag = dist / max(r.spread_km_per_day, 1e-9)
    # city x day
    t = np.arange(config.n_days, dtype=np.float64) - r.epidemic_start_day - lag[:, None]
    # a curve past the cap may overflow to inf, which the cap absorbs
    with np.errstate(over="ignore"):
        curve = np.where(t >= 0, np.exp(r.epidemic_growth * t), 0.0)
    cases = np.minimum(curve, pop[:, None] / 50).astype(np.int64)
    return RegionColumns(
        city_id=cities,
        province_id=cities * n_p // n_c,
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
    calendar = config.calendar()
    regions = _make_regions(config, seed)
    n = config.n_individuals
    d = config.demographics
    ids = np.arange(1, n + 1, dtype=np.uint64)

    def person(name):
        """The S_PERSON draw of every individual at the tag of ``name``."""
        return kernels.counter_uniforms(seed, S_PERSON, ids, PERSON_TAGS.index(name))

    home_city = _pick(person("home_city"), regions.population_count)
    age_span = d.age_max - d.age_min + 1
    population = PopulationColumns(
        ids=ids,
        gender=(person("gender") < d.female_p).astype(np.int8),  # 1 = female
        age=(d.age_min + (person("age") * age_span).astype(np.int64)).astype(np.int16),
        education=_pick(
            person("education"), [d.education_probs.get(e, 0.0) for e in EDUCATIONS]
        ).astype(np.int8),
        occupation=_pick(
            person("occupation"), [d.occupation_probs.get(o, 0.0) for o in OCCUPATIONS]
        ).astype(np.int8),
        purchasing_power=(
            _pick(person("purchasing_power"), d.purchasing_power_probs) + 1
        ).astype(np.int8),
        has_child=person("has_child") < d.has_child_p,
        married=person("married") < d.married_p,
        home_city=home_city,
        qualified=person("qualified") < d.qualified_p,
    )

    first_month, n_m = history_window(calendar, config.history_months)
    hist_start = int(month_start_ts(first_month))
    window_end = calendar.day_start_ts(calendar.n_days) - 1

    # each layer's shared-address groups as (group numbers, member rows): the
    # rows of each city in a random order are split into homes, and schools
    # and companies split the opt-in samples of that order
    net = config.network
    order = np.lexsort((person("order"), home_city))

    def uniform_size(lo, hi):
        return lambda u: lo + (u * (hi - lo + 1)).astype(np.int64)

    groups = {}
    for layer, rows, size_of in (
        ("family", order, lambda u: _pick(u, net.family_size_probs) + 1),
        (
            "schoolmate", order[person("schoolmate")[order] < net.school_p],
            uniform_size(net.school_size_min, net.school_size_max),
        ),
        (
            "workmate", order[person("workmate")[order] < net.company_p],
            uniform_size(net.company_size_min, net.company_size_max),
        ),
    ):
        groups[layer] = _city_groups(seed, layer, home_city[rows], size_of), rows
    truth_graph = build_from_memberships(ids, groups)

    history = PurchaseHistory(config, seed, population, np.arange(first_month, first_month + n_m))

    # each group has one address of its layer's kind, numbered in order past
    # the kind's base; the rows take the canonical order the JSONL reader
    # produces, so a generated dataset compares equal after a round trip
    bases = {"home": 1_000_000, "school_dorm": 2_000_000, "company": 3_000_000}
    member_rows, address_id, kind = [], [], []
    for kind_name, base in bases.items():
        group, rows = groups[KIND_TO_LAYER[kind_name]]
        member_rows.append(rows)
        address_id.append(base + group)
        kind.append(np.full(len(rows), ADDRESS_KINDS.index(kind_name)))
    member_rows = np.concatenate(member_rows)
    addresses = AddressColumns(
        individual_id=ids[member_rows],
        address_id=np.concatenate(address_id),
        kind=np.concatenate(kind),
        active_start=np.full(len(member_rows), hist_start),
        active_end=np.full(len(member_rows), window_end),
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

    Each day d emits five streams of events, drawn from the counter streams
    named below at the tags that follow them:
    - three awareness queries per newly aware individual after the
      first-aware moment, each suppressed with probability query_noise
      (S_SUPPRESS, S_QUERY_JITTER and S_TEXT at (d << 2) | k, k = 1, 2, 3);
    - a PPE purchase per newly aware individual after that moment, up to
      stockout_day (S_PPE_TS at d);
    - queries by those aware before d (S_POST and S_POST_TS at d,
      S_SUPPRESS and S_TEXT at d << 2);
    - background queries (S_NOISE_Q, S_NOISE_TS and S_NOISE_TEXT at d);
    - background purchases (S_BG_BUY, S_BG_TS and S_BG_CAT at d).
    """
    cols = dataset.population
    calendar = dataset.calendar
    n = cols.n
    ids = cols.ids

    z0 = hazard_base(config, cols, dataset.distance_km())
    layers = {name: graph.layer(name) for name in LAYERS}
    # 1 / degree, and 0 for an individual without neighbors in the layer
    inv_deg = {
        name: (lyr.degrees() > 0) / np.maximum(lyr.degrees(), 1.0) for name, lyr in layers.items()
    }
    counts = {name: np.zeros(n, dtype=np.int64) for name in LAYERS}

    # each shock's first day, magnitude and the rows it reaches
    scope_rows = {"province": dataset.province_of_individuals(), "city": cols.home_city}
    event_rows = [
        (int(calendar.day_of(ev.timestamp)), float(ev.magnitude),
         scope_rows[ev.scope] == ev.scope_id if ev.scope in scope_rows else slice(None))
        for ev in config.events
    ]

    aware = np.zeros(n, dtype=bool)
    first_moment = np.full(n, NEVER, dtype=np.int64)
    first_day = np.full(n, -1, dtype=np.int64)
    noise = config.query_noise

    # each stream's text codes, a range of config.text_pool(); its last
    # text, the PPE category, only the PPE purchases code to
    n_aware, n_noise = len(config.aware_query_texts), len(config.noise_query_texts)
    ppe_code = len(config.text_pool()) - 1
    aware_codes, noise_codes = range(n_aware), range(n_aware, n_aware + n_noise)
    category_codes = range(n_aware + n_noise, ppe_code)

    chunks = []
    day_rows = []

    def below(stream, eids, tag, p):
        """The ids of ``eids`` whose ``stream`` draw at ``tag`` is below ``p``."""
        if not len(eids) or p <= 0:
            return eids[:0]
        return eids[kernels.counter_uniforms(seed, stream, eids, tag) < p]

    def emit(kind, eids, start, span, time_draw, text):
        """Append the events of ``eids`` as a chunk: each at ``start`` plus
        the share of ``span`` seconds that its (stream, tag) ``time_draw``
        picks, with the text code ``text`` or, for a (stream, tag, codes)
        ``text``, the code of the range ``codes`` that its draw picks."""
        if not len(eids):
            return
        stream, tag = time_draw
        ts = start + (kernels.counter_uniforms(seed, stream, eids, tag) * span).astype(np.int64)
        if isinstance(text, int):
            code = np.full(len(eids), text)
        else:
            stream, tag, codes = text
            u = kernels.counter_uniforms(seed, stream, eids, tag)
            code = codes.start + (u * len(codes)).astype(np.int64)
        kinds = np.full(len(eids), kind, dtype=np.uint8)
        chunks.append((kinds, eids, ts, code, code == ppe_code))

    for d in range(calendar.n_days):
        day_start = calendar.day_start_ts(d)
        first_chunk = len(chunks)

        shock = np.zeros(n, dtype=np.float64)
        for day0, mag, rows in event_rows:
            f = mag * 0.5 ** (d - day0) if d >= day0 else 0.0
            if f >= 1e-9:
                shock[rows] += f

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
            for name, lyr in layers.items():
                kernels.increment_neighbor_counts(lyr.indptr, lyr.indices, new, counts[name])

            room = day_start + SECONDS_PER_DAY - 1 - moment
            for k in (1, 2, 3):
                tag = (d << 2) | k
                keep = kernels.counter_uniforms(seed, S_SUPPRESS, new_ids, tag) >= noise
                emit(
                    EVENT_KIND_QUERY, new_ids[keep], moment[keep], room[keep],
                    (S_QUERY_JITTER, tag), (S_TEXT, tag, aware_codes),
                )
            if d <= config.stockout_day:
                emit(EVENT_KIND_PURCHASE, new_ids, moment, room, (S_PPE_TS, d), ppe_code)

        # individuals aware before today occasionally keep searching
        post = below(S_POST, ids[aware & (first_day < d)], d, config.post_aware_query_p)
        if len(post):
            post = post[kernels.counter_uniforms(seed, S_SUPPRESS, post, d << 2) >= noise]
        day = (day_start, SECONDS_PER_DAY - 1)
        emit(EVENT_KIND_QUERY, post, *day, (S_POST_TS, d), (S_TEXT, d << 2, aware_codes))
        emit(
            EVENT_KIND_QUERY, below(S_NOISE_Q, ids, d, config.background_query_p), *day,
            (S_NOISE_TS, d), (S_NOISE_TEXT, d, noise_codes),
        )
        emit(
            EVENT_KIND_PURCHASE, below(S_BG_BUY, ids, d, config.background_purchase_p), *day,
            (S_BG_TS, d), (S_BG_CAT, d, category_codes),
        )
        day_rows.append(sum(len(chunk[1]) for chunk in chunks[first_chunk:]))

    aware_rows = np.flatnonzero(first_moment != NEVER)
    timeline = AwarenessTimeline(ids[aware_rows], first_moment[aware_rows])
    return chunks, day_rows, GroundTruth(timeline=timeline, graph=graph)


def generate(config, seed):
    """Full synthetic run of ``seed``, the run's seed: population, history,
    diffusion, merged log.  The config is not checked here;
    config.RunConfig.from_dict checks one read from JSON.

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
