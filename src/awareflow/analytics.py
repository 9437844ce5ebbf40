"""Diffusion-pattern analytics: phases, cohort gaps, geography, hysteresis.

Everything here consumes an AwarenessTimeline plus the dataset and returns
plain arrays/dataclasses.  Undefined values are explicit: None (or NaN in
arrays) for undefined, math.inf for ratios with an empty denominator.
Day-level growth rates use the convention that a rise from zero is +inf,
zero-to-zero is 0, and day 0 (no previous day) is undefined (NaN).
"""

from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from . import kernels
from .awareness import awareness_percentage
from .domain import EDUCATIONS, GENDERS, OCCUPATIONS, Bounds, Timestamp
from .errors import AnalyticsError, CohortError
from .netinfer import LAYERS

PHASE_ORDER = ("Normal", "Beginning", "Growth", "Peak", "PostPeak")

GEO_FACTORS = (
    "distance_to_epicenter",
    "confirmed_cases",
    "gdp",
    "cultural_tightness",
    "paddy_rice_pct",
    "innovation_index",
    "illiteracy_pct",
    "multi_ethnic_household_pct",
)


@dataclass(frozen=True)
class EventMark:
    """A dated external event used for hysteresis and model checkpoints."""

    label: str
    timestamp: Timestamp


# the canonical eleven news events of the 2019-12-01..2020-02-26 window
DEFAULT_EVENT_DATES = (
    ("retrospective_first_case", "2019-12-08"),
    ("epicenter_outbreak_briefing", "2019-12-31"),
    ("epicenter_59_cases_report", "2020-01-05"),
    ("epicenter_exit_screening", "2020-01-16"),
    ("h2h_transmission_confirmed", "2020-01-20"),
    ("epicenter_lockdown", "2020-01-23"),
    ("province_level1_response", "2020-01-24"),
    ("national_level1_response", "2020-01-25"),
    ("who_pheic_declared", "2020-01-31"),
    ("epicenter_quarantine_strategies", "2020-02-02"),
    ("disease_named", "2020-02-11"),
)


def default_event_marks(calendar):
    """The canonical event list as EventMarks at local noon, window-clipped."""
    index = {date: d for d, date in enumerate(calendar.iso_dates())}
    out = []
    for label, date in DEFAULT_EVENT_DATES:
        d = index.get(date)
        if d is not None:
            out.append(EventMark(label, calendar.day_start_ts(d) + 43200))
    return out


@dataclass(frozen=True)
class PhaseThresholds:
    """Decision thresholds for phase segmentation (fractions, not %)."""

    growth_high: float = 1.00        # province growth rate > 100%
    national_begin: float = 0.00001  # national percentage > 0.001%
    growth_peak: float = 0.10        # province growth rate vs 10%
    national_peak: float = 0.001     # national percentage > 0.1%
    province_share: Annotated[float, Bounds(0, 1, open_lo=True)] = 0.95  # > 95% of provinces
    sustain_days: Annotated[int, Bounds(1)] = 3

    def validate(self):
        """Raises AnalyticsError for a field outside its declared Bounds."""
        problems = [
            f"{f.name} {p}"
            for f in fields(self)
            for b in getattr(f.type, "__metadata__", ())
            if (p := b.problem(getattr(self, f.name)))
        ]
        if problems:
            raise AnalyticsError("; ".join(problems))
        return self


@dataclass(frozen=True)
class Phase:
    name: str
    start_day: int
    end_day: int  # inclusive

    @property
    def n_days(self):
        return self.end_day - self.start_day + 1


@dataclass
class PhaseSegmentation:
    phases: list
    complete: bool

    def phase_of_day(self, day):
        for ph in self.phases:
            if ph.start_day <= day <= ph.end_day:
                return ph.name
        return None

    def by_name(self):
        return {ph.name: ph for ph in self.phases}


@dataclass
class TrendSeries:
    """One per-day cumulative awareness percentage line for a group."""

    key: str
    values: np.ndarray
    size: int


@dataclass(frozen=True)
class NeighborhoodRatio:
    value: float  # may be math.inf; None when undefined
    numerator: float
    denominator: float
    n_aware: int
    n_unaware: int
    reason: str = ""


def daily_counts(timeline, calendar):
    """(newly aware, cumulative aware) per calendar day.

    Individuals aware before the window count into day 0; awareness after
    the window end is out of scope and ignored.
    """
    day = timeline.buckets(timeline.ids, calendar.day_ends())
    new = np.bincount(day, minlength=calendar.n_days + 1)[: calendar.n_days]
    return new, np.cumsum(new)


def growth_rates(values):
    """Day-over-day relative growth along the last axis (days); day 0 is NaN
    (no previous day)."""
    v = np.asarray(values, dtype=np.float64)
    out = np.full(v.shape, np.nan)
    prev = v[..., :-1]
    cur = v[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (cur - prev) / prev
    out[..., 1:] = np.where(prev > 0, r, np.where(cur > 0, np.inf, 0.0))
    return out


def _cohort_rows(dataset, cohort_ids, what):
    """Dataset rows of the cohort (everyone when None); empty is a CohortError."""
    cols = dataset.population
    rows = np.arange(cols.n, dtype=np.int64) if cohort_ids is None else cols.rows_of(cohort_ids)
    if len(rows) == 0:
        raise CohortError(f"empty cohort for {what}")
    return rows


def _aware_by_day(timeline, dataset, group_codes, n_groups, rows, weights=None):
    """Per group and day, the count of cohort ``rows`` aware by the end of
    that day, or with ``weights`` the sum of their weights; shape (G, D)."""
    D = dataset.calendar.n_days
    day = timeline.buckets(dataset.population.ids[rows], dataset.calendar.day_ends())
    key = group_codes.astype(np.int64) * (D + 1) + day
    by_day = np.bincount(key, weights, minlength=n_groups * (D + 1)).reshape(n_groups, D + 1)
    return np.cumsum(by_day[:, :D], axis=1)


def _group_percentages(timeline, dataset, group_codes, n_groups, rows):
    """Cumulative per-group awareness percentage matrix, shape (G, D)."""
    cum = _aware_by_day(timeline, dataset, group_codes, n_groups, rows)
    sizes = np.bincount(group_codes.astype(np.int64), minlength=n_groups)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = cum / sizes[:, None]
    return pct, sizes


GROUPINGS = {
    "gender": lambda cols: (cols.gender, list(GENDERS)),
    "education": lambda cols: (cols.education, list(EDUCATIONS)),
    "occupation": lambda cols: (cols.occupation, list(OCCUPATIONS)),
    "purchasing_power": lambda cols: (
        cols.purchasing_power - 1,
        [f"level_{k}" for k in range(1, 8)],
    ),
    "has_child": lambda cols: (cols.has_child.astype(np.int8), ["no_child", "has_child"]),
    "married": lambda cols: (cols.married.astype(np.int8), ["unmarried", "married"]),
}


def _group_codes(dataset, grouping, cohort_ids, what):
    """(cohort rows, their group codes, the group names) of a grouping."""
    if grouping not in GROUPINGS:
        raise AnalyticsError(
            f"unknown grouping {grouping!r}; expected one of {sorted(GROUPINGS)}"
        )
    rows = _cohort_rows(dataset, cohort_ids, what)
    codes, names = GROUPINGS[grouping](dataset.population)
    return rows, codes[rows], names


def group_trend(timeline, dataset, grouping, cohort_ids=None):
    """Per-day cumulative awareness percentage for each value of a field.

    Groups with no cohort members are omitted rather than reported as 0/0.
    """
    rows, codes, names = _group_codes(dataset, grouping, cohort_ids, f"grouping {grouping!r}")
    pct, sizes = _group_percentages(timeline, dataset, codes, len(names), rows)
    return [
        TrendSeries(key=names[g], values=pct[g], size=int(sizes[g]))
        for g in range(len(names))
        if sizes[g] > 0
    ]


def province_percentages(timeline, dataset, cohort_ids=None):
    """(province_ids, matrix) of per-province awareness percentage by day."""
    rows = _cohort_rows(dataset, cohort_ids, "province percentages")
    province = dataset.province_of_individuals()[rows]
    uniq, codes = np.unique(province, return_inverse=True)
    pct, _ = _group_percentages(timeline, dataset, codes, len(uniq), rows)
    return uniq, pct


def national_percentage(timeline, dataset, cohort_ids=None):
    rows = _cohort_rows(dataset, cohort_ids, "national percentages")
    pct, _ = _group_percentages(
        timeline, dataset, np.zeros(len(rows), dtype=np.int64), 1, rows
    )
    return pct[0]


def segment_phases(province_pct, national_pct, thresholds=None):
    """Cut the window into Normal/Beginning/Growth/Peak/PostPeak.

    province_pct is a (provinces, days) matrix of cumulative awareness
    percentages; national_pct the national series.  Missing later phases
    leave the last attained phase running to the end (complete=False).
    """
    th = (thresholds or PhaseThresholds()).validate()
    province_pct = np.asarray(province_pct, dtype=np.float64)
    national_pct = np.asarray(national_pct, dtype=np.float64)
    if province_pct.ndim != 2 or province_pct.shape[1] != len(national_pct):
        raise AnalyticsError("province matrix and national series disagree on days")
    D = len(national_pct)
    rates = growth_rates(province_pct)

    with np.errstate(invalid="ignore"):
        hot = rates > th.growth_high
        warm = rates > th.growth_peak
        cool = rates < th.growth_peak
    begin_ok = hot.any(axis=0) & (national_pct > th.national_begin)
    peak_ok = (warm.mean(axis=0) > th.province_share) & (
        national_pct > th.national_peak
    )
    post_ok = cool.mean(axis=0) > th.province_share

    def first_at_or_after(mask, start):
        idx = np.flatnonzero(mask[start:])
        return int(idx[0]) + start if len(idx) else None

    b = first_at_or_after(begin_ok, 0)
    g = first_at_or_after(begin_ok, b + 1) if b is not None else None
    p = first_at_or_after(peak_ok, g + 1) if g is not None else None
    pp = None
    if p is not None:
        run = th.sustain_days
        sustained = np.zeros(D, dtype=bool)
        limit = D - run + 1
        if limit > 0:
            ok = np.ones(limit, dtype=bool)
            for k in range(run):
                ok &= post_ok[k : k + limit]
            sustained[:limit] = ok
        pp = first_at_or_after(sustained, p + 1)

    bounds = [0, b, g, p, pp, D]
    phases = []
    for i, name in enumerate(PHASE_ORDER):
        start = bounds[i]
        if start is None:
            break
        nxt = next(v for v in bounds[i + 1 :] if v is not None)  # D terminates
        if nxt - 1 >= start:
            phases.append(Phase(name, int(start), int(nxt - 1)))
    complete = {ph.name for ph in phases} == set(PHASE_ORDER)
    return PhaseSegmentation(phases=phases, complete=complete)


def cross_ratio(pa, pb):
    """Elementwise pa / pb of awareness percentages: inf where only pb is 0,
    NaN (undefined) where both are."""
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pb > 0, pa / pb, np.where(pa > 0, np.inf, np.nan))


def cross_group_ratio(timeline, group_a, group_b, t):
    """P_aware(A) / P_aware(B) at time t; inf when only B is silent, None
    when both are."""
    pa = awareness_percentage(timeline, group_a, t)
    pb = awareness_percentage(timeline, group_b, t)
    r = float(cross_ratio(pa, pb))
    return None if np.isnan(r) else r


def _neighborhood_ratio(frac, aware):
    """The NeighborhoodRatio at one time of the individuals with neighbors:
    their aware-neighbor shares ``frac``, ``aware`` marking the aware."""
    n_a = int(np.count_nonzero(aware))
    n_u = len(aware) - n_a
    if n_a == 0 or n_u == 0:
        reason = "no_aware_with_neighbors" if n_a == 0 else "no_unaware_with_neighbors"
        return NeighborhoodRatio(None, np.nan, np.nan, n_a, n_u, reason)
    num = float(frac[aware].mean())
    den = float(frac[~aware].mean())
    if den > 0:
        return NeighborhoodRatio(num / den, num, den, n_a, n_u)
    if num > 0:
        return NeighborhoodRatio(np.inf, num, den, n_a, n_u)
    return NeighborhoodRatio(None, num, den, n_a, n_u, "no_aware_neighbors_either_side")


def neighborhood_awareness_ratio(graph, layer, timeline, times):
    """Mean aware-neighbor share of the aware vs of the unaware, one
    NeighborhoodRatio per time of the ascending ``times``.

    Only individuals with at least one neighbor in the layer enter either
    average; an empty side makes the ratio undefined with a reason code.
    """
    if layer not in LAYERS:
        raise AnalyticsError(f"unknown layer {layer!r}")
    lyr = graph.layer(layer)
    # the layer over its rows with neighbors, the only rows either average
    # takes: every neighbor of one is one, and the edges keep their order
    rows = np.flatnonzero(lyr.degrees())
    renumber = np.zeros(graph.n_nodes, dtype=lyr.indices.dtype)
    renumber[rows] = np.arange(len(rows))
    indptr, indices = np.append(lyr.indptr[rows], lyr.indptr[-1]), renumber[lyr.indices]
    deg, bucket = np.diff(indptr), timeline.buckets(graph.ids[rows], times)
    sweep = kernels.neighbor_count_sweep(indptr, indices, bucket, len(times))
    return [_neighborhood_ratio(counts / deg, bucket <= k) for k, counts in enumerate(sweep)]


def phase_means(keys, values, phases):
    """Per series (a row of ``values``, one per key; NaN where undefined) and
    phase, the mean of its finite values over the phase's days, as the
    columns key, phase, mean (None without a finite value), the number of
    finite values and the phase's length, series by series."""
    windows = (row[p.start_day : p.end_day + 1] for row in values for p in phases)
    defined = [w[np.isfinite(w)] for w in windows]
    return [
        np.repeat(keys, len(phases)), [p.name for p in phases] * len(keys),
        [float(d.mean()) if len(d) else None for d in defined], [len(d) for d in defined],
        [p.n_days for p in phases] * len(keys),
    ]


def aware_group_means(timeline, dataset, grouping, values, cohort_ids=None):
    """Mean of a per-individual value among the aware, split by group, for
    each day of the window: (names, means, counts), the last two (G, D).

    ``values`` is aligned to dataset order (e.g. purchasing power levels).
    A group with no aware members on a day has a NaN mean.
    """
    rows, codes, names = _group_codes(dataset, grouping, cohort_ids, "aware group means")
    vals = np.asarray(values, dtype=np.float64)[rows]
    counts = _aware_by_day(timeline, dataset, codes, len(names), rows)
    # sums of integer values (purchasing-power levels) are exact, so each
    # mean is the one vals[sel].mean() gives
    sums = _aware_by_day(timeline, dataset, codes, len(names), rows, weights=vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / counts
    return names, means, counts


def hysteresis(timeline, event, thresholds=(0.10, 0.50, 1.00)):
    """(N_e, durations): seconds until the aware count grows f·N_e past its
    level at an event.

    N_e is the aware count at the event timestamp; the f entry of
    ``durations`` is the time until the cumulative count first reaches
    N_e * (1 + f), None when the series ends before that.  A zero baseline
    is an error.
    """
    ts = np.sort(timeline.first_aware)
    n_e = int(np.searchsorted(ts, event.timestamp, side="right"))
    if n_e == 0:
        raise AnalyticsError(
            f"hysteresis baseline is zero: nobody aware at {event.label!r}"
        )
    out = {}
    for f in thresholds:
        # ceil with a nudge: counts are integers, so targets like 110.00..01
        # from float rounding must not demand one extra person
        target = int(np.ceil(n_e * (1.0 + f) - 1e-9))
        if target <= len(ts):
            out[f] = int(ts[target - 1] - event.timestamp)
        else:
            out[f] = None
    return n_e, out


def hysteresis_table(timeline, marks, calendar):
    """The hysteresis of each event mark as the columns label, timestamp,
    date, N_e, threshold, duration and status: one row per threshold ("ok",
    or "absent" when the count never grows that far), or one "zero_baseline"
    row with NA cells when nobody is aware at the mark."""
    rows, n_es, fs, durations, status = [], [], [], [], []
    for mark in marks:
        try:
            n_e, by_f = hysteresis(timeline, mark)
        except AnalyticsError:
            n_e, by_f = 0, {None: None}
        for f in sorted(by_f):
            rows.append(mark)
            n_es.append(n_e)
            fs.append(f)
            durations.append(by_f[f])
            status.append("zero_baseline" if n_e == 0 else "absent" if by_f[f] is None else "ok")
    times = np.array([m.timestamp for m in rows], dtype=np.int64)
    return [[m.label for m in rows], times, calendar.dates_of(times), n_es, fs, durations, status]


@dataclass
class LeadDays:
    a_leads: int
    b_leads: int
    ties: int

    @property
    def defined_days(self):
        return self.a_leads + self.b_leads + self.ties


def lead_days(trends_a, trends_b):
    """Compare two trend families by their fastest group's daily growth.

    For each day, the growth rate of the fastest-growing group on side A
    is compared with side B's; counts how many days each side leads.  Day
    0 has no growth rate and is excluded.
    """
    if not trends_a or not trends_b:
        raise AnalyticsError("lead_days needs at least one series per side")
    best_a = growth_rates([t.values for t in trends_a]).max(axis=0)
    best_b = growth_rates([t.values for t in trends_b]).max(axis=0)
    ok = ~(np.isnan(best_a) | np.isnan(best_b))
    a = int(np.sum(best_a[ok] > best_b[ok]))
    b = int(np.sum(best_b[ok] > best_a[ok]))
    ties = int(ok.sum()) - a - b
    return LeadDays(a_leads=a, b_leads=b, ties=ties)


def average_ranks(values):
    """1-based average ranks down axis 0: ``#less + (#equal + 1) / 2``.

    Ties share the mean of the positions they span, as in
    ``scipy.stats.rankdata``.  A 2-D block is ranked column by column, and
    a column holding NaN ranks as all NaN.
    """
    a = np.asarray(values, dtype=np.float64)
    cols = a.reshape(len(a), -1)
    ordered = np.sort(cols, axis=0)
    ranks = np.empty(cols.shape)
    for j in range(cols.shape[1]):
        less = np.searchsorted(ordered[:, j], cols[:, j], side="left")
        upto = np.searchsorted(ordered[:, j], cols[:, j], side="right")
        ranks[:, j] = (less + upto + 1) / 2
    ranks[:, np.isnan(cols).any(axis=0)] = np.nan
    return ranks.reshape(a.shape)


def spearman(xs, ys):
    """Spearman rank correlation (average ranks for ties)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise AnalyticsError("spearman needs two equally long vectors")
    if len(xs) < 2:
        raise AnalyticsError("spearman needs at least two observations")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise AnalyticsError("spearman is undefined for constant input")
    return float(np.corrcoef(average_ranks(xs), average_ranks(ys))[0, 1])


def _unit_factor(dataset, factor, unit_ids, level, D):
    """Per-unit factor values, shape (U, D); static factors repeat."""
    regions = dataset.regions
    unit_of = regions.city_id if level == "city" else regions.province_id
    out = np.zeros((len(unit_ids), D), dtype=np.float64)
    for k, uid in enumerate(unit_ids.tolist()):
        members = np.flatnonzero(unit_of == uid)
        if factor == "confirmed_cases":
            for cases in regions.daily_confirmed_cases[members]:
                cases = np.asarray(cases, dtype=np.float64)
                if len(cases) < D:
                    cases = np.pad(cases, (0, D - len(cases)))
                out[k] += np.cumsum(cases[:D])
        else:
            weights = regions.population_count[members].astype(np.float64)
            vals = getattr(regions, factor)[members]
            out[k] = np.sum(vals * weights) / weights.sum()
    return out


def geo_correlation_series(dataset, timeline, factor, level="province", cohort_ids=None):
    """Daily Spearman rho between a regional factor and awareness percentage.

    Units are cities or provinces that hold at least one cohort member.
    Days where either side is constant (e.g. before anyone is aware) give
    NaN.
    """
    if factor not in GEO_FACTORS:
        raise AnalyticsError(
            f"unknown factor {factor!r}; expected one of {sorted(GEO_FACTORS)}"
        )
    if level not in ("city", "province"):
        raise AnalyticsError("level must be 'city' or 'province'")
    rows = _cohort_rows(dataset, cohort_ids, "geographic correlation")
    cols = dataset.population
    unit_of = (
        cols.home_city if level == "city" else dataset.province_of_individuals()
    )
    unit = unit_of[rows]
    unit_ids, codes = np.unique(unit, return_inverse=True)
    D = dataset.calendar.n_days
    pct, _ = _group_percentages(timeline, dataset, codes, len(unit_ids), rows)
    fac = _unit_factor(dataset, factor, unit_ids, level, D)
    out = np.full(D, np.nan)
    if len(unit_ids) < 2:
        return out
    defined = (np.ptp(fac, axis=0) != 0) & (np.ptp(pct, axis=0) != 0)
    rank_fac, rank_pct = average_ranks(fac), average_ranks(pct)
    for d in np.flatnonzero(defined):
        out[d] = np.corrcoef(rank_fac[:, d], rank_pct[:, d])[0, 1]
    return out
