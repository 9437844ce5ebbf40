"""Trend, phase, inequality, and correlation analytics against literal
reference scans."""

import math
import sys

import numpy as np
import pytest

from awareflow import analytics
from awareflow.analytics import (
    GEO_FACTORS,
    EventMark,
    LeadDays,
    Phase,
    PhaseThresholds,
    TrendSeries,
    average_ranks,
    aware_group_means,
    cross_group_ratio,
    daily_counts,
    default_event_marks,
    geo_correlation_series,
    group_trend,
    growth_rates,
    hysteresis,
    hysteresis_table,
    lead_days,
    national_percentage,
    neighborhood_awareness_ratio,
    phase_means,
    province_percentages,
    segment_phases,
    spearman,
)
from awareflow.awareness import NEVER, AwarenessTimeline
from awareflow.cli import TABLES
from awareflow.domain import Calendar, Dataset, EventLog, validate_dataset
from awareflow.errors import AnalyticsError, CohortError, ParseError
from awareflow import files
from awareflow.files import format_value, parse_number, read_tsv, write_tsv
from awareflow.netinfer import build_from_groups

from conftest import traced_peak
from oracles import (
    neighborhood_ratio_brute,
    phase_scan,
    spearman_rank_then_pearson,
    tsv_file_scan,
    two_province_fixture,
)
from test_domain import make_addresses, make_population, make_region, make_regions


def tl(entries):
    ids = np.array(sorted(entries), dtype=np.uint64)
    ts = np.array([entries[int(i)] for i in ids], dtype=np.int64)
    return AwarenessTimeline(ids, ts)


# --- daily counts and growth -----------------------------------------------------

def test_daily_counts_clip_and_ignore():
    cal = Calendar.from_dates("2020-01-01", "2020-01-05")
    timeline = tl({
        1: cal.day_start_ts(-10),  # before the window: counts into day 0
        2: cal.day_start_ts(0) + 100,
        3: cal.day_start_ts(2),
        4: cal.day_start_ts(2) + 5,
        5: cal.day_start_ts(99),  # after the window: ignored
    })
    new, cum = daily_counts(timeline, cal)
    assert new.tolist() == [2, 0, 2, 0, 0]
    assert cum.tolist() == [2, 2, 4, 4, 4]


def test_growth_rate_conventions():
    g = growth_rates([0.0, 0.0, 2.0, 3.0, 3.0])
    assert np.isnan(g[0])
    assert g[1] == 0.0          # flat at zero
    assert g[2] == np.inf       # rise from zero
    assert g[3] == pytest.approx(0.5)
    assert g[4] == 0.0
    # reconstruction identity away from the special cases
    v = np.array([1.0, 3.0, 4.5, 4.5, 9.0])
    r = growth_rates(v)
    assert np.allclose(v[1:], v[:-1] * (1 + r[1:]))


def test_growth_rates_single_point():
    assert np.isnan(growth_rates([5.0])).all()


def test_growth_rates_of_a_matrix_are_those_of_its_rows():
    m = np.array([[0.0, 0.0, 2.0, 3.0], [1.0, 0.5, 0.5, 0.0], [4.0, 4.0, 8.0, 2.0]])
    got = growth_rates(m)
    assert got.shape == m.shape
    for row, rates in zip(m, got):
        assert rates.tobytes() == growth_rates(row).tobytes()
    assert growth_rates(np.empty((0, 4))).shape == (0, 4)


# --- phase segmentation ------------------------------------------------------------

def test_two_province_fixture_matches_reference_and_expected():
    prov, nat, expected = two_province_fixture()
    seg = segment_phases(np.array(prov), np.array(nat))
    assert seg.complete
    got = {p.name: (p.start_day, p.end_day) for p in seg.phases}
    assert got == expected
    assert got == phase_scan(prov, nat)
    # phases tile the window in order
    assert seg.phases[0].start_day == 0
    for a, b in zip(seg.phases, seg.phases[1:]):
        assert b.start_day == a.end_day + 1
    assert seg.phases[-1].end_day == len(nat) - 1


def test_flat_zero_series_is_all_normal():
    prov = np.zeros((3, 10))
    nat = np.zeros(10)
    seg = segment_phases(prov, nat)
    assert [p.name for p in seg.phases] == ["Normal"]
    assert (seg.phases[0].start_day, seg.phases[0].end_day) == (0, 9)
    assert not seg.complete


def test_segmentation_matches_reference_on_random_series():
    rng = np.random.default_rng(31)
    for trial in range(50):
        n_prov = int(rng.integers(1, 6))
        n_days = int(rng.integers(2, 25))
        sizes = rng.integers(50, 200, size=n_prov)
        counts = np.zeros((n_prov, n_days))
        for p in range(n_prov):
            # jumpy cumulative counts, often flat early, sometimes explosive
            jumps = rng.choice([0, 0, 1, 2, 10, 60], size=n_days)
            if rng.random() < 0.4:
                jumps[: int(rng.integers(0, n_days))] = 0
            counts[p] = np.cumsum(jumps)
            counts[p] = np.minimum(counts[p], sizes[p])
        prov_pct = counts / sizes[:, None]
        nat_pct = counts.sum(axis=0) / sizes.sum()
        seg = segment_phases(prov_pct, nat_pct)
        got = {p.name: (p.start_day, p.end_day) for p in seg.phases}
        assert got == phase_scan(prov_pct.tolist(), nat_pct.tolist()), f"trial {trial}"


def test_phase_lookup_helpers():
    prov, nat, _ = two_province_fixture()
    seg = segment_phases(np.array(prov), np.array(nat))
    assert seg.phase_of_day(0) == "Normal"
    assert seg.phase_of_day(12) == "Peak"
    assert seg.phase_of_day(99) is None
    assert seg.by_name()["Growth"].n_days == 5


def test_phase_thresholds_validate():
    with pytest.raises(AnalyticsError):
        PhaseThresholds(province_share=0.0).validate()
    with pytest.raises(AnalyticsError):
        PhaseThresholds(sustain_days=0).validate()


# --- cross-group ratios --------------------------------------------------------------

def test_cross_ratio_values():
    timeline = tl({1: 100, 2: 100, 3: 100})
    a = np.array([1, 2, 3] + list(range(10, 10 + 1497)), dtype=np.uint64)  # 3/1500 = 0.002
    b = np.array(range(2000, 2000 + 1000), dtype=np.uint64)
    b[:1] = [1]  # reuse one aware id: 1/1000 = 0.001
    assert cross_group_ratio(timeline, a, np.sort(b), 100) == pytest.approx(2.0)


def test_cross_ratio_reciprocal_identity():
    timeline = tl({1: 10, 2: 20, 5: 15, 7: 30})
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([5, 6, 7, 8], dtype=np.uint64)
    r_ab = cross_group_ratio(timeline, a, b, 25)
    r_ba = cross_group_ratio(timeline, b, a, 25)
    assert r_ab == pytest.approx(1.0 / r_ba)


def test_cross_ratio_infinite_and_undefined():
    timeline = tl({1: 10})
    aware_side = np.array([1, 2], dtype=np.uint64)
    silent = np.array([3, 4], dtype=np.uint64)
    assert cross_group_ratio(timeline, aware_side, silent, 50) == np.inf
    assert cross_group_ratio(timeline, silent, np.array([5], dtype=np.uint64), 50) is None


# --- neighborhood ratios ---------------------------------------------------------------

IDS4 = np.array([1, 2, 3, 4], dtype=np.uint64)


def test_neighborhood_ratio_on_path():
    g = build_from_groups(IDS4, {"family": [np.array([0, 1]), np.array([1, 2]), np.array([2, 3])]})
    timeline = tl({1: 10, 2: 10})
    (r,) = neighborhood_awareness_ratio(g, "family", timeline, [50])
    # aware: A(frac 1.0), B(frac 0.5); unaware: C(0.5), D(0.0)
    assert r.numerator == pytest.approx(0.75)
    assert r.denominator == pytest.approx(0.25)
    assert r.value == pytest.approx(3.0)
    assert (r.n_aware, r.n_unaware) == (2, 2)


def test_neighborhood_ratio_disjoint_pairs_is_infinite():
    g = build_from_groups(IDS4, {"family": [np.array([0, 1]), np.array([2, 3])]})
    timeline = tl({1: 10, 2: 10})
    (r,) = neighborhood_awareness_ratio(g, "family", timeline, [50])
    assert r.value == math.inf
    assert r.denominator == 0.0


def test_neighborhood_ratio_undefined_sides():
    g = build_from_groups(IDS4, {"family": [np.array([0, 1]), np.array([2, 3])]})
    all_aware = tl({1: 10, 2: 10, 3: 10, 4: 10})
    (r,) = neighborhood_awareness_ratio(g, "family", all_aware, [50])
    assert r.value is None and r.reason == "no_unaware_with_neighbors"
    nobody = tl({})
    (r2,) = neighborhood_awareness_ratio(g, "family", nobody, [50])
    assert r2.value is None and r2.reason == "no_aware_with_neighbors"
    with pytest.raises(AnalyticsError, match="unknown layer"):
        neighborhood_awareness_ratio(g, "friends", all_aware, [50])


def test_neighborhood_ratio_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(44)
    for trial in range(60):
        n = int(rng.integers(2, 15))
        ids = np.arange(1, n + 1, dtype=np.uint64)
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < 0.3
        edges = [p for p, t in zip(possible, take) if t]
        g = build_from_groups(ids, {"workmate": [np.array(e) for e in edges]})
        aware_rows = rng.random(n) < 0.4
        timeline = tl({int(ids[i]): 10 for i in np.flatnonzero(aware_rows)})
        (got,) = neighborhood_awareness_ratio(g, "workmate", timeline, [50])
        want_value, want_num, want_den = neighborhood_ratio_brute(n, edges, aware_rows)
        if want_value is None:
            assert got.value is None or got.value == want_value
        elif want_value == math.inf:
            assert got.value == math.inf
        else:
            assert got.value == pytest.approx(want_value)
            assert got.numerator == pytest.approx(want_num)
            assert got.denominator == pytest.approx(want_den)


def test_neighborhood_ratio_over_times_matches_each_time():
    rng = np.random.default_rng(45)
    times = [100, 200, 200, 300, 450]
    for trial in range(40):
        n = int(rng.integers(2, 25))
        ids = np.arange(1, n + 1, dtype=np.uint64)
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < 0.3
        edges = [p for p, t in zip(possible, take) if t]
        g = build_from_groups(ids, {"family": [np.array(e) for e in edges]})
        # ties on the grid, awareness before the first time, after the last,
        # and never (absent from the timeline)
        first = rng.choice([0, 100, 150, 200, 250, 300, 450, 999], size=n)
        known = rng.random(n) < 0.8
        timeline = AwarenessTimeline(ids[known], first[known])
        got = neighborhood_awareness_ratio(g, "family", timeline, times)
        assert len(got) == len(times)
        for k, t in enumerate(times):
            aware_rows = known & (first <= t)
            want_value, want_num, want_den = neighborhood_ratio_brute(n, edges, aware_rows)
            if want_value is None or want_value == math.inf:
                assert got[k].value == want_value
            else:
                assert got[k].value == pytest.approx(want_value)
                assert got[k].numerator == pytest.approx(want_num)
                assert got[k].denominator == pytest.approx(want_den)
            # a call at that time alone gives the same bits (repr shows NaN too)
            (alone,) = neighborhood_awareness_ratio(g, "family", timeline, [t])
            assert repr(alone) == repr(got[k])


# --- aware group means -------------------------------------------------------------------

def analytics_dataset():
    return Dataset(
        population=make_population(range(1, 9)),
        regions=make_regions(make_region(0), make_region(1, province_id=1, distance=300.0)),
        addresses=make_addresses([]),
        events=EventLog.empty(),
        calendar=Calendar(0, 1),
    )


def test_aware_group_means_purchasing_power():
    ds = analytics_dataset()
    values = np.arange(1, 9, dtype=np.float64)  # value i for individual i
    timeline = tl({3: 10, 5: 10})
    names, means, counts = aware_group_means(timeline, ds, "gender", values)
    by_name = {name: (means[g, 0], counts[g, 0]) for g, name in enumerate(names)}
    # ids 3 and 5 are both odd -> female per the fixture builder
    assert by_name["female"] == (4.0, 2)
    assert np.isnan(by_name["male"][0]) and by_name["male"][1] == 0
    with pytest.raises(CohortError, match="empty cohort"):
        aware_group_means(timeline, ds, "gender", values, np.empty(0, dtype=np.uint64))


def test_aware_group_means_equal_daily_masked_means(small_world, timeline_small, qualified_small):
    _, dataset, _ = small_world
    cols = dataset.population
    values = cols.purchasing_power.astype(np.float64)
    names, means, counts = aware_group_means(
        timeline_small, dataset, "occupation", values, qualified_small
    )
    D = dataset.calendar.n_days
    assert means.shape == counts.shape == (len(names), D)
    rows = cols.rows_of(qualified_small)
    codes = cols.occupation[rows]
    aligned = timeline_small.aligned(cols.ids[rows])
    for d in range(D):
        aware = aligned <= dataset.calendar.day_start_ts(d) + 86399
        for g in range(len(names)):
            sel = (codes == g) & aware
            assert counts[g, d] == sel.sum()
            if sel.any():
                assert means[g, d] == values[rows][sel].mean()  # bit for bit
            else:
                assert np.isnan(means[g, d])
    assert counts[:, -1].sum() > 0


def test_aware_group_means_unknown_grouping():
    ds = analytics_dataset()
    with pytest.raises(AnalyticsError, match="unknown grouping"):
        aware_group_means(tl({}), ds, "height", np.zeros(8))


# --- hysteresis ------------------------------------------------------------------------

def test_hysteresis_reaches_ten_percent_in_two_hours():
    # 100 aware at the event; the 110th awareness lands 7200s later
    entries = {i: 0 for i in range(1, 101)}
    for k in range(9):
        entries[101 + k] = 3600
    entries[110] = 7200
    entries[111] = 50_000
    timeline = tl(entries)
    event = EventMark("briefing", 0)
    n_e, out = hysteresis(timeline, event, thresholds=(0.10, 0.50))
    assert n_e == 100
    assert out[0.10] == 7200
    assert out[0.50] is None  # would need 150 aware, only 111 exist


def test_hysteresis_zero_baseline_raises():
    timeline = tl({1: 100})
    with pytest.raises(AnalyticsError, match="hysteresis baseline is zero"):
        hysteresis(timeline, EventMark("early", 50))


def test_hysteresis_monotone_in_threshold():
    rng = np.random.default_rng(3)
    entries = {int(i): int(t) for i, t in enumerate(np.sort(rng.integers(0, 10_000, 200)), start=1)}
    timeline = tl(entries)
    event = EventMark("e", 2000)
    _, out = hysteresis(timeline, event, thresholds=(0.05, 0.10, 0.20, 0.50, 1.00))
    times = [v for v in out.values() if v is not None]
    assert times == sorted(times)
    assert all(v >= 0 for v in times)


def test_hysteresis_cohort_restriction():
    timeline = tl({1: 0, 2: 0, 3: 100, 4: 200})
    event = EventMark("e", 0)
    full = hysteresis(timeline, event, thresholds=(1.00,))
    cohort = np.array([1, 3], dtype=np.uint64)
    half = hysteresis(timeline.restrict(cohort), event, thresholds=(1.00,))
    assert full == (2, {1.00: 200})  # 2 -> 4 aware
    assert half == (1, {1.00: 100})  # 1 -> 2 aware within the cohort


def test_hysteresis_table_rows_per_mark_and_threshold():
    timeline = tl({1: 0, 2: 0, 3: 100, 4: 200})
    calendar = Calendar(0, 1)  # day 0 holds timestamps -28800 .. 57599
    marks = [EventMark("e", 0), EventMark("early", -50), EventMark("late", 10**6)]
    label, ts, date, n_e, threshold, duration, status = hysteresis_table(timeline, marks, calendar)
    assert label == ["e"] * 3 + ["early"] + ["late"] * 3
    assert ts.tolist() == [0] * 3 + [-50] + [10**6] * 3
    assert date.tolist() == ["1970-01-01"] * 4 + ["NA"] * 3
    assert n_e == [2, 2, 2, 0, 4, 4, 4]
    assert threshold == [0.10, 0.50, 1.00, None, 0.10, 0.50, 1.00]
    # 2 aware at the event: 10% and 50% need a third, 100% a fourth
    assert duration == [100, 100, 200, None, None, None, None]
    assert status == ["ok"] * 3 + ["zero_baseline"] + ["absent"] * 3
    assert [len(c) for c in hysteresis_table(timeline, [], calendar)] == [0] * 7


def test_phase_means_per_series_and_phase():
    phases = [Phase("Normal", 0, 1), Phase("Growth", 2, 4)]
    values = np.array([[1.0, 2.0, np.nan, np.inf, 4.0], [np.nan, np.nan, 3.0, 5.0, 7.0]])
    key, phase, mean, n_defined, n_days = phase_means(("a", "b"), values, phases)
    assert key.tolist() == ["a", "a", "b", "b"]
    assert phase == ["Normal", "Growth"] * 2
    # NaN and inf are not defined values; a phase without one has no mean
    assert mean == [1.5, 4.0, None, 5.0]
    assert n_defined == [2, 1, 0, 3]
    assert n_days == [2, 3] * 2


# --- lead days -------------------------------------------------------------------------

def test_lead_days_counts_fastest_growth_wins():
    a = [TrendSeries("a", np.array([0.0, 0.1, 0.4, 0.4]), 10)]
    b = [TrendSeries("b", np.array([0.0, 0.1, 0.1, 0.4]), 10)]
    out = lead_days(a, b)
    # day1 tie (inf vs inf), day2 a wins (3.0 vs 0), day3 b wins (0 vs 3.0)
    assert out == LeadDays(a_leads=1, b_leads=1, ties=1)
    assert out.defined_days == 3


def test_lead_days_excludes_day_zero_and_requires_series():
    a = [TrendSeries("a", np.array([0.5, 0.5]), 5)]
    out = lead_days(a, a)
    assert out.defined_days == 1 and out.ties == 1
    with pytest.raises(AnalyticsError):
        lead_days([], a)


# --- spearman --------------------------------------------------------------------------

def test_spearman_with_ties_matches_rank_then_pearson():
    xs = [1.0, 2.0, 2.0, 4.0]
    ys = [1.0, 3.0, 2.0, 4.0]
    assert spearman(xs, ys) == pytest.approx(spearman_rank_then_pearson(xs, ys), abs=1e-12)
    # ranks (1, 2.5, 2.5, 4) vs (1, 3, 2, 4): rho = 1.125 / sqrt(1.125 * 1.25)
    assert spearman(xs, ys) == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40)
    base = spearman(xs, ys)
    assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
    assert spearman(xs ** 3, ys) == pytest.approx(base, abs=1e-12)
    assert spearman(2 * xs + 7, ys) == pytest.approx(base, abs=1e-12)


def test_average_ranks_equal_scipy_rankdata_with_ties():
    rankdata = pytest.importorskip("scipy.stats").rankdata
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 45))
        block = rng.choice([0.0, 1.0, 2.5, -3.0], size=(n, 9)) * rng.choice([0, 1], size=(1, 9))
        block[:, 0] = rng.normal(size=n)
        assert np.array_equal(average_ranks(block), rankdata(block, axis=0))
        assert np.array_equal(average_ranks(block[:, 1]), rankdata(block[:, 1]))
    with_nan = np.array([[1.0, 2.0], [np.nan, 2.0], [0.5, 1.0]])
    ranks = average_ranks(with_nan)
    assert np.isnan(ranks[:, 0]).all()
    assert np.array_equal(ranks[:, 1], [2.5, 2.5, 1.0])


def test_spearman_error_cases():
    with pytest.raises(AnalyticsError, match="constant"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(AnalyticsError, match="two observations"):
        spearman([1.0], [2.0])
    with pytest.raises(AnalyticsError, match="equally long"):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


# --- trends over a real dataset -----------------------------------------------------------

def test_group_trend_weighted_mean_reconstructs_national(small_world, timeline_small, qualified_small):
    _, dataset, _ = small_world
    trends = group_trend(timeline_small, dataset, "gender", cohort_ids=qualified_small)
    nat = national_percentage(timeline_small, dataset, cohort_ids=qualified_small)
    total = sum(t.size for t in trends)
    assert total == len(qualified_small)
    mix = sum(t.values * t.size for t in trends) / total
    assert np.allclose(mix, nat, atol=1e-12)


def test_group_trend_errors(small_world, timeline_small):
    _, dataset, _ = small_world
    with pytest.raises(AnalyticsError, match="unknown grouping"):
        group_trend(timeline_small, dataset, "star_sign")
    with pytest.raises(CohortError):
        group_trend(timeline_small, dataset, "gender", cohort_ids=np.empty(0, dtype=np.uint64))


def test_province_percentages_monotone_and_bounded(small_world, timeline_small):
    _, dataset, _ = small_world
    uniq, pct = province_percentages(timeline_small, dataset)
    assert pct.shape == (len(uniq), dataset.calendar.n_days)
    assert np.all(pct >= 0) and np.all(pct <= 1)
    assert np.all(np.diff(pct, axis=1) >= 0)  # cumulative percentages never fall


# --- geographic correlation ------------------------------------------------------------------

def geo_dataset(gdp_by_city=(1.0, 2.0, 3.0), tightness=0.5, cases_by_city=None):
    regions = make_regions(*(
        make_region(
            c, province_id=c, distance=0.0 if c == 0 else 100.0 * c, n_days=5,
            gdp=gdp, cultural_tightness=tightness,
            **({} if cases_by_city is None else {"daily_confirmed_cases": cases_by_city[c]}),
        )
        for c, gdp in enumerate(gdp_by_city)
    ))
    home_cities = [c for c in range(len(gdp_by_city)) for _ in range(4)]
    population = make_population(range(1, len(home_cities) + 1), home_cities=home_cities)
    return Dataset(population, regions, make_addresses([]), EventLog.empty(), Calendar(0, 5))


def test_geo_correlation_perfect_when_factor_ranks_match():
    ds = geo_dataset()
    # 1, 2, 3 aware in cities 0, 1, 2: ranks match gdp = 1 < 2 < 3 every day
    entries = {}
    iid = 1
    for c in range(3):
        for k in range(4):
            if k <= c:
                entries[iid] = 0
            iid += 1
    rho = geo_correlation_series(ds, tl(entries), "gdp")
    assert np.allclose(rho, 1.0)


def test_geo_correlation_constant_factor_is_nan():
    ds = geo_dataset(gdp_by_city=(5.0, 5.0, 5.0))
    rho = geo_correlation_series(ds, tl({1: 0, 5: 0, 9: 0, 10: 0}), "gdp")
    assert np.isnan(rho).all()


def test_geo_correlation_region_without_cases_counts_zero():
    # city 0 has no case counts; cities 1 and 2 count 1 and 2 cases a day
    ds = geo_dataset(cases_by_city=[(), (1,) * 5, (2,) * 5])
    assert validate_dataset(ds) == []
    fac = analytics._unit_factor(ds, "confirmed_cases", np.array([0, 1, 2]), "city", 5)
    assert fac.tolist() == [[0.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0]]
    # 1, 2, 3 aware in cities 0, 1, 2: ranks match the cases every day
    timeline = tl({1: 0, 5: 0, 6: 0, 9: 0, 10: 0, 11: 0})
    rho = geo_correlation_series(ds, timeline, "confirmed_cases", level="city")
    assert np.allclose(rho, 1.0)


def test_geo_correlation_needs_two_units():
    ds = geo_dataset(gdp_by_city=(2.0,))
    rho = geo_correlation_series(ds, tl({1: 0}), "gdp")
    assert np.isnan(rho).all()
    with pytest.raises(AnalyticsError, match="unknown factor"):
        geo_correlation_series(ds, tl({1: 0}), "altitude")


def test_geo_correlation_equals_per_day_rankdata_reference(
    small_world, timeline_small, qualified_small
):
    rankdata = pytest.importorskip("scipy.stats").rankdata
    _, ds, _ = small_world
    D = ds.calendar.n_days
    rows = ds.population.rows_of(qualified_small)
    unit_of = {"city": ds.population.home_city, "province": ds.province_of_individuals()}
    for level, units in unit_of.items():
        unit_ids, codes = np.unique(units[rows], return_inverse=True)
        pct, _ = analytics._group_percentages(timeline_small, ds, codes, len(unit_ids), rows)
        for factor in GEO_FACTORS:
            fac = analytics._unit_factor(ds, factor, unit_ids, level, D)
            want = np.full(D, np.nan)
            for d in range(D):
                if np.ptp(fac[:, d]) > 0 and np.ptp(pct[:, d]) > 0:
                    want[d] = np.corrcoef(rankdata(fac[:, d]), rankdata(pct[:, d]))[0, 1]
            got = geo_correlation_series(
                ds, timeline_small, factor, level=level, cohort_ids=qualified_small
            )
            assert np.array_equal(got, want, equal_nan=True), (level, factor)
            assert not np.isnan(got).all(), (level, factor)


# --- event marks and formatting -----------------------------------------------------------------

def test_default_event_marks_clip_to_window():
    cal = Calendar.from_dates("2019-12-01", "2020-02-26")
    marks = default_event_marks(cal)
    assert len(marks) == 11
    assert all(cal.day_of(m.timestamp) >= 0 for m in marks)
    first = marks[0]
    assert first.label == "retrospective_first_case"
    assert first.timestamp == cal.day_start_ts(7) + 43200  # local noon
    short = Calendar.from_dates("2020-01-01", "2020-01-31")
    assert len(default_event_marks(short)) == 7


def test_format_value_sentinels():
    assert format_value(None) == "NA"
    assert format_value(float("nan")) == "NA"
    assert format_value(float("inf")) == "INF"
    assert format_value(float("-inf")) == "-INF"
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.25) == "0.25"
    assert format_value("Peak") == "Peak"


def test_write_tsv_formats_every_cell_as_format_value_does(tmp_path):
    floats = [
        0.0, -0.0, 0.25, 1 / 3, -2 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
        1234567891.5, 12345678912.0, 0.1 + 0.2, math.pi * 1e12, -math.e * 1e-12,
        math.nan, math.inf, -math.inf,
    ]
    rng = np.random.default_rng(3)
    floats += (rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)).tolist()
    cells = [None, True, False, np.bool_(True), np.bool_(False), "Peak", "", "a b"]
    cells += [0, -7, 2**63, 2**70, np.int32(-5), np.int64(2**63 - 1), np.int64(-(2**63))]
    cells += floats + [np.float64(f) for f in floats]
    cells += [np.float32(f) for f in floats if not 1e38 < abs(f) < math.inf]
    path = tmp_path / "cells.tsv"
    # the cells as a list column, beside the floats as an array column
    column = np.resize(np.array(floats), len(cells))
    write_tsv(path, (("c", str), ("f", parse_number)), [cells, column])
    want = "c\tf\n" + "".join(
        f"{format_value(c)}\t{format_value(f)}\n" for c, f in zip(cells, column.tolist())
    )
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == want
    write_tsv(path, (("a", str), ("b", str)), [[], ()])
    assert path.read_text() == "a\tb\n"
    # one column per declared name, all of one length
    for columns in ([[]], [[1], [1, 2]]):
        with pytest.raises(ValueError, match="expected 2 columns of one length"):
            write_tsv(path, (("a", str), ("b", str)), columns)


def test_write_tsv_round_trip(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(path, (("a", parse_number), ("b", str)), [[1, float("inf")], (None, "x")])
    assert path.read_text() == "a\tb\n1\tNA\nINF\tx\n"


LABELS_HEAD = b"individual_id\tfirst_aware_ts\tfirst_aware_day\tfirst_aware_date\n"
GEO_HEAD = b"level\tfactor\tday\tdate\trho\n"
# (table, file bytes)
TSV_FILE_SHAPES = [
    pytest.param("labels.tsv", LABELS_HEAD, id="labels-header-only"),
    pytest.param("labels.tsv", LABELS_HEAD[:-1], id="labels-header-no-newline"),
    pytest.param(
        "labels.tsv", LABELS_HEAD + b"1\t100\t0\t2020-01-01\n2\t-5\t-1\t2019-12-31\n",
        id="labels-as-written",
    ),
    pytest.param(
        "labels.tsv", LABELS_HEAD + b"1\t100\t0\td\n2\t5\t0\td", id="no-final-newline"
    ),
    pytest.param("labels.tsv", LABELS_HEAD + b"007\t-007\t-0\td\n", id="leading-zeros"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\t\xff\x00 x\n", id="any-date-bytes"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\t\n", id="empty-date"),
    pytest.param(
        "labels.tsv",
        LABELS_HEAD + f"{10**19 - 1}\t{2**63 - 1}\t0\td\n1\t{1 - 2**63}\t0\td\n".encode(),
        id="widest-array-cells",
    ),
    pytest.param(
        "labels.tsv", LABELS_HEAD + f"1\t5\t{10**30}\td\n".encode(), id="long-day"
    ),
    pytest.param(
        "labels.tsv", LABELS_HEAD + f"{2**64 - 1}\t{-(2**63)}\t0\td\n".encode(),
        id="limits-of-the-types",
    ),
    pytest.param("labels.tsv", LABELS_HEAD + f"{2**64}\t0\t0\td\n".encode(), id="id-2**64"),
    pytest.param("labels.tsv", LABELS_HEAD + f"1\t{2**63}\t0\td\n".encode(), id="ts-2**63"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t+5\t 0\td\n", id="signs-and-spaces"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5_0\t0\td\n", id="underscore"),
    pytest.param("labels.tsv", LABELS_HEAD + b"-1\t5\t0\td\n", id="negative-id"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t-\t0\td\n", id="bare-minus"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t-\td\n", id="bare-minus-day"),
    pytest.param("labels.tsv", LABELS_HEAD + b"\t5\t0\td\n", id="empty-id"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\xff\t5\t0\td\n", id="not-utf8-id"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\x00\t5\t0\td\n", id="nul-in-id"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\td\n\n", id="blank-last-line"),
    pytest.param("labels.tsv", LABELS_HEAD + b"\n1\t5\t0\td\n", id="blank-line"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\n", id="three-fields"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\td\te\n", id="five-fields"),
    # six tabs in two lines, as two lines of four fields would hold
    pytest.param(
        "labels.tsv", LABELS_HEAD + b"1\t5\t0\td\te\n2\t5\t0\n",
        id="tabs-balanced-across-lines",
    ),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\td\r\n2\t6\t0\td\r\n", id="crlf"),
    pytest.param("labels.tsv", LABELS_HEAD + b"1\t5\t0\td\r2\tx\t0\td\r", id="cr-bad-ts"),
    pytest.param("labels.tsv", b"", id="labels-empty"),
    pytest.param("labels.tsv", b"\xef\xbb\xbf" + LABELS_HEAD, id="bom"),
    pytest.param("labels.tsv", LABELS_HEAD.replace(b"ts", b"t"), id="wrong-header"),
    pytest.param("qualified.txt", b"", id="qualified-empty"),
    pytest.param("qualified.txt", b"3\n1\n2", id="qualified-as-written"),
    pytest.param("qualified.txt", b"\n", id="qualified-blank-line"),
    pytest.param("qualified.txt", b"1\t2\n", id="qualified-two-fields"),
    pytest.param("qualified.txt", b"1\n-5\n", id="qualified-negative"),
    pytest.param("qualified.txt", "1\n\u0663\n".encode(), id="qualified-arabic-digit"),
    pytest.param("geo_correlations.tsv", GEO_HEAD + b"city\tgdp\t0\td\t0.25\n", id="rho-as-written"),
    *(
        pytest.param("geo_correlations.tsv", GEO_HEAD + b"city\tgdp\t0\td\t" + rho + b"\n", id=f"rho-{name}")
        for name, rho in (
            ("NA", b"NA"), ("INF", b"INF"), ("minus-INF", b"-INF"), ("nan", b"nan"),
            ("1e400", b"1e400"), ("leading-space", b" 1.5"), ("underscore", b"1_0.5"),
            ("infinity", b"infinity"), ("x", b"x"), ("1-2", b"1-2"), ("empty", b""),
            ("exponent", b"-2.718281828e-12"), ("minus-zero", b"-0"),
        )
    ),
    pytest.param(
        "geo_correlations.tsv", GEO_HEAD + b"city\tgdp\t0\td\tNA\r\ncity\tgdp\t1\td\t-1.5\r",
        id="rho-cr-ended",
    ),
    pytest.param(
        "geo_correlations.tsv", GEO_HEAD + b"city\tgdp\t0\td\t0.5\ncity\tgdp\tNA\td\t1\n",
        id="day-NA",
    ),
]


@pytest.mark.parametrize("table, data", TSV_FILE_SHAPES)
def test_read_tsv_columns_matches_a_line_by_line_scan(tmp_path, monkeypatch, table, data):
    assert_tsv_reads_as_scanned(tmp_path, monkeypatch, table, data)


# a read of one, two or seven bytes: every line, "\r\n" pair and header spans reads
@pytest.mark.parametrize("chunk", [1, 2, 7], ids=lambda n: f"chunk-{n}")
@pytest.mark.parametrize("table, data", TSV_FILE_SHAPES)
def test_read_tsv_in_reads_of_a_few_bytes_matches_a_line_by_line_scan(
    tmp_path, monkeypatch, table, data, chunk
):
    monkeypatch.setattr(files, "READ_CHUNK_BYTES", chunk)
    assert_tsv_reads_as_scanned(tmp_path, monkeypatch, table, data)


def test_read_tsv_holds_its_columns_and_a_read(tmp_path):
    # 200k rows of labels.tsv (7.9 MB): 18.2 MB of columns and date texts;
    # the whole-file parse peaked at 3.6 times that
    rng = np.random.default_rng(27)
    n = 200_000
    ts = rng.integers(-10**7, 10**7, size=n) + 1_577_808_000
    day = ts // 86_400 - 18_262
    dates = [f"2020-{1 + d % 12:02d}-{1 + d % 28:02d}" for d in day.tolist()]
    ids = rng.integers(10**12, 2 * 10**12, size=n).astype(np.uint64)
    path = tmp_path / "labels.tsv"
    write_tsv(path, TABLES["labels.tsv"], [ids, ts, day, dates])
    out = []
    peak = traced_peak(lambda: out.append(read_tsv(path, TABLES["labels.tsv"])))
    for column, want in zip(out[0], (ids, ts, day, dates)):
        assert column.tolist() == list(want)
    held = sum(c.nbytes for c in out[0]) + sum(map(sys.getsizeof, out[0][3].tolist()))
    assert peak <= 2 * held + 4 * files.READ_CHUNK_BYTES


def assert_tsv_reads_as_scanned(tmp_path, monkeypatch, table, data):
    """read_tsv of the bytes ``data`` of ``table`` gives the columns, or
    raises the error, of tsv_file_scan, and cuts each chunk it reads into
    cells once."""
    columns = TABLES[table]
    header = table != "qualified.txt"
    path = tmp_path / table
    path.write_bytes(data)
    calls, chunks = [], []
    byte_lines, line_chunks = files.ByteLines, files.line_chunks

    def counted_chunks(path):
        for chunk in line_chunks(path):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(files, "ByteLines", lambda *a, **k: calls.append(a) or byte_lines(*a, **k))
    monkeypatch.setattr(files, "line_chunks", counted_chunks)
    want = tsv_file_scan(data, columns, header)
    if isinstance(want, tuple):
        with pytest.raises(ParseError) as exc:
            read_tsv(path, columns, header=header)
        assert str(exc.value) == f"{path}:{want[0]}: {want[1]}"
    else:
        got = read_tsv(path, columns, header=header)
        assert len(got) == len(columns)
        for (_, parse), column, cells in zip(columns, got, want):
            if parse in (np.uint64, np.int64):
                assert column.dtype == parse
                assert column.tolist() == [int(c) for c in cells]
            else:
                assert column.dtype == object
                # repr tells nan, -0.0 and 1.0 from 1 apart
                assert list(map(repr, column.tolist())) == list(map(repr, cells))
    assert len(calls) == len(chunks)  # no chunk is cut into cells a second time
