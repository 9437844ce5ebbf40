"""Release gate: one test per shipped guarantee.

Each test prints a single [criterion N] PASS line with the measured
quantities (run with -s to see them alongside the pytest verdicts).
Failures surface as ordinary assertion errors.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

from awareflow import cli
from awareflow.analytics import (
    cross_group_ratio,
    default_event_marks,
    national_percentage,
    neighborhood_awareness_ratio,
    province_percentages,
    segment_phases,
    spearman,
)
from awareflow.awareness import (
    AwarenessTimeline,
    filter_qualified,
    history_window,
    label_awareness,
    match_mask,
)
from awareflow.cli import SAMPLE_STREAM, RunConfig
from awareflow.domain import Calendar
from awareflow.kernels import counter_uniforms
from awareflow.netinfer import build_from_groups, infer_networks
from awareflow.presets import load_preset
from awareflow.regress import (
    checkpoint_schedule,
    fit_logistic,
    log_likelihood,
    run_time_evolving,
    score_vector,
)
from awareflow.simulate import generate

from oracles import (
    maximize_loglik_coordinate,
    neighborhood_ratio_brute,
    phase_scan,
    spearman_rank_then_pearson,
    two_province_fixture,
)


@pytest.fixture(scope="module")
def city_world(matcher):
    """One 10k-individual noise-free world shared by several criteria,
    with the wall time of the simulate -> label -> infer cycle."""
    preset = load_preset("fig1a")
    sim = RunConfig.from_dict(preset).simulator
    t0 = time.perf_counter()
    dataset, truth = generate(sim, preset["seed"])
    timeline = label_awareness(dataset.events, matcher)
    graph = infer_networks(dataset.addresses, dataset.population.ids)
    elapsed = time.perf_counter() - t0
    window = history_window(dataset.calendar, load_preset("fig1a")["history_months"])
    qualified = filter_qualified(dataset.events, window)
    return {
        "dataset": dataset,
        "truth": truth,
        "timeline": timeline,
        "graph": graph,
        "qualified": qualified,
        "elapsed": elapsed,
    }


def test_criterion_1_noise_free_recovery(city_world):
    dataset = city_world["dataset"]
    truth = city_world["truth"]
    timeline = city_world["timeline"]
    cal = dataset.calendar

    assert np.array_equal(timeline.ids, truth.timeline.ids)
    # labels fire on the matching query, never before the underlying moment,
    # and always on the same day
    assert np.all(timeline.first_aware >= truth.timeline.first_aware)
    assert np.array_equal(
        cal.day_of(timeline.first_aware), cal.day_of(truth.timeline.first_aware)
    )
    assert city_world["graph"] == truth.graph
    assert city_world["elapsed"] < 30.0
    print(
        f"[criterion 1] PASS - 10k world: {len(timeline)} aware days exact, "
        f"graph exact, cycle {city_world['elapsed']:.1f}s < 30s"
    )


def test_criterion_2_phase_boundaries(city_world):
    # hand fixture: boundaries equal the day-by-day threshold scan exactly
    prov, nat, expected = two_province_fixture()
    seg = segment_phases(np.array(prov), np.array(nat))
    got = {p.name: (p.start_day, p.end_day) for p in seg.phases}
    assert got == expected == phase_scan(prov, nat)
    assert seg.complete

    # full simulated run: all five phases, in order, tiling the window
    dataset = city_world["dataset"]
    qualified = city_world["qualified"]
    tlq = city_world["timeline"].restrict(qualified)
    _, prov_pct = province_percentages(tlq, dataset, qualified)
    nat_pct = national_percentage(tlq, dataset, qualified)
    sim_seg = segment_phases(prov_pct, nat_pct)
    assert [p.name for p in sim_seg.phases] == [
        "Normal", "Beginning", "Growth", "Peak", "PostPeak",
    ]
    assert sim_seg.complete
    print(
        "[criterion 2] PASS - fixture boundaries exact; simulated run shows "
        "all five phases in order"
    )


def test_criterion_3_estimator_equivalences():
    rng = np.random.default_rng(2024)

    # rank correlation vs rank-then-Pearson on 1000 vectors (ties included)
    worst_rho = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        while True:
            x = rng.choice([0, 1, 2, 5], size=n) + rng.random(n) * rng.choice([0, 1])
            y = rng.normal(size=n).round(int(rng.integers(0, 3)))
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                break
        diff = abs(spearman(x, y) - spearman_rank_then_pearson(x, y))
        worst_rho = max(worst_rho, diff)
    assert worst_rho <= 1e-12

    # neighborhood ratio vs brute force on 500 random graphs of <= 20 nodes
    for trial in range(500):
        n = int(rng.integers(2, 21))
        ids = np.arange(1, n + 1, dtype=np.uint64)
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < rng.uniform(0.05, 0.6)
        edges = [p for p, t in zip(possible, take) if t]
        g = build_from_groups(ids, {"family": [np.array(e) for e in edges]})
        aware_rows = rng.random(n) < rng.uniform(0.1, 0.9)
        timeline = AwarenessTimeline(
            ids[aware_rows], np.full(int(aware_rows.sum()), 10, dtype=np.int64)
        )
        (got,) = neighborhood_awareness_ratio(g, "family", timeline, [50])
        want, want_num, want_den = neighborhood_ratio_brute(n, edges, aware_rows)
        if want is None:
            assert got.value is None
        elif want == math.inf:
            assert got.value == math.inf
        else:
            assert got.value == pytest.approx(want, abs=1e-12)
            assert got.numerator == pytest.approx(want_num, abs=1e-12)
            assert got.denominator == pytest.approx(want_den, abs=1e-12)

    # intercept-only logistic fit recovers the exact log odds
    fit = fit_logistic(np.ones((10, 1)), np.array([1.0] * 3 + [0.0] * 7))
    assert abs(fit.coef[0] - math.log(3 / 7)) < 1e-9

    # full fits vs a derivative-free likelihood maximizer on 100 problems
    worst_beta = 0.0
    done = 0
    while done < 100:
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        eta = X @ rng.normal(scale=0.8, size=3)
        y = (rng.random(50) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        if y.min() == y.max():
            continue
        fit = fit_logistic(X, y)
        if fit.ridge_used:  # the reference maximizes the unpenalized likelihood
            continue
        ref = maximize_loglik_coordinate(X, y)
        worst_beta = max(worst_beta, float(np.max(np.abs(fit.coef - ref))))
        done += 1
    assert worst_beta <= 1e-6
    print(
        f"[criterion 3] PASS - spearman gap {worst_rho:.1e} <= 1e-12 (1000 vectors); "
        f"500 neighborhood graphs exact; intercept-only exact; "
        f"100 logistic fits within {worst_beta:.1e} <= 1e-6 of search reference"
    )


def test_criterion_4_sign_recovery_across_seeds(matcher):
    preset = load_preset("recovery")
    reg = preset["regression"]
    targets = (
        ("education_postgraduate", 1),
        ("distance_std", -1),
        ("family_aware_frac", 1),
    )

    def recovered(seed):
        dataset, _ = generate(RunConfig.from_dict(preset).simulator, seed)
        timeline = label_awareness(dataset.events, matcher)
        window = history_window(dataset.calendar, preset["history_months"])
        qualified = filter_qualified(dataset.events, window)
        graph = infer_networks(dataset.addresses, dataset.population.ids)
        tlq = timeline.restrict(qualified)
        schedule = checkpoint_schedule(
            tlq, qualified, [], pct_min=reg["pct_min"], pct_max=reg["pct_max"]
        )
        u = counter_uniforms(seed, SAMPLE_STREAM, qualified, 0)
        order = np.lexsort((qualified, u))
        sample = np.sort(qualified[order[: reg["sample_size"]]])
        models = run_time_evolving(dataset, graph, tlq, schedule, sample)
        ok = [m for m in models if m.result is not None]
        if not ok:
            return False
        names = ok[0].result.names
        for feature, want_sign in targets:
            j = names.index(feature)
            hits = sum(
                1
                for m in ok
                if m.result.p[j] < 0.05 and np.sign(m.result.coef[j]) == want_sign
            )
            if hits * 2 <= len(ok):
                return False
        return True

    n_runs = 20
    wins = sum(1 for s in range(n_runs) if recovered(99 + s))
    assert wins >= 18
    print(
        f"[criterion 4] PASS - education(+)/distance(-)/family(+) recovered with "
        f"p<0.05 majorities at the 20-60% checkpoints in {wins}/{n_runs} runs (needs >= 18)"
    )


def test_criterion_5_checkpoint_density(city_world):
    # simulated run: awareness passes 95%, canonical 11 events -> 95 + 11
    dataset = city_world["dataset"]
    qualified = city_world["qualified"]
    tlq = city_world["timeline"].restrict(qualified)
    marks = RunConfig.from_dict(load_preset("fig1a")).event_marks(dataset.calendar)
    assert len(marks) == 11
    schedule = checkpoint_schedule(tlq, qualified, marks)
    assert len(schedule) == 106
    assert schedule.missing == []

    # synthetic cohort built to land exactly on 95%
    cal = Calendar.from_dates("2019-12-01", "2020-02-26")
    cohort = np.arange(1, 201, dtype=np.uint64)
    ts = np.linspace(cal.day_start_ts(1), cal.day_start_ts(80), 190).astype(np.int64)
    timeline = AwarenessTimeline(cohort[:190], ts)
    synthetic = checkpoint_schedule(timeline, cohort, default_event_marks(cal))
    assert len(synthetic) == 95 + 11 == 106
    print("[criterion 5] PASS - 106 checkpoints (95 percentages + 11 events), none missing")


def test_criterion_6_invariants(small_world, timeline_small):
    _, dataset, _ = small_world
    ids = dataset.population.ids
    cal = dataset.calendar
    rng = np.random.default_rng(66)

    lo, hi = cal.day_start_ts(0), cal.day_start_ts(cal.n_days - 1) + 86400

    # once aware, always aware
    for _ in range(200):
        t1, t2 = np.sort(rng.integers(lo, hi, size=2))
        m1 = timeline_small.aware_mask_at(t1, ids)
        m2 = timeline_small.aware_mask_at(t2, ids)
        assert not np.any(m1 & ~m2)

    # swapping the groups inverts the ratio
    checked = 0
    while checked < 50:
        rows = rng.permutation(len(ids))
        a, b = ids[rows[:40]], ids[rows[40:80]]
        t = int(rng.integers(lo, hi))
        r_ab = cross_group_ratio(timeline_small, a, b, t)
        r_ba = cross_group_ratio(timeline_small, b, a, t)
        if r_ab is None or r_ba is None or not (0 < r_ab < math.inf):
            continue
        assert r_ab * r_ba == pytest.approx(1.0, rel=1e-12)
        checked += 1

    # rank correlation ignores monotone transforms
    for _ in range(100):
        n = int(rng.integers(4, 30))
        x, y = rng.normal(size=n), rng.normal(size=n)
        base = spearman(x, y)
        assert abs(spearman(np.exp(x), y**3) - base) <= 1e-12

    # reported odds ratios are exactly exp(coefficient)
    # and the analytic score matches finite differences
    for _ in range(10):
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = (rng.random(60) < 0.5).astype(np.float64)
        if y.min() == y.max():
            continue
        fit = fit_logistic(X, y)
        assert np.allclose(fit.odds_ratio, np.exp(fit.coef), rtol=1e-12)
        beta = rng.normal(scale=0.5, size=3)
        got = score_vector(X, y, beta)
        eps = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            fd = (log_likelihood(X, y, beta + step) - log_likelihood(X, y, beta - step)) / (2 * eps)
            assert abs(got[j] - fd) <= 1e-6
    print(
        "[criterion 6] PASS - label monotonicity, ratio reciprocity, rank "
        "transform invariance, OR=exp(coef), score vs finite differences"
    )


def test_criterion_7_performance(tmp_path, city_world):
    out = tmp_path / "perf"
    t0 = time.perf_counter()
    rc = cli.main(["all", "--config", "perf", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 120.0

    events = city_world["dataset"].events
    from awareflow.awareness import compile_query_set
    from awareflow.files import load_patterns
    from awareflow.presets import default_patterns_path

    query_set = compile_query_set(load_patterns(default_patterns_path()))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        match_mask(events, query_set)
        best = min(best, time.perf_counter() - t0)
    throughput = len(events) / best
    assert throughput >= 1_000_000
    print(
        f"[criterion 7] PASS - full pipeline on the 100k-individual preset in "
        f"{elapsed:.1f}s < 120s; matching {throughput/1e6:.1f}M events/s >= 1M"
    )


def test_criterion_8_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["all", "--config", "small", "--out", str(out)]) == 0
        outs.append(str(out))
    names_a = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(outs[0], "manifest_*.json"))
    )
    names_b = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(outs[1], "manifest_*.json"))
    )
    assert names_a == names_b and len(names_a) == 9
    for name in names_a:
        with open(os.path.join(outs[0], name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, name
    print(
        f"[criterion 8] PASS - two same-seed runs produced byte-identical "
        f"manifests ({len(names_a)} files)"
    )
