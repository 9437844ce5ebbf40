"""Design matrix assembly, logistic fitting, checkpoint scheduling, and
phase profiles."""

import math
import threading

import numpy as np
import pytest

from awareflow import kernels
from awareflow.analytics import EventMark, Phase, PhaseSegmentation
from awareflow.awareness import AwarenessTimeline
from awareflow.domain import Calendar
from awareflow.errors import ConfigError, DegenerateOutcomeError
from awareflow.netinfer import LAYERS
from awareflow.regress import (
    Checkpoint,
    CheckpointModel,
    DesignBuilder,
    FeatureSpec,
    FitConfig,
    FitResult,
    Schedule,
    checkpoint_columns,
    checkpoint_schedule,
    expit,
    fit_logistic,
    log_likelihood,
    normal_cdf,
    regression_table,
    run_time_evolving,
    score_vector,
    typical_profile,
)

from oracles import checkpoint_times_scan, fd_gradient, maximize_loglik_coordinate


def tl(entries):
    ids = np.array(sorted(entries), dtype=np.uint64)
    ts = np.array([entries[int(i)] for i in ids], dtype=np.int64)
    return AwarenessTimeline(ids, ts)


# --- fitting ------------------------------------------------------------------

def ulps_apart(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    return np.abs(got[ok] - want[ok]) / np.spacing(np.abs(want[ok]))


def test_expit_matches_scipy_within_two_ulp():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(-800.0, 800.0, 400_001), [np.nan, -np.inf, np.inf, -0.0]])
    got = expit(x)
    assert ulps_apart(got, special.expit(x)).max() <= 2
    assert got[0] == 0.0 and got[400_000] == 1.0


def test_normal_cdf_matches_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    a = np.concatenate([np.linspace(-37.5, 37.5, 150_001), [np.nan, -np.inf, np.inf]])
    got = np.array([normal_cdf(v) for v in a.tolist()])
    # both round a/sqrt(2) before erfc, an error that grows like a**2 ulp in
    # the tail, and scipy's erfc loses a few ulp to 1 - erf just above 1
    ok = ~np.isnan(a)
    assert (ulps_apart(got, special.ndtr(a)) <= 10 + a[ok] ** 2).all()
    assert [normal_cdf(-800.0), normal_cdf(800.0)] == [0.0, 1.0]


def test_intercept_only_recovers_log_odds():
    X = np.ones((10, 1))
    y = np.array([1.0] * 3 + [0.0] * 7)
    fit = fit_logistic(X, y)
    assert fit.converged and not fit.ridge_used
    assert abs(fit.coef[0] - math.log(3 / 7)) < 1e-9
    assert fit.odds_ratio[0] == pytest.approx(3 / 7, rel=1e-9)


def test_degenerate_outcomes_refused():
    X = np.ones((5, 1))
    with pytest.raises(DegenerateOutcomeError, match="outcome is all 0s"):
        fit_logistic(X, np.zeros(5))
    with pytest.raises(DegenerateOutcomeError, match="outcome is all 1s"):
        fit_logistic(X, np.ones(5))
    with pytest.raises(DegenerateOutcomeError, match="binary 0/1"):
        fit_logistic(X, np.array([0.0, 1.0, 0.5, 0.0, 1.0]))
    with pytest.raises(DegenerateOutcomeError, match="binary 0/1"):
        fit_logistic(X, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))
    with pytest.raises(DegenerateOutcomeError, match="outcome is empty"):
        fit_logistic(np.ones((0, 1)), np.zeros(0))


def test_perfect_separation_falls_back_to_ridge():
    x = np.linspace(-2, 2, 20)
    X = np.column_stack([np.ones(20), x])
    y = (x > 0).astype(np.float64)
    fit = fit_logistic(X, y)
    assert fit.ridge_used
    assert fit.converged
    assert np.all(np.isfinite(fit.coef))
    assert np.all(np.isfinite(fit.se))
    assert fit.coef[1] > 0


def test_odds_ratio_is_exp_coef():
    rng = np.random.default_rng(6)
    X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
    y = (rng.random(80) < 0.4).astype(np.float64)
    fit = fit_logistic(X, y)
    assert np.allclose(fit.odds_ratio, np.exp(fit.coef), rtol=1e-12)


def test_score_vanishes_at_plain_mle():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(120), rng.normal(size=(120, 3))])
    eta = X @ np.array([-0.4, 0.8, -0.5, 0.2])
    y = (rng.random(120) < 1 / (1 + np.exp(-eta))).astype(np.float64)
    fit = fit_logistic(X, y)
    assert not fit.ridge_used
    assert np.max(np.abs(score_vector(X, y, fit.coef))) < 1e-8


def test_score_vector_matches_finite_differences():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    y = (rng.random(40) < 0.5).astype(np.float64)
    for _ in range(5):
        beta = rng.normal(scale=0.7, size=3)
        got = score_vector(X, y, beta)
        want = fd_gradient(lambda b: log_likelihood(X, y, b), beta)
        assert np.max(np.abs(got - want)) < 1e-6


def test_fit_matches_likelihood_search_oracle():
    rng = np.random.default_rng(9)
    done = 0
    while done < 10:
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        eta = X @ rng.normal(scale=0.8, size=3)
        y = (rng.random(50) < 1 / (1 + np.exp(-eta))).astype(np.float64)
        if y.min() == y.max():
            continue
        fit = fit_logistic(X, y)
        if fit.ridge_used:
            continue
        ref = maximize_loglik_coordinate(X, y)
        assert np.max(np.abs(fit.coef - ref)) < 1e-6
        done += 1


def test_rescaling_a_column_rescales_its_coefficient():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
    eta = X @ np.array([0.2, 0.7, -0.4])
    y = (rng.random(100) < 1 / (1 + np.exp(-eta))).astype(np.float64)
    base = fit_logistic(X, y)
    scaled = X.copy()
    scaled[:, 1] *= 10.0
    refit = fit_logistic(scaled, y)
    assert refit.coef[1] == pytest.approx(base.coef[1] / 10.0, rel=1e-7)
    assert refit.log_likelihood == pytest.approx(base.log_likelihood, abs=1e-9)


def test_fit_improves_on_null_likelihood():
    rng = np.random.default_rng(11)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    y = (X[:, 1] + rng.normal(size=60) > 0).astype(np.float64)
    fit = fit_logistic(X, y)
    assert fit.log_likelihood >= log_likelihood(X, y, np.zeros(2))
    assert fit.n_iter <= FitConfig().max_iter


# --- design matrix ---------------------------------------------------------------

def test_column_names_layout():
    names = FeatureSpec().column_names()
    assert names[0] == "intercept"
    assert names[1] == "gender_female"
    assert names[2] == "age_std"
    assert "education_bachelor" not in names  # reference level dropped
    assert "occupation_white_collar" not in names
    assert names[-6:] == [
        "family_aware_frac", "family_has_neighbors",
        "schoolmate_aware_frac", "schoolmate_has_neighbors",
        "workmate_aware_frac", "workmate_has_neighbors",
    ]
    assert len(names) == 21
    brackets = FeatureSpec(age_mode="brackets").column_names()
    assert "age_std" not in brackets
    assert {"age_under_18", "age_18_24", "age_50_plus"} <= set(brackets)
    assert "age_25_49" not in brackets


def test_feature_spec_validation():
    with pytest.raises(ConfigError, match="age_mode"):
        FeatureSpec(age_mode="spline").validate()


@pytest.fixture(scope="module")
def design_inputs(small_world, graph_small, timeline_small):
    _, dataset, _ = small_world
    cols = dataset.population
    rng = np.random.default_rng(100)
    sample = np.sort(rng.choice(cols.ids, size=150, replace=False))
    return dataset, graph_small, timeline_small, sample


def test_design_shapes_and_static_columns(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    t = dataset.calendar.day_start_ts(20)
    builder = DesignBuilder(dataset, graph, timeline, sample, [t])
    X, y = builder.at(0)
    names = builder.names
    assert X.shape == (150, len(names)) == (150, 21)
    assert np.all(X[:, 0] == 1.0)
    col = {n: j for j, n in enumerate(names)}
    age = X[:, col["age_std"]]
    assert age.mean() == pytest.approx(0.0, abs=1e-12)
    assert age.std() == pytest.approx(1.0, rel=1e-12)
    assert set(np.unique(X[:, col["gender_female"]])) <= {0.0, 1.0}
    # outcome is the aware flag of the sample at t
    cols = dataset.population
    rows = cols.rows_of(sample)
    want_y = (timeline.aligned(cols.ids)[rows] <= t).astype(np.float64)
    assert np.array_equal(y, want_y)
    assert 0 < y.sum() < len(y)


def test_exposure_fractions_computed_against_retained_only(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    t = dataset.calendar.day_start_ts(20)
    builder = DesignBuilder(dataset, graph, timeline, sample, [t])
    X, _ = builder.at(0)
    names = builder.names
    col = {n: j for j, n in enumerate(names)}
    cols = dataset.population
    sample_rows = cols.rows_of(sample)
    in_sample = np.zeros(cols.n, dtype=bool)
    in_sample[sample_rows] = True
    aware = timeline.aligned(cols.ids) <= t
    for layer in LAYERS:
        lyr = graph.layer(layer)
        for k in (0, 13, 77, 149):
            row = sample_rows[k]
            neigh = lyr.neighbors(row)
            retained = [v for v in neigh if not in_sample[v]]
            want_has = float(bool(retained))
            want_frac = (
                sum(bool(aware[v]) for v in retained) / len(retained)
                if retained
                else 0.0
            )
            assert X[k, col[f"{layer}_has_neighbors"]] == want_has
            assert X[k, col[f"{layer}_aware_frac"]] == pytest.approx(want_frac)


def test_design_builder_rejects_bad_samples(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    cols = dataset.population
    with pytest.raises(ConfigError, match="duplicate"):
        DesignBuilder(
            dataset, graph, timeline, np.array([sample[0], sample[0]], dtype=np.uint64), [0]
        )
    with pytest.raises(ConfigError, match="empty regression sample"):
        DesignBuilder(dataset, graph, timeline, np.empty(0, dtype=np.uint64), [0])
    with pytest.raises(ConfigError, match="sample covers the whole population"):
        DesignBuilder(dataset, graph, timeline, cols.ids, [0])


def test_design_builder_rejects_mismatched_graph(design_inputs, small_world):
    dataset, _, timeline, sample = design_inputs
    from awareflow.netinfer import build_from_groups

    other = build_from_groups(np.arange(1, 10, dtype=np.uint64), {})
    with pytest.raises(ConfigError, match="node universe"):
        DesignBuilder(dataset, other, timeline, sample, [0])


def test_design_at_each_time_equals_design_at_that_time_alone(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    cal = dataset.calendar
    # unsorted, with a tie, one time before the window and one after it
    times = [
        cal.day_start_ts(20), cal.day_start_ts(5), cal.day_start_ts(0) - 86400,
        cal.day_start_ts(20), cal.day_start_ts(12) + 43200, cal.day_start_ts(cal.n_days + 3),
    ] + [int(t) for t in cal.day_ends()]
    builder = DesignBuilder(dataset, graph, timeline, sample, times)
    for k, t in enumerate(times):
        X, y = builder.at(k)
        X1, y1 = DesignBuilder(dataset, graph, timeline, sample, [t]).at(0)
        assert np.array_equal(X, X1) and np.array_equal(y, y1), k


def test_design_builder_sweeps_once_over_times_asked_in_order(design_inputs, monkeypatch):
    dataset, graph, timeline, sample = design_inputs
    sweeps = []
    sweep = kernels.neighbor_count_sweep

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(kernels, "neighbor_count_sweep", counted)
    times = [int(t) for t in dataset.calendar.day_ends()]
    builder = DesignBuilder(dataset, graph, timeline, sample, times)
    designs = []
    for k in range(len(times)):
        X, y = builder.at(k)
        X2, y2 = builder.at(k)  # the same time again reads the same step
        assert np.array_equal(X, X2) and np.array_equal(y, y2)
        designs.append((X, y))
    assert len(sweeps) == len(LAYERS)
    # an earlier time starts the sweeps again
    X, y = builder.at(3)
    assert len(sweeps) == 2 * len(LAYERS)
    assert np.array_equal(X, designs[3][0]) and np.array_equal(y, designs[3][1])


# --- checkpoint schedule -----------------------------------------------------------

def test_schedule_against_exact_rational_scan():
    rng = np.random.default_rng(12)
    for n, n_aware in ((100, 50), (73, 73), (40, 9), (257, 181)):
        cohort = np.arange(1, n + 1, dtype=np.uint64)
        times = np.sort(rng.integers(0, 1_000_000, size=n_aware))
        timeline = tl({int(i): int(t) for i, t in zip(cohort[:n_aware], times)})
        schedule = checkpoint_schedule(timeline, cohort, events=[])
        want = checkpoint_times_scan(np.sort(timeline.first_aware), n, 1, 95)
        got = {
            int(c.trigger[4:]): c.time
            for c in schedule.entries
            if c.kind == "percentage"
        }
        assert got == want
        assert schedule.missing == [k for k in range(1, 96) if k not in want]


def test_schedule_half_aware_cohort():
    cohort = np.arange(1, 101, dtype=np.uint64)
    timeline = tl({int(i): int(i) for i in range(1, 51)})  # 50 aware at t=1..50
    schedule = checkpoint_schedule(timeline, cohort, events=[])
    triggers = [c.trigger for c in schedule.entries]
    assert triggers[0] == "pct_01" and triggers[-1] == "pct_50"
    assert len(triggers) == 50
    assert schedule.missing == list(range(51, 96))
    # with n=100, the k% crossing is the k-th awareness
    assert all(c.time == int(c.trigger[4:]) for c in schedule.entries)


def test_schedule_keeps_coinciding_event_separate():
    cohort = np.arange(1, 11, dtype=np.uint64)
    timeline = tl({int(i): 10 * int(i) for i in range(1, 11)})
    marks = [EventMark("briefing", 30)]
    schedule = checkpoint_schedule(timeline, cohort, events=marks, pct_min=10, pct_max=30)
    at_30 = [c for c in schedule.entries if c.time == 30]
    # pct_21..pct_30 all cross at the third awareness (t=30); every
    # duplicate is kept, and the event sorts first among the ties
    assert [c.kind for c in at_30] == ["event"] + ["percentage"] * 10
    assert at_30[0].trigger == "event_briefing"
    assert [c.trigger for c in at_30[1:]] == [f"pct_{k}" for k in range(21, 31)]
    times = [c.time for c in schedule.entries]
    assert times == sorted(times)


def test_schedule_empty_cohort_raises():
    with pytest.raises(DegenerateOutcomeError, match="empty cohort"):
        checkpoint_schedule(tl({}), np.empty(0, dtype=np.uint64), events=[])


# --- time-evolving runs --------------------------------------------------------------

def test_run_time_evolving_empty_schedule(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    out = run_time_evolving(dataset, graph, timeline, Schedule([], []), sample)
    assert out == []


def test_run_time_evolving_checkpoints(design_inputs):
    dataset, graph, timeline, sample = design_inputs
    cal = dataset.calendar
    entries = [
        Checkpoint("percentage", "pct_early", cal.day_start_ts(0) - 50 * 86400),
        Checkpoint("percentage", "pct_mid", cal.day_start_ts(20)),
        Checkpoint("event", "event_drill", cal.day_start_ts(12) + 43200),
    ]
    out = run_time_evolving(dataset, graph, timeline, Schedule(entries, []), sample)
    assert [m.checkpoint.trigger for m in out] == ["pct_early", "pct_mid", "event_drill"]
    early, mid, drill = out
    # nobody aware before the window: degenerate and recorded, not raised
    assert early.result is None and "all 0s" in early.error
    assert mid.result is not None and mid.error is None
    assert mid.n_obs == 150
    _, y = DesignBuilder(dataset, graph, timeline, sample, [entries[1].time]).at(0)
    assert mid.n_aware == int(y.sum())
    assert drill.result is not None
    assert mid.result.names[0] == "intercept"


def test_run_time_evolving_fits_serially_as_each_fit_alone(design_inputs, monkeypatch):
    dataset, graph, timeline, sample = design_inputs
    cal = dataset.calendar
    # one degenerate checkpoint before the window, then every third day
    times = [cal.day_start_ts(0) - 86400] + [cal.day_start_ts(d) for d in range(2, 40, 3)]
    entries = [Checkpoint("percentage", f"t{k}", t) for k, t in enumerate(times)]

    def no_threads(self):
        raise AssertionError("run_time_evolving started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    out = run_time_evolving(dataset, graph, timeline, Schedule(entries, []), sample)
    monkeypatch.undo()

    assert [m.checkpoint for m in out] == entries
    builder = DesignBuilder(dataset, graph, timeline, sample, times)
    fitted = 0
    for k, model in enumerate(out):
        X, y = builder.at(k)
        assert (model.n_obs, model.n_aware) == (len(y), int(y.sum()))
        try:
            want = fit_logistic(X, y)
        except DegenerateOutcomeError as exc:
            assert model.result is None and model.error == str(exc)
            continue
        fitted += 1
        got = model.result
        assert got.coef.tobytes() == want.coef.tobytes()
        assert got.se.tobytes() == want.se.tobytes()
        assert got.n_iter == want.n_iter
    assert out[0].result is None and fitted >= 10


# --- typical profile ------------------------------------------------------------------

def fake_model(trigger, time, coefs, ps):
    fit = FitResult(
        coef=np.asarray(coefs, dtype=np.float64),
        se=np.ones(len(coefs)),
        z=np.asarray(coefs, dtype=np.float64),
        p=np.asarray(ps, dtype=np.float64),
        odds_ratio=np.exp(coefs),
        converged=True,
        n_iter=3,
        ridge_used=False,
        log_likelihood=-1.0,
        names=["intercept", "f1", "f2"],
    )
    return CheckpointModel(Checkpoint("percentage", trigger, time), fit, None, 10, 5)


def test_typical_profile_strict_majority():
    cal = Calendar(0, 20)
    seg = PhaseSegmentation([Phase("Normal", 0, 9), Phase("Growth", 10, 19)], True)
    t = lambda d: cal.day_start_ts(d) + 100
    models = [
        fake_model("pct_01", t(12), [0.1, 1.0, -2.0], [0.5, 0.01, 0.01]),
        fake_model("pct_02", t(13), [0.1, 1.2, 2.0], [0.5, 0.02, 0.01]),
        fake_model("pct_03", t(14), [0.1, 0.9, -1.5], [0.5, 0.60, 0.01]),
    ]
    out = typical_profile(models, seg, cal)
    # f1: significant positive in 2 of 3 (model 3 insignificant).  f2 is
    # significant everywhere but split 2 negative / 1 positive; only the
    # 2-of-3 negative side clears the strict majority.
    assert [(e.phase, e.feature, e.direction, e.n_significant, e.n_models) for e in out] == [
        ("Growth", "f1", "positive", 2, 3),
        ("Growth", "f2", "negative", 2, 3),
    ]


def test_typical_profile_all_insignificant_is_empty():
    cal = Calendar(0, 20)
    seg = PhaseSegmentation([Phase("Normal", 0, 19)], False)
    models = [
        fake_model("pct_01", cal.day_start_ts(2), [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
        fake_model("pct_02", cal.day_start_ts(3), [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
    ]
    assert typical_profile(models, seg, cal) == []


def test_typical_profile_skips_failed_fits_and_unsegmented_days():
    cal = Calendar(0, 10)
    seg = PhaseSegmentation([Phase("Normal", 0, 4)], False)
    ok = fake_model("pct_01", cal.day_start_ts(2), [0.0, 3.0, 0.0], [0.9, 0.001, 0.9])
    failed = CheckpointModel(Checkpoint("percentage", "pct_02", cal.day_start_ts(3)), None, "boom", 10, 0)
    outside = fake_model("pct_03", cal.day_start_ts(8), [0.0, -3.0, 0.0], [0.9, 0.001, 0.9])
    out = typical_profile([ok, failed, outside], seg, cal)
    assert [(e.phase, e.feature, e.direction) for e in out] == [("Normal", "f1", "positive")]


# --- regression.tsv columns -----------------------------------------------------------

def test_regression_table_has_a_row_per_feature_and_one_per_failed_fit():
    cal = Calendar(0, 10)
    ok = fake_model("pct_01", cal.day_start_ts(2), [0.5, 3.0, -1.0], [0.9, 0.001, 0.2])
    failed = CheckpointModel(Checkpoint("event", "event_x", cal.day_start_ts(12)), None, "boom", 10, 0)
    checkpoints = checkpoint_columns([ok.checkpoint, failed.checkpoint], cal)
    assert [list(c) for c in checkpoints] == [
        [0, 1], ["percentage", "event"], ["pct_01", "event_x"],
        [cal.day_start_ts(2), cal.day_start_ts(12)], ["1970-01-03", "NA"],
    ]
    columns = [list(c) for c in regression_table([ok, failed], cal)]
    assert len(columns) == 17 and {len(c) for c in columns} == {4}
    rows = list(zip(*columns))
    fit = ok.result
    for j, row in enumerate(rows[:3]):
        assert row == (
            0, "percentage", "pct_01", cal.day_start_ts(2), "1970-01-03", 10, 5, True, False, 3,
            fit.names[j], fit.coef[j], fit.se[j], fit.z[j], fit.p[j], fit.odds_ratio[j], None,
        )
    assert rows[3] == (
        1, "event", "event_x", cal.day_start_ts(12), "NA", 10, 0, None, None, None,
        "NA", None, None, None, None, None, "boom",
    )
    assert [len(c) for c in regression_table([], cal)] == [0] * 17
