"""Time-evolving logistic regression of awareness on individual features.

A design matrix is built per checkpoint time t: demographics, distance,
purchasing power, and per-layer social exposure (share of aware neighbors
among the retained population, i.e. everyone outside the regression
sample).  Fitting is maximum likelihood via iteratively reweighted least
squares with a small ridge fallback when the likelihood has no finite
maximizer (perfect separation) or Newton fails to converge.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import kernels
from .domain import EDUCATIONS, GENDERS, OCCUPATIONS, Bounds
from .errors import ConfigError, DegenerateOutcomeError, NumericalError
from .netinfer import LAYERS

AGE_BRACKETS = (
    ("under_18", 0, 17),
    ("18_24", 18, 24),
    ("25_49", 25, 49),
    ("50_plus", 50, 10**9),
)


# the reference level of each categorical term, which gets no column
GENDER_REF = "male"
EDUCATION_REF = "bachelor"
OCCUPATION_REF = "white_collar"
AGE_BRACKET_REF = "25_49"


@dataclass(frozen=True)
class FeatureSpec:
    """How age enters the design: standardized ("linear") or as brackets."""

    age_mode: str = "linear"

    def validate(self):
        if self.age_mode not in ("linear", "brackets"):
            raise ConfigError("age_mode must be 'linear' or 'brackets'")
        return self

    def column_names(self):
        names = ["intercept"]
        names += [f"gender_{g}" for g in GENDERS if g != GENDER_REF]
        if self.age_mode == "linear":
            names.append("age_std")
        else:
            names += [f"age_{b[0]}" for b in AGE_BRACKETS if b[0] != AGE_BRACKET_REF]
        names += [f"education_{e}" for e in EDUCATIONS if e != EDUCATION_REF]
        names += [f"occupation_{o}" for o in OCCUPATIONS if o != OCCUPATION_REF]
        names += ["distance_std", "purchasing_power_std", "has_child", "married"]
        for layer in LAYERS:
            names += [f"{layer}_aware_frac", f"{layer}_has_neighbors"]
        return names


def _standardize(x):
    x = np.asarray(x, dtype=np.float64)
    sd = x.std()
    if sd == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


class DesignBuilder:
    """Design matrices of a sample at each of ``times``.

    Everything that does not depend on time is computed once.  The exposure
    columns come from one neighbor-count sweep per layer over the sorted
    ``times``, which ``at`` advances in lockstep to the time it is asked
    for; asked for an earlier time than the last, it starts them again.
    """

    def __init__(self, dataset, graph, timeline, sample_ids, times, spec=None):
        self.spec = (spec or FeatureSpec()).validate()
        cols = dataset.population
        self.names = self.spec.column_names()
        sample_ids = np.asarray(sample_ids, dtype=np.uint64)
        if len(kernels.distinct_rows(sample_ids.copy())[0]) != len(sample_ids):
            raise ConfigError("sample contains duplicate ids")
        self.sample_rows = cols.rows_of(sample_ids)
        if len(self.sample_rows) == 0:
            raise ConfigError("empty regression sample")
        if len(self.sample_rows) >= cols.n:
            raise ConfigError(
                "sample covers the whole population; nobody is left to "
                "compute neighbor exposure against"
            )
        # graph rows and dataset rows must mean the same individual
        if not np.array_equal(graph.ids, cols.ids):
            raise ConfigError("graph node universe does not match the dataset")
        times = np.asarray(times, dtype=np.int64)
        n_times = len(times)
        order = np.argsort(times, kind="stable")
        # at(k) reads step self._step[k] of the sweep over the sorted times
        self._step = np.empty(n_times, dtype=np.int64)
        self._step[order] = np.arange(n_times)
        self._bucket = timeline.buckets(cols.ids, times[order])
        self._sample_bucket = self._bucket[self.sample_rows]
        # sample rows are neither aware neighbors nor retained neighbors: the
        # sweeps never reach their bucket
        self._bucket[self.sample_rows] = n_times
        retained = np.ones(cols.n, dtype=bool)
        retained[self.sample_rows] = False
        retained = np.flatnonzero(retained)

        n_s = len(self.sample_rows)
        k = len(self.names)
        X = np.zeros((n_s, k), dtype=np.float64)
        col = {name: j for j, name in enumerate(self.names)}
        X[:, col["intercept"]] = 1.0
        for field, levels, ref in (
            ("gender", GENDERS, GENDER_REF),
            ("education", EDUCATIONS, EDUCATION_REF),
            ("occupation", OCCUPATIONS, OCCUPATION_REF),
        ):
            codes = getattr(cols, field)[self.sample_rows]
            for i, level in enumerate(levels):
                if level != ref:
                    X[:, col[f"{field}_{level}"]] = codes == i
        age = cols.age[self.sample_rows].astype(np.float64)
        if self.spec.age_mode == "linear":
            X[:, col["age_std"]] = _standardize(age)
        else:
            for name, lo, hi in AGE_BRACKETS:
                if name != AGE_BRACKET_REF:
                    X[:, col[f"age_{name}"]] = (age >= lo) & (age <= hi)
        X[:, col["distance_std"]] = _standardize(dataset.distance_km()[self.sample_rows])
        X[:, col["purchasing_power_std"]] = _standardize(cols.purchasing_power[self.sample_rows])
        X[:, col["has_child"]] = cols.has_child[self.sample_rows]
        X[:, col["married"]] = cols.married[self.sample_rows]

        # per layer, each sample row's count of retained neighbors
        self._layers = []
        for layer in LAYERS:
            lyr = graph.layer(layer)
            deg = np.zeros(cols.n, dtype=np.int64)
            kernels.increment_neighbor_counts(lyr.indptr, lyr.indices, retained, deg)
            deg = deg[self.sample_rows]
            X[:, col[f"{layer}_has_neighbors"]] = deg > 0
            # without retained neighbors there is no aware one: 0 / 1
            self._layers.append((col[f"{layer}_aware_frac"], lyr, np.maximum(deg, 1)))
        self._static = X
        self._sweeps = ()
        self._swept = n_times  # past every step, so that the first at() starts the sweeps

    def at(self, k):
        """(X, y) at times[k]: exposure columns filled, labels thresholded."""
        step = self._step[k]
        if step < self._swept:
            self._sweeps = [
                kernels.neighbor_count_sweep(lyr.indptr, lyr.indices, self._bucket, len(self._step))
                for _, lyr, _ in self._layers
            ]
            self._swept = -1
        while self._swept < step:
            self._counts = [next(sweep) for sweep in self._sweeps]
            self._swept += 1
        X = self._static.copy()
        # each sample row's share of aware retained neighbors
        for (j, _, deg), aware in zip(self._layers, self._counts):
            np.divide(aware[self.sample_rows], deg, out=X[:, j])
        y = (self._sample_bucket <= step).astype(np.float64)
        return X, y


@dataclass
class FitConfig:
    # bounded: a separated checkpoint's unpenalized fit runs every iteration before its ridge refit
    max_iter: Annotated[int, Bounds(1, 10_000)] = 100
    tol: Annotated[float, Bounds(0, open_lo=True)] = 1e-8
    ridge: Annotated[float, Bounds(0, open_lo=True)] = 1e-4
    coef_cap: Annotated[float, Bounds(0, open_lo=True)] = 30.0  # a larger |coef| is separation


@dataclass
class FitResult:
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    odds_ratio: np.ndarray
    converged: bool
    n_iter: int
    ridge_used: bool
    log_likelihood: float
    names: list = None


SQRT1_2 = math.sqrt(0.5)


def expit(x):
    """Logistic sigmoid ``1 / (1 + exp(-x))``; it is exactly 0 where exp overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def normal_cdf(a):
    """Standard normal CDF of one float, shaped like the cephes ``ndtr``.

    Near zero ``erf`` is accurate; further out ``erfc`` of the absolute
    value keeps the lower tail's relative precision.
    """
    x = a * SQRT1_2
    if abs(x) < SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def log_likelihood(X, y, beta):
    """Bernoulli log likelihood at beta (no penalty)."""
    eta = X @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def score_vector(X, y, beta):
    """Gradient of the log likelihood at beta."""
    return X.T @ (y - expit(X @ beta))


def _irls(X, y, lam, max_iter, tol):
    """Newton solve of the (optionally ridge-penalized) likelihood.

    The first column is treated as the intercept and never penalized.
    Returns (beta, hessian, n_iter, converged).
    """
    n, k = X.shape
    pen = np.full(k, lam)
    pen[0] = 0.0
    beta = np.zeros(k)
    H = None
    for it in range(1, max_iter + 1):
        mu = expit(X @ beta)
        score = X.T @ (y - mu) - pen * beta
        w = np.maximum(mu * (1.0 - mu), 1e-12)
        H = X.T @ (X * w[:, None])
        H[np.diag_indices(k)] += pen
        if np.max(np.abs(score)) < tol:
            return beta, H, it, True
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            raise NumericalError("singular information matrix") from None
        beta = beta + step
        if not np.all(np.isfinite(beta)):
            raise NumericalError("coefficients diverged to non-finite values")
    return beta, H, max_iter, False


def fit_logistic(X, y, config=None, names=None):
    """Fit and return Wald-style inference for every column.

    Plain maximum likelihood first; perfect separation or non-convergence
    triggers one ridge-penalized refit (intercept exempt).  A one-class
    outcome is refused outright.
    """
    config = config or FitConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise NumericalError("design matrix and outcome length mismatch")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DegenerateOutcomeError("outcome must be binary 0/1")
    if len(y) == 0:
        raise DegenerateOutcomeError("outcome is empty; the model is undefined")
    if y.min() == y.max():
        raise DegenerateOutcomeError(
            f"outcome is all {int(y[0])}s; the model is undefined"
        )

    ridge_used = False
    try:
        beta, H, n_iter, converged = _irls(X, y, 0.0, config.max_iter, config.tol)
        if not converged or np.max(np.abs(beta)) > config.coef_cap:
            ridge_used = True
    except NumericalError:
        ridge_used = True
    if ridge_used:
        beta, H, n_iter, converged = _irls(
            X, y, config.ridge, config.max_iter, config.tol
        )
        if not converged:
            raise NumericalError(
                "logistic fit failed to converge even with ridge penalty"
            )

    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        raise NumericalError("information matrix is singular at the optimum") from None
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.nan)
    # two-sided normal tail; normal_cdf(-|z|) is the survival function at |z|
    p = np.array([2.0 * normal_cdf(-abs(v)) for v in z.tolist()])
    return FitResult(
        coef=beta,
        se=se,
        z=z,
        p=p,
        odds_ratio=np.exp(beta),
        converged=converged,
        n_iter=n_iter,
        ridge_used=ridge_used,
        log_likelihood=log_likelihood(X, y, beta),
        names=list(names) if names is not None else None,
    )


@dataclass(frozen=True)
class Checkpoint:
    kind: str  # "percentage" | "event"
    trigger: str
    time: int
    value: float = None


@dataclass
class Schedule:
    entries: list
    missing: list  # integer percentages the series never reached

    def __len__(self):
        return len(self.entries)


def checkpoint_schedule(timeline, cohort_ids, events, pct_min=1, pct_max=95):
    """Fit times: first crossing of each integer percentage, plus events.

    Crossing times are exact first-aware timestamps (sub-day resolution).
    An event coinciding with a crossing stays a separate entry.  Never
    reached percentages are reported in ``missing``.
    """
    cohort_ids = np.asarray(cohort_ids, dtype=np.uint64)
    n = len(cohort_ids)
    if n == 0:
        raise DegenerateOutcomeError("checkpoint schedule over an empty cohort")
    ts = np.sort(timeline.restrict(cohort_ids).first_aware)
    entries = []
    missing = []
    for k in range(pct_min, pct_max + 1):
        m = (n * k + 99) // 100  # ceil(n*k/100): first count reaching k%
        if m <= len(ts):
            entries.append(
                Checkpoint(
                    kind="percentage", trigger=f"pct_{k:02d}", time=int(ts[m - 1]), value=float(k)
                )
            )
        else:
            missing.append(k)
    for ev in events:
        entries.append(
            Checkpoint(kind="event", trigger=f"event_{ev.label}", time=int(ev.timestamp))
        )
    entries.sort(key=lambda c: (c.time, c.kind, c.trigger))
    return Schedule(entries=entries, missing=missing)


def checkpoint_columns(checkpoints, calendar):
    """The columns position, kind, trigger, time and date of ``checkpoints``."""
    times = np.array([c.time for c in checkpoints], dtype=np.int64)
    return [
        np.arange(len(checkpoints)), [c.kind for c in checkpoints],
        [c.trigger for c in checkpoints], times, calendar.dates_of(times),
    ]


@dataclass
class CheckpointModel:
    checkpoint: Checkpoint
    result: FitResult  # None when the fit errored
    error: str
    n_obs: int
    n_aware: int


def run_time_evolving(
    dataset,
    graph,
    timeline,
    schedule,
    sample_ids,
    spec=None,
    fit_config=None,
):
    """Fit one model per checkpoint, in schedule order; per-checkpoint
    failures are recorded (error string instead of a result) and the
    series continues."""
    entries = schedule.entries
    builder = DesignBuilder(dataset, graph, timeline, sample_ids, [c.time for c in entries], spec)
    fit_config = fit_config or FitConfig()
    models = []
    for k, checkpoint in enumerate(entries):
        X, y = builder.at(k)
        n_aware = int(y.sum())
        try:
            result = fit_logistic(X, y, fit_config, names=builder.names)
            models.append(CheckpointModel(checkpoint, result, None, len(y), n_aware))
        except (DegenerateOutcomeError, NumericalError) as exc:
            models.append(CheckpointModel(checkpoint, None, str(exc), len(y), n_aware))
    return models


def regression_table(models, calendar):
    """The columns of regression.tsv: per model, one row for each feature
    of its fit, or one row with NA cells and the error of a failed fit."""
    fits = [m.result for m in models]
    n_rows = [1 if r is None else len(r.names) for r in fits]

    def per_model(values):  # each model's value on each of its rows
        return np.repeat(np.array(values, dtype=object), n_rows)

    def per_feature(attr, na):  # a fit's value for each feature, ``na`` for a failed fit
        return [v for r in fits for v in (na if r is None else getattr(r, attr))]

    return [
        *map(per_model, checkpoint_columns([m.checkpoint for m in models], calendar)),
        *(per_model([getattr(m, a) for m in models]) for a in ("n_obs", "n_aware")),
        *(
            per_model([None if r is None else getattr(r, a) for r in fits])
            for a in ("converged", "ridge_used", "n_iter")
        ),
        per_feature("names", ["NA"]),
        *(per_feature(a, [None]) for a in ("coef", "se", "z", "p", "odds_ratio")),
        per_model([m.error for m in models]),
    ]


@dataclass(frozen=True)
class ProfileEntry:
    phase: str
    feature: str
    direction: str  # "positive" (OR > 1) or "negative"
    n_significant: int
    n_models: int


def typical_profile(models, segmentation, calendar, p_threshold=0.05):
    """Per phase, the features significant in the same direction in a
    strict majority of that phase's successful checkpoint fits."""
    by_phase = {}
    for m in models:
        if m.result is None:
            continue
        day = int(calendar.day_of(m.checkpoint.time))
        phase = segmentation.phase_of_day(day)
        if phase is not None:
            by_phase.setdefault(phase, []).append(m)
    out = []
    phase_rank = {name: i for i, name in enumerate(segmentation.by_name())}
    for phase in sorted(by_phase, key=lambda ph: phase_rank.get(ph, 99)):
        phase_models = by_phase[phase]
        names = phase_models[0].result.names
        n = len(phase_models)
        # per feature, the fits where it is significant with each sign
        significant = np.array([m.result.p < p_threshold for m in phase_models])
        coef = np.array([m.result.coef for m in phase_models])
        pos = (significant & (coef > 0)).sum(axis=0).tolist()
        neg = (significant & (coef < 0)).sum(axis=0).tolist()
        for j, feature in enumerate(names):
            if feature == "intercept":
                continue
            if pos[j] * 2 > n:
                out.append(ProfileEntry(phase, feature, "positive", pos[j], n))
            elif neg[j] * 2 > n:
                out.append(ProfileEntry(phase, feature, "negative", neg[j], n))
    return out
