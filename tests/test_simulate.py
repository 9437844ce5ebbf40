"""Synthetic world generator: hazard math, network shapes, recoverability."""

import math

import numpy as np
import pytest

from awareflow.awareness import filter_qualified, history_window, label_awareness, match_mask
from awareflow import domain, simulate
from awareflow.domain import ADDRESS_KINDS, DATASET_FILES, EDUCATIONS, OCCUPATIONS, EventLog
from awareflow.errors import ConfigError
from awareflow.files import save_dataset
from awareflow.netinfer import LAYERS, infer_networks
from awareflow.simulate import (
    HazardCoefficients,
    NetworkConfig,
    RegionConfig,
    SimConfig,
    _chunk_sizes,
    generate,
    hazard_base,
    hazard_probability,
)

from conftest import SMALL_WORLD_SEED, small_world_config, traced_peak


def zero_hazard():
    return HazardCoefficients(
        intercept=0.0,
        female=0.0,
        age_per_year=0.0,
        education={e: 0.0 for e in EDUCATIONS},
        occupation={o: 0.0 for o in OCCUPATIONS},
        purchasing_power_per_level=0.0,
        has_child=0.0,
        married=0.0,
        layer_weights={name: 0.0 for name in LAYERS},
        shock=0.0,
        distance=0.0,
    )


def fracs(n, family=0.0, schoolmate=0.0, workmate=0.0):
    return {
        "family": np.full(n, family),
        "schoolmate": np.full(n, schoolmate),
        "workmate": np.full(n, workmate),
    }


# --- hazard -------------------------------------------------------------------

def test_all_zero_coefficients_give_half(small_world):
    _, dataset, _ = small_world
    cfg = SimConfig(hazard=zero_hazard())
    cols = dataset.population
    base = hazard_base(cfg, cols, dataset.distance_km())
    p = hazard_probability(cfg, base, fracs(cols.n), np.zeros(cols.n))
    assert np.all(p == 0.5)


def test_hazard_strictly_increases_with_family_fraction(small_world):
    _, dataset, _ = small_world
    cfg = SimConfig()  # default family weight is positive
    cols = dataset.population
    base = hazard_base(cfg, cols, dataset.distance_km())
    shock = np.zeros(cols.n)
    last = hazard_probability(cfg, base, fracs(cols.n, family=0.0), shock)
    for f in (0.25, 0.5, 0.75, 1.0):
        cur = hazard_probability(cfg, base, fracs(cols.n, family=f), shock)
        assert np.all(cur > last)
        last = cur


def test_hazard_matches_formula_at_random_points(small_world):
    _, dataset, _ = small_world
    cfg = SimConfig()
    hz = cfg.hazard
    cols = dataset.population
    dist = dataset.distance_km()
    rng = np.random.default_rng(123)
    rows = rng.integers(0, cols.n, size=10)
    ff, fs, fw = rng.random((3, cols.n))
    shock = rng.random(cols.n) * 2.0
    p = hazard_probability(
        cfg, hazard_base(cfg, cols, dist),
        {"family": ff, "schoolmate": fs, "workmate": fw},
        shock,
    )
    for r in rows:
        z = hz.intercept
        z += hz.female * (cols.gender[r] == 1)
        z += hz.age_per_year * (float(cols.age[r]) - hz.age_center)
        z += hz.education[EDUCATIONS[cols.education[r]]]
        z += hz.occupation[OCCUPATIONS[cols.occupation[r]]]
        z += hz.purchasing_power_per_level * (float(cols.purchasing_power[r]) - 4.0)
        z += hz.has_child * bool(cols.has_child[r])
        z += hz.married * bool(cols.married[r])
        z -= hz.distance * dist[r] / hz.distance_scale_km
        z += hz.layer_weights["family"] * ff[r]
        z += hz.layer_weights["schoolmate"] * fs[r]
        z += hz.layer_weights["workmate"] * fw[r]
        z += hz.shock * shock[r]
        assert p[r] == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)


# --- world shapes ---------------------------------------------------------------

def test_chunk_sizes_make_the_draws_of_one_choice_per_chunk():
    def one_choice_per_chunk(rng, total, size_probs):
        sizes, remaining = [], total
        probs = np.asarray(size_probs, dtype=np.float64)
        probs = probs / probs.sum()
        while remaining > 0:
            sizes.append(min(int(rng.choice(len(probs), p=probs)) + 1, remaining))
            remaining -= sizes[-1]
        return sizes

    for probs in [(0.20, 0.35, 0.25, 0.15, 0.05), (1.0,), (0.0, 0.0, 2.0), (3.0, 0.0, 1e-9, 1.0)]:
        for seed in range(3):
            for total in [*range(12), 97, 1000]:
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = one_choice_per_chunk(want_rng, total, probs)
                assert _chunk_sizes(got_rng, total, probs) == want
                assert sum(want) == total
                assert got_rng.random() == want_rng.random()  # the same draws were used up


def test_single_individual_world():
    cfg = SimConfig(
        n_individuals=1,
        n_days=5,
        history_months=2,
        regions=RegionConfig(n_cities=1, n_provinces=1),
    )
    dataset, truth = generate(cfg, 5)
    assert (dataset.addresses.kind == ADDRESS_KINDS.index("home")).sum() == 1
    assert truth.graph.edge_counts() == {name: 0 for name in LAYERS}
    assert dataset.population.n == 1


def test_two_families_of_two():
    cfg = SimConfig(
        n_individuals=4,
        n_days=5,
        history_months=2,
        regions=RegionConfig(n_cities=1, n_provinces=1),
        network=NetworkConfig(family_size_probs=(0.0, 1.0), school_p=0.0, company_p=0.0),
    )
    dataset, truth = generate(cfg, 9)
    counts = truth.graph.edge_counts()
    assert counts == {"family": 2, "schoolmate": 0, "workmate": 0}
    # two disjoint pairs, not one path
    degrees = truth.graph.layer("family").degrees()
    assert degrees.tolist() == [1, 1, 1, 1]
    home = dataset.addresses.kind == ADDRESS_KINDS.index("home")
    assert len(np.unique(dataset.addresses.address_id[home])) == 2


def test_everyone_shares_exactly_one_home(small_world):
    _, dataset, _ = small_world
    home = dataset.addresses.kind == ADDRESS_KINDS.index("home")
    assert np.array_equal(dataset.addresses.individual_id[home], dataset.population.ids)


# --- diffusion extremes -----------------------------------------------------------

def test_impossible_hazard_means_nobody_aware(matcher):
    cfg = small_world_config()
    cfg.hazard.intercept = -1000.0
    cfg.events = []
    cfg.background_query_p = 0.0
    cfg.post_aware_query_p = 0.0
    dataset, truth = generate(cfg, SMALL_WORLD_SEED)
    assert len(truth.timeline) == 0
    assert match_mask(dataset.events, matcher).sum() == 0
    assert len(label_awareness(dataset.events, matcher)) == 0


def test_certain_hazard_means_everyone_aware_first_day(matcher):
    cfg = small_world_config()
    cfg.hazard.intercept = 1000.0
    dataset, truth = generate(cfg, SMALL_WORLD_SEED)
    cols = dataset.population
    assert np.array_equal(truth.timeline.ids, cols.ids)
    days = dataset.calendar.day_of(truth.timeline.first_aware)
    assert np.all(days == 0)
    recovered = label_awareness(dataset.events, matcher)
    assert np.array_equal(recovered.ids, cols.ids)
    assert np.all(dataset.calendar.day_of(recovered.first_aware) == 0)


def test_query_noise_only_delays_recovery(matcher):
    cfg = small_world_config()
    cfg.query_noise = 0.5
    dataset, truth = generate(cfg, SMALL_WORLD_SEED)
    recovered = label_awareness(dataset.events, matcher)
    # with suppressed queries some individuals go missing, none appear early
    assert np.all(np.isin(recovered.ids, truth.timeline.ids))
    cal = dataset.calendar
    truth_days = cal.day_of(truth.timeline.aligned(recovered.ids))
    got_days = cal.day_of(recovered.first_aware)
    assert np.all(got_days >= truth_days)
    assert len(recovered) < len(truth.timeline)  # noise at 0.5 loses someone


def test_cumulative_awareness_is_monotone(small_world):
    _, dataset, truth = small_world
    days = dataset.calendar.day_of(truth.timeline.first_aware)
    curve = np.cumsum(np.bincount(days, minlength=dataset.calendar.n_days))
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == len(truth.timeline)


def test_ppe_purchases_respect_stockout(small_world):
    cfg, dataset, truth = small_world
    ev = dataset.events
    cal = dataset.calendar
    ppe_rows = np.flatnonzero(ev.is_ppe)
    assert len(ppe_rows) > 0
    aware_days = cal.day_of(truth.timeline.aligned(ev.individual_id[ppe_rows]))
    assert np.all(aware_days <= cfg.stockout_day)
    assert {ev.text_pool[c] for c in ev.text_code[ppe_rows]} == {cfg.ppe_category}
    # exactly one PPE purchase per aware-in-time individual
    in_time = truth.timeline.ids[
        cal.day_of(truth.timeline.first_aware) <= cfg.stockout_day
    ]
    buyers, buy_counts = np.unique(ev.individual_id[ppe_rows], return_counts=True)
    assert np.array_equal(buyers, in_time)
    assert np.all(buy_counts == 1)


def test_generation_is_deterministic():
    cfg_a = small_world_config()
    cfg_b = small_world_config()
    ds_a, truth_a = generate(cfg_a, SMALL_WORLD_SEED)
    ds_b, truth_b = generate(cfg_b, SMALL_WORLD_SEED)
    assert ds_a == ds_b
    assert truth_a.timeline == truth_b.timeline
    assert truth_a.graph == truth_b.graph


def test_written_bytes_do_not_depend_on_the_chunk_size(small_world, tmp_path, monkeypatch):
    _, dataset, _ = small_world
    for name, rows in (("whole", len(dataset.events)), ("chunked", 3)):
        monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", rows)
        save_dataset(dataset, tmp_path / name)
    for name in DATASET_FILES:
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "chunked" / name).read_bytes()


def test_generate_sorts_the_event_log_once(monkeypatch):
    canonical = EventLog.canonical
    calls = []

    def counted(cls, *columns, bounds=None):
        calls.append(([column.copy() for column in columns[:5]], columns[5], list(bounds)))
        return canonical(*columns, bounds=bounds)

    monkeypatch.setattr(EventLog, "canonical", classmethod(counted))
    cfg = small_world_config()
    dataset, _ = generate(cfg, SMALL_WORLD_SEED)
    ((columns, pool, bounds),) = calls
    # one bucket per history month and per window day, covering every row
    assert len(bounds) == cfg.history_months + cfg.n_days + 1
    assert bounds[0] == 0 and bounds[-1] == len(dataset.events)
    assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))
    # sorted a bucket at a time, the log is the one a sort of the whole
    # table gives (canonical takes its columns over, so each call gets copies)
    assert canonical(*(c.copy() for c in columns), pool) == dataset.events
    monkeypatch.setattr(domain, "SORT_BUCKET_ROWS", 1)
    assert canonical(*columns, pool, bounds=bounds) == dataset.events


def history_rows(columns, leave_out=()):
    """The rows of the event ``columns`` (kind, individual_id, timestamp,
    text_code, is_ppe), sorted, less those of the ids ``leave_out``."""
    keep = ~np.isin(columns[1], leave_out)
    return sorted(zip(*(column[keep].tolist() for column in columns)))


def test_a_history_month_drawn_alone_is_its_bucket_of_the_log():
    cfg = small_world_config()
    dataset, _ = generate(cfg, SMALL_WORLD_SEED)
    _, _, history = simulate.generate_population(cfg, SMALL_WORLD_SEED)
    events = dataset.events
    pool = np.array(cfg.text_pool())
    codes = {text: code for code, text in enumerate(cfg.text_pool())}
    log_codes = np.array([codes[text] for text in events.text_pool])[events.text_code]
    log = (events.kind, events.individual_id, events.timestamp, log_codes, events.is_ppe)
    assert len(history.months) == cfg.history_months
    for month in history.months:
        lo, hi = np.searchsorted(events.timestamp, domain.month_start_ts([month, month + 1]))
        drawn = history.month(month)
        assert history_rows(drawn) == history_rows([column[lo:hi] for column in log])
        assert set(pool[drawn[3]]) <= set(cfg.purchase_categories)

    # a longer history draws the same rows in the months both hold, but for
    # the individuals that the stuck rule has skip that month in either
    longer = small_world_config()
    longer.history_months += 6
    _, _, more = simulate.generate_population(longer, SMALL_WORLD_SEED)
    assert np.array_equal(more.months[6:], history.months)
    # who buys in each of the longer history's months buys in each of the shorter's
    assert np.isin(more.stuck, history.stuck).all() and len(history.stuck)
    for month in history.months:
        skipped = np.union1d(history.stuck[history.skip == month], more.stuck[more.skip == month])
        skipped = history.ids[skipped]
        want = history_rows(history.month(month), leave_out=skipped)
        assert history_rows(more.month(month), leave_out=skipped) == want


# a history that opens before 1970 has negative month numbers
@pytest.mark.parametrize("calendar_start", [None, "1970-03-01"])
def test_each_unqualified_individual_skips_one_month_when_all_would_buy(calendar_start):
    cfg = small_world_config()
    cfg.unqualified_month_p = 1.0
    cfg.calendar_start = calendar_start or cfg.calendar_start
    dataset, _ = generate(cfg, SMALL_WORLD_SEED)
    events, population = dataset.events, dataset.population
    first_month, n_months = window = history_window(dataset.calendar, cfg.history_months)
    before = events.timestamp < domain.month_start_ts(first_month + n_months)
    rows = np.flatnonzero(before)
    assert np.all(events.kind[rows] == domain.EVENT_KIND_PURCHASE)
    bought = np.unique(
        events.individual_id[rows].astype(np.int64) * n_months
        + domain.month_number(events.timestamp[rows]) - first_month
    )
    months_bought = np.bincount(bought // n_months, minlength=population.n + 1)[1:]
    assert np.all(months_bought == np.where(population.qualified, n_months, n_months - 1))
    assert (~population.qualified).any()
    assert np.array_equal(filter_qualified(events, window), population.ids[population.qualified])


def test_generate_holds_little_beside_the_event_log():
    def peak_and_rows(n):
        cfg = small_world_config()
        cfg.n_individuals = n
        cfg.history_months = 120  # events, not individuals, set the peak
        out = []
        peak = traced_peak(lambda: out.append(generate(cfg, SMALL_WORLD_SEED)))
        return peak, len(out[0][0].events)

    (small, small_rows), (large, large_rows) = peak_and_rows(4000), peak_and_rows(8000)
    column_bytes = sum(np.dtype(t).itemsize for t in EventLog.DTYPES.values())
    # the log itself and the per-individual tables, a history month's
    # draws among them: the sort's key spans one time bucket, not the log
    assert large - small < 1.1 * column_bytes * (large_rows - small_rows)


def test_different_seed_changes_output():
    cfg = small_world_config()
    ds, truth = generate(cfg, SMALL_WORLD_SEED + 1)
    base_ds, base_truth = generate(cfg, SMALL_WORLD_SEED)
    assert not (ds == base_ds)
    assert not (truth.timeline == base_truth.timeline)


def test_inferred_equals_truth_when_groups_under_caps(small_world, graph_small):
    _, dataset, truth = small_world
    assert graph_small == truth.graph
    assert infer_networks(dataset.addresses, dataset.population.ids) == truth.graph


# --- persistence and config ---------------------------------------------------------

def test_sim_config_dict_round_trip():
    cfg = small_world_config()
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown simulator keys: bogus$"):
        SimConfig.from_dict({"n_individuals": 5, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown simulator.network keys"):
        SimConfig.from_dict({"network": {"village_p": 0.5}})
    with pytest.raises(ConfigError, match="unknown event keys"):
        SimConfig.from_dict({"events": [{"label": "x", "timestamp": 0, "magnitude": 1.0, "where": "cn"}]})


@pytest.mark.parametrize("data, message", [
    ({"n_individuals": "10"}, "n_individuals must be of type int"),
    ({"stockout_day": True}, "stockout_day must be of type int"),
    ({"query_noise": "0.1"}, "query_noise must be of type float"),
    ({"aware_query_texts": "mask"}, "aware_query_texts must be of type list"),
    ({"aware_query_texts": ["mask", 3]}, "aware_query_texts must be of type list"),
    ({"regions": 5}, "simulator.regions must be an object"),
    ({"regions": {"n_cities": 2.5}}, "regions.n_cities must be of type int"),
    ({"demographics": {"purchasing_power_probs": 3}}, "purchasing_power_probs must be of type list"),
    ({"hazard": {"education": {"bachelor": "x"}}}, "hazard.education must be of type object"),
    ({"events": 7}, "simulator.events must be a list"),
    ({"events": [{"label": "x"}]}, "event lacks keys"),
    ({"events": [{"label": "x", "timestamp": "noon", "magnitude": 1.0}]},
     "events\\[0\\].timestamp must be of type int"),
])
def test_wrong_value_types_rejected(data, message):
    with pytest.raises(ConfigError, match=message):
        SimConfig.from_dict(data)


def test_validate_rejects_oversized_families():
    cfg = SimConfig(network=NetworkConfig(family_size_probs=tuple([0.0] * 10 + [1.0])))
    with pytest.raises(ConfigError, match="family sizes above 10 would exceed the home-layer cap"):
        cfg.validate()


def test_validate_rejects_family_bigger_than_population():
    cfg = SimConfig(n_individuals=1, network=NetworkConfig(family_size_probs=(0.0, 1.0)))
    with pytest.raises(ConfigError, match="smallest possible family size 2 exceeds the population of 1"):
        cfg.validate()


def test_validate_rejects_ppe_in_categories():
    cfg = SimConfig(purchase_categories=("books", "n95 respirator mask"))
    with pytest.raises(ConfigError, match="ppe_category must not appear in purchase_categories"):
        cfg.validate()
