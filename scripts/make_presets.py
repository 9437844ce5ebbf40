#!/usr/bin/env python3
"""Regenerate the bundled preset JSON files.

Run from the repository root after changing tuning here:

    python3 scripts/make_presets.py
"""

import json
import os
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from awareflow.analytics import DEFAULT_EVENT_DATES
from awareflow.config import RegressionConfig
from awareflow.domain import Calendar
from awareflow.netinfer import DEFAULT_CAPS
from awareflow.simulate import SimConfig, ShockEvent

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "awareflow", "presets")

WINDOW_START = "2019-12-01"


def noon_ts(iso_date):
    return Calendar.from_dates(iso_date, iso_date).day_start_ts(0) + 43200


# the shock of each canonical news event: its magnitude (a hazard logit
# bump), its scope and the province or city id the scope names
NEWS_SHOCKS = {
    "retrospective_first_case": (1.0, "city", 0),
    "epicenter_outbreak_briefing": (3.0, "national", 0),
    "epicenter_59_cases_report": (2.0, "national", 0),
    "epicenter_exit_screening": (3.0, "national", 0),
    "h2h_transmission_confirmed": (7.0, "national", 0),
    "epicenter_lockdown": (9.0, "national", 0),
    "province_level1_response": (3.0, "province", 0),
    "national_level1_response": (9.0, "national", 0),
    "who_pheic_declared": (7.0, "national", 0),
    "epicenter_quarantine_strategies": (3.0, "national", 0),
    "disease_named": (7.0, "national", 0),
}

# additional rolling-coverage shocks that keep late adopters moving; these
# drive the simulator only and are not model checkpoints
SUSTAINED_COVERAGE = (
    ("sustained_coverage_1", "2020-01-27", 6.5),
    ("sustained_coverage_2", "2020-01-29", 6.5),
    ("sustained_coverage_3", "2020-02-01", 6.5),
    ("sustained_coverage_4", "2020-02-04", 6.5),
    ("sustained_coverage_5", "2020-02-07", 6.5),
    ("sustained_coverage_6", "2020-02-10", 6.5),
    ("sustained_coverage_7", "2020-02-13", 6.5),
    ("sustained_coverage_8", "2020-02-16", 6.5),
    ("sustained_coverage_9", "2020-02-19", 6.5),
    ("sustained_coverage_10", "2020-02-22", 6.5),
)


def news_shocks():
    return [
        ShockEvent(label, noon_ts(date), *NEWS_SHOCKS[label])
        for label, date in DEFAULT_EVENT_DATES
    ]


def sustained_shocks():
    return [
        ShockEvent(label=label, timestamp=noon_ts(date), magnitude=mag)
        for label, date, mag in SUSTAINED_COVERAGE
    ]


def marks_json():
    return [{"label": label, "timestamp": noon_ts(date)} for label, date in DEFAULT_EVENT_DATES]


def fig1a_hazard():
    return {
        "intercept": -10.5,
        "female": -0.25,
        "age_per_year": -0.008,
        "age_center": 40.0,
        "education": {
            "college_or_lower": -0.6,
            "bachelor": 0.0,
            "postgraduate": 0.5,
        },
        "occupation": {
            "hospital_staff": 1.2,
            "education_research": 0.5,
            "white_collar": 0.0,
            "government": 0.3,
            "blue_collar": -0.5,
            "agri_forestry_husbandry_fishery": -0.9,
            "individual_operation_service": -0.3,
        },
        "purchasing_power_per_level": 0.12,
        "has_child": 0.25,
        "married": 0.05,
        "layer_weights": {"family": 4.0, "schoolmate": 1.5, "workmate": 2.5},
        "shock": 1.0,
        "distance": 0.6,
        "distance_scale_km": 1000.0,
    }


def base_run_config(name, sim, sample_size, history_months, seed):
    return {
        "out_dir": f"runs/{name}",
        "seed": seed,
        "jobs": 0,
        "patterns": None,
        "threshold": 3,
        "history_months": history_months,
        "min_purchases_per_month": 1,
        "caps": dict(DEFAULT_CAPS),
        "phase_thresholds": {},
        "marks": marks_json(),
        "regression": asdict(RegressionConfig(sample_size=sample_size)),
        "simulator": sim.to_dict(),
    }


def make_fig1a(n=10_000, history_months=60):
    sim = SimConfig(
        n_individuals=n,
        calendar_start=WINDOW_START,
        n_days=88,
        history_months=history_months,
        stockout_day=57,
        query_noise=0.0,
        events=news_shocks() + sustained_shocks(),
    )
    sim.regions.n_cities = 30
    sim.regions.n_provinces = 10
    sim.network.family_size_probs = (0.0, 0.40, 0.30, 0.20, 0.10)
    sim.network.school_p = 0.30
    sim.network.school_size_min = 8
    sim.network.school_size_max = 30
    sim.network.company_p = 0.85
    for key, val in fig1a_hazard().items():
        setattr(sim.hazard, key, val)
    return sim


def make_recovery():
    sim = make_fig1a(n=4_000, history_months=6)
    sim.regions.n_cities = 10
    sim.regions.n_provinces = 5
    # strong, known-sign effects for sign-recovery experiments
    sim.hazard.education = {
        "college_or_lower": -0.9,
        "bachelor": 0.0,
        "postgraduate": 0.9,
    }
    sim.hazard.distance = 1.5
    sim.hazard.layer_weights = {"family": 3.5, "schoolmate": 1.0, "workmate": 1.5}
    return sim


def main():
    os.makedirs(OUT_DIR, exist_ok=True)

    fig1a = base_run_config(
        "fig1a", make_fig1a().validate(), sample_size=2000, history_months=60,
        seed=20191201,
    )

    small_sim = make_fig1a(n=1_000, history_months=12)
    small_sim.regions.n_cities = 8
    small_sim.regions.n_provinces = 3
    small = base_run_config(
        "small", small_sim.validate(), sample_size=400, history_months=12, seed=7
    )

    recovery = base_run_config(
        "recovery", make_recovery().validate(), sample_size=2000,
        history_months=6, seed=99,
    )
    recovery["regression"]["pct_min"] = 20
    recovery["regression"]["pct_max"] = 60
    recovery["marks"] = []

    perf_sim = make_fig1a(n=100_000, history_months=36)
    perf_sim.regions.n_cities = 40
    perf_sim.regions.n_provinces = 10
    perf_sim.background_purchase_p = 0.012
    perf = base_run_config(
        "perf", perf_sim.validate(), sample_size=10_000, history_months=36,
        seed=424242,
    )

    for name, cfg in (
        ("fig1a", fig1a),
        ("small", small),
        ("recovery", recovery),
        ("perf", perf),
    ):
        path = os.path.join(OUT_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
