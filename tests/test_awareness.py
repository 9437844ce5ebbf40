"""Query-pattern matching, awareness labeling, and the qualified cohort."""

import numpy as np
import pytest

from awareflow.awareness import (
    NEVER,
    AwarenessTimeline,
    awareness_percentage,
    compile_query_set,
    filter_qualified,
    history_window,
    label_awareness,
    match_mask,
    normalize_text,
    parse_pattern,
)
from awareflow import domain
from awareflow.domain import Calendar, EventLog
from awareflow.errors import CohortError, PatternSyntaxError
from awareflow.files import load_patterns

from conftest import make_events, random_event_columns, traced_peak
from oracles import first_aware_scan, months_before, qualified_scan

MASK = "(n95|kn95|kf94)&(face mask)"


# --- pattern grammar ----------------------------------------------------------

def test_parse_pattern_structure():
    assert parse_pattern(MASK) == (("n95", "kn95", "kf94"), ("face mask",))
    assert parse_pattern("( wuhan  pneumonia )") == (("wuhan pneumonia",),)


@pytest.mark.parametrize(
    "expr, position, fragment",
    [
        ("", 0, "expected '('"),
        ("n95", 0, "expected '(' but found 'n'"),
        ("(n95", 4, "unterminated group"),
        ("(n95|)", 5, "empty term"),
        ("()", 1, "empty term"),
        ("(a(b)", 2, "unexpected '(' inside group"),
        ("(a&b)", 2, "unexpected '&' inside group"),
        ("(a)(b)", 3, "expected '&' but found '('"),
    ],
)
def test_pattern_syntax_errors(expr, position, fragment):
    with pytest.raises(PatternSyntaxError) as exc:
        parse_pattern(expr)
    assert exc.value.position == position
    assert fragment in str(exc.value)


def test_matcher_examples():
    m = compile_query_set([MASK])
    assert m.matches("buy N95 face mask")
    assert not m.matches("rice cooker")
    assert m.matches("kf94  FACE  MASK xl")  # case and runs of spaces
    assert not m.matches("n95 mask")  # second group unsatisfied
    assert not m.matches("n95x face mask")  # token boundary
    assert not m.matches("kn95mask face mask")
    assert m.matches("premium kn95 face mask deal")


def test_matcher_multiple_patterns_or_semantics():
    m = compile_query_set([MASK, "(wuhan pneumonia)"])
    assert m.matches("wuhan pneumonia outbreak")
    assert m.matches("n95 face mask")
    assert not m.matches("pneumonia news")  # phrase must appear contiguously


def test_normalize_text():
    assert normalize_text("  A\tB\n c ") == "a b c"


def test_load_patterns_skips_comments(tmp_path):
    p = tmp_path / "patterns.txt"
    p.write_text("# comment\n\n(n95)&(mask)  # trailing\n(thermometer)\n")
    assert load_patterns(p) == ["(n95)&(mask)", "(thermometer)"]


# --- labeling -----------------------------------------------------------------

def day_ts(d, sec=0):
    cal = Calendar.from_dates("2020-01-01", "2020-01-31")
    return cal.day_start_ts(d) + sec


def ql(*pairs, iid=1):
    return make_events([("query", iid, ts, text, False) for ts, text in pairs])


def test_third_match_sets_first_aware():
    events = ql(
        (day_ts(2), "n95 face mask"),
        (day_ts(3), "rice cooker"),
        (day_ts(5), "kn95 face mask price"),
        (day_ts(9, 321), "kf94 face mask"),
        (day_ts(12), "n95 face mask again"),
    )
    tl = label_awareness(events, compile_query_set([MASK]))
    assert tl.first_aware_of(1) == day_ts(9, 321)


def test_two_matches_never_aware():
    events = ql((day_ts(2), "n95 face mask"), (day_ts(5), "kn95 face mask"))
    tl = label_awareness(events, compile_query_set([MASK]))
    assert tl.first_aware_of(1) is None
    assert tl.label(1, day_ts(30)) == 0


def test_three_identical_queries_within_an_hour():
    t0 = day_ts(4, 3600)
    events = ql((t0, "n95 face mask"), (t0 + 600, "n95 face mask"), (t0 + 1200, "n95 face mask"))
    tl = label_awareness(events, compile_query_set([MASK]))
    assert tl.first_aware_of(1) == t0 + 1200


def test_purchases_do_not_count_as_matches():
    records = [
        ("purchase", 1, day_ts(1), "n95 face mask", True),
        ("query", 1, day_ts(2), "n95 face mask", False),
        ("query", 1, day_ts(3), "n95 face mask", False),
        ("query", 1, day_ts(4), "n95 face mask", False),
    ]
    tl = label_awareness(make_events(records), compile_query_set([MASK]))
    assert tl.first_aware_of(1) == day_ts(4)


def test_label_is_monotone_in_time():
    events = ql(*((day_ts(d), "n95 face mask") for d in (1, 4, 8)))
    tl = label_awareness(events, compile_query_set([MASK]))
    labels = [tl.label(1, day_ts(d)) for d in range(12)]
    assert labels == sorted(labels)
    assert labels[8] == 1 and labels[7] == 0


def test_raising_threshold_never_makes_first_aware_earlier():
    events = ql(*((day_ts(d), "n95 face mask") for d in (1, 2, 5, 7, 9)))
    m = compile_query_set([MASK])
    previous = -1
    for threshold in (1, 2, 3, 4, 5):
        ts = label_awareness(events, m, threshold=threshold).first_aware_of(1)
        assert ts is not None and ts >= previous
        previous = ts
    assert label_awareness(events, m, threshold=6).first_aware_of(1) is None


def test_adding_patterns_never_delays_awareness():
    events = ql(
        (day_ts(1), "thermometer"),
        (day_ts(2), "n95 face mask"),
        (day_ts(3), "thermometer digital"),
        (day_ts(4), "kn95 face mask"),
        (day_ts(6), "kf94 face mask"),
    )
    narrow = label_awareness(events, compile_query_set([MASK])).first_aware_of(1)
    wide = label_awareness(events, compile_query_set([MASK, "(thermometer)"])).first_aware_of(1)
    assert wide <= narrow


def test_labeling_matches_reference_scan_on_random_logs():
    rng = np.random.default_rng(15)
    m = compile_query_set([MASK, "(wuhan pneumonia)"])
    texts = [
        "n95 face mask", "kn95 face mask", "wuhan pneumonia", "rice cooker",
        "winter coat", "n95", "face mask",
    ]
    records = []
    by_ind = {}
    for iid in range(1, 40):
        k = int(rng.integers(0, 9))
        for _ in range(k):
            ts = int(rng.integers(day_ts(0), day_ts(30)))
            text = texts[int(rng.integers(len(texts)))]
            records.append(("query", iid, ts, text, False))
            by_ind.setdefault(iid, []).append((ts, text))
    tl = label_awareness(make_events(records), m)
    want = first_aware_scan(by_ind, m.matches)
    got = {int(i): int(t) for i, t in zip(tl.ids, tl.first_aware)}
    assert got == want


def test_match_mask_agrees_with_scalar_matcher(small_world, matcher):
    _, dataset, _ = small_world
    events = dataset.events
    mask = match_mask(events, matcher)
    rows = np.random.default_rng(0).integers(0, len(events), size=300)
    for i in rows:
        expected = bool(events.queries_mask()[i]) and matcher.matches(events.text_pool[events.text_code[i]])
        assert bool(mask[i]) == expected


# --- timeline container ---------------------------------------------------------

def test_timeline_alignment_and_masks():
    tl = AwarenessTimeline(np.array([3, 1], dtype=np.uint64), np.array([50, 10], dtype=np.int64))
    ids = np.array([1, 2, 3], dtype=np.uint64)
    assert tl.aligned(ids).tolist() == [10, NEVER, 50]
    assert tl.aware_mask_at(30, ids).tolist() == [True, False, False]
    assert tl.label(1, 9) == 0 and tl.label(1, 10) == 1
    restricted = tl.restrict(np.array([3], dtype=np.uint64))
    assert len(restricted) == 1 and restricted.first_aware_of(3) == 50
    assert tl == AwarenessTimeline(np.array([1, 3], dtype=np.uint64), np.array([10, 50], dtype=np.int64))
    assert tl != restricted


def test_timeline_never_uses_max_int64():
    assert NEVER == np.iinfo(np.int64).max
    empty = AwarenessTimeline(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    assert empty.aligned(np.array([5], dtype=np.uint64)).tolist() == [NEVER]
    assert empty.first_aware_of(5) is None


def test_buckets_take_times_across_the_whole_int64_range():
    # the differences of these times wrap around in int64
    times = np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64)
    tl = AwarenessTimeline(np.array([1, 2, 3], dtype=np.uint64), np.array([-(2**63), -5, 7]))
    ids = np.array([1, 2, 3, 4], dtype=np.uint64)
    # id 4 is never aware, not even at the last time, int64 max
    assert tl.buckets(ids, times).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="ascending"):
        tl.buckets(ids, times[::-1])


def test_never_aware_ids_are_not_aware_at_never():
    # a config may name NEVER, int64 max, as a checkpoint time
    tl = AwarenessTimeline(np.array([1, 2], dtype=np.uint64), np.array([5, NEVER - 1]))
    ids = np.array([1, 2, 3], dtype=np.uint64)
    assert tl.buckets(ids, [0, NEVER]).tolist() == [1, 1, 2]
    assert tl.buckets(ids, [NEVER]).tolist() == [0, 0, 1]
    assert tl.aware_mask_at(NEVER, ids).tolist() == [True, True, False]
    assert tl.aware_mask_at(NEVER - 2, ids).tolist() == [True, False, False]
    assert awareness_percentage(tl, ids, NEVER) == 2 / 3


# --- qualified cohort ------------------------------------------------------------

def month_start(cal, k):
    """Timestamp shortly after local midnight k months before the window."""
    from datetime import datetime, timedelta, timezone

    cn = timezone(timedelta(hours=8))
    d0 = datetime.fromtimestamp(cal.day_start_ts(0), tz=cn)
    year, month = d0.year, d0.month - k
    while month < 1:
        month += 12
        year -= 1
    return int(datetime(year, month, 15, tzinfo=cn).timestamp())


def test_sixty_months_qualifies_and_one_gap_disqualifies():
    cal = Calendar.from_dates("2019-12-01", "2020-02-26")
    window = history_window(cal, months=60)
    full = [("purchase", 1, month_start(cal, k), "books", False) for k in range(1, 61)]
    gapped = [
        ("purchase", 2, month_start(cal, k), "books", False)
        for k in range(1, 61)
        if k != 30
    ]
    events = make_events(full + gapped)
    assert filter_qualified(events, window).tolist() == [1]


def test_purchases_outside_window_do_not_count():
    cal = Calendar.from_dates("2019-12-01", "2020-02-26")
    window = history_window(cal, months=60)
    records = [("purchase", 1, month_start(cal, k), "books", False) for k in range(2, 62)]
    # has 60 consecutive months but they start one month too early
    assert filter_qualified(make_events(records), window).tolist() == []


def test_filter_qualified_matches_reference_on_random_histories(monkeypatch):
    rng = np.random.default_rng(8)
    cal = Calendar.from_dates("2020-01-05", "2020-01-09")
    months = 6
    window = history_window(cal, months=months)
    required = months_before(cal.day_start_ts(0), months)
    records, by_id = [], {}
    for iid in range(1, 101):
        n = int(rng.integers(0, 18))
        ts_list = []
        for _ in range(n):
            # spread over ~8 months around the window, some outside it
            ts = cal.day_start_ts(0) - int(rng.integers(0, 8 * 31 * 86400))
            ts_list.append(ts)
            records.append(("purchase", iid, ts, "books", False))
        by_id[iid] = ts_list
    events = make_events(records)
    want = qualified_scan(by_id, required)
    assert filter_qualified(events, window).tolist() == want
    # chunks that split an individual's months
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 7)
    assert filter_qualified(events, window).tolist() == want


def test_filter_qualified_memory_does_not_grow_with_the_events(monkeypatch):
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 1000)
    cal = Calendar.from_dates("2020-01-05", "2020-01-09")
    window = history_window(cal, months=12)

    def peak(n):
        events = EventLog.canonical(*random_event_columns(n, cal), ["a", "b", "c", "d", "e"])
        return traced_peak(filter_qualified, events, window)

    peak(1000)  # numpy sets up what it needs on first use
    # less than a bool column of the 60,000 events added
    assert peak(80_000) - peak(20_000) < 60_000


def test_purchases_at_month_starts_qualify():
    cal = Calendar.from_dates("2019-12-01", "2019-12-02")
    window = history_window(cal, months=2)
    records = [
        ("purchase", i, month_start(cal, k), "books", False)
        for i in (1, 2, 3)
        for k in (1, 2)
    ]
    assert filter_qualified(make_events(records), window).tolist() == [1, 2, 3]


def test_simulated_qualified_flags_recovered(small_world, qualified_small):
    _, dataset, _ = small_world
    cols = dataset.population
    expected = cols.ids[cols.qualified]
    assert np.array_equal(qualified_small, expected)


# --- cohort percentage ------------------------------------------------------------

def test_awareness_percentage_three_of_eight():
    tl = AwarenessTimeline(
        np.array([1, 2, 3], dtype=np.uint64), np.array([100, 200, 300], dtype=np.int64)
    )
    cohort = np.arange(1, 9, dtype=np.uint64)
    assert awareness_percentage(tl, cohort, 300) == 0.375
    assert awareness_percentage(tl, cohort, 299) == 0.25
    assert awareness_percentage(tl, cohort, 50) == 0.0


def test_awareness_percentage_empty_cohort_raises():
    tl = AwarenessTimeline(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    with pytest.raises(CohortError):
        awareness_percentage(tl, np.empty(0, dtype=np.uint64), 10)


def test_noise_free_simulation_recovers_truth_days(small_world, timeline_small):
    _, dataset, truth = small_world
    cal = dataset.calendar
    assert np.array_equal(timeline_small.ids, truth.timeline.ids)
    got_days = cal.day_of(timeline_small.first_aware)
    want_days = cal.day_of(truth.timeline.first_aware)
    assert np.array_equal(got_days, want_days)
    # labeled moment sits at or after the true moment, same day
    assert np.all(timeline_small.first_aware >= truth.timeline.first_aware)
