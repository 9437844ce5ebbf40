"""Awareness labeling from query logs.

A pattern expression is a conjunction of OR-groups:

    expr  := group ('&' group)*
    group := '(' term ('|' term)* ')'
    term  := free text without '|', '&', '(' or ')'

A query matches an expression when every group has at least one term
present in the normalized text (lowercased, whitespace collapsed, terms
matched on token boundaries).  An individual becomes aware at the moment
of their third matching query, cumulatively, and stays aware forever.
"""

import numpy as np

from .domain import (
    EVENT_KIND_PURCHASE,
    EVENT_KIND_QUERY,
    find_rows,
    month_number,
    month_start_ts,
    row_chunks,
)
from .errors import CohortError, PatternSyntaxError
from .kernels import distinct_rows, sort_rows

# Sentinel for "never aware" in aligned first-aware timestamps.  A config
# may name int64 max as a time too, so the time tests check for it.
NEVER = np.iinfo(np.int64).max


def normalize_text(text):
    return " ".join(text.lower().split())


def parse_pattern(expr):
    """Parse one expression into a tuple of OR-groups (tuples of terms)."""
    groups = []
    i = 0
    n = len(expr)
    while True:
        while i < n and expr[i].isspace():
            i += 1
        if i >= n:
            if groups:
                break
            raise PatternSyntaxError(expr, i, "expected '('")
        if expr[i] != "(":
            raise PatternSyntaxError(expr, i, f"expected '(' but found {expr[i]!r}")
        i += 1
        terms = []
        start = i
        while True:
            if i >= n:
                raise PatternSyntaxError(expr, i, "unterminated group")
            ch = expr[i]
            if ch in "|)":
                term = normalize_text(expr[start:i])
                if not term:
                    raise PatternSyntaxError(expr, start, "empty term")
                terms.append(term)
                i += 1
                if ch == ")":
                    break
                start = i
            elif ch in "(&":
                raise PatternSyntaxError(expr, i, f"unexpected {ch!r} inside group")
            else:
                i += 1
        groups.append(tuple(terms))
        while i < n and expr[i].isspace():
            i += 1
        if i >= n:
            break
        if expr[i] != "&":
            raise PatternSyntaxError(expr, i, f"expected '&' but found {expr[i]!r}")
        i += 1
    return tuple(groups)


class QueryMatcher:
    """Compiled set of pattern expressions."""

    def __init__(self, patterns):
        self.patterns = tuple(patterns)

    def matches(self, text):
        padded = f" {normalize_text(text)} "
        return any(
            all(any(f" {t} " in padded for t in group) for group in pattern)
            for pattern in self.patterns
        )


def compile_query_set(expressions):
    """Compile pattern expressions (strings) into a QueryMatcher."""
    return QueryMatcher([parse_pattern(e) for e in expressions])


def history_window(calendar, months=60):
    """Month-number window of the `months` months before the calendar start."""
    start_month = int(month_number(np.array([calendar.day_start_ts(0)]))[0])
    return start_month - months, months


def filter_qualified(events, window, min_per_month=1):
    """Ids with >= min_per_month purchases in every month of the window.

    ``window`` is (first_month_number, n_months) as from history_window,
    ``events`` a log in canonical (time) order and ``min_per_month`` at
    least 1.  Result is a sorted uint64 array.  The log is walked one month
    at a time, each month found by a search of the timestamps and read
    WRITE_CHUNK_ROWS rows at a time: the first month's buyers are the
    candidates, and each month keeps those of them that buy often enough in
    it.  The memory used grows with the individuals, not with the events
    or the months.
    """
    first_month, n_months = window
    if n_months <= 0:
        raise CohortError("history window must cover at least one month")
    edges = np.searchsorted(
        events.timestamp, month_start_ts(np.arange(first_month, first_month + n_months + 1))
    )

    def buyers(lo, hi):
        """The buyer of each purchase from row lo to row hi, a chunk at a time."""
        for rows in row_chunks(hi, lo):
            yield events.individual_id[rows][events.kind[rows] == EVENT_KIND_PURCHASE]

    qualified = np.empty(0, dtype=np.uint64)
    for ids in buyers(edges[0], edges[1]):
        (ids,) = distinct_rows(ids)  # ascending lookups are the fast ones
        new = ids[~find_rows(qualified, ids)[1]]
        qualified = np.insert(qualified, np.searchsorted(qualified, new), new)
    for lo, hi in zip(edges[:-1], edges[1:]):
        counts = np.zeros(len(qualified), dtype=np.int64)
        for ids in buyers(lo, hi):
            at, found = find_rows(qualified, np.sort(ids))
            counts += np.bincount(at[found], minlength=len(qualified))
        qualified = qualified[counts >= min_per_month]
    return qualified


class AwarenessTimeline:
    """First-aware timestamps per individual, id-sorted.

    Only individuals that ever became aware are stored; lookups for others
    yield the NEVER sentinel (or None from first_aware_of).
    """

    def __init__(self, ids, first_aware):
        ids = np.asarray(ids, dtype=np.uint64)
        first_aware = np.asarray(first_aware, dtype=np.int64)
        order = np.argsort(ids)
        self.ids = ids[order]
        self.first_aware = first_aware[order]

    def __len__(self):
        return len(self.ids)

    def first_aware_of(self, individual_id):
        pos = np.searchsorted(self.ids, np.uint64(individual_id))
        if pos < len(self.ids) and self.ids[pos] == np.uint64(individual_id):
            return int(self.first_aware[pos])
        return None

    def label(self, individual_id, t):
        ts = self.first_aware_of(individual_id)
        return int(ts is not None and ts <= t)

    def aligned(self, ids):
        """First-aware timestamps aligned to `ids` (NEVER where absent)."""
        ids = np.asarray(ids, dtype=np.uint64)
        if len(self.ids) == 0:
            return np.full(len(ids), NEVER, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        return np.where(self.ids[pos] == ids, self.first_aware[pos], NEVER)

    def aware_mask_at(self, t, ids):
        """Whether each id is aware at time ``t``."""
        return self.buckets(ids, [t]) == 0

    def buckets(self, ids, times):
        """Per id, the index of the first of the ascending ``times`` at which
        it is aware, or len(times) if it never is: aware at times[k] exactly
        when its bucket is <= k.  An id never aware is not aware at NEVER."""
        times = np.asarray(times)
        # compared, not subtracted: an int64 difference can wrap around
        if (times[1:] < times[:-1]).any():
            raise ValueError("bucket times must be ascending")
        first = self.aligned(ids)
        return np.where(first == NEVER, len(times), np.searchsorted(times, first))

    def restrict(self, ids):
        keep = np.isin(self.ids, np.asarray(ids, dtype=np.uint64))
        return AwarenessTimeline(self.ids[keep], self.first_aware[keep])

    def __eq__(self, other):
        if not isinstance(other, AwarenessTimeline):
            return False
        return np.array_equal(self.ids, other.ids) and np.array_equal(
            self.first_aware, other.first_aware
        )


def match_mask(events, matcher):
    """Boolean mask over all events: query events whose text matches.

    Each distinct text of the log's pool is matched once, and the mask is
    filled WRITE_CHUNK_ROWS rows at a time.
    """
    pool_hit = np.fromiter(
        (matcher.matches(t) for t in events.text_pool), dtype=bool, count=len(events.text_pool)
    )
    hit = np.empty(len(events), dtype=bool)
    for rows in row_chunks(len(events)):  # indexing by the int32 codes casts them to intp
        np.logical_and(
            events.kind[rows] == EVENT_KIND_QUERY, pool_hit[events.text_code[rows]], out=hit[rows]
        )
    return hit


def label_awareness(events, matcher, threshold=3):
    """Label first-aware moments: timestamp of the threshold-th match."""
    hit = match_mask(events, matcher)
    ids = events.individual_id[hit]
    ts = events.timestamp[hit]
    if len(ids) == 0:
        return AwarenessTimeline(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    sort_rows(ids, ts)
    uids, starts, counts = np.unique(ids, return_index=True, return_counts=True)
    enough = counts >= threshold
    return AwarenessTimeline(uids[enough], ts[starts[enough] + threshold - 1])


def awareness_percentage(timeline, cohort_ids, t):
    """Share of the cohort aware at time t, in [0, 1]."""
    cohort_ids = np.asarray(cohort_ids, dtype=np.uint64)
    if len(cohort_ids) == 0:
        raise CohortError("awareness percentage over an empty cohort")
    return float(np.mean(timeline.aware_mask_at(t, cohort_ids)))
