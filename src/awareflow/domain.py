"""Shared data model: population, region and address columns, columnar
event log, calendar, dataset validation.

Every dataset table can be line-delimited JSON (one object per line,
UTF-8), the form in which data is brought in and exported, read and
written by ``files``.  One field table per file (DATASET_FIELDS) declares
each key's kind, range or names and column: ``files.read_jsonl`` and
``validate_dataset`` enforce it, and ``files.write_jsonl`` takes every key
from it, so a file's keys are in table order.  ``gen``, the one writer of
the stored dataset, stores the tables of COLUMN_TABLES as one ``np.save``
file per column instead, in the field's dtype, and the stages after it read
only those, through ``files.read_columns``, which checks them against the
same field tables.  In memory every table is numpy columns named after
the fields (``ids`` holds the population's ``id``, a region's ``name`` and
``daily_confirmed_cases`` are object columns of strings and tuples, an
address's ``active_interval`` is split into ``active_start`` and
``active_end``, an event's ``query_text`` or ``category`` is its
``text_code`` into the log's ``text_pool``, and enum fields hold indexes
into the tuples below).  The ``validate_*`` functions
return the list of violations they find, and ``raise_violations`` raises
it.  Timestamps are integer epoch seconds; calendar days are local
midnight-to-midnight in China standard time (UTC+8, no DST).  Ids are
unsigned 64-bit decimals.
"""

import copy
import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Annotated

import numpy as np

from .errors import IntegrityError
from .kernels import distinct_rows, sort_rows

CHINA_UTC_OFFSET = 8 * 3600
SECONDS_PER_DAY = 86400
_EPOCH_DATE = date(1970, 1, 1)

GENDERS = ("male", "female")
EDUCATIONS = ("college_or_lower", "bachelor", "postgraduate")
OCCUPATIONS = (
    "hospital_staff",
    "education_research",
    "white_collar",
    "government",
    "blue_collar",
    "agri_forestry_husbandry_fishery",
    "individual_operation_service",
)
# alphabetical, so sorting kind codes sorts kind names
ADDRESS_KINDS = ("company", "home", "school_dorm")
EVENT_TYPES = ("query", "purchase")  # indexed by the EVENT_KIND_* codes
EVENT_KIND_QUERY = 0
EVENT_KIND_PURCHASE = 1

MAX_PURCHASING_POWER = 7
# The row writers format this many rows per join, and filter_qualified and
# match_mask take this many events at a time, so that none holds a copy of a
# whole table.
WRITE_CHUNK_ROWS = 10_000
# EventLog.canonical sorts time buckets of at least this many rows where it
# can, so that the overhead of each sort stays small beside its work
SORT_BUCKET_ROWS = 1 << 16


def day_number(ts):
    """China-local day number (days since epoch) of an epoch timestamp."""
    return (np.asarray(ts, dtype=np.int64) + CHINA_UTC_OFFSET) // SECONDS_PER_DAY


def month_number(ts):
    """China-local month number (months since 1970-01) of a timestamp."""
    days = day_number(ts)
    return days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)


def month_start_ts(months):
    """Epoch seconds of China-local midnight opening each month number."""
    m = np.asarray(months, dtype=np.int64).astype("datetime64[M]")
    days = m.astype("datetime64[D]").astype(np.int64)
    return days * SECONDS_PER_DAY - CHINA_UTC_OFFSET


class Calendar:
    """Contiguous run of observation days in China local time."""

    def __init__(self, start_day, n_days):
        if n_days < 1:
            raise ValueError("calendar needs at least one day")
        self.start_day = int(start_day)
        self.n_days = int(n_days)

    @classmethod
    def from_dates(cls, start_date, end_date):
        """Inclusive [start_date, end_date], ISO strings."""
        start = date.fromisoformat(start_date)
        end = date.fromisoformat(end_date)
        n = (end - start).days + 1
        return cls((start - _EPOCH_DATE).days, n)

    @property
    def end_day(self):
        return self.start_day + self.n_days - 1

    def day_of(self, ts):
        """0-based day index of a timestamp; may fall outside [0, n_days)."""
        return day_number(ts) - self.start_day

    def day_start_ts(self, index):
        """Epoch seconds of China-local midnight opening day ``index``."""
        return (self.start_day + index) * SECONDS_PER_DAY - CHINA_UTC_OFFSET

    def day_ends(self):
        """Epoch seconds of the last second of each day, ascending (int64)."""
        return self.day_start_ts(np.arange(1, self.n_days + 1, dtype=np.int64)) - 1

    def date_of(self, index):
        return _EPOCH_DATE + timedelta(days=self.start_day + int(index))

    def iso_dates(self):
        return [self.date_of(i).isoformat() for i in range(self.n_days)]

    def dates_of(self, ts):
        """The ISO date of each timestamp of ``ts``, "NA" outside the window."""
        days = self.day_of(ts)
        inside = (days >= 0) & (days < self.n_days)
        dates = np.array([*self.iso_dates(), "NA"], dtype=object)
        return dates[np.where(inside, days, self.n_days)]

    def __eq__(self, other):
        return (
            isinstance(other, Calendar)
            and self.start_day == other.start_day
            and self.n_days == other.n_days
        )

    def __repr__(self):
        return (
            f"Calendar({self.date_of(0).isoformat()}..."
            f"{self.date_of(self.n_days - 1).isoformat()}, {self.n_days} days)"
        )


def intern_texts(texts, codes_of):
    """Each text's code in the dict ``codes_of`` (text -> code); a text not
    yet there is added with the next code."""
    return np.fromiter(
        (codes_of.setdefault(t, len(codes_of)) for t in texts), dtype=np.int32, count=len(texts)
    )


@dataclass(frozen=True)
class Bounds:
    """The range of a number, declared in a config field's annotation as in
    ``Annotated[float, Bounds(0, 1)]``: from ``lo`` (excluded with ``open_lo``)
    to ``hi``; None leaves a side open."""

    lo: object = None
    hi: object = None
    open_lo: bool = False

    def problem(self, v):
        """Why ``v`` lies outside, as in 'must be in [0, 1], got 2'; None if inside."""
        lo, hi = self.lo, self.hi
        if (lo is None or v > lo or v == lo and not self.open_lo) and (hi is None or v <= hi):
            return None
        if hi is None:
            return f"must be {'>' if self.open_lo else '>='} {lo}, got {v}"
        return f"must be in {'(' if self.open_lo else '['}{lo}, {hi}], got {v}"


# a config's epoch seconds, which the int64 timestamp columns must hold
Timestamp = Annotated[int, Bounds(-(2**63), 2**63 - 1)]


# Field kinds: kind -> (its column's dtype, unless the field names another; the JSON
# types it takes; the problem of a value of another type)
_KINDS = {
    "id": (np.uint64, {int}, "must be an unsigned 64-bit integer"),
    "int": (np.int64, {int}, "must be an integer"),
    "number": (np.float64, {int, float}, "must be a number"),
    "bool": (bool, {bool}, "must be a boolean"),
    "text": (np.int32, {str}, "must be a string"),
    "enum": (np.int8, {str}, "must be a string"),
    "interval": (np.int64, {list}, "must be [start, end] epoch seconds"),
    "counts": (object, {list}, "must be a list of ints >= 0"),
}
_INT64 = range(-(2**63), 2**63)


@dataclass(frozen=True)
class Field:
    """One key of a JSONL table, the column it fills and the values it takes.

    An ``enum`` holds its index in ``names``; ``text`` holds a code into
    the table's text pool; an ``interval`` fills ``<column>_start`` and
    ``<column>_end``.  ``lo`` and ``hi`` bound an int or number
    inclusively.  Only the rows whose first field (an enum) has the code
    ``when`` carry a field with ``when``; the others hold zero in its
    column.
    """

    key: str
    kind: str
    column: str = None
    lo: object = None
    hi: object = None
    names: tuple = ()
    dtype: object = None
    when: int = None

    def __post_init__(self):
        dtype = _KINDS[self.kind][0] if self.dtype is None else self.dtype
        object.__setattr__(self, "column", self.column or self.key)
        object.__setattr__(self, "dtype", np.dtype(dtype))

    @property
    def columns(self):
        if self.kind == "interval":
            return (f"{self.column}_start", f"{self.column}_end")
        return (self.column,)

    @property
    def json_types(self):
        return _KINDS[self.kind][1]

    def problem(self, v):
        """Why this field rejects the JSON value ``v``; None when it accepts it."""
        _, types, problem = _KINDS[self.kind]
        if type(v) not in types or (
            self.kind == "id" and v not in range(2**64)
            or self.kind == "interval"
            and not (len(v) == 2 and all(type(x) is int and x in _INT64 for x in v))
            or self.kind == "counts" and not all(type(x) is int and x >= 0 for x in v)
        ):
            return problem
        if self.kind == "int" and v not in _INT64:
            return "must fit in a signed 64-bit integer"
        if self.kind == "enum" and v not in self.names:
            return f"must be one of {sorted(self.names)}, got {v!r}"
        if self.kind == "number":
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                return f"must be finite, got {v}"
        bounds = Bounds(self.lo, self.hi).problem(v)
        if bounds:
            return bounds
        limits = np.iinfo(self.dtype) if self.kind in ("id", "int") else None
        if limits is not None and not limits.min <= v <= limits.max:
            return f"must fit in {self.dtype}, got {v}"
        return None

    def _range(self):
        """The inclusive (lo, hi) of a column of this field; None leaves a side open."""
        if self.kind == "enum":
            return 0, len(self.names) - 1  # its codes
        return (0 if self.kind == "id" and self.lo is None else self.lo), self.hi

    def outside(self, col):
        """The mask of the values of a column of this field, of its dtype,
        that ``problem`` refuses: outside its bounds or, for a number, not
        finite; and of the stored values no JSON value reads as: an enum
        code past its names, a bool byte other than 0 and 1."""
        lo, hi = self._range()
        if self.kind == "number":
            bad = ~np.isfinite(col)
        elif self.kind == "bool":
            bad = col.view(np.uint8) > 1
        else:
            bad = np.zeros(len(col), dtype=bool)
        if lo is not None:
            bad |= col < lo
        if hi is not None:
            bad |= col > hi
        return bad

    def stored_problem(self, col, row):
        """Why ``outside`` refuses row ``row`` of the column ``col`` of this field."""
        if self.kind == "bool":
            return f"must be a byte 0 or 1, got {col.view(np.uint8)[row]}"
        if self.kind == "enum":
            return f"code {Bounds(*self._range()).problem(col[row].item())}"
        return self.problem(col[row].item())


def column_dtypes(fields):
    """Column name -> dtype of a field table, in field order."""
    return {name: f.dtype for f in fields for name in f.columns}


POPULATION_FIELDS = (
    Field("id", "id", column="ids"),
    Field("gender", "enum", names=GENDERS),
    Field("age", "int", lo=0, dtype=np.int16),
    Field("education", "enum", names=EDUCATIONS),
    Field("occupation", "enum", names=OCCUPATIONS),
    Field("purchasing_power", "int", lo=1, hi=MAX_PURCHASING_POWER, dtype=np.int8),
    Field("has_child", "bool"),
    Field("married", "bool"),
    Field("home_city", "id", dtype=np.int64),
    Field("qualified", "bool"),
)
REGION_FIELDS = (
    Field("city_id", "id"),
    # province_of_individuals puts province ids in an int64 column
    Field("province_id", "id", dtype=np.int64),
    Field("name", "text"),
    Field("distance_to_epicenter", "number", lo=0),
    Field("gdp", "number", lo=0),
    Field("daily_confirmed_cases", "counts"),
    Field("cultural_tightness", "number"),
    Field("paddy_rice_pct", "number", lo=0, hi=1),
    Field("innovation_index", "number"),
    Field("illiteracy_pct", "number", lo=0, hi=1),
    Field("multi_ethnic_household_pct", "number", lo=0, hi=1),
    Field("population_count", "int", lo=1),
)
ADDRESS_FIELDS = (
    Field("individual_id", "id"),
    Field("address_id", "id"),
    Field("kind", "enum", names=ADDRESS_KINDS),
    Field("active_interval", "interval", column="active"),
)
EVENT_FIELDS = (
    Field("type", "enum", column="kind", names=EVENT_TYPES, dtype=np.uint8),
    Field("individual_id", "id"),
    Field("timestamp", "int"),
    Field("query_text", "text", column="text_code", when=EVENT_KIND_QUERY),
    Field("category", "text", column="text_code", when=EVENT_KIND_PURCHASE),
    Field("is_ppe", "bool", when=EVENT_KIND_PURCHASE),
)
# the dataset's JSONL files, in load_dataset's argument order, and their field tables
DATASET_FILES = ("population.jsonl", "regions.jsonl", "addresses.jsonl", "events.jsonl")
DATASET_FIELDS = dict(zip(DATASET_FILES, (
    POPULATION_FIELDS, REGION_FIELDS, ADDRESS_FIELDS, EVENT_FIELDS,
)))


class Columns:
    """A table held as equal-length numpy columns, one attribute each.

    ``DTYPES`` names the columns, in row-tuple order, with their dtypes.
    ``ORDER`` names the columns whose values order the rows, most
    significant first, and ``UNIQUE`` says that no two rows tie on them.
    """

    DTYPES = {}
    ORDER, UNIQUE = (), False

    def __init__(self, **columns):
        for name, dtype in self.DTYPES.items():
            values = columns.pop(name)
            if dtype == object:
                # one cell per row, also where every row holds a tuple of one length
                values = np.fromiter(values, dtype=object, count=len(values))
            setattr(self, name, np.asarray(values, dtype=dtype))
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")

    @classmethod
    def from_rows(cls, rows):
        """The table of a list of row tuples."""
        columns = list(zip(*rows)) or [()] * len(cls.DTYPES)
        return cls(**dict(zip(cls.DTYPES, columns)))

    def __len__(self):
        return len(getattr(self, next(iter(self.DTYPES))))

    def take(self, rows):
        """The table of ``rows``; attributes other than columns are kept."""
        out = copy.copy(self)
        out.__dict__.update({name: getattr(self, name)[rows] for name in self.DTYPES})
        return out

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.DTYPES
        )

    def disorder(self):
        """The first row that sorts before the row above it by ORDER (or,
        UNIQUE, ties with it); None when the rows are in order."""
        before = np.zeros(max(len(self) - 1, 0), dtype=bool)
        tied = np.ones_like(before)
        for name in self.ORDER:
            col = getattr(self, name)
            before |= tied & (col[1:] < col[:-1])
            tied &= col[1:] == col[:-1]
        bad = before | tied if self.UNIQUE else before
        return int(np.argmax(bad)) + 1 if bad.any() else None


class EventLog(Columns):
    """Columnar store for the mixed query/purchase stream.

    Texts are interned: ``text_pool`` holds the sorted distinct texts that
    occur in the log and ``text_code`` maps each row into it.  Rows are in
    canonical global order: (timestamp, individual_id, kind, text, is_ppe).
    """

    DTYPES = column_dtypes(EVENT_FIELDS)

    def __init__(self, text_pool=(), **columns):
        super().__init__(**columns)
        self.text_pool = tuple(text_pool)

    @classmethod
    def empty(cls):
        return cls.from_rows([])

    @classmethod
    def canonical(
        cls, kind, individual_id, timestamp, text_code, is_ppe, text_pool, bounds=None
    ):
        """Build an EventLog in canonical global order.

        ``text_code`` indexes ``text_pool``, which may be unsorted and hold
        repeated or unused texts; the log's pool keeps the distinct texts
        that occur, sorted.  The order is insensitive to input permutation:
        ties on (timestamp, individual, kind) are broken by the text rank.

        ``bounds`` (ascending row numbers from 0 to the row count) cuts the
        rows into buckets whose times ascend: every timestamp of a bucket
        precedes every one of the next.  Each bucket is sorted alone, which
        puts the whole log in order; without ``bounds`` the table is one
        bucket.  The log takes the columns over: one that already has its
        log dtype is recoded a chunk of rows at a time and sorted in place by
        ``sort_rows``, so the sort needs a spare uint64 key only as long as
        the rows it sorts at once (neighbouring buckets joined up to
        SORT_BUCKET_ROWS rows), not a second log.
        """
        log = cls(
            kind=kind, individual_id=individual_id, timestamp=timestamp,
            text_code=text_code, is_ppe=is_ppe,
        )
        code = log.text_code
        # a chunk at a time: np.bincount would cast the codes to a whole intp column
        seen = np.zeros(len(text_pool), dtype=bool)
        for rows in row_chunks(len(code)):
            seen[code[rows]] = True
        used = np.flatnonzero(seen)
        texts = [text_pool[i] for i in used.tolist()]
        log.text_pool = tuple(sorted(set(texts)))
        rank = {t: r for r, t in enumerate(log.text_pool)}
        recode = np.zeros(len(text_pool), dtype=np.int64)
        recode[used] = [rank[t] for t in texts]
        for rows in row_chunks(len(code)):
            part = code[rows]
            part[...] = recode[part]
        if bounds is None:
            bounds = (0, len(code))
        lo = bounds[0]
        for hi in bounds[1:]:
            # neighbouring buckets are sorted together up to SORT_BUCKET_ROWS rows
            if hi - lo >= SORT_BUCKET_ROWS or hi == bounds[-1]:
                rows = slice(lo, hi)
                sort_rows(
                    log.timestamp[rows], log.individual_id[rows], log.kind[rows], code[rows],
                    log.is_ppe[rows],
                )
                lo = hi
        return log

    def queries_mask(self):
        return self.kind == EVENT_KIND_QUERY

    def purchases_mask(self):
        return self.kind == EVENT_KIND_PURCHASE

    def __eq__(self, other):
        return super().__eq__(other) and self.text_pool == other.text_pool


def find_rows(ids, individual_ids):
    """(rows, found) of ``individual_ids`` in the ascending array ``ids``:
    where each id sits or would sit, and whether ``ids`` holds it."""
    wanted = np.asarray(individual_ids, dtype=np.uint64)
    rows = np.searchsorted(ids, wanted)
    found = rows < len(ids)
    found[found] = ids[rows[found]] == wanted[found]
    return rows, found


def rows_of_ids(ids, individual_ids):
    """Rows of ``individual_ids`` in the ascending array ``ids``.

    An id that ``ids`` does not hold raises IntegrityError naming it.
    """
    wanted = np.asarray(individual_ids, dtype=np.uint64)
    rows, found = find_rows(ids, wanted)
    if not found.all():
        raise IntegrityError(f"unknown individual id {int(wanted[~found][0])}")
    return rows


def row_chunks(stop, start=0):
    """Slices of the rows from ``start`` to ``stop``, WRITE_CHUNK_ROWS at a time."""
    step = WRITE_CHUNK_ROWS
    return (slice(lo, min(lo + step, stop)) for lo in range(start, stop, step))


class PopulationColumns(Columns):
    """The individual table, ids ascending.

    ``gender``, ``education`` and ``occupation`` index GENDERS, EDUCATIONS
    and OCCUPATIONS.
    """

    FIELDS = POPULATION_FIELDS
    DTYPES = column_dtypes(FIELDS)
    ORDER, UNIQUE = ("ids",), True

    @property
    def n(self):
        return len(self.ids)

    def rows_of(self, individual_ids):
        return rows_of_ids(self.ids, individual_ids)


class RegionColumns(Columns):
    """The region table, city ids ascending; ``name`` holds strings and
    ``daily_confirmed_cases`` a tuple of counts per row."""

    DTYPES = {**column_dtypes(REGION_FIELDS), "name": np.dtype(object)}


class AddressColumns(Columns):
    """The address table; ``kind`` indexes ADDRESS_KINDS."""

    FIELDS = ADDRESS_FIELDS
    DTYPES = column_dtypes(FIELDS)
    ORDER = ("individual_id", "kind", "address_id", "active_start")

    def canonical(self):
        """The rows sorted by ORDER, stably."""
        return self.take(np.lexsort([getattr(self, name) for name in reversed(self.ORDER)]))


# the tables gen stores as one np.save file per column of their FIELDS
# (files.stored_paths), rows in ORDER
COLUMN_TABLES = {"population": PopulationColumns, "addresses": AddressColumns}


@dataclass
class Dataset:
    """Immutable-after-load container for one observation run."""

    population: PopulationColumns
    regions: RegionColumns
    addresses: AddressColumns  # None when loaded without its addresses file
    events: EventLog  # None when loaded without its events file
    calendar: Calendar

    def home_regions(self):
        """The row in ``regions`` of each individual's home city."""
        return find_rows(self.regions.city_id, self.population.home_city)[0]

    def distance_km(self):
        """Per-individual distance to the epicenter via the home city."""
        return self.regions.distance_to_epicenter[self.home_regions()]

    def province_of_individuals(self):
        return self.regions.province_id[self.home_regions()]


def raise_violations(violations, what="dataset"):
    """Raise IntegrityError naming the first ten violations, if there are any."""
    if violations:
        shown = "; ".join(violations[:10])
        more = len(violations) - 10
        if more > 0:
            shown += f"; ... {more} more"
        raise IntegrityError(f"{what} failed validation: {shown}", violations)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def infer_calendar(events):
    """Fallback window when none is configured: span of the query events.

    Query events only occur inside the observation window, so their day
    span is the window; with no queries we fall back to the whole event
    span, and with no events at all to a single day at the epoch.
    """
    if len(events) == 0:
        return Calendar(0, 1)
    mask = events.queries_mask()
    ts = events.timestamp[mask] if mask.any() else events.timestamp
    days = day_number(ts)
    lo, hi = int(days.min()), int(days.max())
    return Calendar(lo, hi - lo + 1)


def _range_violations(fields, table, what, keys):
    """``<what> <key of the row>: <field key> <problem>`` for each int or
    number of ``table`` that is not finite or outside its field's range."""
    violations = []
    for f in fields:
        if f.kind in ("int", "number"):
            col = getattr(table, f.column)
            for row in np.flatnonzero(f.outside(col)).tolist():
                violations.append(f"{what} {keys[row]}: {f.key} {f.problem(col[row].item())}")
    return violations


def validate_dataset(dataset):
    """The invariant violations of a dataset, as messages.

    Violations are data, not failures: a dataset accepted by load_dataset
    gives an empty list.  A dataset without addresses or events has no
    checks of them.
    """
    violations = []

    pop = dataset.population
    ids, id_counts = np.unique(pop.ids, return_counts=True)
    dup = id_counts > 1
    for pid, c in zip(ids[dup].tolist(), id_counts[dup].tolist()):
        violations.append(f"duplicate individual id {pid} ({c} records)")

    regions = dataset.regions
    city_ids, city_counts = np.unique(regions.city_id, return_counts=True)
    dup = city_counts > 1
    for cid, c in zip(city_ids[dup].tolist(), city_counts[dup].tolist()):
        violations.append(f"duplicate city_id {cid} ({c} records)")

    (cities,) = distinct_rows(pop.home_city.copy())
    _, known = find_rows(city_ids, cities)
    for row in np.flatnonzero(np.isin(pop.home_city, cities[~known])).tolist():
        violations.append(f"individual {pop.ids[row]}: unknown home_city {pop.home_city[row]}")
    violations += _range_violations(POPULATION_FIELDS, pop, "individual", pop.ids)
    violations += _range_violations(REGION_FIELDS, regions, "region", regions.city_id)
    if len(regions):
        min_dist = regions.distance_to_epicenter.min().item()
        if min_dist != 0:
            violations.append(
                f"no epicenter: minimum distance_to_epicenter is {min_dist}, not 0"
            )
        n_days = dataset.calendar.n_days
        for cid, cases in zip(regions.city_id.tolist(), regions.daily_confirmed_cases):
            if cases and len(cases) != n_days:
                violations.append(
                    f"region {cid}: daily_confirmed_cases has "
                    f"{len(cases)} entries, calendar has {n_days} days"
                )

    if dataset.addresses is not None:
        violations += validate_addresses(dataset.addresses, ids)
    if dataset.events is not None:
        violations += validate_events(dataset.events, ids, dataset.calendar)
    return violations


def validate_addresses(addresses, ids):
    """The violations of an address table: addresses of individuals outside
    ``ids``, intervals that end before they start."""
    violations = []
    resident_bad = ~np.isin(addresses.individual_id, ids)
    interval_bad = addresses.active_start > addresses.active_end
    for row in np.flatnonzero(resident_bad | interval_bad).tolist():
        aid, iid = int(addresses.address_id[row]), int(addresses.individual_id[row])
        if resident_bad[row]:
            violations.append(f"address {aid}: unknown individual {iid}")
        if interval_bad[row]:
            violations.append(
                f"address {aid} / individual {iid}: active_interval start "
                f"{addresses.active_start[row]} > end {addresses.active_end[row]}"
            )
    return violations


def validate_events(events, ids, calendar):
    """The violations of an event log: events of individuals outside ``ids``
    (ascending), events past the calendar end.  The ids are looked up a
    chunk of rows at a time."""
    violations = []
    if len(events):
        # a chunk eight times as long as the population repeats most of its
        # ids, so looking up its distinct ids costs about what a sort of the
        # whole id column would
        size = max(WRITE_CHUNK_ROWS, 8 * len(ids))
        unknown = [np.empty(0, dtype=np.uint64)]
        for lo in range(0, len(events), size):
            (seen,) = distinct_rows(events.individual_id[lo : lo + size].copy())
            _, found = find_rows(ids, seen)
            unknown.append(seen[~found])
        (unknown_ids,) = distinct_rows(np.concatenate(unknown))
        for uid in unknown_ids[:50]:
            violations.append(f"event references unknown individual {int(uid)}")
        if len(unknown_ids) > 50:
            violations.append(
                f"... {len(unknown_ids) - 50} more unknown event individuals"
            )
        # in Python ints: a timestamp near 2**63 wraps day_number's int64 sum
        last = int(events.timestamp.max())
        if last > calendar.day_start_ts(calendar.n_days) - 1:
            violations.append(
                f"events extend past the calendar end "
                f"(day {(last + CHINA_UTC_OFFSET) // SECONDS_PER_DAY} > {calendar.end_day})"
            )
    return violations
