"""Shared data model: population and address columns, columnar event log,
region records, calendar, dataset I/O.

All on-disk formats are line-delimited JSON (one object per line, UTF-8).
In memory the population, address and event tables are numpy columns named
after the file fields (``ids`` holds the population's ``id``, an address's
``active_interval`` is split into ``active_start`` and ``active_end``, an
event's ``query_text`` or ``category`` is its ``text_code`` into the log's
``text_pool``, and enum fields hold indexes into the tuples below); regions
stay records.
Timestamps are integer epoch seconds; calendar days are local
midnight-to-midnight in China standard time (UTC+8, no DST).  Ids are
unsigned 64-bit decimals.
"""

import itertools
import json
import os
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import IntegrityError, ParseError

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
# the dataset's files, in load_dataset's argument order
DATASET_FILES = ("population.jsonl", "regions.jsonl", "addresses.jsonl", "events.jsonl")
EVENT_TYPES = ("query", "purchase")  # indexed by the EVENT_KIND_* codes
EVENT_KIND_QUERY = 0
EVENT_KIND_PURCHASE = 1

MAX_PURCHASING_POWER = 7
# events.jsonl is written this many rows and read this many lines at a time
WRITE_CHUNK_ROWS = 100_000
READ_BLOCK_LINES = 5_000


def day_number(ts):
    """China-local day number (days since epoch) of an epoch timestamp."""
    return (np.asarray(ts, dtype=np.int64) + CHINA_UTC_OFFSET) // SECONDS_PER_DAY


def month_number(ts):
    """China-local month number (months since 1970-01) of a timestamp."""
    days = day_number(ts)
    return days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)


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


@dataclass(frozen=True)
class Region:
    city_id: int
    province_id: int
    name: str
    distance_to_epicenter: float
    gdp: float
    daily_confirmed_cases: tuple
    cultural_tightness: float
    paddy_rice_pct: float
    innovation_index: float
    illiteracy_pct: float
    multi_ethnic_household_pct: float
    population_count: int


def intern_texts(texts, codes_of):
    """Each text's code in the dict ``codes_of`` (text -> code); a text not
    yet there is added with the next code."""
    return np.fromiter(
        (codes_of.setdefault(t, len(codes_of)) for t in texts), dtype=np.int64, count=len(texts)
    )


class EventLog:
    """Columnar store for the mixed query/purchase stream.

    Texts are interned: ``text_pool`` holds the sorted distinct texts that
    occur in the log and ``text_code`` maps each row into it.  Rows are in
    canonical global order: (timestamp, individual_id, kind, text, is_ppe).
    """

    def __init__(self, kind, individual_id, timestamp, text_code, is_ppe, text_pool):
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.individual_id = np.asarray(individual_id, dtype=np.uint64)
        self.timestamp = np.asarray(timestamp, dtype=np.int64)
        self.text_code = np.asarray(text_code, dtype=np.int64)
        self.is_ppe = np.asarray(is_ppe, dtype=bool)
        self.text_pool = tuple(text_pool)

    @classmethod
    def empty(cls):
        z = np.empty(0)
        return cls(z, z, z, z, z, ())

    @classmethod
    def canonical(cls, kind, individual_id, timestamp, text_code, is_ppe, text_pool):
        """Build an EventLog in canonical global order.

        ``text_code`` indexes ``text_pool``, which may be unsorted and hold
        repeated or unused texts; the log's pool keeps the distinct texts
        that occur, sorted.  The order is insensitive to input permutation:
        ties on (timestamp, individual, kind) are broken by the text rank.
        """
        code = np.asarray(text_code, dtype=np.int64)
        used = np.flatnonzero(np.bincount(code, minlength=len(text_pool)))
        texts = [text_pool[i] for i in used.tolist()]
        pool = sorted(set(texts))
        rank = {t: r for r, t in enumerate(pool)}
        recode = np.zeros(len(text_pool), dtype=np.int64)
        recode[used] = [rank[t] for t in texts]
        log = cls(kind, individual_id, timestamp, recode[code], is_ppe, pool)
        order = np.lexsort(
            (log.is_ppe, log.text_code, log.kind, log.individual_id, log.timestamp)
        )
        return cls(
            log.kind[order],
            log.individual_id[order],
            log.timestamp[order],
            log.text_code[order],
            log.is_ppe[order],
            pool,
        )

    def __len__(self):
        return len(self.timestamp)

    def queries_mask(self):
        return self.kind == EVENT_KIND_QUERY

    def purchases_mask(self):
        return self.kind == EVENT_KIND_PURCHASE

    def __eq__(self, other):
        if not isinstance(other, EventLog) or len(self) != len(other):
            return False
        return (
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.individual_id, other.individual_id)
            and np.array_equal(self.timestamp, other.timestamp)
            and np.array_equal(self.text_code, other.text_code)
            and np.array_equal(self.is_ppe, other.is_ppe)
            and self.text_pool == other.text_pool
        )


def rows_of_ids(ids, individual_ids):
    """Rows of ``individual_ids`` in the ascending array ``ids``.

    An id that ``ids`` does not hold raises IntegrityError naming it.
    """
    wanted = np.asarray(individual_ids, dtype=np.uint64)
    rows = np.searchsorted(ids, wanted)
    found = rows < len(ids)
    found[found] = ids[rows[found]] == wanted[found]
    if not found.all():
        raise IntegrityError(f"unknown individual id {int(wanted[~found][0])}")
    return rows


class Columns:
    """A table held as equal-length numpy columns, one attribute each.

    ``DTYPES`` names the columns, in row-tuple order, with their dtypes.
    """

    DTYPES = {}

    def __init__(self, **columns):
        for name, dtype in self.DTYPES.items():
            setattr(self, name, np.asarray(columns.pop(name), dtype=dtype))
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
        return type(self)(**{name: getattr(self, name)[rows] for name in self.DTYPES})

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.DTYPES
        )


class PopulationColumns(Columns):
    """The individual table, ids ascending.

    ``gender``, ``education`` and ``occupation`` index GENDERS, EDUCATIONS
    and OCCUPATIONS.
    """

    DTYPES = {
        "ids": np.uint64,
        "gender": np.int8,
        "age": np.int16,
        "education": np.int8,
        "occupation": np.int8,
        "purchasing_power": np.int8,
        "has_child": bool,
        "married": bool,
        "home_city": np.int64,
        "qualified": bool,
    }

    @property
    def n(self):
        return len(self.ids)

    def rows_of(self, individual_ids):
        return rows_of_ids(self.ids, individual_ids)


class AddressColumns(Columns):
    """The address table; ``kind`` indexes ADDRESS_KINDS."""

    DTYPES = {
        "individual_id": np.uint64,
        "address_id": np.uint64,
        "kind": np.int8,
        "active_start": np.int64,
        "active_end": np.int64,
    }

    def canonical(self):
        """The rows sorted by (individual_id, kind, address_id, active_start), stably."""
        return self.take(np.lexsort(
            (self.active_start, self.address_id, self.kind, self.individual_id)
        ))


@dataclass
class Dataset:
    """Immutable-after-load container for one observation run."""

    population: PopulationColumns
    regions: list
    addresses: AddressColumns
    events: EventLog  # None when loaded without its events file
    calendar: Calendar

    def distance_km(self):
        """Per-individual distance to the epicenter via the home city."""
        by_city = {r.city_id: r.distance_to_epicenter for r in self.regions}
        return np.array(
            [by_city[c] for c in self.population.home_city.tolist()], dtype=np.float64
        )

    def province_of_individuals(self):
        by_city = {r.city_id: r.province_id for r in self.regions}
        return np.array(
            [by_city[c] for c in self.population.home_city.tolist()], dtype=np.int64
        )


@dataclass
class ValidationReport:
    counts: dict
    enum_histograms: dict
    violations: list
    notes: list

    def ok(self):
        return not self.violations


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def iter_text_lines(path):
    """(line_no, line) of a UTF-8 text file; undecodable bytes raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
            return
        except UnicodeDecodeError:
            pass
    # text mode decodes ahead of the line it yields: find the line at fault
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    raise ParseError(path, line_no, "not valid UTF-8")


def _numbered_lines(path):
    """(line_no, stripped line) of the non-blank lines of a text file."""
    for line_no, line in iter_text_lines(path):
        line = line.strip()
        if line:
            yield line_no, line


def _json_object(path, line_no, line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(path, line_no, "invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    return obj


def _iter_jsonl(path):
    for line_no, line in _numbered_lines(path):
        yield line_no, _json_object(path, line_no, line)


def _need(obj, key, path, line_no):
    if key not in obj:
        raise ParseError(path, line_no, f"missing field {key!r}")
    return obj[key]


def _need_id(obj, key, path, line_no):
    v = _need(obj, key, path, line_no)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0 or v >= 2**64:
        raise ParseError(path, line_no, f"{key} must be an unsigned 64-bit integer")
    return v


def _need_int(obj, key, path, line_no):
    v = _need(obj, key, path, line_no)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(path, line_no, f"{key} must be an integer")
    if not -(2**63) <= v < 2**63:
        raise ParseError(path, line_no, f"{key} must fit in a signed 64-bit integer")
    return v


def _need_num(obj, key, path, line_no):
    v = _need(obj, key, path, line_no)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(path, line_no, f"{key} must be a number")
    return float(v)


def _need_bool(obj, key, path, line_no):
    v = _need(obj, key, path, line_no)
    if not isinstance(v, bool):
        raise ParseError(path, line_no, f"{key} must be a boolean")
    return v


def _need_str(obj, key, path, line_no):
    v = _need(obj, key, path, line_no)
    if not isinstance(v, str):
        raise ParseError(path, line_no, f"{key} must be a string")
    return v


def _need_enum(obj, key, allowed, path, line_no):
    """The index of the value in ``allowed``."""
    v = _need_str(obj, key, path, line_no)
    if v not in allowed:
        raise ParseError(
            path, line_no, f"{key} must be one of {sorted(allowed)}, got {v!r}"
        )
    return allowed.index(v)


def _need_fit(v, key, dtype, path, line_no):
    """``v``, if the integer dtype of its column holds it."""
    info = np.iinfo(dtype)
    if not info.min <= v <= info.max:
        raise ParseError(path, line_no, f"{key} must fit in {info.dtype}, got {v}")
    return v


def read_population(path):
    dtypes = PopulationColumns.DTYPES
    rows = []
    for line_no, obj in _iter_jsonl(path):
        pp = _need_int(obj, "purchasing_power", path, line_no)
        if not 1 <= pp <= MAX_PURCHASING_POWER:
            raise ParseError(
                path,
                line_no,
                f"purchasing_power must be in [1, {MAX_PURCHASING_POWER}], got {pp}",
            )
        age = _need_int(obj, "age", path, line_no)
        if age < 0:
            raise ParseError(path, line_no, f"age must be >= 0, got {age}")
        rows.append((
            _need_id(obj, "id", path, line_no),
            _need_enum(obj, "gender", GENDERS, path, line_no),
            _need_fit(age, "age", dtypes["age"], path, line_no),
            _need_enum(obj, "education", EDUCATIONS, path, line_no),
            _need_enum(obj, "occupation", OCCUPATIONS, path, line_no),
            pp,
            _need_bool(obj, "has_child", path, line_no),
            _need_bool(obj, "married", path, line_no),
            _need_fit(
                _need_id(obj, "home_city", path, line_no),
                "home_city", dtypes["home_city"], path, line_no,
            ),
            _need_bool(obj, "qualified", path, line_no),
        ))
    population = PopulationColumns.from_rows(rows)
    return population.take(np.argsort(population.ids, kind="stable"))


def read_regions(path):
    out = []
    for line_no, obj in _iter_jsonl(path):
        cases = _need(obj, "daily_confirmed_cases", path, line_no)
        if not isinstance(cases, list) or any(
            not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in cases
        ):
            raise ParseError(
                path, line_no, "daily_confirmed_cases must be a list of ints >= 0"
            )
        pop = _need_int(obj, "population_count", path, line_no)
        if pop <= 0:
            raise ParseError(path, line_no, "population_count must be > 0")
        region = Region(
            city_id=_need_id(obj, "city_id", path, line_no),
            # province_of_individuals puts province ids in an int64 column
            province_id=_need_fit(
                _need_id(obj, "province_id", path, line_no),
                "province_id", np.int64, path, line_no,
            ),
            name=_need_str(obj, "name", path, line_no),
            distance_to_epicenter=_need_num(obj, "distance_to_epicenter", path, line_no),
            gdp=_need_num(obj, "gdp", path, line_no),
            daily_confirmed_cases=tuple(cases),
            cultural_tightness=_need_num(obj, "cultural_tightness", path, line_no),
            paddy_rice_pct=_need_num(obj, "paddy_rice_pct", path, line_no),
            innovation_index=_need_num(obj, "innovation_index", path, line_no),
            illiteracy_pct=_need_num(obj, "illiteracy_pct", path, line_no),
            multi_ethnic_household_pct=_need_num(
                obj, "multi_ethnic_household_pct", path, line_no
            ),
            population_count=pop,
        )
        if region.distance_to_epicenter < 0:
            raise ParseError(path, line_no, "distance_to_epicenter must be >= 0")
        for key in ("paddy_rice_pct", "illiteracy_pct", "multi_ethnic_household_pct"):
            v = getattr(region, key)
            if not 0.0 <= v <= 1.0:
                raise ParseError(path, line_no, f"{key} must be in [0, 1], got {v}")
        out.append(region)
    out.sort(key=lambda r: r.city_id)
    return out


def read_addresses(path):
    rows = []
    for line_no, obj in _iter_jsonl(path):
        interval = _need(obj, "active_interval", path, line_no)
        if (
            not isinstance(interval, list)
            or len(interval) != 2
            or any(
                not isinstance(v, int) or isinstance(v, bool) or not -(2**63) <= v < 2**63
                for v in interval
            )
        ):
            raise ParseError(
                path, line_no, "active_interval must be [start, end] epoch seconds"
            )
        rows.append((
            _need_id(obj, "individual_id", path, line_no),
            _need_id(obj, "address_id", path, line_no),
            _need_enum(obj, "kind", ADDRESS_KINDS, path, line_no),
            *interval,
        ))
    return AddressColumns.from_rows(rows).canonical()


def _event_row(obj, path, line_no):
    """(kind, individual_id, timestamp, text, is_ppe) of one event object."""
    kind = _need_enum(obj, "type", EVENT_TYPES, path, line_no)
    iid = _need_id(obj, "individual_id", path, line_no)
    ts = _need_int(obj, "timestamp", path, line_no)
    if kind == EVENT_KIND_QUERY:
        return EVENT_KIND_QUERY, iid, ts, _need_str(obj, "query_text", path, line_no), False
    return (
        EVENT_KIND_PURCHASE, iid, ts,
        _need_str(obj, "category", path, line_no),
        _need_bool(obj, "is_ppe", path, line_no),
    )


def _parse_event_block(lines):
    """(kind, individual_id, timestamp, text, is_ppe) lists of stripped lines,
    parsed with one json.loads and checked in bulk; None when any line is not
    an event the per-line path accepts."""
    n = len(lines)
    body = ",\n".join(lines)
    # Every "}" must end its line.  Then the n objects parsed can only be
    # the n lines: an object spanning lines, or a line holding two values,
    # needs a "}" inside a line.
    if not (body[-1] == "}" and body.count("}") == n and body.count("},\n") == n - 1):
        return None
    try:
        objs = json.loads(f"[{body}]")
    except (json.JSONDecodeError, RecursionError):
        return None
    if len(objs) != n or set(map(type, objs)) != {dict}:
        return None
    try:
        etype = [o["type"] for o in objs]
        iid = [o["individual_id"] for o in objs]
        ts = [o["timestamp"] for o in objs]
        query = [t == "query" for t in etype]
        text = [o["query_text"] if q else o["category"] for o, q in zip(objs, query)]
        ppe = [False if q else o["is_ppe"] for o, q in zip(objs, query)]
    except KeyError:
        return None
    if (
        etype.count("query") + etype.count("purchase") != n
        or set(map(type, iid)) != {int} or min(iid) < 0 or max(iid) >= 2**64
        or set(map(type, ts)) != {int} or min(ts) < -(2**63) or max(ts) >= 2**63
        or set(map(type, text)) != {str}
        or set(map(type, ppe)) != {bool}
    ):
        return None
    kind = [EVENT_KIND_QUERY if q else EVENT_KIND_PURCHASE for q in query]
    return kind, iid, ts, text, ppe


def read_events(path):
    """The canonical EventLog of an events.jsonl file.

    Lines are parsed a block at a time; a block that fails the bulk checks
    is parsed again line by line, which raises its first bad line's
    ParseError.  Each block's texts are interned as it is parsed.
    """
    codes_of = {}
    blocks = []
    numbered = _numbered_lines(path)
    while block := list(itertools.islice(numbered, READ_BLOCK_LINES)):
        columns = _parse_event_block([line for _, line in block])
        if columns is None:
            columns = zip(*[
                _event_row(_json_object(path, line_no, line), path, line_no)
                for line_no, line in block
            ])
        kind, iid, ts, text, ppe = columns
        blocks.append((
            np.array(kind, dtype=np.uint8),
            np.array(iid, dtype=np.uint64),
            np.array(ts, dtype=np.int64),
            intern_texts(text, codes_of),
            np.array(ppe, dtype=bool),
        ))
    if not blocks:
        return EventLog.empty()
    return EventLog.canonical(*(np.concatenate(col) for col in zip(*blocks)), list(codes_of))


# ---------------------------------------------------------------------------
# writers (inverse of the readers; round-trip safe)
# ---------------------------------------------------------------------------

_JSON_BOOLS = ("false", "true")


def write_population(path, population):
    columns = (getattr(population, name).tolist() for name in PopulationColumns.DTYPES)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([
            f'{{"id":{i},"gender":"{GENDERS[g]}","age":{a},'
            f'"education":"{EDUCATIONS[e]}","occupation":"{OCCUPATIONS[o]}",'
            f'"purchasing_power":{pp},"has_child":{_JSON_BOOLS[c]},'
            f'"married":{_JSON_BOOLS[m]},"home_city":{h},"qualified":{_JSON_BOOLS[q]}}}\n'
            for i, g, a, e, o, pp, c, m, h, q in zip(*columns)
        ]))


def write_regions(path, regions):
    with open(path, "w", encoding="utf-8") as fh:
        for r in regions:
            fh.write(
                json.dumps(
                    {
                        "city_id": r.city_id,
                        "province_id": r.province_id,
                        "name": r.name,
                        "distance_to_epicenter": r.distance_to_epicenter,
                        "gdp": r.gdp,
                        "daily_confirmed_cases": list(r.daily_confirmed_cases),
                        "cultural_tightness": r.cultural_tightness,
                        "paddy_rice_pct": r.paddy_rice_pct,
                        "innovation_index": r.innovation_index,
                        "illiteracy_pct": r.illiteracy_pct,
                        "multi_ethnic_household_pct": r.multi_ethnic_household_pct,
                        "population_count": r.population_count,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def write_addresses(path, addresses):
    columns = (getattr(addresses, name).tolist() for name in AddressColumns.DTYPES)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([
            f'{{"individual_id":{i},"address_id":{a},"kind":"{ADDRESS_KINDS[k]}",'
            f'"active_interval":[{lo},{hi}]}}\n'
            for i, a, k, lo, hi in zip(*columns)
        ]))


def write_events(path, events):
    """One line per event, as ``json.dumps(obj, separators=(",", ":"))`` writes it.

    Each distinct text is JSON-encoded once, into three line tails: a query's
    and a purchase's with ``is_ppe`` false or true.  A row picks its tail by
    ``3 * text_code + variant``.
    """
    tails = []
    for t in events.text_pool:
        enc = json.dumps(t)
        tails += (
            f',"query_text":{enc}}}\n',
            f',"category":{enc},"is_ppe":false}}\n',
            f',"category":{enc},"is_ppe":true}}\n',
        )
    heads = ('{"type":"query","individual_id":', '{"type":"purchase","individual_id":')
    purchase = events.kind != EVENT_KIND_QUERY
    variant = 3 * events.text_code + purchase + (purchase & events.is_ppe)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(events), WRITE_CHUNK_ROWS):
            rows = slice(lo, lo + WRITE_CHUNK_ROWS)
            fh.write("".join([
                f'{heads[p]}{i},"timestamp":{t}{tails[v]}'
                for p, i, t, v in zip(
                    purchase[rows].tolist(),
                    events.individual_id[rows].tolist(),
                    events.timestamp[rows].tolist(),
                    variant[rows].tolist(),
                )
            ]))


def save_dataset(dataset, directory):
    """Write the four dataset files into ``directory``; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {name.split(".")[0]: os.path.join(directory, name) for name in DATASET_FILES}
    write_population(paths["population"], dataset.population)
    write_regions(paths["regions"], dataset.regions)
    write_addresses(paths["addresses"], dataset.addresses)
    write_events(paths["events"], dataset.events)
    return paths


# ---------------------------------------------------------------------------
# loading and validation
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


def load_dataset(
    population_path, regions_path, addresses_path, events_path, calendar=None
):
    """Parse, assemble, and validate one dataset from disk.

    With ``events_path`` None the dataset carries ``events=None`` and needs
    a ``calendar``; otherwise a missing calendar is inferred from the events.
    Raises ParseError on per-record schema violations and IntegrityError
    when cross-record invariants (foreign keys, duplicates, interval
    ordering) are violated.
    """
    population = read_population(population_path)
    regions = read_regions(regions_path)
    addresses = read_addresses(addresses_path)
    events = None if events_path is None else read_events(events_path)
    if calendar is None:
        if events is None:
            raise ValueError("a dataset loaded without events needs a calendar")
        calendar = infer_calendar(events)
    dataset = Dataset(population, regions, addresses, events, calendar)
    _raise_violations(validate_dataset(dataset))
    return dataset


def load_events(path, ids, calendar):
    """Parse one events file and check it against the population ``ids``
    and the ``calendar``, as load_dataset checks the events it loads."""
    events = read_events(path)
    _raise_violations(validate_events(events, ids, calendar))
    return events


def _raise_violations(report):
    if report.violations:
        shown = "; ".join(report.violations[:10])
        more = len(report.violations) - 10
        if more > 0:
            shown += f"; ... {more} more"
        raise IntegrityError(
            f"dataset failed validation: {shown}", report.violations
        )


def _histogram(codes, names):
    """Count of each name whose code occurs."""
    values, counts = np.unique(codes, return_counts=True)
    return {names[v]: c for v, c in zip(values.tolist(), counts.tolist())}


def validate_dataset(dataset):
    """Collect entity counts, enum histograms, and invariant violations.

    Violations are data, not failures: the report always comes back, and a
    dataset accepted by load_dataset produces an empty violation list.  A
    dataset without events has no event counts and no event checks.
    """
    violations = []
    notes = []

    pop = dataset.population
    ids, id_counts = np.unique(pop.ids, return_counts=True)
    dup = id_counts > 1
    for pid, c in zip(ids[dup].tolist(), id_counts[dup].tolist()):
        violations.append(f"duplicate individual id {pid} ({c} records)")

    city_ids = {}
    for r in dataset.regions:
        city_ids[r.city_id] = city_ids.get(r.city_id, 0) + 1
    for cid, c in city_ids.items():
        if c > 1:
            violations.append(f"duplicate city_id {cid} ({c} records)")

    pp_bad = (pop.purchasing_power < 1) | (pop.purchasing_power > MAX_PURCHASING_POWER)
    age_bad = pop.age < 0
    unknown_cities = [c for c in np.unique(pop.home_city).tolist() if c not in city_ids]
    city_bad = np.isin(pop.home_city, unknown_cities)
    for row in np.flatnonzero(pp_bad | age_bad | city_bad).tolist():
        pid = int(pop.ids[row])
        if pp_bad[row]:
            violations.append(
                f"individual {pid}: purchasing_power {pop.purchasing_power[row]} "
                f"outside [1, {MAX_PURCHASING_POWER}]"
            )
        if age_bad[row]:
            violations.append(f"individual {pid}: negative age {pop.age[row]}")
        if city_bad[row]:
            violations.append(f"individual {pid}: unknown home_city {pop.home_city[row]}")

    if dataset.regions:
        min_dist = min(r.distance_to_epicenter for r in dataset.regions)
        if min_dist != 0:
            violations.append(
                f"no epicenter: minimum distance_to_epicenter is {min_dist}, not 0"
            )
        for r in dataset.regions:
            for key in (
                "paddy_rice_pct",
                "illiteracy_pct",
                "multi_ethnic_household_pct",
            ):
                v = getattr(r, key)
                if not 0.0 <= v <= 1.0:
                    violations.append(f"region {r.city_id}: {key}={v} outside [0, 1]")
            if r.distance_to_epicenter < 0:
                violations.append(
                    f"region {r.city_id}: negative distance_to_epicenter"
                )
            if r.gdp < 0:
                violations.append(f"region {r.city_id}: negative gdp")
            if r.population_count <= 0:
                violations.append(f"region {r.city_id}: population_count <= 0")
            if (
                r.daily_confirmed_cases
                and len(r.daily_confirmed_cases) != dataset.calendar.n_days
            ):
                violations.append(
                    f"region {r.city_id}: daily_confirmed_cases has "
                    f"{len(r.daily_confirmed_cases)} entries, calendar has "
                    f"{dataset.calendar.n_days} days"
                )

    addr = dataset.addresses
    resident_bad = ~np.isin(addr.individual_id, ids)
    interval_bad = addr.active_start > addr.active_end
    for row in np.flatnonzero(resident_bad | interval_bad).tolist():
        aid, iid = int(addr.address_id[row]), int(addr.individual_id[row])
        if resident_bad[row]:
            violations.append(f"address {aid}: unknown individual {iid}")
        if interval_bad[row]:
            violations.append(
                f"address {aid} / individual {iid}: active_interval start "
                f"{addr.active_start[row]} > end {addr.active_end[row]}"
            )
    home = addr.kind == ADDRESS_KINDS.index("home")
    homes = np.unique(np.column_stack([addr.individual_id[home], addr.address_id[home]]), axis=0)
    _, homes_per_individual = np.unique(homes[:, 0], return_counts=True)
    multi_home = int((homes_per_individual > 1).sum())
    if multi_home:
        notes.append(
            f"{multi_home} individuals appear at more than one home address; "
            "all their family cliques are kept"
        )

    report = ValidationReport(
        counts={
            "individuals": pop.n,
            "regions": len(dataset.regions),
            "addresses": len(addr),
        },
        enum_histograms={
            "gender": _histogram(pop.gender, GENDERS),
            "education": _histogram(pop.education, EDUCATIONS),
            "occupation": _histogram(pop.occupation, OCCUPATIONS),
            "address_kind": _histogram(addr.kind, ADDRESS_KINDS),
        },
        violations=violations,
        notes=notes,
    )
    if dataset.events is not None:
        events = validate_events(dataset.events, ids, dataset.calendar)
        report.counts.update(events.counts)
        report.enum_histograms.update(events.enum_histograms)
        report.violations += events.violations
    return report


def validate_events(events, ids, calendar):
    """The event count, event types and violations of an event log: events
    of individuals outside ``ids``, events past the calendar end."""
    violations = []
    if len(events):
        seen = np.unique(events.individual_id)
        unknown_ids = seen[~np.isin(seen, ids)]
        for uid in unknown_ids[:50]:
            violations.append(f"event references unknown individual {int(uid)}")
        if len(unknown_ids) > 50:
            violations.append(
                f"... {len(unknown_ids) - 50} more unknown event individuals"
            )
        last_day = day_number(events.timestamp.max())
        if last_day > calendar.end_day:
            violations.append(
                f"events extend past the calendar end "
                f"(day {int(last_day)} > {calendar.end_day})"
            )
    n_q = int(events.queries_mask().sum())
    return ValidationReport(
        counts={"events": len(events)},
        enum_histograms={"event_type": {"query": n_q, "purchase": len(events) - n_q}},
        violations=violations,
        notes=[],
    )
