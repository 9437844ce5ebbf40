"""Data model: calendar math, canonical event log, JSONL round trips,
validation invariants."""

import dataclasses
import json
import math
import random
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from awareflow import domain
from awareflow.domain import (
    ADDRESS_KINDS,
    EDUCATIONS,
    OCCUPATIONS,
    AddressColumns,
    Calendar,
    Dataset,
    EventLog,
    PopulationColumns,
    RegionColumns,
    day_number,
    infer_calendar,
    month_number,
    validate_dataset,
    validate_events,
)
from awareflow.errors import IntegrityError, ParseError
from awareflow import files
from awareflow.files import (
    load_addresses,
    load_dataset,
    load_events,
    read_events,
    save_dataset,
)

from conftest import make_events, random_event_columns, traced_peak
from oracles import jsonl_file_scan, jsonl_values, write_events_rows

CN = timezone(timedelta(hours=8))


def write_events(path, log):
    files.write_jsonl(path, domain.EVENT_FIELDS, vars(log), log.text_pool)


# --- calendar ---------------------------------------------------------------

def test_calendar_from_dates_inclusive():
    cal = Calendar.from_dates("2019-12-01", "2020-02-26")
    assert cal.n_days == 88
    assert cal.date_of(0) == date(2019, 12, 1)
    assert cal.date_of(87) == date(2020, 2, 26)
    assert cal.end_day == cal.start_day + 87


def test_calendar_rejects_empty():
    with pytest.raises(ValueError):
        Calendar(0, 0)


def test_day_boundaries_are_china_midnight():
    cal = Calendar.from_dates("2020-01-01", "2020-01-31")
    for i in (0, 14, 30):
        ts = cal.day_start_ts(i)
        local = datetime.fromtimestamp(ts, tz=CN)
        assert (local.hour, local.minute, local.second) == (0, 0, 0)
        assert local.date() == cal.date_of(i)
        assert cal.day_of(ts) == i
        assert cal.day_of(ts + 86399) == i
        assert cal.day_of(ts + 86400) == i + 1
        assert cal.day_of(ts - 1) == i - 1


def test_day_and_month_numbers_match_datetime():
    rng = random.Random(5)
    for _ in range(200):
        ts = rng.randrange(0, 2_000_000_000)
        local = datetime.fromtimestamp(ts, tz=CN)
        assert int(day_number(ts)) == (local.date() - date(1970, 1, 1)).days
        assert int(month_number(ts)) == (local.year - 1970) * 12 + local.month - 1


def test_calendar_equality_and_iso_dates():
    a = Calendar.from_dates("2019-12-01", "2019-12-03")
    b = Calendar(a.start_day, 3)
    assert a == b
    assert a.iso_dates() == ["2019-12-01", "2019-12-02", "2019-12-03"]


# --- event log --------------------------------------------------------------

def sample_records():
    return [
        ("query", 2, 1000, "n95 face mask", False),
        ("query", 1, 1000, "rice cooker", False),
        ("purchase", 1, 999, "books", False),
        ("purchase", 3, 1000, "n95 respirator mask", True),
        ("query", 1, 1500, "wuhan pneumonia", False),
        ("query", 1, 1000, "face mask", False),  # same (ts, id, kind), text breaks tie
    ]


def test_canonical_order_is_input_permutation_invariant():
    records = sample_records()
    base = make_events(records)
    rng = random.Random(11)
    for _ in range(10):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert make_events(shuffled) == base
    # globally sorted by time first
    assert np.all(np.diff(base.timestamp) >= 0)


def test_canonical_reduces_any_pool_to_the_sorted_texts_that_occur():
    records = sample_records() + [("purchase", 2, 999, "books", False)]
    texts = [r[3] for r in records]
    # unsorted, "books" twice, "unused" never referenced
    pool = ["unused", "rice cooker", "books", "n95 face mask", "books",
            "wuhan pneumonia", "face mask", "n95 respirator mask"]
    codes = [pool.index(t) for t in texts]
    codes[2] = 4  # the two "books" rows use both copies
    log = EventLog.canonical(
        [domain.EVENT_TYPES.index(r[0]) for r in records],
        [r[1] for r in records], [r[2] for r in records], codes,
        [r[4] for r in records], pool,
    )
    assert log == make_events(records)
    assert log.text_pool == tuple(sorted(set(texts)))


def test_records_round_trip_through_columns():
    records = sample_records()
    log = make_events(records)
    rows = zip(
        [domain.EVENT_TYPES[k] for k in log.kind.tolist()], log.individual_id.tolist(),
        log.timestamp.tolist(), [log.text_pool[c] for c in log.text_code.tolist()],
        log.is_ppe.tolist(),
    )
    assert sorted(rows) == sorted(records)
    assert log.queries_mask().sum() == 4
    assert log.purchases_mask().sum() == 2
    assert log.is_ppe.sum() == 1


# --- JSONL readers ----------------------------------------------------------

def test_empty_events_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("")
    log = read_events(path)
    assert len(log) == 0


def test_events_file_roundtrip_and_line_shuffle(tmp_path):
    log = make_events(sample_records())
    path = tmp_path / "events.jsonl"
    write_events(path, log)
    assert read_events(path) == log
    lines = path.read_text().strip().split("\n")
    random.Random(3).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(lines) + "\n")
    assert read_events(shuffled) == log


def test_write_events_matches_per_row_writer(tmp_path, monkeypatch):
    # several write chunks; texts that JSON escapes; both is_ppe values; a
    # query row whose is_ppe flag the file does not carry
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 3)
    texts = ["口罩 N95", 'say "mask"', "back\\slash", "tab\there", "é ", "mask"]
    n = 14
    log = make_events([
        (domain.EVENT_TYPES[i % 2], 2**64 - 1 - i, -5 + 1000 * i, texts[i % len(texts)], i % 3 == 0)
        for i in range(n)
    ])
    write_events(tmp_path / "events.jsonl", log)
    write_events_rows(
        tmp_path / "reference.jsonl",
        log.kind, log.individual_id, log.timestamp,
        [log.text_pool[c] for c in log.text_code], log.is_ppe,
    )
    written = (tmp_path / "events.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert len(written.splitlines()) == n


TEXTS = ["books", "mask", "n95", "rice", "tea"]  # sorted: canonical keeps their codes


def test_write_events_holds_one_chunk_whatever_the_row_count(tmp_path, monkeypatch):
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 1000)
    calendar = Calendar.from_dates("2020-01-01", "2020-01-31")

    def peak(n):
        log = EventLog.canonical(*random_event_columns(n, calendar), TEXTS)
        return traced_peak(write_events, tmp_path / "events.jsonl", log)

    chunk = min(peak(1000), peak(1000))  # the first call also sets up numpy
    assert peak(80_000) - peak(20_000) < chunk


def test_canonical_sorts_within_its_inputs_and_one_spare_column():
    n = 50_000
    columns = random_event_columns(n, Calendar.from_dates("2020-01-01", "2020-01-31"))
    want = EventLog(TEXTS, **dict(zip(EventLog.DTYPES, columns)))
    want = want.take(np.lexsort(
        (want.is_ppe, want.text_code, want.kind, want.individual_id, want.timestamp)
    ))
    EventLog.canonical(*random_event_columns(100, Calendar(0, 1)), TEXTS)  # numpy's set-up
    log = []
    peak = traced_peak(lambda: log.append(EventLog.canonical(*columns, TEXTS)))
    assert peak < 1.25 * 8 * n  # the sort's uint64 key and a little
    assert log[0] == want


def _query(iid, ts, text="mask"):
    return json.dumps(
        {"type": "query", "individual_id": iid, "timestamp": ts, "query_text": text},
        separators=(",", ":"),
    )


def _purchase(iid, ts, category="n95", is_ppe=True):
    return json.dumps(
        {"type": "purchase", "individual_id": iid, "timestamp": ts, "category": category,
         "is_ppe": is_ppe},
        separators=(",", ":"),
    )


EVENT_LINES = [
    _query(1, 100), _purchase(2, 100), _query(3, 101, '口罩 "N95" \\'),
    _purchase(1, 102, "food", False), _query(2, 103), _purchase(3, 104),
    _query(4, 105), _purchase(4, 106, "soap", False), _query(5, 107), _purchase(5, 108),
]
EXTRA = _query(6, 109, "fever")


def _jsonl(obj):
    return json.dumps(obj, separators=(",", ":"))


def _person(i):
    return {
        "id": i, "gender": "female", "age": 30, "education": "bachelor",
        "occupation": "white_collar", "purchasing_power": 4, "has_child": False,
        "married": False, "home_city": 0, "qualified": True,
    }


def _region(i):
    return {
        "city_id": i, "province_id": 0, "name": f"city-{i}", "distance_to_epicenter": 10.0 * i,
        "gdp": 100.0, "daily_confirmed_cases": [0, 3], "cultural_tightness": 0.5,
        "paddy_rice_pct": 0.2, "innovation_index": 1.0, "illiteracy_pct": 0.05,
        "multi_ethnic_household_pct": 0.1, "population_count": 1000,
    }


def _address(i):
    return {"individual_id": i, "address_id": 100 + i, "kind": "home", "active_interval": [0, 9]}


# ten good lines per file, and the file's reader
TABLES = {
    "population.jsonl": ([_jsonl(_person(i)) for i in range(1, 11)], files.read_population),
    "regions.jsonl": ([_jsonl(_region(i)) for i in range(10)], files.read_regions),
    "addresses.jsonl": ([_jsonl(_address(i)) for i in range(1, 11)], files.read_addresses),
    "events.jsonl": (EVENT_LINES, read_events),
}
DROP = object()


def _edited(record, /, **edits):
    """One line of ``record`` with ``edits`` applied; a DROP value drops its key."""
    obj = {**record, **edits}
    return _jsonl({k: v for k, v in obj.items() if v is not DROP})


def _fault(case, record, message, /, **edits):
    file = {_person: "population", _region: "regions", _address: "addresses"}[record]
    return pytest.param(f"{file}.jsonl", _edited(record(99), **edits), message, id=case)


PURCHASE = json.loads(_purchase(6, 109))

# A bad line at line 7, in the middle of the second of three 4-line blocks,
# and the error the reader raises for it.
BLOCK_FAULTS = [
    pytest.param(
        "events.jsonl", EXTRA + "," + EXTRA, "invalid JSON: Extra data",
        id="two-objects-one-line",
    ),
    pytest.param(
        "events.jsonl", "[" + EXTRA + "]", "expected a JSON object", id="array-wrapped-line"
    ),
    pytest.param("events.jsonl", "[", "invalid JSON: Expecting value", id="open-bracket-line"),
    pytest.param(
        "events.jsonl", EXTRA.replace('"individual_id":6', '"individual_id":true'),
        "individual_id must be an unsigned 64-bit integer", id="bool-id",
    ),
    pytest.param(
        "events.jsonl", EXTRA.replace('"individual_id":6', f'"individual_id":{2**64}'),
        "individual_id must be an unsigned 64-bit integer", id="id-2-to-64",
    ),
    pytest.param(
        "events.jsonl", EXTRA.replace('"timestamp":109', '"timestamp":109.0'),
        "timestamp must be an integer", id="float-timestamp",
    ),
    pytest.param(
        "events.jsonl", EXTRA.replace('"type":"query",', ""), "missing field 'type'",
        id="missing-type",
    ),
    pytest.param(
        "events.jsonl", EXTRA.encode().replace(b"fever", b"fe\xffver"), "not valid UTF-8",
        id="not-utf8",
    ),
    # two lines whose pieces re-join into two valid objects inside a block
    pytest.param(
        "events.jsonl", EXTRA + "," + EXTRA[:-1] + ',"x":[{}\n{}]}', "invalid JSON: Extra data",
        id="object-split-over-lines",
    ),
    pytest.param(
        "events.jsonl", EXTRA.replace('"timestamp":109', f'"timestamp":{10**20}'),
        "timestamp must fit in a signed 64-bit integer", id="timestamp-overflow",
    ),
    pytest.param(
        "events.jsonl", EXTRA.replace('"fever"', "5"), "query_text must be a string",
        id="query-text-number",
    ),
    pytest.param(
        "events.jsonl", _edited(PURCHASE, category=DROP), "missing field 'category'",
        id="purchase-missing-category",
    ),
    pytest.param(
        "events.jsonl", _edited(PURCHASE, is_ppe="yes"), "is_ppe must be a boolean",
        id="purchase-is-ppe-string",
    ),
    _fault("population-missing-field", _person, "missing field 'married'", married=DROP),
    _fault(
        "population-id-string", _person, "id must be an unsigned 64-bit integer", id="99"
    ),
    _fault("population-enum-number", _person, "gender must be a string", gender=1),
    _fault(
        "population-enum-unknown", _person,
        "education must be one of ['bachelor', 'college_or_lower', 'postgraduate'], "
        "got 'phd'", education="phd",
    ),
    _fault("population-int-float", _person, "age must be an integer", age=30.5),
    _fault("population-int-negative", _person, "age must be >= 0, got -1", age=-1),
    _fault(
        "population-int-out-of-range", _person, "purchasing_power must be in [1, 7], got 0",
        purchasing_power=0,
    ),
    _fault(
        "population-int-dtype", _person, "age must fit in int16, got 32768", age=2**15
    ),
    _fault("population-bool-int", _person, "married must be a boolean", married=0),
    _fault(
        "population-id-dtype", _person, f"home_city must fit in int64, got {2**63}",
        home_city=2**63,
    ),
    _fault("region-missing-field", _region, "missing field 'province_id'", province_id=DROP),
    _fault("region-text-number", _region, "name must be a string", name=5),
    _fault("region-number-string", _region, "gdp must be a number", gdp="big"),
    _fault(
        "region-number-nan", _region, "distance_to_epicenter must be finite, got nan",
        distance_to_epicenter=math.nan,
    ),
    _fault("region-number-inf", _region, "gdp must be finite, got inf", gdp=math.inf),
    _fault(
        "region-number-minus-inf", _region, "innovation_index must be finite, got -inf",
        innovation_index=-math.inf,
    ),
    _fault(
        "region-number-beyond-float", _region, f"gdp must be finite, got {10**400}",
        gdp=10**400,
    ),
    _fault("region-number-negative", _region, "gdp must be >= 0, got -1.5", gdp=-1.5),
    _fault(
        "region-number-out-of-range", _region, "paddy_rice_pct must be in [0, 1], got 1.5",
        paddy_rice_pct=1.5,
    ),
    _fault(
        "region-counts-negative", _region, "daily_confirmed_cases must be a list of ints >= 0",
        daily_confirmed_cases=[0, -1],
    ),
    _fault(
        "region-counts-not-list", _region, "daily_confirmed_cases must be a list of ints >= 0",
        daily_confirmed_cases=3,
    ),
    _fault(
        "region-int-out-of-range", _region, "population_count must be >= 1, got 0",
        population_count=0,
    ),
    _fault(
        "address-enum-unknown", _address,
        "kind must be one of ['company', 'home', 'school_dorm'], got 'office'", kind="office",
    ),
    _fault(
        "address-interval-short", _address, "active_interval must be [start, end] epoch seconds",
        active_interval=[0],
    ),
    _fault(
        "address-interval-overflow", _address,
        "active_interval must be [start, end] epoch seconds", active_interval=[0, 2**63],
    ),
    _fault(
        "address-id-negative", _address, "address_id must be an unsigned 64-bit integer",
        address_id=-1,
    ),
]


def _lines_file(path, lines, newline=b"\n"):
    data = [line.encode() if isinstance(line, str) else line for line in lines]
    path.write_bytes(newline.join(data) + newline)
    return path


# every BLOCK_FAULTS case with each line end that text mode reads; "\n" keeps the case's id
NEWLINE_FAULTS = [
    pytest.param(*case.values, newline, id=case.id + suffix)
    for case in BLOCK_FAULTS
    for newline, suffix in ((b"\n", ""), (b"\r\n", "-crlf"), (b"\r", "-cr"))
]


@pytest.mark.parametrize("name, bad, message, newline", NEWLINE_FAULTS)
def test_block_reader_raises_the_per_line_error(
    tmp_path, monkeypatch, name, bad, message, newline
):
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 4)
    reading, opened = files.reading, []

    def counted(path, *args, **kwargs):
        opened.append(path)
        return reading(path, *args, **kwargs)

    monkeypatch.setattr(files, "reading", counted)
    lines, reader = TABLES[name]
    path = _lines_file(tmp_path / name, lines[:6] + [bad] + lines[6:], newline)
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert exc.value.line_no == 7
    assert str(exc.value) == f"{path}:7: {message}"
    assert opened == [path]  # the bad line is named from the one read
    assert jsonl_file_scan(path.read_bytes(), domain.DATASET_FIELDS[name]) == (7, message)


@pytest.mark.parametrize("name, bad, message", [
    pytest.param(
        "population.jsonl", [_edited(_person(99), married=0, age=-1)],
        "age must be >= 0, got -1", id="two-bad-fields",
    ),
    pytest.param(
        "population.jsonl", [_edited(_person(99), gender=1, id="99")],
        "id must be an unsigned 64-bit integer", id="two-bad-fields-type",
    ),
    pytest.param(
        "events.jsonl", [_edited(PURCHASE, category=DROP), EXTRA.replace('"query"', '"click"')],
        "missing field 'category'", id="carried-field-before-bad-type",
    ),
    pytest.param(
        "events.jsonl", [EXTRA.replace('"fever"', "5"), "[" + EXTRA + "]"],
        "query_text must be a string", id="bad-field-before-bad-json",
    ),
])
def test_block_reader_names_the_first_bad_field_of_the_first_bad_line(
    tmp_path, monkeypatch, name, bad, message
):
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 4)
    lines, reader = TABLES[name]
    path = _lines_file(tmp_path / name, lines[:6] + bad + lines[6:])
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}:7: {message}"
    assert jsonl_file_scan(path.read_bytes(), domain.DATASET_FIELDS[name]) == (7, message)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", list(TABLES))
def test_read_jsonl_matches_a_line_by_line_scan(tmp_path, monkeypatch, name, newline):
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 4)
    lines, _ = TABLES[name]
    # blank lines, and a "}" inside a text where the table has one
    padded = [*lines[:3], "", "  \t", *lines[3:]]
    if name == "events.jsonl":
        padded.append(_query(6, 109, "fe}ver"))
    path = _lines_file(tmp_path / name, padded, newline)
    fields = domain.DATASET_FIELDS[name]
    want = jsonl_file_scan(path.read_bytes(), fields)
    assert len(next(iter(want.values()))) == len(padded) - 2
    assert jsonl_values(fields, *files.read_jsonl(path, fields)) == want


def test_block_reader_line_endings_blank_lines_and_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 4)
    lines = EVENT_LINES + [EXTRA]
    expected = read_events(_lines_file(tmp_path / "plain.jsonl", lines))
    assert len(expected) == 11
    assert read_events(_lines_file(tmp_path / "crlf.jsonl", lines, b"\r\n")) == expected
    padded = lines[:5] + ["   ", "\t", " \t "] + lines[5:]
    assert read_events(_lines_file(tmp_path / "blank.jsonl", padded)) == expected
    # a "}" inside a text makes its block's lines decode one json.loads each
    braced = lines[:-1] + [_query(6, 109, "fe}ver")]
    log = read_events(_lines_file(tmp_path / "brace.jsonl", braced))
    assert "fe}ver" in log.text_pool
    # blank lines count toward the line number of the error after them
    bad = EXTRA.replace('"individual_id":6', '"individual_id":-1')
    path = _lines_file(tmp_path / "bad.jsonl", padded[:8] + [bad])
    with pytest.raises(ParseError) as exc:
        read_events(path)
    assert exc.value.line_no == 9


def test_purchasing_power_out_of_range_is_parse_error(tmp_path):
    ok = {
        "id": 1, "gender": "female", "age": 30, "education": "bachelor",
        "occupation": "white_collar", "purchasing_power": 4, "has_child": False,
        "married": False, "home_city": 0, "qualified": True,
    }
    bad = dict(ok, id=2, purchasing_power=9)
    path = tmp_path / "population.jsonl"
    path.write_text(json.dumps(ok) + "\n" + json.dumps(bad) + "\n")
    from awareflow.files import read_population

    with pytest.raises(ParseError) as exc:
        read_population(path)
    assert exc.value.line_no == 2
    assert "purchasing_power must be in [1, 7], got 9" in str(exc.value)
    assert str(path) in str(exc.value)


def test_reader_error_variants(tmp_path):
    from awareflow.files import read_population

    path = tmp_path / "population.jsonl"
    # invalid JSON reports position
    path.write_text("{broken\n")
    with pytest.raises(ParseError, match="invalid JSON"):
        read_population(path)
    # unknown enum value
    row = {
        "id": 1, "gender": "other", "age": 30, "education": "bachelor",
        "occupation": "white_collar", "purchasing_power": 4, "has_child": False,
        "married": False, "home_city": 0, "qualified": True,
    }
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ParseError, match="gender must be one of"):
        read_population(path)
    # missing field
    del row["age"]
    row["gender"] = "female"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ParseError, match="missing field 'age'"):
        read_population(path)
    # integers the column dtype cannot hold
    for key, value, dtype in (("age", 2**15, "int16"), ("home_city", 2**63, "int64")):
        path.write_text(json.dumps({**row, "age": 30, key: value}) + "\n")
        with pytest.raises(ParseError, match=f"{key} must fit in {dtype}, got {value}"):
            read_population(path)


def test_event_reader_rejects_bad_type(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"type":"click","individual_id":1,"timestamp":0}\n')
    with pytest.raises(ParseError, match="type must be one of"):
        read_events(path)


# --- validation fixtures ----------------------------------------------------

def make_region(city_id=0, province_id=0, distance=0.0, n_days=1, **values):
    """One region's column values by name; ``values`` set any of them."""
    return {
        "city_id": city_id,
        "province_id": province_id,
        "name": f"city-{city_id}",
        "distance_to_epicenter": distance,
        "gdp": 100.0,
        "daily_confirmed_cases": tuple([0] * n_days),
        "cultural_tightness": 0.5,
        "paddy_rice_pct": 0.2,
        "innovation_index": 1.0,
        "illiteracy_pct": 0.05,
        "multi_ethnic_household_pct": 0.1,
        "population_count": 1000,
        **values,
    }


def make_regions(*regions):
    """The region table of ``make_region`` dicts, city ids ascending."""
    regions = sorted(regions, key=lambda r: r["city_id"])
    return RegionColumns.from_rows([tuple(r[name] for name in RegionColumns.DTYPES) for r in regions])


def make_population(ids, home_cities=None):
    """Population columns: individual i is female when i is odd and aged 20 + i,
    a qualified bachelor white-collar worker at purchasing power 4."""
    n = len(ids)
    return PopulationColumns(
        ids=ids,
        gender=[i % 2 for i in ids],
        age=[20 + i for i in ids],
        education=[EDUCATIONS.index("bachelor")] * n,
        occupation=[OCCUPATIONS.index("white_collar")] * n,
        purchasing_power=[4] * n,
        has_child=[False] * n,
        married=[False] * n,
        home_city=[0] * n if home_cities is None else home_cities,
        qualified=[True] * n,
    )


def make_addresses(rows):
    """Address columns of (individual_id, address_id, kind name, start, end) rows."""
    return AddressColumns.from_rows(
        [(iid, aid, ADDRESS_KINDS.index(kind), lo, hi) for iid, aid, kind, lo, hi in rows]
    )


def tiny_dataset(population, addresses=(), events=None):
    return Dataset(
        population=population,
        regions=make_regions(make_region(0), make_region(1, distance=300.0)),
        addresses=make_addresses(addresses),
        events=events if events is not None else EventLog.empty(),
        calendar=Calendar(0, 1),
    )


def test_valid_ten_individuals_no_violations():
    ds = tiny_dataset(make_population(range(1, 11)))
    assert validate_dataset(ds) == []


def test_unknown_home_city_violation_names_individual():
    ds = tiny_dataset(make_population([1, 2, 3], home_cities=[0, 0, 99]))
    assert validate_dataset(ds) == ["individual 3: unknown home_city 99"]


def test_duplicate_individual_id_violation():
    ds = tiny_dataset(make_population([7, 7]))
    assert "duplicate individual id 7 (2 records)" in validate_dataset(ds)


def test_interval_start_after_end_violation():
    ds = tiny_dataset(make_population([1]), addresses=[(1, 10, "home", 100, 50)])
    assert validate_dataset(ds) == [
        "address 10 / individual 1: active_interval start 100 > end 50"
    ]


def test_missing_epicenter_violation():
    ds = Dataset(
        population=make_population([1]),
        regions=make_regions(make_region(0, distance=5.0)),
        addresses=make_addresses([]),
        events=EventLog.empty(),
        calendar=Calendar(0, 1),
    )
    assert "no epicenter: minimum distance_to_epicenter is 5.0, not 0" in validate_dataset(ds)


def test_event_for_unknown_individual_violation():
    events = make_events([("query", 42, 1000, "x", False)])
    ds = tiny_dataset(make_population([1]), events=events)
    assert "event references unknown individual 42" in validate_dataset(ds)


def test_unknown_event_individuals_are_named_across_lookup_chunks(monkeypatch):
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 7)
    calendar = Calendar(0, 1)
    events = EventLog.canonical(*random_event_columns(300, calendar, n_ids=100), TEXTS)
    ids = np.array([3, 50, 77], dtype=np.uint64)  # lookup chunks of 24 rows
    unknown = sorted(set(events.individual_id.tolist()) - set(ids.tolist()))
    assert len(unknown) > 50
    assert validate_events(events, ids, calendar) == [
        f"event references unknown individual {i}" for i in unknown[:50]
    ] + [f"... {len(unknown) - 50} more unknown event individuals"]


def test_declared_ranges_are_violations():
    # gen checks its in-memory dataset against the ranges the readers enforce
    pop = make_population([1, 2])
    pop.purchasing_power[0] = 9
    pop.age[1] = -3
    bad = make_region(1, distance=300.0, gdp=math.inf, paddy_rice_pct=1.5)
    regions = make_regions(make_region(0), bad)
    ds = Dataset(pop, regions, make_addresses([]), EventLog.empty(), Calendar(0, 1))
    assert validate_dataset(ds) == [
        "individual 2: age must be >= 0, got -3",
        "individual 1: purchasing_power must be in [1, 7], got 9",
        "region 1: gdp must be finite, got inf",
        "region 1: paddy_rice_pct must be in [0, 1], got 1.5",
    ]


def test_multi_home_is_not_a_violation():
    addrs = [(1, 10, "home", 0, 100), (1, 11, "home", 0, 100)]
    ds = tiny_dataset(make_population([1]), addresses=addrs)
    assert validate_dataset(ds) == []


def test_load_dataset_raises_integrity_error(tmp_path):
    ds = tiny_dataset(make_population([1, 2], home_cities=[0, 77]))
    paths = save_dataset(ds, tmp_path)
    with pytest.raises(IntegrityError) as exc:
        load_dataset(paths["population"], paths["regions"], paths["addresses"],
                     paths["events"], calendar=ds.calendar)
    assert "dataset failed validation" in str(exc.value)
    assert "individual 2: unknown home_city 77" in str(exc.value)


def test_dataset_loaded_without_events(tmp_path):
    events = make_events([("query", 1, 1000, "x", False), ("purchase", 2, 2000, "y", True)])
    ds = tiny_dataset(make_population([1, 2]), events=events)
    paths = save_dataset(ds, tmp_path)
    tables = (paths["population"], paths["regions"], paths["addresses"])
    loaded = load_dataset(*tables, None, calendar=ds.calendar)
    assert loaded.events is None
    assert validate_dataset(loaded) == []
    with pytest.raises(ValueError, match="needs a calendar"):
        load_dataset(*tables, None)
    # the events file alone gets the checks load_dataset gives it
    assert load_events(paths["events"], loaded.population.ids, ds.calendar) == events
    with pytest.raises(IntegrityError, match="event references unknown individual 2"):
        load_events(paths["events"], np.array([1], dtype=np.uint64), ds.calendar)
    with pytest.raises(IntegrityError, match="events extend past the calendar end"):
        load_events(paths["events"], loaded.population.ids, Calendar(-5, 1))


def test_dataset_loaded_without_addresses(tmp_path):
    addrs = [(1, 10, "home", 0, 100), (2, 10, "home", 0, 100), (1, 11, "home", 0, 100)]
    ds = tiny_dataset(make_population([1, 2]), addresses=addrs)
    paths = save_dataset(ds, tmp_path)
    loaded = load_dataset(paths["population"], paths["regions"], None, paths["events"])
    assert loaded.addresses is None
    assert validate_dataset(loaded) == []
    # the addresses file alone gets the checks load_dataset gives it
    addresses = load_addresses(paths["addresses"], loaded.population.ids)
    assert addresses == ds.addresses.canonical()
    assert validate_dataset(dataclasses.replace(loaded, addresses=addresses)) == []
    with pytest.raises(IntegrityError, match="address 10: unknown individual 2"):
        load_addresses(paths["addresses"], np.array([1], dtype=np.uint64))
    save_dataset(tiny_dataset(make_population([1]), addresses=[(1, 10, "home", 100, 50)]), tmp_path)
    with pytest.raises(IntegrityError, match="active_interval start 100 > end 50"):
        load_addresses(paths["addresses"], loaded.population.ids)


def test_infer_calendar_uses_query_span():
    cal = Calendar.from_dates("2020-01-05", "2020-01-09")
    records = [
        ("purchase", 1, cal.day_start_ts(-200), "books", False),  # old history
        ("query", 1, cal.day_start_ts(0) + 10, "a", False),
        ("query", 1, cal.day_start_ts(4) + 10, "b", False),
    ]
    inferred = infer_calendar(make_events(records))
    assert inferred == cal
    assert infer_calendar(EventLog.empty()) == Calendar(0, 1)


def test_region_rows_hold_one_tuple_of_cases_each():
    # equal-length tuples would make np.asarray a 2-D array
    regions = make_regions(make_region(1, n_days=3), make_region(0, n_days=3))
    cases = regions.daily_confirmed_cases
    assert cases.shape == (2,) and cases.dtype == object
    assert cases.tolist() == [(0, 0, 0), (0, 0, 0)]
    assert regions.city_id.tolist() == [0, 1]
    assert len(RegionColumns.from_rows([])) == 0


def test_regions_file_reads_sorted_and_writes_back_byte_for_byte(tmp_path):
    regions = [
        make_region(2, province_id=1, distance=40.0, n_days=2),
        make_region(0, n_days=2),
        make_region(1, distance=30.5, n_days=0),  # no case counts
    ]
    lines = {r["city_id"]: json.dumps(r, separators=(",", ":")) + "\n" for r in regions}
    path = tmp_path / "regions.jsonl"
    path.write_text("".join(lines.values()))
    table = files.read_regions(path)
    assert table == make_regions(*regions)
    assert table.city_id.tolist() == [0, 1, 2]
    assert table.daily_confirmed_cases.tolist() == [(0, 0), (), (0, 0)]
    files.write_jsonl(tmp_path / "out.jsonl", domain.REGION_FIELDS, vars(table))
    assert (tmp_path / "out.jsonl").read_text() == "".join(lines[c] for c in sorted(lines))


# --- full round trip --------------------------------------------------------

def test_simulated_dataset_round_trips_through_disk(tmp_path, small_world):
    _, dataset, _ = small_world
    paths = save_dataset(dataset, tmp_path)
    loaded = load_dataset(
        paths["population"], paths["regions"], paths["addresses"], paths["events"],
        calendar=dataset.calendar,
    )
    assert loaded == dataset
    assert validate_dataset(loaded) == []


READERS = dict(zip(domain.DATASET_FILES, (
    files.read_population, files.read_regions, files.read_addresses, read_events,
)))


@pytest.mark.parametrize("name", domain.DATASET_FILES)
def test_each_file_round_trips_in_blocks_smaller_than_it(tmp_path, monkeypatch, small_world, name):
    _, dataset, _ = small_world
    table = name.split(".")[0]
    path = save_dataset(dataset, tmp_path)[table]
    monkeypatch.setattr(files, "READ_BLOCK_LINES", 5)
    with open(path) as fh:
        assert len(fh.readlines()) > 5
    assert READERS[name](path) == getattr(dataset, table)


@pytest.mark.parametrize("name", domain.DATASET_FILES)
def test_writers_write_the_declared_keys_in_order(tmp_path, small_world, name):
    _, dataset, _ = small_world
    path = save_dataset(dataset, tmp_path)[name.split(".")[0]]
    keys_of = {}  # the first line's keys, per event type (None outside events)
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            keys_of.setdefault(obj.get("type"), list(obj))
    assert len(keys_of) == (2 if name == "events.jsonl" else 1)
    for etype, keys in keys_of.items():
        code = None if etype is None else domain.EVENT_TYPES.index(etype)
        assert keys == [f.key for f in domain.DATASET_FIELDS[name] if f.when in (None, code)]


def test_columns_view_is_consistent(small_world):
    _, dataset, _ = small_world
    cols = dataset.population
    assert np.all(np.diff(cols.ids.astype(np.int64)) > 0)  # sorted unique ids
    assert {name: getattr(cols, name).dtype for name in cols.DTYPES} == {
        name: np.dtype(dtype) for name, dtype in PopulationColumns.DTYPES.items()
    }
    some = cols.ids[[17, 3, 17]]
    assert cols.rows_of(some).tolist() == [17, 3, 17]
    assert cols.rows_of([]).tolist() == []
    for unknown in (0, int(cols.ids[-1]) + 1):
        with pytest.raises(IntegrityError, match=f"unknown individual id {unknown}$"):
            cols.rows_of([some[0], unknown])
    # distances come from the home city of each individual
    regions = dataset.regions
    dist = dataset.distance_km()
    (home,) = np.flatnonzero(regions.city_id == cols.home_city[17])
    assert dist[17] == regions.distance_to_epicenter[home]
