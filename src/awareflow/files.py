"""Every on-disk format, read and written in one place: JSONL dataset
tables and truth labels, edge files, TSV artifacts, JSON configs,
calendars and manifests, and pattern files.

Every read opens its file through ``reading``, which turns an OSError into
an AwareflowError naming the file.  ``parse_blocks`` runs a format's array
parse over the file's bytes (over blocks of lines for JSONL) and parses a
block that it refuses again line by line, naming the first bad line in a
ParseError.  Every write goes through ``atomic_output``, so that a process
that dies mid-write leaves the old file, or none, under the final name.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
from operator import itemgetter

import numpy as np

from .awareness import NEVER, AwarenessTimeline
from .domain import (
    ADDRESS_FIELDS,
    ADDRESS_KINDS,
    DATASET_FILES,
    EDUCATIONS,
    EVENT_FIELDS,
    EVENT_KIND_QUERY,
    GENDERS,
    OCCUPATIONS,
    POPULATION_FIELDS,
    REGION_FIELDS,
    AddressColumns,
    Calendar,
    Dataset,
    EventLog,
    PopulationColumns,
    Region,
    column_dtypes,
    find_rows,
    infer_calendar,
    intern_texts,
    row_chunks,
    validate_addresses,
    validate_dataset,
    validate_events,
)
from .errors import ConfigError, IntegrityError, ParseError
from .kernels import sort_rows
from .netinfer import LAYER_CODES, LAYERS, MultiplexGraph, build_layer
from .simulate import TRUTH_FILES, TRUTH_LABEL_FIELDS, GroundTruth

# JSONL files are parsed this many lines at a time
READ_BLOCK_LINES = 5_000


# ---------------------------------------------------------------------------
# opening, parsing and writing files
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def reading(path, error=IntegrityError, encoding=None):
    """``path`` open for reading, as bytes or as text in ``encoding``.  An
    OSError raises ``error`` naming the file: IntegrityError (exit 4) for a
    dataset file or artifact, ConfigError (exit 2) for a config or patterns."""
    try:
        with open(path, "rb" if encoding is None else "r", encoding=encoding) as fh:
            yield fh
    except OSError as exc:
        raise error(f"cannot read {str(path)!r}: {exc.strerror}") from None


def read_bytes(path, error=IntegrityError):
    with reading(path, error) as fh:
        return fh.read()


def text_lines(data):
    """The lines of ``data`` as text mode reads them, without their newlines
    ("\\n", "\\r\\n" or "\\r") and with undecodable bytes as U+FFFD; an
    empty file reads as one empty line."""
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    return lines


def text_blocks(path, size, error=IntegrityError):
    """(number of the first line, lines) of each run of ``size`` lines of a
    UTF-8 text file; undecodable bytes raise ParseError."""
    with reading(path, error, encoding="utf-8") as fh:
        first = 1
        try:
            while block := list(itertools.islice(fh, size)):
                yield first, block
                first += len(block)
            return
        except UnicodeDecodeError:
            pass
    # text mode decodes ahead of the line it yields: find the line at fault
    with reading(path, error, encoding="utf-8") as fh:
        fh.reconfigure(errors="surrogateescape")  # bad bytes read as lone surrogates
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                break
    raise ParseError(path, line_no, "not valid UTF-8")


def parse_blocks(path, scan, check, build, block_lines=None):
    """The parse of each block of ``path``, its bytes or, with ``block_lines``,
    each run of that many lines of UTF-8 text: ``scan(block)``, the format's
    array parse, or where that is None, ``build`` of the items that
    ``check(line_no, line)`` returns for the block's lines (text_lines of
    bytes).  ``check`` returns None for a line to skip and raises a bad
    line's ParseError."""
    blocks = text_blocks(path, block_lines) if block_lines else [(1, read_bytes(path))]
    for first, block in blocks:
        parsed = scan(block)
        if parsed is None:
            lines = enumerate(block if block_lines else text_lines(block), start=first)
            parsed = build([item for n, line in lines if (item := check(n, line)) is not None])
        yield parsed


def digit_runs(buf, first, stop):
    """The uint64 values of the decimal runs ``buf[first:stop]``; None when
    a run is empty or holds a byte other than a digit or more than 19 digits."""
    width = stop - first
    values = np.zeros(len(first), dtype=np.uint64)
    if len(width) == 0:
        return values
    if width.min() < 1 or width.max() > 19:  # 19 digits stay below 2**64
        return None
    for k in range(int(width.max())):
        digit = buf[np.minimum(first + k, len(buf) - 1)]
        inside = k < width
        if ((digit[inside] < ord("0")) | (digit[inside] > ord("9"))).any():
            return None
        step = values * np.uint64(10) + (digit - ord("0")).astype(np.uint64)
        values = np.where(inside, step, values)
    return values


def split_columns(data, skip, sep, parses):
    """The columns of ``data`` past its first ``skip`` bytes when each line
    holds one field per parse, split by the byte ``sep``, in write form:
    np.uint64 up to 19 digits, np.int64 the same perhaps led by '-', str any
    text (bad UTF-8 as U+FFFD), a tuple of names one of them (its index).
    None for any other data."""
    buf = np.frombuffer(data, dtype=np.uint8, offset=skip)
    end = np.flatnonzero(buf == ord("\n"))
    if len(buf) and buf[-1] != ord("\n"):
        end = np.append(end, len(buf))
    start = np.concatenate([[0], end + 1])[:-1]
    n_seps = len(parses) - 1
    at = np.flatnonzero(buf == ord(sep))
    # every line holds exactly n_seps separators: (k + 1) * n_seps before the end of line k
    if not np.array_equal(np.searchsorted(at, end), np.arange(1, len(end) + 1) * n_seps):
        return None
    at = at.reshape(len(end), n_seps)
    out = []
    for j, parse in enumerate(parses):
        first = start if j == 0 else at[:, j - 1] + 1
        stop = at[:, j] if j < n_seps else end
        if parse is str:
            cells = zip((first + skip).tolist(), (stop + skip).tolist())
            text = [data[a:b].decode("utf-8", errors="replace") for a, b in cells]
            column = np.array(text, dtype=object)
        elif isinstance(parse, tuple):
            column = np.full(len(first), -1, dtype=np.int64)
            for code, name in enumerate(parse):
                rows = np.flatnonzero(stop - first == len(name))
                match = np.ones(len(rows), dtype=bool)
                for k, char in enumerate(name.encode()):
                    match &= buf[first[rows] + k] == char
                column[rows[match]] = code
            if (column < 0).any():
                return None
        else:
            minus = np.zeros(len(first), dtype=bool)
            if parse is np.int64:
                minus[stop > first] = buf[first[stop > first]] == ord("-")
            column = digit_runs(buf, first + minus, stop)
            if column is None or parse is np.int64 and (column > np.iinfo(np.int64).max).any():
                return None
            if parse is np.int64:
                column = np.where(minus, -column.astype(np.int64), column.astype(np.int64))
        out.append(column)
    return out


@contextlib.contextmanager
def atomic_output(path):
    """A UTF-8 text file written as ``<path>.tmp`` (umask permissions) and
    renamed over ``path`` when the block completes.  Any exception removes
    it, so ``path`` keeps its old bytes or stays absent; an OSError raises
    ConfigError (exit 2) naming ``path``.  No fsync: this guards against a
    process that dies, not a power loss."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from None
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def write_text(path, chunks):
    """Write the strings of ``chunks``, one after another, to ``path``."""
    with atomic_output(path) as fh:
        fh.writelines(chunks)


def chunked(n, lines):
    """The text of ``n`` rows, one WRITE_CHUNK_ROWS chunk at a time:
    ``lines(rows)`` gives the lines of the slice ``rows``."""
    return ("".join(lines(rows)) for rows in row_chunks(n))


def make_dir(path, what):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {what} {str(path)!r}: {exc.strerror}") from None


def discard(path):
    """Remove the file ``path`` if it exists."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ConfigError(f"cannot remove {str(path)!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# JSON files, hashes and pattern files
# ---------------------------------------------------------------------------

def read_json(path, config=False):
    """The value of a JSON file: a run config (``config``), whose faults are
    ConfigErrors naming the line and column, or an artifact, whose faults
    are ParseErrors."""
    lines = text_lines(read_bytes(path, ConfigError if config else IntegrityError))
    try:
        return json.loads("\n".join(lines))
    except json.JSONDecodeError as exc:
        if config:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        if config:
            raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
        raise ParseError(path, 1, "invalid JSON: nested too deeply") from None


def write_json(path, value, indent=2):
    """``value`` as JSON with sorted keys, then a newline."""
    write_text(path, [json.dumps(value, indent=indent, sort_keys=True), "\n"])


def read_calendar(path):
    data = read_json(path)
    try:
        return Calendar.from_dates(data["start_date"], data["end_date"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(path, 1, f"needs ISO start_date <= end_date ({exc!r})") from None


def write_calendar(path, calendar):
    iso = calendar.iso_dates()
    write_json(path, {"start_date": iso[0], "end_date": iso[-1]}, indent=None)


def read_manifest(path):
    manifest = read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stats"), dict):
        raise ParseError(path, 1, "expected a manifest object with a stats object")
    return manifest


def sha256_file(path):
    h = hashlib.sha256()
    with reading(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def load_patterns(path):
    """Read pattern expressions from a file: one per line, '#' comments."""
    try:
        return [
            pattern
            for _, lines in text_blocks(path, READ_BLOCK_LINES, ConfigError)
            for line in lines
            if (pattern := line.split("#", 1)[0].strip())
        ]
    except ParseError as exc:
        raise ConfigError(f"pattern file {exc}") from None


# ---------------------------------------------------------------------------
# JSONL tables: one block reader for every field table
# ---------------------------------------------------------------------------

def _column(f, objs, codes_of):
    """The column of ``f`` in one block's objects; None when any object
    lacks its key or any value fails the checks of ``Field.problem``."""
    try:
        values = list(map(itemgetter(f.key), objs))
    except KeyError:
        return None
    if f.null is not None:
        values = [f.null if v is None else v for v in values]
    if not set(map(type, values)) <= f.json_types:
        return None
    if f.kind == "text":
        return intern_texts(values, codes_of)
    try:
        if f.kind == "enum":
            codes = {name: code for code, name in enumerate(f.names)}
            return np.array([codes[v] for v in values], dtype=f.dtype)
        if f.kind == "counts":  # few rows: the per-value check
            if any(f.problem(v) for v in values):
                return None
            return np.fromiter(map(tuple, values), dtype=object, count=len(values))
        if f.kind == "interval":
            flat = list(itertools.chain.from_iterable(values))
            if not set(map(type, flat)) <= {int} or not set(map(len, values)) <= {2}:
                return None
            values = np.array(flat, dtype=f.dtype).reshape(-1, 2)
        # an int the dtype cannot hold raises OverflowError
        col = np.asarray(values, dtype=f.dtype)
    except (KeyError, OverflowError):
        return None
    lo = 0 if f.kind == "id" and f.lo is None else f.lo
    bad = f.kind == "number" and not np.isfinite(col).all()
    if bad or lo is not None and (col < lo).any() or f.hi is not None and (col > f.hi).any():
        return None
    return col


def _block_columns(fields, objs, codes_of):
    """Column name -> array of one block's parsed objects; None when there
    are none (``objs`` is None) or any value is missing or fails its check."""
    if objs is None:
        return None
    columns = {}
    for f in fields:
        rows = None if f.when is None else columns[fields[0].column] == f.when
        carriers = objs if rows is None else itertools.compress(objs, rows.tolist())
        col = _column(f, carriers, codes_of)
        if col is None:
            return None
        if rows is not None:
            columns.setdefault(f.column, np.zeros(len(objs), dtype=f.dtype))[rows] = col
        else:
            columns.update(zip(f.columns, col.T if f.kind == "interval" else [col]))
    return columns


def _parse_block(raw):
    """The objects of a block's non-blank lines, parsed with one json.loads;
    None when any line is not exactly one JSON object."""
    lines = list(filter(None, map(str.strip, raw)))
    n = len(lines)
    if n == 0:
        return []
    body = ",\n".join(lines)
    # Every "}" must end its line.  Then the n objects parsed can only be
    # the n lines: an object spanning lines, or a line holding two values,
    # needs a "}" inside a line.
    if not (body[-1] == "}" and body.count("}") == n and body.count("},\n") == n - 1):
        return None
    try:
        objs = json.loads(f"[{body}]")
    except (ValueError, RecursionError):
        return None
    if len(objs) != n or set(map(type, objs)) != {dict}:
        return None
    return objs


def _checked_object(fields, path, line_no, line):
    """The object of one line, None for a blank one, or the ParseError of
    its first bad field."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an int with too many digits
        raise ParseError(path, line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    except RecursionError:
        raise ParseError(path, line_no, "invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    for f in fields:
        # the first field, checked before any field with ``when``, is an enum
        if f.when is not None and fields[0].names.index(obj[fields[0].key]) != f.when:
            continue
        if f.key not in obj:
            raise ParseError(path, line_no, f"missing field {f.key!r}")
        problem = f.problem(obj[f.key])
        if problem:
            raise ParseError(path, line_no, f"{f.key} {problem}")
    return obj


def read_jsonl(path, fields):
    """(column name -> array, text pool) of a JSONL table of ``fields``,
    parsed a block of READ_BLOCK_LINES lines at a time with one json.loads
    and bulk column checks.  Text columns hold codes into the pool; blank
    lines are skipped."""
    codes_of = {}
    blocks = list(parse_blocks(
        path,
        lambda lines: _block_columns(fields, _parse_block(lines), codes_of),
        lambda line_no, line: _checked_object(fields, path, line_no, line),
        # every line passed its check, so only _parse_block's layout test failed
        lambda objs: _block_columns(fields, objs, codes_of),
        READ_BLOCK_LINES,
    ))
    columns = {
        name: np.concatenate([b[name] for b in blocks] or [np.empty(0, dtype=dtype)])
        for name, dtype in column_dtypes(fields).items()
    }
    return columns, list(codes_of)


def read_population(path):
    population = PopulationColumns(**read_jsonl(path, POPULATION_FIELDS)[0])
    return population.take(np.argsort(population.ids, kind="stable"))


def read_regions(path):
    columns, pool = read_jsonl(path, REGION_FIELDS)
    columns["name"] = np.array(pool, dtype=object)[columns["name"]]
    rows = zip(*(col.tolist() for col in columns.values()))
    return sorted((Region(*row) for row in rows), key=lambda r: r.city_id)


def read_addresses(path):
    return AddressColumns(**read_jsonl(path, ADDRESS_FIELDS)[0]).canonical()


def read_events(path):
    """The canonical EventLog of an events.jsonl file."""
    columns, pool = read_jsonl(path, EVENT_FIELDS)
    return EventLog.canonical(**columns, text_pool=pool)


_JSON_BOOLS = ("false", "true")


def write_population(path, population):
    def lines(rows):
        columns = (getattr(population, name)[rows].tolist() for name in PopulationColumns.DTYPES)
        return [
            f'{{"id":{i},"gender":"{GENDERS[g]}","age":{a},'
            f'"education":"{EDUCATIONS[e]}","occupation":"{OCCUPATIONS[o]}",'
            f'"purchasing_power":{pp},"has_child":{_JSON_BOOLS[c]},'
            f'"married":{_JSON_BOOLS[m]},"home_city":{h},"qualified":{_JSON_BOOLS[q]}}}\n'
            for i, g, a, e, o, pp, c, m, h, q in zip(*columns)
        ]

    write_text(path, chunked(population.n, lines))


def write_regions(path, regions):
    write_text(path, (
        json.dumps(dataclasses.asdict(r), separators=(",", ":")) + "\n" for r in regions
    ))


def write_addresses(path, addresses):
    def lines(rows):
        columns = (getattr(addresses, name)[rows].tolist() for name in AddressColumns.DTYPES)
        return [
            f'{{"individual_id":{i},"address_id":{a},"kind":"{ADDRESS_KINDS[k]}",'
            f'"active_interval":[{lo},{hi}]}}\n'
            for i, a, k, lo, hi in zip(*columns)
        ]

    write_text(path, chunked(len(addresses), lines))


def write_events(path, events):
    """One line per event, as ``json.dumps(obj, separators=(",", ":"))`` writes
    it.  Each distinct text is JSON-encoded once, into three line tails (a
    query's, a purchase's with ``is_ppe`` false or true), and a row picks its
    tail by ``3 * text_code + variant``."""
    tails = []
    for t in events.text_pool:
        enc = json.dumps(t)
        tails += (
            f',"query_text":{enc}}}\n',
            f',"category":{enc},"is_ppe":false}}\n',
            f',"category":{enc},"is_ppe":true}}\n',
        )
    heads = ('{"type":"query","individual_id":', '{"type":"purchase","individual_id":')

    def lines(rows):
        purchase = events.kind[rows] != EVENT_KIND_QUERY
        variant = 3 * events.text_code[rows] + purchase + (purchase & events.is_ppe[rows])
        return [
            f'{heads[p]}{i},"timestamp":{t}{tails[v]}'
            for p, i, t, v in zip(
                purchase.tolist(),
                events.individual_id[rows].tolist(),
                events.timestamp[rows].tolist(),
                variant.tolist(),
            )
        ]

    write_text(path, chunked(len(events), lines))


def save_dataset(dataset, directory):
    """Write the four dataset files into ``directory``; returns their paths."""
    make_dir(directory, "dataset directory")
    paths = {name.split(".")[0]: os.path.join(directory, name) for name in DATASET_FILES}
    write_population(paths["population"], dataset.population)
    write_regions(paths["regions"], dataset.regions)
    write_addresses(paths["addresses"], dataset.addresses)
    write_events(paths["events"], dataset.events)
    return paths


def load_dataset(
    population_path, regions_path, addresses_path, events_path, calendar=None
):
    """Parse, assemble, and validate one dataset from disk.  Without
    ``addresses_path`` or ``events_path`` the dataset carries None for the
    table; without events it needs a ``calendar``, else a missing one is
    inferred from them.  A bad record raises ParseError, a violated
    cross-record invariant (keys, duplicates, intervals) IntegrityError."""
    population = read_population(population_path)
    regions = read_regions(regions_path)
    addresses = None if addresses_path is None else read_addresses(addresses_path)
    events = None if events_path is None else read_events(events_path)
    if calendar is None:
        if events is None:
            raise ValueError("a dataset loaded without events needs a calendar")
        calendar = infer_calendar(events)
    dataset = Dataset(population, regions, addresses, events, calendar)
    validate_dataset(dataset).raise_violations()
    return dataset


def load_addresses(path, ids):
    """The addresses of a file, checked against the population ``ids``."""
    addresses = read_addresses(path)
    validate_addresses(addresses, ids).raise_violations()
    return addresses


def load_events(path, ids, calendar):
    """The events of a file, checked against the population ``ids`` and the ``calendar``."""
    events = read_events(path)
    validate_events(events, ids, calendar).raise_violations()
    return events


def write_truth(truth, directory):
    """Write the GroundTruth's labels and network into ``directory``; returns their paths."""
    make_dir(directory, "truth directory")
    labels_path, edges_path = (os.path.join(directory, n) for n in TRUTH_FILES)
    ids = truth.graph.ids
    aligned = truth.timeline.aligned(ids)
    write_text(labels_path, chunked(len(ids), lambda rows: [
        f'{{"individual_id":{i},"first_aware":{"null" if t == NEVER else t}}}\n'
        for i, t in zip(ids[rows].tolist(), aligned[rows].tolist())
    ]))
    write_edges(truth.graph, edges_path)
    return {"truth_labels": labels_path, "truth_network": edges_path}


def read_truth(directory, ids):
    """The GroundTruth that write_truth wrote into ``directory``, over the node ``ids``."""
    labels_path, edges_path = (os.path.join(directory, n) for n in TRUTH_FILES)
    labels = read_jsonl(labels_path, TRUTH_LABEL_FIELDS)[0]
    aware = labels["first_aware"] != NEVER
    timeline = AwarenessTimeline(labels["individual_id"][aware], labels["first_aware"][aware])
    return GroundTruth(timeline, read_edges(edges_path, ids))


# ---------------------------------------------------------------------------
# edge files
# ---------------------------------------------------------------------------

def write_edges(graph, path):
    """Dump all layers as "layer src dst" lines in canonical order."""
    def chunks():
        for name in LAYERS:
            edges = graph.layer(name).edges
            src = graph.ids[edges[:, 0]]
            dst = graph.ids[edges[:, 1]]
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            sort_rows(lo, hi)
            yield from chunked(len(lo), lambda rows: [
                f"{name} {a} {b}\n" for a, b in zip(lo[rows].tolist(), hi[rows].tolist())
            ])

    write_text(path, chunks())


def read_edges(path, ids):
    """Rebuild a MultiplexGraph from a write_edges dump over given ids.
    Every non-blank line must be ``layer a b`` (fields split as str.split()
    splits them) over a known layer and two distinct ids of ``ids``."""
    ids = np.asarray(ids, dtype=np.uint64)
    row_of = {}

    def scan(data):
        if b"\r" in data:  # the line ends text mode reads as "\n"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        columns = split_columns(data, 0, " ", (LAYERS, np.uint64, np.uint64))
        if columns is None:
            return None
        layer, a, b = columns
        (a_rows, a_in), (b_rows, b_in) = find_rows(ids, a), find_rows(ids, b)
        if not (a_in & b_in & (a != b)).all():
            return None
        return layer, np.column_stack([a_rows, b_rows])

    def check(line_no, line):
        fields = line.split()
        if not fields:
            return None
        if not row_of:
            row_of.update((i, row) for row, i in enumerate(ids.tolist()))
        try:
            code = LAYER_CODES[fields[0]]
            a, b = (row_of[int(token)] for token in fields[1:])
            if a != b:
                return code, a, b
        except (KeyError, ValueError):
            pass
        raise ParseError(path, line_no, f"bad edge line {line.strip()!r}")

    def build(items):
        table = np.array(items, dtype=np.int64).reshape(-1, 3)
        return table[:, 0], table[:, 1:]

    ((layer, rows),) = parse_blocks(path, scan, check, build)
    layers = {name: build_layer(rows[layer == code], len(ids)) for name, code in LAYER_CODES.items()}
    return MultiplexGraph(ids, layers)


# ---------------------------------------------------------------------------
# TSV artifacts (NA / INF sentinels)
# ---------------------------------------------------------------------------

_FLOAT_WORDS = {"nan": "NA", "inf": "INF", "-inf": "-INF"}
_BOOL_TEXT = ("0", "1")


def _format_float(v):
    text = format(v, ".10g")
    return _FLOAT_WORDS.get(text, text)


def format_value(v):
    if v is None:
        return "NA"
    if isinstance(v, (bool, np.bool_)):
        return _BOOL_TEXT[bool(v)]
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    return str(v)


def parse_number(text):
    """Inverse of format_value for a numeric field: NA is None, INF is inf."""
    return None if text == "NA" else float(text)


def parse_int(text):
    """Inverse of format_value for an integer field that may be NA (None)."""
    return None if text == "NA" else int(text)


# format_value of the cell types the stages write most, looked up by exact
# type; every other type goes through format_value itself
_FORMATTERS = {
    float: _format_float,
    np.float64: _format_float,
    int: str,
    np.int64: str,
    bool: _BOOL_TEXT.__getitem__,
    str: str,
}


def write_tsv(path, table, columns, header=True):
    """The equal-length ``columns``, one per (name, parse) pair of ``table``
    as read_tsv takes them, one line of tab-separated cells per row, under
    the line of the names (none without ``header``).  A column is a
    sequence, or an array read flattened; every cell is written as
    format_value writes it."""
    columns = [np.ravel(c) if isinstance(c, np.ndarray) else c for c in columns]
    if len(columns) != len(table) or len(set(map(len, columns))) != 1:
        raise ValueError(f"{path}: expected {len(table)} columns of one length")
    formatter = _FORMATTERS.get

    def lines(rows):
        cells = (c[rows].tolist() if isinstance(c, np.ndarray) else c[rows] for c in columns)
        text = ([formatter(type(v), format_value)(v) for v in values] for values in cells)
        return ["\t".join(row) + "\n" for row in zip(*text)]

    head = ["\t".join(name for name, _ in table) + "\n"] if header else []
    write_text(path, itertools.chain(head, chunked(len(columns[0]), lines)))


# the parses whose columns read_tsv returns as arrays of that type
_ARRAY_PARSES = (np.uint64, np.int64)


def read_tsv(path, columns, header=True):
    """The columns of a write_tsv file (``header=False``: one without a header)
    of ``columns``, (name, parse) pairs such as ("day", int): arrays of the
    dtype np.uint64 or np.int64 of that parse, object arrays for any other.
    A wrong header, field count or field (parse raises ValueError or
    OverflowError) is a ParseError."""
    names = [name for name, _ in columns]
    parses = [parse for _, parse in columns]
    head = ("\t".join(names) + "\n").encode() if header else b""

    def scan(data):
        # text mode reads "\r" as a line end
        if b"\r" in data or not data.startswith(head) or not set(parses) <= {*_ARRAY_PARSES, str}:
            return None
        return split_columns(data, len(head), "\t", parses)

    def check(line_no, line):
        fields = line.split("\t")
        if header and line_no == 1:
            if fields != names:
                raise ParseError(path, 1, f"expected header {names}, found {fields}")
            return None
        if len(fields) != len(columns):
            raise ParseError(path, line_no, f"expected {len(columns)} fields, found {len(fields)}")
        row = []
        for (name, parse), text in zip(columns, fields):
            try:
                row.append(parse(text))
            except (ValueError, OverflowError):
                raise ParseError(path, line_no, f"bad {name} {text!r}") from None
        return tuple(row)

    def build(rows):
        return [
            np.array([r[j] for r in rows], dtype=parse if parse in _ARRAY_PARSES else object)
            for j, parse in enumerate(parses)
        ]

    (parsed,) = parse_blocks(path, scan, check, build)
    return parsed
