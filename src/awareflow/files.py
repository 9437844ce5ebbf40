"""Every on-disk format, read and written in one place: JSONL dataset
tables and truth labels, edge files, TSV artifacts, JSON configs,
calendars and manifests, and pattern files.

Every read opens its file through ``reading``, which turns an OSError into
an AwareflowError naming the file.  Each format has one parse, over
columns: ``ByteLines`` cuts a TSV or edge file's bytes into cells, and a
JSONL table is parsed a block of lines at a time into one object per line.
Each column check returns the mask of the rows it refuses, so the reader
raises the ParseError of the first bad line, and in it of the first bad
field, without parsing the file again.  ``write_jsonl`` takes every key of
a JSONL table from its field table, the one place that spells it.  Every
write goes through ``atomic_output``, so that a process that dies
mid-write leaves the old file, or none, under the final name.
"""

import contextlib
import hashlib
import itertools
import json
import os
import warnings
from operator import itemgetter

import numpy as np

from .awareness import NEVER, AwarenessTimeline
from .domain import (
    ADDRESS_FIELDS,
    DATASET_FIELDS,
    EVENT_FIELDS,
    POPULATION_FIELDS,
    REGION_FIELDS,
    AddressColumns,
    Calendar,
    Dataset,
    EventLog,
    PopulationColumns,
    RegionColumns,
    column_dtypes,
    find_rows,
    infer_calendar,
    intern_texts,
    raise_violations,
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
    UTF-8 text file; the first line with an undecodable byte raises
    ParseError before its block is yielded."""
    with reading(path, error, encoding="utf-8") as fh:
        fh.reconfigure(errors="surrogateescape")  # bad bytes read as lone surrogates
        first = 1
        while block := list(itertools.islice(fh, size)):
            if not all(map(str.isascii, block)):
                for line_no, line in enumerate(block, start=first):
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(path, line_no, "not valid UTF-8") from None
            yield first, block
            first += len(block)


class ByteLines:
    """The lines of a file's bytes as text mode ends them ("\\r\\n" and
    "\\r" read as "\\n"), each cut at the byte ``sep`` into ``n_fields``
    cells, but for the first ``skip``, whose text ``head`` holds.  ``start``
    and ``end`` hold each cut line's byte offsets; ``other`` marks the lines
    with another count of ``sep``, whose cells are empty."""

    def __init__(self, data, sep, n_fields, skip=0):
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.data, self.buf = data, np.frombuffer(data, dtype=np.uint8)
        end = np.flatnonzero(self.buf == ord("\n"))
        if data[-1:] not in (b"", b"\n"):
            end = np.append(end, len(data))
        start = np.concatenate([[0], end + 1])[:-1]
        at = np.flatnonzero(self.buf == ord(sep))
        hi = np.searchsorted(at, end)  # the separators before each line's end
        lo = np.concatenate([[0], hi])[:-1]
        self.head = [data[a:b].decode("utf-8", errors="replace") for a, b in zip(start[:skip], end)]
        self.start, self.end, lo, hi = start[skip:], end[skip:], lo[skip:], hi[skip:]
        self.other = hi - lo != n_fields - 1
        if not self.other.any():  # the separators of the lines, one line after another
            cuts = at[lo[:1].sum():][:len(lo) * (n_fields - 1)].reshape(len(lo), n_fields - 1)
            stop = self.end
        else:
            at = np.append(at, len(data))  # so that the cuts of every line index into it
            cuts = at[np.minimum(lo[:, None] + np.arange(n_fields - 1), len(at) - 1)]
            cuts[self.other] = self.start[self.other, None]
            stop = np.where(self.other, self.start, self.end)
        # cell j of line k spans bounds[j][k] + 1 to bounds[j + 1][k]
        self.bounds = [self.start - 1, *cuts.T, stop]

    def cell(self, j):
        """The first and stop offsets of cell ``j`` of each line."""
        return self.bounds[j] + 1, self.bounds[j + 1]

    def text(self, k, j=None):
        """Line ``k``, or its cell ``j``, as text (bad UTF-8 as U+FFFD)."""
        if j is None:
            a, b = self.start[k], self.end[k]
        else:
            a, b = self.bounds[j][k] + 1, self.bounds[j + 1][k]
        return self.data[a:b].decode("utf-8", errors="replace")


def digit_runs(buf, first, stop, signed=False):
    """The values of the decimal runs ``buf[first:stop]``, as uint64 or,
    ``signed``, as int64 perhaps led by '-'; and the mask of the runs that
    hold no such value (valued 0): empty, with a byte other than a digit,
    more than 19 digits or beyond the dtype."""
    minus = np.zeros(len(first), dtype=bool)
    if signed:
        minus[stop > first] = buf[first[stop > first]] == ord("-")
        first = first + minus
    width = stop - first
    odd = (width < 1) | (width > 19)  # 19 digits stay below 2**64
    values = np.zeros(len(first), dtype=np.uint64)
    for k in range(int(width[~odd].max(initial=0))):
        inside = k < width
        digit = buf[np.minimum(first + k, len(buf) - 1)] - ord("0")  # a byte below "0" wraps
        odd |= inside & (digit > 9)
        values = np.where(inside, values * np.uint64(10) + digit, values)
    values[odd] = 0
    if not signed:
        return values, odd
    odd |= values > np.iinfo(np.int64).max
    return np.where(minus, -values.astype(np.int64), values.astype(np.int64)), odd


def name_codes(buf, first, stop, names):
    """The index in ``names`` of each run ``buf[first:stop]`` that spells
    one of them; -1 for any other run."""
    codes = np.full(len(first), -1, dtype=np.int64)
    for code, name in enumerate(names):
        rows = np.flatnonzero(stop - first == len(name))
        match = np.ones(len(rows), dtype=bool)
        for k, char in enumerate(name.encode()):
            match &= buf[first[rows] + k] == char
        codes[rows[match]] = code
    return codes


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

_MISSING = object()  # the value of a key an object lacks
# the value a refused cell holds, by field kind (an enum holds its first name)
_FILLS = {
    "id": 0, "int": 0, "number": 0, "bool": False, "text": "", "interval": (0, 0), "counts": (),
}


def _array(f, values, codes_of):
    """The column of ``values`` of ``f``, each of one of its JSON types.  An
    enum value outside its names raises KeyError, an interval other than two
    ints ValueError, an int that the column's dtype cannot hold
    OverflowError (or, under numpy 1.x, DeprecationWarning)."""
    if f.kind == "text":
        return intern_texts(values, codes_of)
    if f.kind == "enum":
        codes = {name: code for code, name in enumerate(f.names)}
        return np.array([codes[v] for v in values], dtype=f.dtype)
    if f.kind == "counts":
        return np.fromiter(map(tuple, values), dtype=object, count=len(values))
    if f.kind == "interval":
        flat = list(itertools.chain.from_iterable(values))
        if not set(map(type, flat)) <= {int} or not set(map(len, values)) <= {2}:
            raise ValueError("not [start, end]")
        values = np.array(flat, dtype=f.dtype).reshape(-1, 2)
    with warnings.catch_warnings():
        # numpy 1.x wraps an out-of-range int, warning, where 2.x raises
        warnings.simplefilter("error", DeprecationWarning)
        return np.asarray(values, dtype=f.dtype)


def _column(f, objs, codes_of):
    """The column of ``f`` in one block's objects, and the mask of the
    objects that lack its key or hold a value that ``Field.problem``
    refuses; a refused cell holds a filler."""
    try:
        values = list(map(itemgetter(f.key), objs))
    except KeyError:
        values = [obj.get(f.key, _MISSING) for obj in objs]
    if f.null is not None:
        values = [f.null if v is None else v for v in values]
    if f.kind != "counts" and set(map(type, values)) <= f.json_types:
        try:
            col = _array(f, values, codes_of)
            return col, f.outside(col)
        except (KeyError, ValueError, OverflowError, DeprecationWarning):
            pass
    # few rows (counts), or a value the array checks refuse: the check of each value
    bad = np.fromiter((f.problem(v) is not None for v in values), dtype=bool, count=len(values))
    fill = f.names[0] if f.kind == "enum" else _FILLS[f.kind]
    return _array(f, [fill if b else v for v, b in zip(values, bad)], codes_of), bad


def _block_columns(fields, objs, codes_of):
    """Column name -> array of one block's objects, and the (row, message)
    of the first refused field, in field order, of the first row that
    holds one; None when every row passes."""
    columns, refused = {}, []
    for f in fields:
        if f.when is None:
            col, bad = _column(f, objs, codes_of)
            columns.update(zip(f.columns, col.T if f.kind == "interval" else [col]))
        else:
            # the rows whose first field, an enum, has the code ``when`` (a
            # refused one its first name's, but its own fault comes first)
            rows = columns[fields[0].column] == f.when
            col, carried = _column(f, list(itertools.compress(objs, rows.tolist())), codes_of)
            columns.setdefault(f.column, np.zeros(len(objs), dtype=f.dtype))[rows] = col
            bad = np.zeros(len(objs), dtype=bool)
            bad[rows] = carried
        refused.append(bad)
    refused = np.array(refused, dtype=bool).reshape(len(fields), len(objs))
    if not refused.any():
        return columns, None
    row = int(np.argmax(refused.any(axis=0)))
    f, obj = fields[int(np.argmax(refused[:, row]))], objs[row]
    message = f"{f.key} {f.problem(obj[f.key])}" if f.key in obj else f"missing field {f.key!r}"
    return columns, (row, message)


def _parse_block(lines):
    """The objects of a block's stripped non-blank ``lines``, parsed with one
    json.loads, and None.  Where that refuses, each line is parsed on its
    own, up to the first that is not one JSON object: the objects before
    it and its message."""
    n = len(lines)
    body = ",\n".join(lines)
    # Every "}" must end its line.  Then the n objects parsed can only be
    # the n lines: an object spanning lines, or a line holding two values,
    # needs a "}" inside a line.
    if n and body[-1] == "}" and body.count("}") == n and body.count("},\n") == n - 1:
        with contextlib.suppress(ValueError, RecursionError):
            objs = json.loads(f"[{body}]")
            if len(objs) == n and set(map(type, objs)) == {dict}:
                return objs, None
    objs = []
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int with too many digits
            return objs, f"invalid JSON: {getattr(exc, 'msg', exc)}"
        except RecursionError:
            return objs, "invalid JSON: nested too deeply"
        if not isinstance(obj, dict):
            return objs, "expected a JSON object"
        objs.append(obj)
    return objs, None


def _block(path, fields, first, raw, codes_of):
    """Column name -> array of the block of text lines ``raw`` of a JSONL
    table, whose first line is line ``first``."""
    objs, fault = _parse_block(list(filter(None, map(str.strip, raw))))
    columns, bad = _block_columns(fields, objs, codes_of)
    if bad is None and fault is None:
        return columns
    row, message = bad or (len(objs), fault)
    nonblank = (n for n, line in enumerate(raw, start=first) if line.strip())
    raise ParseError(path, next(itertools.islice(nonblank, row, None)), message)


def read_jsonl(path, fields):
    """(column name -> array, text pool) of a JSONL table of ``fields``,
    parsed a block of READ_BLOCK_LINES lines at a time with one json.loads
    and column checks.  Text columns hold codes into the pool; blank lines
    are skipped.  The first bad line of a block, and in it the first bad
    field, raises its ParseError."""
    codes_of = {}
    blocks = [
        _block(path, fields, first, raw, codes_of)
        for first, raw in text_blocks(path, READ_BLOCK_LINES)
    ]
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
    regions = RegionColumns(**columns)
    return regions.take(np.argsort(regions.city_id, kind="stable"))


def read_addresses(path):
    return AddressColumns(**read_jsonl(path, ADDRESS_FIELDS)[0]).canonical()


def read_events(path):
    """The canonical EventLog of an events.jsonl file."""
    columns, pool = read_jsonl(path, EVENT_FIELDS)
    return EventLog.canonical(**columns, text_pool=pool)


# json.dumps(v, separators=(",", ":")), with one encoder
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_SPECS = {"id": "%d", "int": "%d", "interval": "[%d,%d]"}  # any other value is a %s


def write_jsonl(path, fields, columns, text_pool=()):
    """Write a JSONL table of ``fields`` from ``columns`` (column name ->
    array, as read_jsonl returns them), each row's line as
    ``json.dumps(obj, separators=(",", ":"))`` writes it.  A text column
    holds codes into ``text_pool`` or, as an object column, the texts.

    Each key is JSON-encoded once, into a line template.  An enum, bool or
    text cell is a prebuilt ``"key":value`` string picked by the row's
    code; the last, empty one stands for a ``when`` field (always one of
    these kinds) that the row does not carry.  Each WRITE_CHUNK_ROWS chunk
    is formatted with one ``%``."""
    first = columns[fields[0].column]  # its codes decide which when fields a row carries
    template, slots = "", []  # slots: (field, its column, its cells), in template order
    for k, f in enumerate(fields):
        head = ("," if k else "{") + json.dumps(f.key) + ":"
        col, cells = columns[f.columns[0]], None
        if f.kind in ("enum", "bool", "text"):
            choices = {"enum": f.names, "bool": (False, True), "text": text_pool}[f.kind]
            if col.dtype == object:  # a text column of the texts themselves
                choices, col = col, np.arange(len(col))
            cells = np.array([head + _ENCODE(v) for v in choices] + [""], dtype=object)
            head = ""
        template += head.replace("%", "%%") + (_SPECS.get(f.kind, "%s") if f.null is None else "%s")
        slots.append((f, col, cells))
    template += "}\n"

    def values(f, col, cells, rows):
        """The values that the template of ``rows`` takes for field ``f``."""
        if cells is not None:
            code = col[rows].astype(np.intp)
            if f.when is not None:
                code[first[rows] != f.when] = -1
            return [cells[code].tolist()]
        if f.kind in ("number", "counts"):
            return [list(map(_ENCODE, col[rows].tolist()))]
        if f.null is not None:
            return [["null" if v == f.null else v for v in col[rows].tolist()]]
        return [columns[name][rows].tolist() for name in f.columns]  # an interval has two

    def chunk(rows):
        cols = [v for slot in slots for v in values(*slot, rows)]
        return (template * len(cols[0])) % tuple(itertools.chain.from_iterable(zip(*cols)))

    write_text(path, map(chunk, row_chunks(len(first))))


def save_dataset(dataset, directory):
    """Write the four dataset files into ``directory``; returns their paths."""
    make_dir(directory, "dataset directory")
    paths = {name.split(".")[0]: os.path.join(directory, name) for name in DATASET_FIELDS}
    for (table, path), fields in zip(paths.items(), DATASET_FIELDS.values()):
        columns = getattr(dataset, table)
        write_jsonl(path, fields, vars(columns), getattr(columns, "text_pool", ()))
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
    raise_violations(validate_dataset(dataset))
    return dataset


def load_addresses(path, ids):
    """The addresses of a file, checked against the population ``ids``."""
    addresses = read_addresses(path)
    raise_violations(validate_addresses(addresses, ids))
    return addresses


def load_events(path, ids, calendar):
    """The events of a file, checked against the population ``ids`` and the ``calendar``."""
    events = read_events(path)
    raise_violations(validate_events(events, ids, calendar))
    return events


def write_truth(truth, directory):
    """Write the GroundTruth's labels and network into ``directory``; returns their paths."""
    make_dir(directory, "truth directory")
    labels_path, edges_path = (os.path.join(directory, n) for n in TRUTH_FILES)
    ids = truth.graph.ids
    labels = {"individual_id": ids, "first_aware": truth.timeline.aligned(ids)}
    write_jsonl(labels_path, TRUTH_LABEL_FIELDS, labels)
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
    splits them) over a known layer and two distinct ids of ``ids``; the
    first other line raises its ParseError."""
    ids = np.asarray(ids, dtype=np.uint64)
    layer, rows = _edge_rows(path, ids)
    layers = {
        name: build_layer(rows[layer == code], len(ids)) for name, code in LAYER_CODES.items()
    }
    return MultiplexGraph(ids, layers)


def _edge_rows(path, ids):
    """The layer code of each line of an edge file, -1 for a blank one, and
    the rows in ``ids`` of its two ids; the offsets of the lines go with
    the call, before the layers are built."""
    lines = ByteLines(read_bytes(path), " ", 3)
    layer = name_codes(lines.buf, *lines.cell(0), LAYERS)
    (a, a_odd), (b, b_odd) = (digit_runs(lines.buf, *lines.cell(j)) for j in (1, 2))
    blank, bad = np.zeros((2, len(layer)), dtype=bool)
    # a line the bulk scan cannot read is split as str.split() splits it
    for k in np.flatnonzero(lines.other | (layer < 0) | a_odd | b_odd).tolist():
        fields = lines.text(k).split()
        blank[k] = not fields
        try:
            name, x, y = fields
            code, x, y = LAYER_CODES[name], int(x), int(y)
        except (KeyError, ValueError):
            bad[k] = bool(fields)
            continue
        bad[k] = min(x, y) < 0 or max(x, y) >= 2**64
        if not bad[k]:
            layer[k], a[k], b[k] = code, x, y
    (a_rows, a_in), (b_rows, b_in) = find_rows(ids, a), find_rows(ids, b)
    bad |= ~blank & ~(a_in & b_in & (a != b))
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(path, k + 1, f"bad edge line {lines.text(k).strip()!r}")
    return layer, np.column_stack([a_rows, b_rows])


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


def _tsv_column(lines, j, parse):
    """The cells of field ``j`` of ``lines`` under ``parse``, and the mask of
    the cells it refuses: an array of the dtype for np.uint64 and np.int64,
    whose decimal runs are read in bulk, an object array of what ``parse``
    returns for any other.  A cell the bulk scan cannot read goes through
    ``parse`` on its own, and is refused where that raises ValueError or
    OverflowError."""
    data, (first, stop) = lines.data, lines.cell(j)
    bad = np.zeros(len(first), dtype=bool)
    if parse in (np.uint64, np.int64):
        col, odd = digit_runs(lines.buf, first, stop, signed=parse is np.int64)
        rows = np.flatnonzero(odd)
    else:
        col, rows = np.empty(len(first), dtype=object), np.arange(len(first))
    cells = zip(rows.tolist(), first[rows].tolist(), stop[rows].tolist())
    if parse is str:
        col[:] = [data[a:b].decode("utf-8", errors="replace") for _, a, b in cells]
        return col, bad
    for k, a, b in cells:
        try:
            col[k] = parse(data[a:b].decode("utf-8", errors="replace"))
        except (ValueError, OverflowError):
            bad[k] = True
    return col, bad


def read_tsv(path, columns, header=True):
    """The columns of a write_tsv file (``header=False``: one without a header)
    of ``columns``, (name, parse) pairs such as ("day", int): arrays of the
    dtype np.uint64 or np.int64 of that parse, object arrays for any other.
    The first bad line raises its ParseError: a wrong header or field count,
    or else its first field that parse refuses."""
    names = [name for name, _ in columns]
    lines = ByteLines(read_bytes(path), "\t", len(columns), skip=int(header))
    found = lines.head[0].split("\t") if lines.head else [""]
    if header and found != names:
        raise ParseError(path, 1, f"expected header {names}, found {found}")
    parsed = [_tsv_column(lines, j, parse) for j, (_, parse) in enumerate(columns)]
    # the faults of each line: its field count, then its fields in order
    bad = np.column_stack([lines.other, *(b for _, b in parsed)])
    if bad.any():
        k, j = divmod(int(np.argmax(bad)), bad.shape[1])
        if j:
            message = f"bad {names[j - 1]} {lines.text(k, j - 1)!r}"
        else:
            found = lines.text(k).count("\t") + 1
            message = f"expected {len(columns)} fields, found {found}"
        raise ParseError(path, k + 1 + header, message)
    return [col for col, _ in parsed]
