"""The file module's writes: a writer that dies mid-write leaves no
partial file, the JSONL writer writes what json.dumps writes, and a
column file has pinned bytes; its file digests, the shape its manifest
reader accepts and the column files its column reader refuses; and the
stored dataset's groups, their files pinned, each read back as stored."""

import hashlib
import itertools
import os
import re
import shutil

import numpy as np
import pytest

from awareflow import cli, domain, files
from awareflow.domain import Field, column_dtypes

from awareflow.config import load_run_config
from awareflow.errors import MissingArtifactError, ParseError

from conftest import make_events
from oracles import jsonl_rows


def die_after_the_first_chunk(monkeypatch, path):
    """Make every chunked writer raise once its first chunk is written."""
    row_chunks = files.row_chunks

    def chunks(n):
        rows = row_chunks(n)
        yield next(rows)
        assert os.path.exists(f"{path}.tmp")  # the writer is mid-write
        raise RuntimeError("died mid-write")

    monkeypatch.setattr(files, "row_chunks", chunks)


def write_events(path):
    log = make_events([("query", i, 100 + i, "mask", False) for i in range(10)])
    files.write_jsonl(path, domain.EVENT_FIELDS, vars(log), log.text_pool)


WRITERS = {
    "write_jsonl": write_events,
    "write_tsv": lambda path: files.write_tsv(
        path, (("a", int), ("b", files.parse_number)), [range(10), [i / 3 for i in range(10)]]
    ),
}


@pytest.mark.parametrize("old", [None, b"the old bytes\n"], ids=["new-path", "existing-file"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_writer_that_dies_mid_write_leaves_the_old_file(tmp_path, monkeypatch, writer, old):
    path = tmp_path / "out"
    if old is not None:
        path.write_bytes(old)
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 3)
    die_after_the_first_chunk(monkeypatch, path)
    with pytest.raises(RuntimeError, match="died mid-write"):
        WRITERS[writer](path)
    assert (path.read_bytes() if path.exists() else None) == old
    assert os.listdir(tmp_path) == ([] if old is None else ["out"])


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_writer_replaces_the_old_file_and_a_leftover_temporary(tmp_path, monkeypatch, writer):
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 3)
    WRITERS[writer](tmp_path / "want")
    path = tmp_path / "out"
    path.write_bytes(b"the old bytes\n")
    (tmp_path / "out.tmp").write_bytes(b"a killed run's leftover, longer than the new file\n" * 9)
    WRITERS[writer](path)
    assert path.read_bytes() == (tmp_path / "want").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["out", "want"]


INT64 = np.iinfo(np.int64)
# every field kind, the keys JSON must escape or % would read, and two
# fields that only the rows of type "b" carry
EVERY_KIND = (
    Field("type", "enum", column="kind", names=("a", "b")),
    Field("id", "id"),
    Field("int", "int"),
    Field("rate %d", "number", column="rate"),
    Field("flag", "bool"),
    Field("text \"%s\"", "text", column="text"),
    Field("span", "interval"),
    Field("counts", "counts"),
    Field("note", "text", when=1),
    Field("b_flag", "bool", when=1),
)
TEXTS = ["100% 口罩", 'say "mask"', "back\\slash", "tab\there", "é", ""]


def every_kind_columns(n):
    """Columns of ``n`` rows of EVERY_KIND, holding each kind's extremes."""
    values = {
        "kind": [i % 2 for i in range(n)],
        "id": [0 if i % 3 == 0 else 2**64 - 1 - i for i in range(n)],
        "int": [INT64.min + i if i % 2 == 0 else INT64.max - i for i in range(n)],
        "rate": [(0.1, 1e16, 5e-324, 0.0, -2.5, 1e300)[i % 6] for i in range(n)],
        "flag": [i % 4 == 1 for i in range(n)],
        "text": [i % len(TEXTS) for i in range(n)],
        "span_start": [INT64.min + i for i in range(n)],
        "span_end": [INT64.max - i for i in range(n)],
        "counts": [tuple(range(i % 3)) for i in range(n)],
        "note": [(i + 2) % len(TEXTS) * (i % 2) for i in range(n)],
        "b_flag": [i % 4 == 3 for i in range(n)],
    }
    return {
        name: np.fromiter(values[name], dtype=object, count=n) if dtype == object
        else np.array(values[name], dtype=dtype)
        for name, dtype in column_dtypes(EVERY_KIND).items()
    }


@pytest.mark.parametrize("n", [0, 14])
def test_write_jsonl_writes_each_row_as_json_dumps_and_reads_back(tmp_path, monkeypatch, n):
    monkeypatch.setattr(domain, "WRITE_CHUNK_ROWS", 3)
    columns = every_kind_columns(n)
    path = tmp_path / "table.jsonl"
    files.write_jsonl(path, EVERY_KIND, columns, TEXTS)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readlines() == jsonl_rows(EVERY_KIND, columns, TEXTS)
    read, pool = files.read_jsonl(path, EVERY_KIND)
    assert list(read) == list(columns)
    for name, col in columns.items():
        if name in ("text", "note"):
            # the pool is in the order the reader met the texts; a row
            # without a note holds code 0
            carried = columns["kind"] == 1 if name == "note" else slice(None)
            assert np.array_equal(np.array(pool)[read[name]][carried], np.array(TEXTS)[col][carried])
        else:
            assert read[name].dtype == col.dtype and np.array_equal(read[name], col), name


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("data", [
    b"", b"\n", b"a", b"a\nbb\n", b"a\nbb", b"a\r\nbb\r\n", b"a\rbb\r", b"\r", b"\r\r\n\n\r",
    b"\r\n" * 5, b"long line " * 9 + b"\r\nx\r", b"\n\nend",
])
def test_line_chunks_are_the_lines_of_text_mode(tmp_path, monkeypatch, data, chunk):
    monkeypatch.setattr(files, "READ_CHUNK_BYTES", chunk)
    path = tmp_path / "data"
    path.write_bytes(data)
    chunks = list(files.line_chunks(path))
    with open(path, encoding="latin-1", newline=None) as fh:
        lines = fh.read().encode("latin-1").splitlines(keepends=True)
    assert b"".join(part for _, part in chunks) == b"".join(lines)
    assert all(part for _, part in chunks)
    assert all(part.endswith(b"\n") for _, part in chunks[:-1])  # whole lines only
    # each chunk's number is the number of its first line
    starts = itertools.accumulate((part.count(b"\n") for _, part in chunks), initial=1)
    assert [first for first, _ in chunks] == list(starts)[:len(chunks)]


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (2 << 20) + 7])
def test_sha256_file_is_hashlib_across_buffer_boundaries(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "data"
    path.write_bytes(data)
    assert files.sha256_file(path) == hashlib.sha256(data).hexdigest()


MANIFEST = {"command": "label", "inputs": {"a.jsonl": "0" * 64}, "outputs": {}, "stats": {}}


@pytest.mark.parametrize("key, value", [
    ("command", 5), ("command", None), ("stats", []), ("inputs", []), ("outputs", None),
    ("inputs", {"a.tsv": "0" * 63}), ("inputs", {"a.tsv": "0" * 65}), ("inputs", {"a.tsv": 5}),
    ("outputs", {"a.tsv": "A" * 64}), ("outputs", {"a.tsv": "g" * 64}),
    ("outputs", {"/run/a.tsv": "0" * 64}),
])
def test_read_manifest_refuses_other_shapes_on_line_1(tmp_path, key, value):
    path = tmp_path / "manifest.json"
    files.write_json(path, MANIFEST)
    assert files.read_manifest(path) == MANIFEST
    files.write_json(path, {**MANIFEST, key: value})
    with pytest.raises(ParseError) as exc:
        files.read_manifest(path)
    assert exc.value.line_no == 1


# the header np.save writes for a one-dimensional column of n < 10 rows:
# format 1.0, the header's length (118), its dict and the spaces that
# leave room for a longer shape and align the data at 128 bytes
def npy_header(descr, n):
    text = b"{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (descr, n)
    return b"\x93NUMPY\x01\x00v\x00" + text + b" " * 60 + b"\n"


# a column of each dtype of the population and address fields, and its bytes
COLUMN_BYTES = [
    (
        np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        npy_header(b"<u8", 3) + bytes.fromhex("00000000000000000100000000000000ffffffffffffffff"),
    ),
    (
        np.array([-(2**63), -1, 2**63 - 1], dtype=np.int64),
        npy_header(b"<i8", 3) + bytes.fromhex("0000000000000080ffffffffffffffffffffffffffffff7f"),
    ),
    (
        np.array([-32768, 0, 32767], dtype=np.int16),
        npy_header(b"<i2", 3) + bytes.fromhex("00800000ff7f"),
    ),
    (np.array([-128, 0, 127], dtype=np.int8), npy_header(b"|i1", 3) + bytes.fromhex("80007f")),
    (np.array([False, True]), npy_header(b"|b1", 2) + bytes.fromhex("0001")),
]


def test_column_dtypes_are_the_pinned_ones():
    dtypes = {
        dtype.name for cls in domain.COLUMN_TABLES.values() for dtype in cls.DTYPES.values()
    }
    assert dtypes == {col.dtype.name for col, _ in COLUMN_BYTES}


@pytest.mark.parametrize("col, data", COLUMN_BYTES, ids=[c.dtype.name for c, _ in COLUMN_BYTES])
def test_a_column_file_has_pinned_bytes_and_reads_back(tmp_path, col, data):
    path = tmp_path / "column.npy"
    files.write_column(path, col)
    assert path.read_bytes() == data
    read = files.read_column(path, col.dtype, len(col))
    assert read.dtype == col.dtype and np.array_equal(read, col)


UNPICKLED = []


def unpickle(value):
    UNPICKLED.append(value)
    return value


class Trap:
    """An object whose unpickling leaves a mark in UNPICKLED."""

    def __reduce__(self):
        return unpickle, ("unpickled",)


def test_an_object_column_is_refused_unread(tmp_path):
    path = tmp_path / "column.npy"
    np.save(path, np.array([Trap(), 1], dtype=object), allow_pickle=True)
    assert np.load(path, allow_pickle=True)[0] == "unpickled"  # the trap works
    UNPICKLED.clear()
    with pytest.raises(ParseError) as exc:
        files.read_column(path, np.dtype(np.int8), 2)
    assert str(exc.value) == f"{path}: expected a column of int8, found object of shape (2,)"
    assert UNPICKLED == []
    assert [code for kinds, code in cli.EXIT_CODES if isinstance(exc.value, kinds)] == [4]


@pytest.mark.parametrize("edit, message", [
    (lambda data: data[:-1], "expected 24 bytes of data, found 23"),
    (lambda data: data + b"\0", "expected 24 bytes of data, found 25"),
    (lambda data: data[:100], "not a .npy file: EOF"),
    (lambda data: b"", "not a .npy file: EOF"),
    (
        lambda data: b"\x93NUMPY\x03\x00" + data[8:],
        "not a .npy file: format version (3, 0), not (1, 0)",
    ),
    (lambda data: data.replace(b"<u8", b">u8"), "expected a column of uint64, found >u8"),
    (lambda data: data.replace(b"(3,)", b"(4,)"), "expected 3 rows, found 4"),
    (
        lambda data: data.replace(b"(3,)", b"(3, 1)").replace(b"}  ", b"} "),
        "found uint64 of shape (3, 1)",
    ),
])
def test_read_column_refuses_other_files(tmp_path, edit, message):
    path = tmp_path / "column.npy"
    files.write_column(path, np.array([1, 2, 3], dtype=np.uint64))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ParseError, match=re.escape(message)):
        files.read_column(path, np.dtype(np.uint64), 3)


# the file names of each stored group, in the order of its files: the one
# declaration that a new stored form of a table changes
STORED_FILES = {
    "dataset": [
        *(f"population.{name}.npy" for name in domain.PopulationColumns.DTYPES),
        "regions.jsonl",
        "calendar.json",
    ],
    "addresses": [f"addresses.{name}.npy" for name in domain.AddressColumns.DTYPES],
    "events": ["events.jsonl"],
}


@pytest.fixture(scope="module")
def stored(small_world, tmp_path_factory):
    """The directory where store_dataset stored the small world, and the
    digests it returned."""
    _, dataset, _ = small_world
    directory = str(tmp_path_factory.mktemp("stored"))
    return directory, files.store_dataset(dataset, directory)


def test_store_dataset_writes_exactly_the_declared_files(stored):
    directory, digests = stored
    declared = {group: files.group_paths(directory, group) for group in files.STORED_GROUPS}
    assert {group: list(map(os.path.basename, paths)) for group, paths in declared.items()} == (
        STORED_FILES
    )
    assert sorted(os.listdir(directory)) == sorted(itertools.chain(*STORED_FILES.values()))
    assert sorted(digests) == sorted(itertools.chain(*declared.values()))
    for path, digest in digests.items():
        with open(path, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest()


def test_each_group_reads_back_as_stored(stored, small_world):
    _, dataset, _ = small_world
    directory, _ = stored
    groups = files.stored_groups(dataset)
    assert list(groups) == list(files.STORED_GROUPS)
    for group in files.STORED_GROUPS:
        assert files.read_group(directory, group, groups.get) == groups[group], group
    assert files.load_stored(directory) == dataset


@pytest.mark.parametrize("name", list(itertools.chain(*STORED_FILES.values())))
def test_a_missing_stored_file_exits_3_naming_it(stored, tmp_path, name):
    directory = tmp_path / "dataset"
    shutil.copytree(stored[0], directory)
    os.unlink(directory / name)
    group = next(g for g, names in STORED_FILES.items() if name in names)
    state = cli.PipelineState(load_run_config("small", out_dir=str(tmp_path)))
    for load in (lambda: files.load_stored(directory), lambda: state.load(group)):
        with pytest.raises(MissingArtifactError) as exc:
            load()
        assert exc.value.artifact == str(directory / name)
        assert [code for kinds, code in cli.EXIT_CODES if isinstance(exc.value, kinds)] == [3]
