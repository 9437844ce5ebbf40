"""The file module's writes: a writer that dies mid-write leaves no
partial file, and the JSONL writer writes what json.dumps writes."""

import os

import numpy as np
import pytest

from awareflow import domain, files
from awareflow.domain import Field, column_dtypes

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
    Field("maybe", "int", null=INT64.max),
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
        "maybe": [INT64.max if i % 3 == 1 else i - 3 for i in range(n)],
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
