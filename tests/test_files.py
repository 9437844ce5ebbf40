"""The file module's writes: a writer that dies mid-write leaves no partial file."""

import os

import pytest

from awareflow import domain, files

from conftest import make_events


def die_after_the_first_chunk(monkeypatch, path):
    """Make every chunked writer raise once its first chunk is written."""
    row_chunks = files.row_chunks

    def chunks(n):
        rows = row_chunks(n)
        yield next(rows)
        assert os.path.exists(f"{path}.tmp")  # the writer is mid-write
        raise RuntimeError("died mid-write")

    monkeypatch.setattr(files, "row_chunks", chunks)


WRITERS = {
    "write_events": lambda path: files.write_events(path, make_events([
        ("query", i, 100 + i, "mask", False) for i in range(10)
    ])),
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
