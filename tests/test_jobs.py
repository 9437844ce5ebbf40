"""Work handed to a forked child: its result, its errors, no child left."""

import os
import time

import pytest

from awareflow import jobs
from awareflow.errors import ParseError

from conftest import assert_no_child_left, wait_until_exited

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def fail_to_parse():
    raise ParseError("events.jsonl", 3, "bad record")


def fail_otherwise():
    raise KeyError("not an AwareflowError")


def test_the_child_returns_its_value():
    assert jobs.Forked(sorted, [3, 1, 2]).result() == [1, 2, 3]
    assert_no_child_left()


def test_an_awareflow_error_is_raised_with_its_attributes():
    # ParseError's __init__ takes three arguments, its args hold one
    with pytest.raises(ParseError, match="events.jsonl:3: bad record") as info:
        jobs.Forked(fail_to_parse).result()
    assert (info.value.path, info.value.line_no) == ("events.jsonl", 3)
    assert_no_child_left()


def test_any_other_failure_prints_its_traceback_and_raises_runtime_error(capfd):
    with pytest.raises(RuntimeError, match="exited with code 1 before it reported"):
        jobs.Forked(fail_otherwise).result()
    assert "KeyError: 'not an AwareflowError'" in capfd.readouterr().err
    assert_no_child_left()


def wait_for(path):
    deadline = time.monotonic() + 10
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return "done"


def test_poll_returns_none_while_the_child_runs_then_what_result_returns(tmp_path):
    child = jobs.Forked(wait_for, tmp_path / "go")
    assert child.poll() is None
    (tmp_path / "go").touch()
    wait_until_exited(child.pid)
    assert child.poll() == "done"
    assert_no_child_left()
    child = jobs.Forked(fail_to_parse)
    wait_until_exited(child.pid)
    with pytest.raises(ParseError, match="events.jsonl:3: bad record"):
        child.poll()
    assert_no_child_left()


def test_zero_jobs_means_the_usable_cores():
    assert not jobs.can_fork(1)
    assert jobs.can_fork(2)
    assert jobs.can_fork(0) == (len(os.sched_getaffinity(0)) >= 2)
