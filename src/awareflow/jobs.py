"""The processes a run may use: the ``jobs`` setting and work handed to a
forked child.

``jobs`` 1 keeps a run in one process, 0 means the usable cores, and 2 or
more let `all` write the dataset files in a forked child while the analytic
stages run in the parent.
"""

import os
import pickle
import sys

from .errors import AwareflowError


def can_fork(jobs):
    """Whether a run with the ``jobs`` setting hands work to a forked child:
    it allows two processes or more, 0 meaning the usable cores."""
    if not hasattr(os, "fork"):
        return False
    if not jobs:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (jobs or 1) >= 2


class Forked:
    """``fn(*args)`` run in a forked child process.

    Forked, not spawned: the child reads the parent's objects in place, where
    a spawned one would be sent them pickled.  The program starts no thread
    of its own, so the child does not inherit a lock some thread holds.  The
    child sends what ``fn`` returns, or the AwareflowError it raised,
    back over a pipe and exits with ``os._exit``, so it runs no exit
    handler of the parent.  ``result`` waits for the child, reaps it and
    returns that value or raises that error; ``poll`` does so only once the
    child has exited, and returns None while it runs.  Any other exception
    is the child's own traceback on stderr and a RuntimeError here.
    """

    def __init__(self, fn, *args):
        # output buffered before the fork would otherwise be the child's too
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            code = 1
            try:
                try:
                    message = (True, fn(*args))
                except AwareflowError as exc:
                    # rebuilt by result() whatever the error's __init__ takes
                    message = (False, (type(exc), exc.args, vars(exc)))
                blob = pickle.dumps(message)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(blob)
                code = 0
            except BaseException:
                # not re-raised: the child never returns into the caller
                sys.excepthook(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(write_fd)
        self.fd = read_fd
        self.status = None  # the wait status, once the child is reaped

    def poll(self):
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid == 0:
            return None
        self.status = status
        return self.result()

    def result(self):
        try:
            with os.fdopen(self.fd, "rb") as fh:
                data = fh.read()
        finally:
            if self.status is None:
                _, self.status = os.waitpid(self.pid, 0)
        if not data:
            raise RuntimeError(
                f"child process {self.pid} exited with code "
                f"{os.waitstatus_to_exitcode(self.status)} before it reported"
            )
        ok, value = pickle.loads(data)
        if ok:
            return value
        cls, args, attrs = value
        exc = cls.__new__(cls, *args)
        exc.__dict__.update(attrs)
        raise exc
