"""A pool of forked workers, one per spare CPU, each running one stripe of jobs.

``pipeline.played`` cuts every game's seeds into the same contiguous ranges
and runs them through a ``Pool``: worker ``k`` plays range ``k`` of every
game, in game order, while this process plays range 0 of each game and then
builds and writes it (see ``cli``).  The pool is forked once per ``generate``
or ``playout-stats`` call; with one CPU nothing forks, and no worker forks.

A worker only computes.  It reports each result by ``marshal``, or a
reported error by ``pickle``, imported only then, and streams any long text
into its one temporary file, opened before the fork.  It never writes under
``--out``: this process does all of that, so a worker may be killed at any
time.  Only ``generate`` and ``playout-stats`` import this module.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
import threading
from collections.abc import Callable
from typing import BinaryIO


def cpus() -> int:
    """The CPUs of ``os.sched_getaffinity``: 1 where a forked child would hold only
    this thread of several, or where ``sched_getaffinity`` does not exist."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


class Pool:
    """Run ``job(k, g, files[k])`` for every stripe ``k < ways`` of every game
    ``g < games``: stripe 0 here, and at most one fewer than ``cpus()`` of the
    others in forked workers, one stripe each, which run their jobs in game
    order while this process goes on.

    ``files`` holds one anonymous temporary file per stripe with ``files``,
    opened before any fork, else Nones; a worker shares its file's offset with
    this process, which reads it only by ``os.pread`` while the worker runs.  ``results(g)`` returns
    game ``g``'s results in stripe order.  A worker's error of a ``reported``
    type is raised there.  A worker that ends with no report, such as one that
    raised anything else, is reaped, and its stripe of that game and of every
    later game runs here, so that such an error keeps its own traceback.
    Leaving the ``with`` block kills and reaps every worker and closes every
    pipe and file.
    """

    def __init__(self, job: Callable[[int, int, BinaryIO | None], object], ways: int,
                 games: int, reported: tuple[type[BaseException], ...], files: bool = False):
        self.job = job
        self.workers: dict[int, tuple[int, BinaryIO]] = {}  # stripe -> (pid, report pipe)
        self.files: list[BinaryIO | None] = [None] * ways
        try:
            if files:
                import tempfile
                for k in range(ways):
                    self.files[k] = tempfile.TemporaryFile()
            for k in range(1, min(ways, cpus())):
                try:
                    self._fork(k, games, reported)
                except OSError:  # no pipe or process to be had: the rest run here
                    break
        except BaseException:
            self.close()
            raise

    def _fork(self, k: int, games: int, reported: tuple[type[BaseException], ...]) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        report_r, report_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(report_r)
            os.close(report_w)
            raise
        if pid:
            os.close(report_w)
            self.workers[k] = pid, open(report_r, "rb")
            return
        try:  # in the worker, which prints nothing and leaves through os._exit
            os.close(report_r)
            for _, pipe in self.workers.values():
                os.close(pipe.fileno())
            with open(report_w, "wb") as pipe:
                for g in range(games):
                    try:  # a ValueError of marshal: no report, on this game or later
                        data = b"m" + marshal.dumps(self.job(k, g, self.files[k]))
                    except reported as exc:
                        import pickle
                        data = b"p" + pickle.dumps(exc)
                    pipe.write(len(data).to_bytes(8, "little") + data)
                    pipe.flush()
                    if data[:1] == b"p":
                        break
        finally:
            os._exit(0)

    def _report(self, k: int) -> object:
        """Worker ``k``'s next result; ``None`` once the worker is reaped unreported."""
        pipe = self.workers[k][1]
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        data = pipe.read(size) if len(head) == 8 else b""
        if not data or len(data) < size:
            self._reap(k)
            return None
        if data[:1] == b"p":
            import pickle
            raise pickle.loads(data[1:])
        return marshal.loads(data[1:])

    def _reap(self, k: int) -> None:
        pid, pipe = self.workers.pop(k)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()

    def results(self, g: int) -> list:
        """``job(k, g, files[k])`` for every stripe ``k``, in order: stripe 0 runs
        here first, then each worker's report is read, or its stripe runs here."""
        results = []
        for k, file in enumerate(self.files):
            report = self._report(k) if k in self.workers else None
            results.append(self.job(k, g, file) if report is None else report)
        return results

    def close(self) -> None:
        for k in list(self.workers):
            self._reap(k)
        for file in self.files:
            if file is not None:
                file.close()

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
