"""A pool of forked workers, each running one stripe of jobs: every process
concern of a call is here.

``pipeline.played`` cuts every game's seeds into the same contiguous ranges,
one per CPU, and runs them through a ``Pool``: worker ``k`` plays range ``k``
of every game, in game order, while this process plays range 0 of each game
and then builds and writes it (see ``cli``).  The pool is forked once per
``generate`` or ``playout-stats`` call; with one range nothing forks.

A worker only computes, and reports each result by ``marshal``; it never
writes under ``--out``, so it may be killed at any time.  As soon as it is
forked it points the standard streams that are open at ``/dev/null``, so a
reader of the call's output gets its EOF when the call ends, and it arms a
timer on its own CPU time whose ``SIGVTALRM``, every 0.1 s of play, leaves
through ``os._exit`` once the process that forked it is gone: nothing would
read its results.  This process never arms it.  A worker ignores SIGINT: a
Ctrl-C reaches this process too, whose ``KeyboardInterrupt`` leaves the
pool's ``with`` block, which kills and reaps the worker.  A worker that
ends without a report, for any reason, has its stripe played again here,
where any error it met is raised with its own traceback: which process
plays a range does not change its result.  Only ``generate`` and
``playout-stats`` import this module.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import BinaryIO


def cpus() -> int:
    """The CPUs of ``os.sched_getaffinity``: 1 where a forked child would hold only
    this thread of several, or where ``sched_getaffinity`` does not exist."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


@contextmanager
def sigint_held() -> Iterator[None]:
    """Hold SIGINT over the block where the platform can, so that a Ctrl-C in it
    raises ``KeyboardInterrupt`` only as the block is left: what the block
    does is done whole."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


class Pool:
    """Run ``job(k, g)`` for every stripe ``k < ways`` of every game ``g < games``:
    stripe 0 here, and each other stripe in a forked worker of its own, which
    runs its jobs in game order while this process goes on.

    ``results(g)`` returns game ``g``'s results in stripe order.  A worker
    that ends with no report, whatever the cause, is reaped, and its stripe
    of that game and of every later game runs here.  Leaving the ``with``
    block kills and reaps every worker and closes every pipe.
    """

    def __init__(self, job: Callable[[int, int], object], ways: int, games: int):
        self.job = job
        self.ways = ways
        self.workers: dict[int, tuple[int, BinaryIO]] = {}  # stripe -> (pid, report pipe)
        try:
            for k in range(1, ways):
                try:
                    self._fork(k, games)
                except OSError:  # no pipe or process to be had: the rest run here
                    break
        except BaseException:
            self.close()
            raise

    def _fork(self, k: int, games: int) -> None:
        report_r, report_w = os.pipe()
        parent = os.getpid()
        # The worker ignores SIGINT before it can raise there, and here it
        # raises once the worker is recorded.
        with sigint_held():
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
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.signal(signal.SIGVTALRM,
                              lambda *_: os.getppid() != parent and os._exit(0))
                signal.setitimer(signal.ITIMER_VIRTUAL, 0.1, 0.1)
                null = os.open(os.devnull, os.O_WRONLY)
                for stream in sys.__stdout__, sys.__stderr__:
                    if stream is not None:  # else its descriptor may be another file's
                        os.dup2(null, stream.fileno())
                os.close(null)
                os.close(report_r)
                for _, pipe in self.workers.values():
                    os.close(pipe.fileno())
                with open(report_w, "wb") as pipe:
                    for g in range(games):
                        data = marshal.dumps(self.job(k, g))
                        pipe.write(len(data).to_bytes(8, "little") + data)
                        pipe.flush()
            finally:
                os._exit(0)

    def _report(self, k: int) -> object:
        """Worker ``k``'s next result; ``None`` once the worker is reaped unreported."""
        pipe = self.workers[k][1]
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        data = pipe.read(size) if len(head) == 8 else b""
        if not data or len(data) < size:  # marshal never gives empty data
            self._reap(k)
            return None
        return marshal.loads(data)

    def _reap(self, k: int) -> None:
        pid, pipe = self.workers.pop(k)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()

    def results(self, g: int) -> list:
        """``job(k, g)`` for every stripe ``k``, in order: stripe 0 runs here first,
        then each worker's report is read, or its stripe runs here."""
        results = []
        for k in range(self.ways):
            report = self._report(k) if k in self.workers else None
            results.append(self.job(k, g) if report is None else report)
        return results

    def close(self) -> None:
        for k in list(self.workers):
            self._reap(k)

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
