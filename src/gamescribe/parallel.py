"""Jobs run in forked child processes and finished in order, and how many.

``generate`` (see ``cli``) builds its games through ``run_in_order``: with
several games, forked children build later ones while this process builds
the first.  ``pipeline.play`` runs the seed ranges of one game's playouts
through it too.  Only a one-game call splits its game, so no child of
``run_in_order`` forks children of its own.  With one CPU nothing forks.

A child only computes.  It reports its result by ``marshal``, or a reported
error by ``pickle``, imported only then, and streams any long text into a
temporary file opened for its job.  It never writes under ``--out``: this
process does all of that, in ``finished``, so a child may be killed at any
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


def run_in_order(job: Callable[[int, BinaryIO | None], object], count: int,
                 finished: Callable[[object, BinaryIO | None], object],
                 reported: tuple[type[BaseException], ...], files: bool = False) -> None:
    """Call ``finished(job(i, file), file)`` for ``i`` in ``range(count)``, in
    order, as a plain loop would, while forked children run later jobs: at most
    one fewer than ``cpus()`` at once.

    With ``files``, ``file`` is an anonymous temporary file opened just before
    job ``i`` starts, emptied if the job runs here again, and closed once
    ``finished`` returns; without, None.  A child's error of a ``reported``
    type is raised here.  A job no child reports on, such as one whose child
    raised anything else, runs here, so that such an error keeps its own
    traceback.  Every child is reaped on every path, killed if still running.
    """
    if files:
        import tempfile
    slots = cpus() - 1
    opened: dict[int, BinaryIO] = {}  # job -> its file, with ``files``
    children: dict[int, tuple[int, int]] = {}  # job -> (pid, report fd)

    def fork(i: int) -> tuple[int, int]:
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
            return pid, report_r
        try:  # in the child, which prints nothing and leaves through os._exit
            for fd in (report_r, *(fd for _, fd in children.values())):
                os.close(fd)
            try:
                result = job(i, opened.get(i))
                if files:
                    opened[i].flush()
                data = b"m" + marshal.dumps((result,))  # a ValueError: no report
            except reported as exc:
                import pickle
                data = b"p" + pickle.dumps(exc)
            with open(report_w, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)

    def reap(i: int, kill: bool) -> None:
        pid, report = children.pop(i)
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(report)

    def collect(i: int) -> tuple[object] | None:
        with open(children[i][1], "rb", closefd=False) as pipe:
            data = pipe.read()  # until the child's end closes
        reap(i, kill=False)
        if data[:1] == b"p":
            import pickle
            raise pickle.loads(data[1:])
        return marshal.loads(data[1:]) if data else None

    later = 1  # the next job a child may run
    try:
        for i in range(count):
            later = max(later, i + 1)
            while later < count and len(children) < slots:
                try:
                    if files and later not in opened:
                        opened[later] = tempfile.TemporaryFile()
                    children[later] = fork(later)
                except OSError:  # no file, process or pipe to be had: the rest run here
                    slots = 0
                    break
                later += 1
            if files and i not in opened:
                opened[i] = tempfile.TemporaryFile()
            file = opened.get(i)
            result = collect(i) if i in children else None
            if result is None:
                if files:  # empty what a failed child wrote
                    file.seek(0)
                    file.truncate()
                result = (job(i, file),)
            finished(result[0], file)
            if files:
                opened.pop(i).close()
    finally:
        for i in list(children):
            reap(i, kill=True)
        for file in opened.values():
            file.close()
