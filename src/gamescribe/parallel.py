"""Jobs run in forked child processes and finished in order, and how many.

``generate`` (see ``cli``) runs its games through ``run_in_order``: with
several games it plays later ones in children while this process plays the
first.  ``pipeline.play`` runs the seed ranges of one game's playouts through
it too, the lowest range here and the others in children.  Only a one-game
call splits its game, into ``cpus()`` ranges; a call of several games plays
each unsplit, so no child of ``run_in_order`` forks children of its own.
With one CPU nothing forks.  The CPUs are those of ``os.sched_getaffinity``;
a process that runs more than one thread, or has no ``sched_getaffinity``,
counts one.

A child reports its result through a pipe by ``marshal`` where marshal takes
it, such as a fold of plain tuples, and otherwise by ``pickle``, imported only
then, so that a one-game ``generate`` does not load it.  Only ``generate`` and
``playout-stats`` import this module, so that ``translate`` does not.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
import threading
from collections.abc import Callable


def cpus() -> int:
    """The CPUs this process may fork onto: 1 where a forked child would hold only
    this thread of several, or where ``os.sched_getaffinity`` does not exist."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def run_in_order(job: Callable[[int, Callable[[], object] | None], object], count: int,
                 finished: Callable[[object], object],
                 reported: tuple[type[BaseException], ...]) -> None:
    """Call ``finished(job(i, before_write))`` for ``i`` in ``range(count)``, in
    order, as a plain loop would, while forked children run later jobs: at most
    one fewer than ``cpus()`` at once.

    ``job`` calls ``before_write``, if not None, before its first write.  A
    child runs its job up to that call, then waits for a "go" byte, sent once
    every earlier job is finished; it writes and reports ``("ok", result)``,
    or an exception of a ``reported`` type that it raised, for this process
    to re-raise.  A job no child reports on, such as one whose child raised
    anything else, runs here, so that such an error is raised with its own
    traceback.  Children print nothing and leave through ``os._exit``.
    Every child is reaped on every path, and one never told to write is
    killed first.
    """
    slots = cpus() - 1
    children: dict[int, tuple[int, int, int]] = {}  # job -> (pid, go fd, report fd)

    def fork(i: int) -> tuple[int, int, int]:
        sys.stdout.flush()
        sys.stderr.flush()
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        go_r, go_w, report_r, report_w = fds
        if pid:
            os.close(go_r)
            os.close(report_w)
            return pid, go_w, report_r
        try:  # in the child
            for fd in (go_w, report_r, *(fd for _, *pipes in children.values() for fd in pipes)):
                os.close(fd)
            try:  # an empty read: the go pipe was closed unsent, so write nothing
                report = ("ok", job(i, lambda: os.read(go_r, 1) or os._exit(0)))
            except reported as exc:
                report = exc
            try:
                data = b"m" + marshal.dumps(report)
            except ValueError:  # not plain data, such as a path or an exception
                import pickle
                data = b"p" + pickle.dumps(report)
            with open(report_w, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)

    def reap(i: int, kill: bool) -> None:
        pid, go, report = children.pop(i)
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(go)
        os.close(report)

    def collect(i: int) -> tuple[str, object] | None:
        pid, go, report = children[i]
        try:
            os.write(go, b"g")
        except BrokenPipeError:  # the child has ended already
            pass
        with open(report, "rb", closefd=False) as pipe:
            data = pipe.read()  # until the child's end closes
        reap(i, kill=False)
        if not data:
            return None
        if data[:1] == b"m":  # bytes the child wrote
            return marshal.loads(data[1:])
        import pickle
        result = pickle.loads(data[1:])
        if isinstance(result, BaseException):
            raise result
        return result

    later = 1  # the next job a child may run
    try:
        for i in range(count):
            later = max(later, i + 1)
            while later < count and len(children) < slots:
                try:
                    children[later] = fork(later)
                except OSError:  # no process or pipe to be had: the rest run here
                    slots = 0
                    break
                later += 1
            result = collect(i) if i in children else None
            finished(job(i, None) if result is None else result[1])
    finally:
        for i in list(children):
            reap(i, kill=True)
