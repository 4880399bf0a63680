"""Jobs run in forked child processes and finished in order.

``generate`` (see ``cli``) runs its games through ``run_in_order``: with
several games it plays later ones in children while this process plays the
first.  Only ``generate`` imports this module, so that ``translate`` does not,
and ``pickle`` is imported only where a child is forked, so that a one-game
``generate`` does not load it either.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from collections.abc import Callable


def run_in_order(job: Callable[[int, Callable[[], object] | None], object], count: int,
                 finished: Callable[[object], object],
                 reported: tuple[type[BaseException], ...]) -> None:
    """Call ``finished(job(i, before_write))`` for ``i`` in ``range(count)``, in
    order, as a plain loop would, while forked children run later jobs: at most
    one fewer than the CPUs in ``os.sched_getaffinity`` at once, and none in a
    process that runs more than one thread or has no ``sched_getaffinity``.

    ``job`` calls ``before_write``, if not None, before its first write.  A
    child runs its job up to that call, then waits for a "go" byte, sent once
    every earlier job is finished; it writes and reports ``("ok", result)``,
    or an exception of a ``reported`` type that it raised, pickled, for this
    process to re-raise.  A job no child reports on, such as one whose child
    raised anything else, runs here, so that such an error is raised with its
    own traceback.  Children print nothing and leave through ``os._exit``.
    Every child is reaped on every path, and one never told to write is
    killed first.
    """
    slots = 0  # a forked child would hold only this thread: fork none beside others
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        slots = len(os.sched_getaffinity(0)) - 1
    children: dict[int, tuple[int, int, int]] = {}  # job -> (pid, go fd, report fd)

    def fork(i: int) -> tuple[int, int, int]:
        import pickle
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
            with open(report_w, "wb") as pipe:
                pipe.write(pickle.dumps(report))
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
        import pickle
        result = pickle.loads(data)  # bytes the child wrote
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
