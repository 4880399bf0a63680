"""Machine-speed sampling for the untraced run.

A shared virtual machine's CPU speed drifts with its neighbours' load: on the
2-core machine where the benchmark was defined, one fixed loop took 15 ms in
one minute and 30 ms a minute later, and `generate` on Hex moved with it from
2.4 s to 4.6 s. Wall times alone would make runs of the same code disagree by
more than any useful bound. So while ops run, a timer signal runs a small,
fixed reference loop (`reference_work`, about 3.5 ms) every 100 ms, inside
the benchmark process, and records how long it took. A timed figure is
reported at reference speed: its wall time, minus the time the samples took
inside it, times `REFERENCE_S` over the mean sample time of its segment.

The reference loop uses nothing from the program, so a faster program moves
the figures and a faster machine does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Seconds one reference sample takes at reference speed; the scale of every
# reported time. Set from the defining machine in a quiet minute.
REFERENCE_S = 0.0035
INTERVAL_S = 0.1

_SIZE = 9
_NEIGHBOURS = [[(r + dr) * _SIZE + c + dc
                for dr, dc in ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))
                if 0 <= r + dr < _SIZE and 0 <= c + dc < _SIZE]
               for r in range(_SIZE) for c in range(_SIZE)]


class _Move:
    __slots__ = ("player", "site", "label")

    def __init__(self, player: int, site: int, label: str):
        self.player, self.site, self.label = player, site, label


def reference_work() -> int:
    """One fixed random game of 9x9 Hex, the same every call: move lists of small
    objects, a linear congruential draw, and a breadth-first search per move.
    Returns the number of moves played."""
    state = 88172645463325252
    owner = [0] * (_SIZE * _SIZE)
    player, plies = 1, 0
    while True:
        moves = [_Move(player, s, f"{chr(65 + s % _SIZE)}{s // _SIZE + 1}")
                 for s, o in enumerate(owner) if o == 0]
        if not moves:
            return plies
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        move = moves[(state >> 33) % len(moves)]
        owner[move.site] = move.player
        plies += 1
        seen = {s for s in range(_SIZE) if owner[s] == player}
        frontier = list(seen)
        while frontier:
            nxt = []
            for s in frontier:
                for n in _NEIGHBOURS[s]:
                    if owner[n] == player and n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        if any(s >= _SIZE * (_SIZE - 1) for s in seen):
            return plies
        player = 3 - player


class SpeedSampler:
    """Reference samples, taken on demand or, inside ``with``, every INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in samples so far

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not reference work
        try:
            start = time.perf_counter()
            reference_work()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        self.busy += took
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int) -> float:
        """REFERENCE_S over the mean of the samples from index ``first`` on."""
        if len(self.samples) == first:
            self.sample()
        return REFERENCE_S / statistics.fmean(self.samples[first:])
