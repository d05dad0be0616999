"""Host-speed reference for the end-to-end times.

The benchmark shares a few cores of a host whose speed changes under it:
the same pure-Python loop takes from 1x to about 1.7x its best time, in
spells of a second to several minutes, on both cores at once.  Raw
run-level times then spread by 0.2-0.3 of their median over ten seeds,
past any bound worth keeping.

So the timed phase is cut into windows (two ``evaluate`` batches, 25
``generate`` requests, a slice of a ``train`` loop or one of its training
steps, a set-up), and a fixed reference runs between every two windows.
A window's time is scaled by ``REFERENCE_S`` over the mean of the
reference times just before and just after it: the end-to-end times read
as they would on a host where the reference takes 1 ms.  A spell that
slows the reference slows the window beside it alike.  The reference
does interpreter work and memory work, because the spells slow the two
by different amounts and the workloads mix them.

The reference does not import ``verseforge``: a change to the program
cannot change it.  It is timed on its second of two passes, and garbage
collection is paused while it runs, so that neither the program's use of
the caches nor a collection of the program's heap lands in its time.
Its table adds about 9 MB to every workload's peak RSS.  Its time is not
part of any window.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

REFERENCE_S = 1e-3  # scaled times read as on a host where the reference takes this long

clock = time.perf_counter

_rng = random.Random("perfbench-reference")
_WORDS = ["".join(_rng.choice("abcdeěfghijklmnoprsštuvyzž") for _ in range(_rng.randint(2, 9)))
          for _ in range(400)]
_TABLE = np.arange(1 << 21, dtype=np.int32)  # 8 MB: more than a core's L2 holds
_GATHER = np.random.default_rng(0).integers(0, len(_TABLE), 60_000)


def reference() -> int:
    """Count the letter bigrams of a fixed word list (interpreter work),
    then sum fixed random entries of an 8 MB table (memory work)."""
    counts: dict[str, int] = {}
    for w in _WORDS:
        for i in range(len(w) - 1):
            k = w[i:i + 2]
            counts[k] = counts.get(k, 0) + 1
    return len(counts) + int(_TABLE[_GATHER].sum())


def time_reference() -> float:
    """Time the reference on its second pass: the first brings its code and
    data back into the caches, so that the time tracks the host and not
    how much of the caches the program's last window used."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        t = clock()
        reference()
        return clock() - t
    finally:
        if enabled:
            gc.enable()


class Windows:
    """Runs the reference between windows of work and gives each window's
    scale factor.  ``spent_s`` is the wall time the references took."""

    def __init__(self):
        self.reference_s: list[float] = []
        self.spent_s = 0.0
        self._before: float | None = None

    def _sample(self) -> float:
        t = clock()
        r = time_reference()
        self.reference_s.append(r)
        self.spent_s += clock() - t
        return r

    def start(self) -> None:
        """Time the reference right before a window that does not follow
        another one at once."""
        self._before = self._sample()

    def close(self) -> float:
        """End the window since the last reference, and time the reference
        that starts the next; returns the factor by which to scale the
        window's times."""
        before, after = self._before, self._sample()
        self._before = after
        return REFERENCE_S / ((before + after) / 2)
