"""A fixed computation timed next to every unit, to cancel the host's drift.

On a shared host the speed of one core drifts by a third or more, in steps of
seconds and for minutes at a time, and CPU time drifts with wall time (the
process is not descheduled; the core runs slower).  A unit's wall clock
divided by the wall clock of this computation, timed in the same process
right before it, keeps what the program costs and drops most of what the host
does.  The computation is the same in every commit: it uses numpy only, not
meanscope, and its instruction mix resembles the program's (Python-level
loops of 2x2 complex rotations applied to a small Hermitian matrix by fancy
indexing).  It takes about 0.04 s on an idle core.
"""

from __future__ import annotations

import math
import time

import numpy as np

SIZE = 6
SWEEPS = 100


def _matrix():
    rng = np.random.default_rng(20111213)
    x = rng.standard_normal((SIZE, SIZE)) + 1j * rng.standard_normal((SIZE, SIZE))
    return x @ x.conj().T + SIZE * np.eye(SIZE)


_START = _matrix()


def _rotate(a):
    """One pass of plane rotations over every (p, q) pair."""
    for p in range(SIZE - 1):
        for q in range(p + 1, SIZE):
            apq = a[p, q]
            size = abs(apq)
            theta = 0.5 * math.atan2(2.0 * size, a[q, q].real - a[p, p].real)
            c, s = math.cos(theta), math.sin(theta)
            phase = apq / size
            g = np.array([[c, s], [-s * phase.conjugate(), c * phase.conjugate()]],
                         dtype=np.complex128)
            a[:, (p, q)] = a[:, (p, q)] @ g
            a[(p, q), :] = g.conj().T @ a[(p, q), :]


def seconds():
    """Wall clock of one run of the fixed computation."""
    start = time.perf_counter()
    for _ in range(SWEEPS):
        _rotate(_START.copy())
    return time.perf_counter() - start
