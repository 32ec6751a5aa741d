"""A fixed reference task that gauges how fast the machine runs right now.

On a shared host the CPU time a process gets is not steady: on a 2-core VM
running Python 3.11, the same pure-Python loop ran 1.5 to 1.9 times slower
for seconds to minutes at a time, with no steal time visible in the guest.
A slow spell slows every op of a run alike, so no statistic of the op times
alone can separate it from a slower program.

The worker therefore times this task right after every op.  The harness
divides each op's time by the task's time around it and multiplies by
``REFERENCE_MS``, which reports the op in milliseconds at the speed the
machine had when the task took ``REFERENCE_MS``.  The task is a miniature
of detrec's own hot path (fraction-free Bareiss elimination over
dict-of-monomials polynomials with exact division), so host contention
slows it about as much as it slows detrec; it uses only the standard
library and never imports detrec, so a change to detrec moves the op times
and not the reference.
"""

from __future__ import annotations

import gc
import time

#: the task's time on a 2-core VM (Python 3.11) in a fast spell; sets the
#: scale of the reported milliseconds, nothing else
REFERENCE_MS = 1.0


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _leading(p: dict):
    m = max(p, key=lambda m: (sum(m), m))
    return m, p[m]


def _divide(num: dict, den: dict) -> dict:
    """``num / den`` for an exact division, by leading terms."""
    quotient, rest = {}, num
    dm, dc = _leading(den)
    while rest:
        m, c = _leading(rest)
        qm, qc = tuple(x - y for x, y in zip(m, dm)), c // dc
        quotient[qm] = qc
        rest = _add(rest, _mul({qm: qc}, den), -1)
    return quotient


def _matrix(n: int) -> list[list[dict]]:
    """An n x n matrix of linear polynomials in three variables."""
    def entry(i: int, j: int) -> dict:
        var = [0, 0, 0]
        var[(i + j) % 3] = 1
        p = {tuple(var): i - j + 2}
        if i == j:
            p[(0, 0, 0)] = 1
        return p
    return [[entry(i, j) for j in range(n)] for i in range(n)]


_MATRIX = _matrix(4)


def task() -> int:
    """Bareiss determinant of a fixed 4 x 4 matrix; its number of terms."""
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), {(0, 0, 0): 1}
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _divide(_add(_mul(a[i][j], a[k][k]),
                                       _mul(a[i][k], a[k][j]), -1), prev)
        prev = a[k][k]
    return len(a[-1][-1])


def reference_ms() -> float:
    """One timed run of the task, in ms, with the garbage collector paused.

    Pausing it keeps the objects an op left behind from slowing the task.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        task()
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()
