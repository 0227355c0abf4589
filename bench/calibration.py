"""A fixed reference computation that the timed loop runs between ops.

On a shared machine the speed of the CPU the benchmark gets moves by up
to 2x, in phases of seconds to a minute, and CPU time moves with it, so
neither wall time nor CPU time of an op is steady from run to run.  The
benchmark therefore times, about every CAL_EVERY_S seconds, one call of
`unit()`: products of 3x3 `Fraction` matrices with p-power denominators,
the same kind of work as so3p's, written with the standard library only
so that no change to so3p can move it.  Each op's time is then rescaled
by REF_UNIT_S over the median unit time of the same one-second window.
The result reads as the op's time on a machine where one unit takes
REF_UNIT_S seconds.  The raw wall times are kept in the run's JSON file.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

CAL_EVERY_S = 0.025
# About the median time of unit() on the 2-CPU machine of the reference
# figures in README.md, so rescaled times read close to its wall times.
REF_UNIT_S = 0.75e-3
WINDOW_S = 1.0

_rng = random.Random(7)
_A = [[Fraction(_rng.randint(-729, 729), 3 ** _rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]
_B = [[Fraction(_rng.randint(-625, 625), 5 ** _rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]


def _mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def unit():
    m = _A
    for _ in range(2):
        m = _mul(_A, _mul(m, _B))
        m = [[e.limit_denominator(10**12) for e in row] for row in m]
    return m


def rescale(ops, units):
    """ops and units are lists of (start, seconds), starts from the start of
    the timed loop.  Returns the op times rescaled to REF_UNIT_S by the
    median unit time of each op's window (the nearest window that has a
    unit, if its own has none)."""
    by_window = {}
    for start, dt in units:
        by_window.setdefault(int(start // WINDOW_S), []).append(dt)
    medians = {w: statistics.median(v) for w, v in by_window.items()}
    windows = sorted(medians)
    out = []
    for start, dt in ops:
        w = int(start // WINDOW_S)
        if w not in medians:
            w = min(windows, key=lambda x: abs(x - w))
        out.append(dt * REF_UNIT_S / medians[w])
    return out
