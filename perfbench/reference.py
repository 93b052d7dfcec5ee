"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other work, and the speed
those cores give changes by a quarter and more over seconds to minutes, for
every kind of work alike (CPU time equals wall time: the process is not
descheduled, its cores run slower).  Measured as they are, op times of one
program spread across runs by up to ~0.36 of their median.

So the benchmark times, between its ops, a fixed kernel that calls no
swphase code: interpreted Python, numpy calls on 3x3 matrices and an 8x8
einsum, the kinds of work the library does.  Every op time is scaled by
NOMINAL_S over the mean time of the kernel's units run near it, i.e. it is
reported at the host speed at which one unit takes NOMINAL_S.  No change to
swphase can change the kernel, so the scaling moves no gain or loss of the
program; it takes out the host's speed.  Raw times are reported as well.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one unit, in seconds, on an unloaded 2-vCPU VM: the host speed
# at which scaled times are reported.
NOMINAL_S = 0.56e-3
# Units run between ops until their time reaches this share of the op time.
SHARE = 0.1
# An op is scaled by the units that started from WINDOW_S before it began
# to WINDOW_S after it ended.  On ten 12 s runs of each workload under
# contention (raw spreads up to 0.27), windows of 0.5, 1, 2, 4 and 8 s and
# the whole-run mean gave largest spreads of 0.07 (1 s) to 0.13.
WINDOW_S = 1.0

_rng = np.random.default_rng(0)
_SMALL = [(m + m.T) / 2 for m in _rng.standard_normal((32, 3, 3))]
_FANO = _rng.standard_normal((8, 8, 8)) + 1j * _rng.standard_normal((8, 8, 8))


def unit() -> float:
    """One unit of the reference work; returns a value so none is skipped."""
    acc = 0.0
    for k in range(2000):
        acc += (k * 0.5) % 7.0
    for m in _SMALL:
        acc += float(np.linalg.eigvalsh(m)[-1]) + float(m @ m[0] @ m[1])
    acc += float(np.einsum("aij,bjk->abik", _FANO, _FANO).real.sum())
    return acc


def timed_unit(origin: float) -> tuple:
    """Run one unit; returns its (start, seconds), start relative to origin."""
    t0 = time.perf_counter()
    unit()
    return t0 - origin, time.perf_counter() - t0


def scales(spans, units) -> list:
    """NOMINAL_S over the mean unit time near each (start, end) span.

    ``units`` are (start, seconds) pairs in order of start.  A span with no
    unit within WINDOW_S uses the mean of all units.
    """
    starts = np.array([t for t, _ in units])
    cum = np.concatenate(([0.0], np.cumsum([s for _, s in units])))
    overall = cum[-1] / len(units)
    out = []
    for start, end in spans:
        lo = np.searchsorted(starts, start - WINDOW_S, side="left")
        hi = np.searchsorted(starts, end + WINDOW_S, side="right")
        mean = (cum[hi] - cum[lo]) / (hi - lo) if hi > lo else overall
        out.append(NOMINAL_S / mean)
    return out
