"""Summary statistics: percentiles, the tail choice and failure counting."""

from __future__ import annotations

import math
import statistics
import time

#: Percentiles a workload may report as its tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def rank(count: int, percentile: float) -> int:
    """Nearest-rank position (1-based) of ``percentile`` in ``count`` samples."""
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(percentile / 100.0 * count, 9)))


def samples_beyond(count: int, percentile: float) -> int:
    return count - rank(count, percentile)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (not interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(len(ordered), pct) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond it in ``count`` samples, or None when none has."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(count, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def median(values) -> float:
    return statistics.median(values)


#: Outcome classes of one operation; every class but "ok" is a failure.
OUTCOMES = ("ok", "error", "status", "mismatch")


def classify(record: dict, rows_match: bool | None) -> str:
    """Classify one executed op.

    ``record`` carries ``error`` (an exception text, or None) and, for
    HTTP ops, ``status``; ``rows_match`` is the reference comparison (None
    for ops that return no rows, such as writes).
    """
    if record.get("error"):
        return "error"
    status = record.get("status")
    if status is not None and status != 200:
        return "status"
    if rows_match is False:
        return "mismatch"
    return "ok"


def tally(outcomes: list[str]) -> dict:
    """Counts per outcome class plus ``attempted``/``failed``/``failed_frac``."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    for outcome in outcomes:
        counts[outcome] += 1
    attempted = len(outcomes)
    failed = attempted - counts["ok"]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "by_outcome": counts,
    }


# -- machine-speed calibration ------------------------------------------------

#: Median probe times (ms) on the machine the baseline was taken on
#: (2-core x86-64 container, Python 3.11, numpy 2.4).  A time measured
#: with probe time ``t`` beside it is reported as ``time * reference / t``,
#: i.e. as milliseconds on that machine at its usual speed.
CALIBRATION_REFERENCE_MS = {"python": 3.0, "numpy": 3.0}

_CAL_ROWS = [(i, i % 97, i * 7 % 1013) for i in range(4000)]
_cal_array = None


def calibrate(kind: str = "python") -> float:
    """Milliseconds one fixed probe takes right now.

    ``python`` is a hash-bucket build and bounded probe loop, the shape
    of the row kernel's inner loop; ``numpy`` factorizes a fixed integer
    array, the shape of the array kernel's key factorization.  Neither
    touches the engine, so their times move only with the machine: clock
    speed and the neighbours' load on shared cores and caches.
    """
    global _cal_array
    if kind == "numpy":
        import numpy

        if _cal_array is None:
            _cal_array = numpy.random.default_rng(0).integers(0, 1000, 60_000)
        started = time.perf_counter()
        numpy.unique(_cal_array)
        return (time.perf_counter() - started) * 1000.0
    started = time.perf_counter()
    index: dict = {}
    for row in _CAL_ROWS:
        index.setdefault(row[1], []).append(row)
    total = 0
    for row in _CAL_ROWS:
        for other in index[row[1]][:8]:
            if other[2] > row[2]:
                total += 1
    return (time.perf_counter() - started) * 1000.0


def normalized(value: float, probe_ms: float, kind: str = "python") -> float:
    """``value`` rescaled to the reference machine speed."""
    return value * CALIBRATION_REFERENCE_MS[kind] / probe_ms
