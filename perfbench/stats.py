"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> dict:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    With ``n`` sorted samples that is the value at index ``n - 11``
    (percentile ``100 * (n - 10) / n``).  Fewer than 11 samples leave no
    such percentile; the maximum is reported then, flagged by ``p`` = 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "p": 0.0, "n": 0}
    if n <= TAIL_BEYOND:
        return {"value": float(ordered[-1]), "p": 100.0, "n": n}
    return {
        "value": float(ordered[n - TAIL_BEYOND - 1]),
        "p": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "n": n,
    }


def summary(values) -> dict:
    """Median, tail (with its percentile) and sample count."""
    values = list(values)
    t = tail(values)
    return {"p50": median(values), "tail": t["value"], "tail_p": t["p"],
            "n": len(values)}
