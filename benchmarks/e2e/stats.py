"""Order statistics and machine identity shared by the runner and the
comparer.  Standard library only, so ``compare.py`` runs without the
simulator on the path."""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Dict, List, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that, one slow sample moves it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> List[float]:
    """First, second and third quartile, as ``statistics.quantiles(n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def iqr(values: Sequence[float]) -> float:
    q1, _q2, q3 = quartiles(values)
    return q3 - q1


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail_percentile_ok(n: int, pct: float) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n`` samples lie beyond
    their nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n)) >= MIN_BEYOND


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def machine_info() -> Dict[str, object]:
    """The identity two result sets must share to be compared."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
