"""Summary statistics for benchmark timings.

A tail percentile is reported only when at least ten samples lie beyond it,
so a p95 needs 200 samples; with fewer the caller gets an error instead of a
number that is no tail at all.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the ten-beyond rule needs."""


def min_samples(q: float) -> int:
    """Smallest sample count with at least ten samples beyond percentile q."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(values, q: float) -> float:
    """Percentile q of the values (numpy's default linear interpolation).

    Raises TooFewSamples unless at least ten samples lie beyond q; the median
    (q = 50) needs twenty samples under the same rule, so callers that want a
    median of a few runs use ``statistics.median`` directly.
    """
    need = min_samples(q)
    if len(values) < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples (ten beyond it), got {len(values)}"
        )
    return float(np.percentile(values, q))


def spread(values) -> dict:
    """Median, quartiles and the interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / abs(med)}
