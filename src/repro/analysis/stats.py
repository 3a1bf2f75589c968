"""Box-plot statistics for attempt distributions (the paper's Figure 9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BoxStats:
    """Summary statistics of one experiment configuration.

    Mirrors what the paper's box plots display: median, quartiles,
    whiskers (min/max) and variance.
    """

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    variance: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q3 - self.q1


def box_stats(values: list) -> BoxStats:
    """Compute :class:`BoxStats` over a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot summarise an empty sample")
    arr = np.asarray(values, dtype=float)
    return BoxStats(
        count=int(arr.size),
        minimum=float(arr.min()),
        q1=float(np.percentile(arr, 25)),
        median=float(np.median(arr)),
        q3=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)) if arr.size > 1 else 0.0,
    )


def spearman_rho(xs: list, ys: list) -> float:
    """Spearman rank correlation of two equal-length samples (tied values
    share their average rank)."""
    return float(np.corrcoef(_ranks(xs), _ranks(ys))[0, 1])


def _ranks(values: list) -> np.ndarray:
    """1-based ranks, ties averaged."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
