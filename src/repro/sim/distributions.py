"""Distribution helpers for the churn model.

The paper models peer session times with a **Pareto distribution whose
median is 60 minutes** (following Saroiu et al.'s measurement study).
These helpers expose the session and off-time distributions with the
parameterisations the experiments need, plus exact analytic moments used
by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pareto",
    "Exponential",
    "pareto_scale_for_median",
]


def pareto_scale_for_median(median: float, shape: float) -> float:
    """Scale :math:`x_m` of a Pareto(shape, scale) with the given median.

    For a Pareto with CDF :math:`1-(x_m/x)^{\\alpha}` the median is
    :math:`x_m 2^{1/\\alpha}`, hence :math:`x_m = m / 2^{1/\\alpha}`.
    """
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    if shape <= 0:
        raise ValueError(f"shape must be positive, got {shape}")
    return median / 2.0 ** (1.0 / shape)


@dataclass(frozen=True)
class Pareto:
    """Pareto(type I) distribution with shape ``alpha`` and scale ``xm``.

    Support is ``[xm, inf)``.  Use :meth:`with_median` for the paper's
    parameterisation (median session time = 60 minutes, shape 2.0 by
    default — heavy-tailed but with finite mean, matching measured P2P
    session-time skew).
    """

    alpha: float
    xm: float

    def __post_init__(self):
        if self.alpha <= 0 or self.xm <= 0:
            raise ValueError(f"invalid Pareto({self.alpha}, {self.xm})")

    @classmethod
    def with_median(cls, median: float, shape: float = 2.0) -> "Pareto":
        return cls(alpha=shape, xm=pareto_scale_for_median(median, shape))

    @property
    def median(self) -> float:
        return self.xm * 2.0 ** (1.0 / self.alpha)

    @property
    def mean(self) -> float:
        """Analytic mean (``inf`` if shape <= 1)."""
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1)

    def sample(self, rng: np.random.Generator, size: "int | None" = None):
        """Draw sample(s); scalar float when ``size`` is None."""
        # numpy's pareto is the Lomax (shifted) variant: xm*(1+X) is Pareto-I.
        draw = self.xm * (1.0 + rng.pareto(self.alpha, size=size))
        return float(draw) if size is None else draw

    def cdf(self, x: float) -> float:
        if x < self.xm:
            return 0.0
        return 1.0 - (self.xm / x) ** self.alpha

@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given mean (used for off-times)."""

    mean: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError(f"mean must be positive, got {self.mean}")

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def sample(self, rng: np.random.Generator, size: "int | None" = None):
        draw = rng.exponential(self.mean, size=size)
        return float(draw) if size is None else draw

    def cdf(self, x: float) -> float:
        return 0.0 if x < 0 else 1.0 - math.exp(-x / self.mean)
