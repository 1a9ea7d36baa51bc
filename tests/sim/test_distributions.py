"""Tests for churn-model distributions."""

import math

import numpy as np
import pytest

from repro.sim.distributions import (
    Exponential,
    Pareto,
    pareto_scale_for_median,
)


class TestPareto:
    def test_median_parameterisation(self):
        p = Pareto.with_median(60.0, shape=2.0)
        assert p.median == pytest.approx(60.0)
        # Empirical median of a large sample should agree.
        rng = np.random.default_rng(0)
        samples = p.sample(rng, size=200_000)
        assert float(np.median(samples)) == pytest.approx(60.0, rel=0.02)

    def test_mean_analytic_vs_empirical(self):
        p = Pareto.with_median(60.0, shape=3.0)
        rng = np.random.default_rng(1)
        samples = p.sample(rng, size=500_000)
        assert float(samples.mean()) == pytest.approx(p.mean, rel=0.02)

    def test_mean_infinite_for_heavy_tail(self):
        assert Pareto(alpha=1.0, xm=10.0).mean == math.inf
        assert Pareto(alpha=0.5, xm=10.0).mean == math.inf

    def test_support_lower_bound(self):
        p = Pareto.with_median(60.0)
        rng = np.random.default_rng(2)
        samples = p.sample(rng, size=10_000)
        assert samples.min() >= p.xm

    def test_cdf_quantile_roundtrip(self):
        p = Pareto.with_median(60.0, shape=2.5)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99):
            x = p.xm / (1.0 - q) ** (1.0 / p.alpha)
            assert p.cdf(x) == pytest.approx(q, abs=1e-12)

    def test_cdf_below_support_is_zero(self):
        p = Pareto(alpha=2.0, xm=5.0)
        assert p.cdf(4.999) == 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            Pareto(alpha=-1.0, xm=1.0)
        with pytest.raises(ValueError):
            Pareto(alpha=1.0, xm=0.0)
        with pytest.raises(ValueError):
            pareto_scale_for_median(-1.0, 2.0)
        with pytest.raises(ValueError):
            pareto_scale_for_median(60.0, 0.0)

    def test_scalar_sample_is_float(self):
        rng = np.random.default_rng(3)
        assert isinstance(Pareto(2.0, 1.0).sample(rng), float)


class TestExponential:
    def test_mean(self):
        rng = np.random.default_rng(4)
        e = Exponential(mean=30.0)
        samples = e.sample(rng, size=200_000)
        assert float(samples.mean()) == pytest.approx(30.0, rel=0.02)

    def test_rate_is_inverse_mean(self):
        assert Exponential(mean=4.0).rate == pytest.approx(0.25)

    def test_cdf(self):
        e = Exponential(mean=1.0)
        assert e.cdf(-1.0) == 0.0
        assert e.cdf(1.0) == pytest.approx(1 - math.exp(-1))

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            Exponential(mean=0.0)
