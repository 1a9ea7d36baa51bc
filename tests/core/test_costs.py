"""Tests for the cost model (§2.4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.network.bandwidth import BandwidthModel


def test_flat_cost_scales_with_payload():
    m = CostModel(bandwidth=None, flat_unit_cost=2.0)
    assert m.transmission_cost(0, 1, 3.0) == pytest.approx(6.0)


def test_flat_cost_validation():
    with pytest.raises(ValueError):
        CostModel(flat_unit_cost=-1.0)
    m = CostModel()
    with pytest.raises(ValueError):
        m.transmission_cost(0, 1, -1.0)


def test_bandwidth_backed_cost_matches_model():
    bw = BandwidthModel(rng=np.random.default_rng(0))
    m = CostModel(bandwidth=bw)
    assert m.transmission_cost(0, 1, 2.0) == pytest.approx(
        bw.transmission_cost(0, 1, 2.0)
    )


def test_decision_cost_adds_participation():
    m = CostModel(bandwidth=None, flat_unit_cost=1.0)
    # C_p + C_t = 5 + 1*2
    assert m.decision_cost(5.0, 0, 1, 2.0) == pytest.approx(7.0)


def test_decision_cost_negative_participation_rejected():
    m = CostModel()
    with pytest.raises(ValueError):
        m.decision_cost(-1.0, 0, 1, 1.0)


def test_slow_links_cost_more():
    bw = BandwidthModel(
        rng=np.random.default_rng(1), min_bandwidth=1.0, max_bandwidth=10.0
    )
    m = CostModel(bandwidth=bw)
    # Order two links by bandwidth; cost order must be inverted.
    links = [(0, 1), (2, 3), (4, 5), (6, 7)]
    bws = {l: bw.bandwidth(*l) for l in links}
    fast = max(links, key=lambda l: bws[l])
    slow = min(links, key=lambda l: bws[l])
    assert m.transmission_cost(*slow, 1.0) > m.transmission_cost(*fast, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    with_capacity=st.booleans(),
    queries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.sampled_from((0.0, 0.3, 1.0, 2.5, 7.0)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_cached_link_cost_matches_the_bandwidth_draws(seed, with_capacity, queries):
    """A cost model and a bare bandwidth model with the same seed, queried
    in the same order, draw the same links, and every cost is bit-equal
    to ``payload * (unit_cost * reference_bandwidth / bandwidth(a, b))``."""
    capacity = {i: 0.25 + 0.3 * i for i in range(0, 8, 2)} if with_capacity else None

    def link_model():
        return BandwidthModel(
            rng=np.random.default_rng(seed),
            reference_bandwidth=7.3,
            unit_cost=1.7,
            node_capacity=capacity,
        )

    model = CostModel(bandwidth=link_model())
    reference = link_model()
    for a, b, payload in queries:
        if a == b:
            with pytest.raises(ValueError):
                model.decision_cost(0.5, a, b, payload)
            continue
        expected = payload * (
            reference.unit_cost
            * reference.reference_bandwidth
            / reference.bandwidth(a, b)
        )
        assert model.transmission_cost(a, b, payload) == expected
        assert model.decision_cost(0.5, b, a, payload) == 0.5 + expected
    assert model.bandwidth._links == reference._links


def test_cost_errors_come_before_any_draw():
    bw = BandwidthModel(rng=np.random.default_rng(3))
    m = CostModel(bandwidth=bw)
    with pytest.raises(ValueError):
        m.transmission_cost(0, 1, -1.0)
    with pytest.raises(ValueError):
        m.decision_cost(-1.0, 0, 1, 1.0)
    assert bw._links == {}
