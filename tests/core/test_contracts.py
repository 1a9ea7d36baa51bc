"""Tests for benefit contracts."""

import numpy as np
import pytest

from repro.core.contracts import PF_RANGE, TAU_VALUES, Contract, draw_contract


class TestContract:
    def test_tau_ratio(self):
        c = Contract(forwarding_benefit=50.0, routing_benefit=100.0)
        assert c.tau == pytest.approx(2.0)

    def test_from_tau(self):
        c = Contract.from_tau(80.0, 0.5)
        assert c.routing_benefit == pytest.approx(40.0)
        assert c.tau == pytest.approx(0.5)

    def test_tau_with_zero_pf(self):
        assert Contract(0.0, 10.0).tau == float("inf")
        assert Contract(0.0, 0.0).tau == 0.0

    def test_negative_benefits_rejected(self):
        with pytest.raises(ValueError):
            Contract(-1.0, 0.0)
        with pytest.raises(ValueError):
            Contract(1.0, -1.0)
        with pytest.raises(ValueError):
            Contract.from_tau(10.0, -0.5)

    def test_payload_must_be_positive(self):
        with pytest.raises(ValueError):
            Contract(1.0, 1.0, payload_size=0.0)


class TestForwarderPayment:
    def test_formula(self):
        c = Contract(forwarding_benefit=10.0, routing_benefit=60.0)
        # m*P_f + P_r/||pi|| = 3*10 + 60/6
        assert c.forwarder_payment(instances=3, forwarder_set_size=6) == pytest.approx(40.0)

    def test_zero_instances_still_gets_routing_share(self):
        c = Contract(10.0, 60.0)
        assert c.forwarder_payment(0, 6) == pytest.approx(10.0)

    def test_validation(self):
        c = Contract(10.0, 60.0)
        with pytest.raises(ValueError):
            c.forwarder_payment(-1, 5)
        with pytest.raises(ValueError):
            c.forwarder_payment(1, 0)

    def test_payments_sum_to_total_cost(self):
        """Conservation: summing members' payments = initiator's outlay."""
        c = Contract(10.0, 60.0)
        instances = {1: 4, 2: 3, 3: 0, 4: 5}
        total = sum(
            c.forwarder_payment(m, len(instances)) for m in instances.values()
        )
        assert total == pytest.approx(
            sum(instances.values()) * c.forwarding_benefit + c.routing_benefit
        )


class TestDrawContract:
    def test_pf_in_paper_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = draw_contract(rng, tau=2.0)
            assert PF_RANGE[0] <= c.forwarding_benefit <= PF_RANGE[1]
            assert c.tau == pytest.approx(2.0)

    def test_paper_tau_values_all_valid(self):
        rng = np.random.default_rng(1)
        for tau in TAU_VALUES:
            assert draw_contract(rng, tau=tau).tau == pytest.approx(tau)

    def test_invalid_range_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            draw_contract(rng, tau=1.0, pf_range=(10.0, 5.0))

    def test_immutable(self):
        c = Contract(1.0, 2.0)
        with pytest.raises(AttributeError):
            c.forwarding_benefit = 5.0  # type: ignore[misc]
