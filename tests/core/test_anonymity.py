"""Tests for the Crowds anonymity analysis, including a simulation
cross-check of the Reiter-Rubin predecessor probability."""

import math

import numpy as np
import pytest

from repro.core.anonymity import (
    expected_forwarders,
    min_crowd_size,
    predecessor_attack_rounds,
    prob_collaborator_on_path,
    prob_predecessor_is_initiator,
    probable_innocence_holds,
)


class TestPredecessorProbability:
    def test_no_collaborators_besides_observer(self):
        # c approaching n makes the predecessor almost surely the initiator.
        assert prob_predecessor_is_initiator(10, 9, 0.75) == pytest.approx(1.0)

    def test_formula_value(self):
        # n=20, c=2, pf=0.75: 1 - 0.75*17/20 = 0.3625
        assert prob_predecessor_is_initiator(20, 2, 0.75) == pytest.approx(0.3625)

    def test_decreases_with_crowd_size(self):
        values = [prob_predecessor_is_initiator(n, 2, 0.75) for n in (10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            prob_predecessor_is_initiator(0, 0, 0.5)
        with pytest.raises(ValueError):
            prob_predecessor_is_initiator(10, 10, 0.5)
        with pytest.raises(ValueError):
            prob_predecessor_is_initiator(10, 2, 1.0)


class TestProbableInnocence:
    def test_holds_for_large_crowd(self):
        assert probable_innocence_holds(100, 2, 0.75)

    def test_fails_for_tiny_crowd(self):
        assert not probable_innocence_holds(5, 2, 0.75)

    def test_min_crowd_size_is_tight(self):
        for c in (1, 2, 5):
            for pf in (0.6, 0.75, 0.9):
                n = min_crowd_size(c, pf)
                assert probable_innocence_holds(n, c, pf)
                if n > c + 2:
                    assert not probable_innocence_holds(n - 1, c, pf)

    def test_requires_pf_above_half(self):
        with pytest.raises(ValueError):
            min_crowd_size(2, 0.5)


class TestPathProbabilities:
    def test_expected_forwarders_geometric(self):
        assert expected_forwarders(0.75) == pytest.approx(4.0)
        assert expected_forwarders(0.0) == 1.0

    def test_collaborator_on_path_bounds(self):
        for c in (0, 1, 5):
            p = prob_collaborator_on_path(20, c, 0.75)
            assert 0.0 <= p <= 1.0
        assert prob_collaborator_on_path(20, 0, 0.75) == 0.0

    def test_collaborator_probability_increases_with_c(self):
        values = [prob_collaborator_on_path(20, c, 0.75) for c in (1, 2, 5, 10)]
        assert values == sorted(values)

    def test_collaborator_on_path_monte_carlo(self):
        """Cross-check the closed form against direct simulation."""
        n, c, pf = 20, 4, 0.7
        rng = np.random.default_rng(0)
        hits = 0
        trials = 20000
        for _ in range(trials):
            while True:
                if rng.random() < c / n:  # this hop is a collaborator
                    hits += 1
                    break
                if rng.random() >= pf:  # delivered without a collaborator
                    break
        assert hits / trials == pytest.approx(
            prob_collaborator_on_path(n, c, pf), abs=0.01
        )


class TestPredecessorAttackRounds:
    def test_infinite_without_collaborators(self):
        assert predecessor_attack_rounds(20, 0, 0.75) == math.inf

    def test_fewer_rounds_with_more_collaborators(self):
        r2 = predecessor_attack_rounds(40, 2, 0.75)
        r8 = predecessor_attack_rounds(40, 8, 0.75)
        assert r8 < r2

    def test_confidence_monotone(self):
        lo = predecessor_attack_rounds(40, 4, 0.75, confidence=0.5)
        hi = predecessor_attack_rounds(40, 4, 0.75, confidence=0.99)
        assert hi > lo

    def test_validation(self):
        with pytest.raises(ValueError):
            predecessor_attack_rounds(40, 4, 0.75, confidence=1.0)


class TestEmpirical:
    def test_simulation_matches_reiter_rubin(self):
        """Full Monte-Carlo of the Crowds process: the first
        collaborator's predecessor equals the initiator with the analytic
        probability."""
        n, c, pf = 20, 4, 0.7
        initiator = 0  # NOT a collaborator
        collaborators = set(range(1, c + 1))
        rng = np.random.default_rng(1)
        observations = []
        for _ in range(30000):
            prev = initiator
            # Initiator picks uniformly among all n crowd members
            # (Reiter-Rubin jondo model: self-selection allowed).
            while True:
                nxt = int(rng.integers(0, n))
                if nxt in collaborators:
                    observations.append(prev)
                    break
                prev = nxt
                if rng.random() >= pf:
                    break
        expected = prob_predecessor_is_initiator(n, c, pf)
        measured = observations.count(initiator) / len(observations)
        assert measured == pytest.approx(expected, abs=0.015)
