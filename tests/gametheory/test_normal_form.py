"""Tests for normal-form games on classic examples."""

import numpy as np
import pytest

from repro.gametheory.normal_form import NormalFormGame


def two_player_game(row_strategies, col_strategies, row_payoffs, col_payoffs):
    """A bimatrix game from the row and column players' payoff matrices."""
    return NormalFormGame(
        strategies=[list(row_strategies), list(col_strategies)],
        payoffs=np.stack([row_payoffs, col_payoffs], axis=-1),
    )


@pytest.fixture
def prisoners_dilemma():
    # (cooperate, defect); defect strictly dominant.
    return two_player_game(
        ["C", "D"],
        ["C", "D"],
        row_payoffs=[[-1, -3], [0, -2]],
        col_payoffs=[[-1, 0], [-3, -2]],
    )


@pytest.fixture
def coordination():
    # Two pure equilibria (A,A) and (B,B).
    return two_player_game(
        ["A", "B"],
        ["A", "B"],
        row_payoffs=[[2, 0], [0, 1]],
        col_payoffs=[[2, 0], [0, 1]],
    )


@pytest.fixture
def matching_pennies():
    return two_player_game(
        ["H", "T"],
        ["H", "T"],
        row_payoffs=[[1, -1], [-1, 1]],
        col_payoffs=[[-1, 1], [1, -1]],
    )


class TestConstruction:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            NormalFormGame(strategies=[["a", "b"]], payoffs=np.zeros((3, 1)))


class TestBestResponse:
    def test_pd_best_response_always_defect(self, prisoners_dilemma):
        g = prisoners_dilemma
        assert g.best_responses(0, (0,)) == [1]
        assert g.best_responses(0, (1,)) == [1]

    def test_ties_return_all(self):
        g = two_player_game(
            ["x", "y"], ["z"], row_payoffs=[[5], [5]], col_payoffs=[[0], [0]]
        )
        assert g.best_responses(0, (0,)) == [0, 1]


class TestDominance:
    def test_pd_defect_strictly_dominant(self, prisoners_dilemma):
        assert prisoners_dilemma.is_dominant(0, 1, strict=True)
        assert not prisoners_dilemma.is_dominant(0, 0)
        assert prisoners_dilemma.dominant_strategies(1, strict=True) == [1]

    def test_coordination_has_no_dominant(self, coordination):
        assert coordination.dominant_strategies(0) == []


class TestNash:
    def test_pd_unique_equilibrium(self, prisoners_dilemma):
        assert prisoners_dilemma.pure_nash_equilibria() == [(1, 1)]

    def test_coordination_two_equilibria(self, coordination):
        assert coordination.pure_nash_equilibria() == [(0, 0), (1, 1)]

    def test_matching_pennies_no_pure_equilibrium(self, matching_pennies):
        assert matching_pennies.pure_nash_equilibria() == []


class TestThreePlayer:
    def test_symmetric_three_player_nash(self):
        # Everyone prefers strategy 1 regardless: payoff = own index.
        shape = (2, 2, 2, 3)
        payoffs = np.zeros(shape)
        for profile in np.ndindex(2, 2, 2):
            for p in range(3):
                payoffs[profile + (p,)] = profile[p]
        g = NormalFormGame(strategies=[["a", "b"]] * 3, payoffs=payoffs)
        assert g.pure_nash_equilibria() == [(1, 1, 1)]
        for p in range(3):
            assert g.dominant_strategies(p, strict=True) == [1]


def test_label_profile(prisoners_dilemma):
    assert prisoners_dilemma.label_profile((1, 0)) == ("D", "C")
