"""Tests for experiment configuration."""

import pytest

from repro.core.edge_quality import QualityWeights
from repro.experiments.config import SMALL_CONFIG, ChurnConfig, ExperimentConfig


def test_paper_defaults():
    cfg = ExperimentConfig()
    assert cfg.n_nodes == 40
    assert cfg.degree == 5
    assert cfg.n_pairs == 100
    assert cfg.total_transmissions == 2000
    assert cfg.rounds_per_pair == 20
    assert cfg.pf_range == (50.0, 100.0)
    assert cfg.weight_selectivity == 0.5


def test_rounds_per_pair_floor():
    cfg = ExperimentConfig(n_pairs=7, total_transmissions=20)
    assert cfg.rounds_per_pair == 2


def test_weights_object():
    cfg = ExperimentConfig(weight_selectivity=0.3, weight_availability=0.7)
    assert cfg.weights == QualityWeights(selectivity=0.3, availability=0.7)


def test_with_overrides_is_copy():
    base = ExperimentConfig()
    derived = base.with_overrides(malicious_fraction=0.5)
    assert derived.malicious_fraction == 0.5
    assert base.malicious_fraction == 0.1
    assert derived.n_nodes == base.n_nodes


def test_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(n_nodes=2)
    with pytest.raises(ValueError):
        ExperimentConfig(malicious_fraction=1.1)
    with pytest.raises(ValueError):
        ExperimentConfig(strategy="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(weight_selectivity=0.3, weight_availability=0.3)
    with pytest.raises(ValueError):
        ExperimentConfig(forward_probability=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(termination="never")
    with pytest.raises(ValueError):
        ExperimentConfig(n_pairs=10, total_transmissions=5)
    with pytest.raises(ValueError):
        ExperimentConfig(inter_round_gap=0.0)
    with pytest.raises(ValueError, match="max_attempts"):
        ExperimentConfig(max_attempts=0)


def test_churn_config_validation():
    with pytest.raises(ValueError):
        ChurnConfig(session_median=0.0)
    with pytest.raises(ValueError):
        ChurnConfig(offtime_mean=-1.0)


def test_small_config_is_valid_and_small():
    assert SMALL_CONFIG.n_nodes < ExperimentConfig().n_nodes
    assert SMALL_CONFIG.total_transmissions < ExperimentConfig().total_transmissions


def test_frozen():
    with pytest.raises(Exception):
        ExperimentConfig().seed = 9  # type: ignore[misc]
