"""Tests for the scenario-level attack summaries."""

import pytest

from repro.experiments.config import SMALL_CONFIG
from repro.experiments.scenario import run_scenario


class TestScenarioMetrics:
    @pytest.fixture(scope="class")
    def utility_result(self):
        return run_scenario(
            SMALL_CONFIG.with_overrides(seed=31, strategy="utility-I")
        )

    @pytest.fixture(scope="class")
    def random_result(self):
        return run_scenario(
            SMALL_CONFIG.with_overrides(seed=31, strategy="random")
        )

    def test_utility_routing_concentrates_income(
        self, utility_result, random_result
    ):
        """The figure-6/7 skew: utility routing pays fewer good nodes."""

        def earners(result):
            return sum(1 for n in result.good_node_ids if result.earnings.get(n, 0.0) > 0)

        assert earners(utility_result) < earners(random_result)

    def test_predecessor_summary_fields(self, utility_result):
        s = utility_result.predecessor_attack_summary()
        assert set(s) == {
            "series_evaluated",
            "identification_rate",
            "mean_confidence",
        }
        assert 0.0 <= s["identification_rate"] <= 1.0
        assert 0.0 <= s["mean_confidence"] <= 1.0

    def test_predecessor_summary_empty_without_adversaries(self):
        r = run_scenario(
            SMALL_CONFIG.with_overrides(seed=32, malicious_fraction=0.0)
        )
        s = r.predecessor_attack_summary()
        assert s["series_evaluated"] == 0.0
        assert s["identification_rate"] == 0.0
