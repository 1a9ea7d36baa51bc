"""SweepSpec expansion and content-addressed job identity."""

import json

import pytest

from repro.experiments.config import ExperimentConfig, FaultConfig
from repro.fleet.spec import (
    FleetJob,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    job_id_for,
    load_spec,
)

TINY_BASE = {
    "n_nodes": 16,
    "n_pairs": 4,
    "total_transmissions": 24,
    "use_bank": False,
}


class TestJobIdentity:
    def test_id_is_stable_for_equal_configs(self):
        a = ExperimentConfig(seed=3, tau=2.5)
        b = ExperimentConfig(seed=3, tau=2.5)
        assert job_id_for(a) == job_id_for(b)

    def test_id_changes_with_any_field(self):
        base = ExperimentConfig(seed=3)
        assert job_id_for(base) != job_id_for(ExperimentConfig(seed=4))
        assert job_id_for(base) != job_id_for(ExperimentConfig(seed=3, tau=3.0))

    def test_id_covers_nested_configs(self):
        plain = ExperimentConfig(seed=0)
        faulty = ExperimentConfig(seed=0, faults=FaultConfig.from_severity(0.2))
        assert job_id_for(plain) != job_id_for(faulty)



class TestConfigRoundTrip:
    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_nested_and_tuples(self):
        cfg = ExperimentConfig(
            seed=7,
            faults=FaultConfig.from_severity(0.3),
            pf_range=(0.25, 0.75),
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg
        assert isinstance(back.pf_range, tuple)
        assert isinstance(back.faults.bank_outages, tuple)

    def test_unknown_top_level_field_is_named(self):
        with pytest.raises(ValueError, match=r"ExperimentConfig.*'probe_period'"):
            config_from_dict({"seed": 0, "probe_period": 5.0})

    def test_misspelled_nested_field_is_named(self):
        spec = SweepSpec.from_dict({"base": {"churn": {"sesion_median": 5}}})
        with pytest.raises(ValueError, match=r"ChurnConfig.*'sesion_median'"):
            spec.expand()


class TestExpansion:
    def test_grid_size_and_distinct_ids(self):
        spec = SweepSpec(
            name="t",
            base=TINY_BASE,
            axes={"strategy": ["random", "utility-I"], "tau": [1.5, 2.5]},
            seeds=(0, 1),
        )
        jobs = spec.expand()
        assert len(jobs) == spec.n_jobs == 8
        assert len({j.job_id for j in jobs}) == 8

    def test_axes_recorded_on_each_job(self):
        spec = SweepSpec(name="t", base=TINY_BASE, axes={"tau": [2.0]})
        (job,) = spec.expand()
        assert job.axes["tau"] == 2.0
        assert job.axes["family"] == "baseline"
        assert job.axes["seed"] == 0
        assert job.axes["backend"] in ("numpy", "python")
        assert job.spec_name == "t"

    def test_backend_resolved_at_expansion(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        spec = SweepSpec(name="t", base=TINY_BASE)
        (job,) = spec.expand()
        assert job.config.backend == "python"

    def test_severity_builds_fault_plan(self):
        spec = SweepSpec(name="t", base=TINY_BASE, fault_severities=(0.0, 0.25))
        jobs = spec.expand()
        plans = [j.config.faults for j in jobs]
        assert plans[0] is None
        assert plans[1] == FaultConfig.from_severity(0.25)

    def test_duplicate_coordinates_rejected(self):
        spec = SweepSpec(name="t", base=TINY_BASE, seeds=(0, 0))
        with pytest.raises(ValueError, match="duplicate job"):
            spec.expand()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            SweepSpec(name="t", families=("quantum",))

    def test_payload_round_trip(self):
        spec = SweepSpec(name="t", base=TINY_BASE, seeds=(5,))
        (job,) = spec.expand()
        back = FleetJob.from_payload(json.loads(json.dumps(job.payload())))
        assert back.job_id == job.job_id
        assert back.config == job.config
        assert dict(back.axes) == dict(job.axes)


class TestLoadSpec:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"base": TINY_BASE, "axes": {"tau": [1.5, 2.5]}})
        )
        spec = load_spec(path)
        assert spec.name == "sweep"
        assert spec.n_jobs == 2

    def test_toml_spec(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        assert tomllib is not None
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "grid"\n'
            "[base]\n"
            "n_nodes = 16\n"
            "[axes]\n"
            'strategy = ["random", "utility-I"]\n'
        )
        spec = load_spec(path)
        assert spec.name == "grid"
        assert spec.n_jobs == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bass": {}}))
        with pytest.raises(ValueError, match="unknown spec fields"):
            load_spec(path)
