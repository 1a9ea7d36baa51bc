"""Sweep specification and the deterministic, content-addressed job list.

A :class:`SweepSpec` describes a parameter sweep declaratively: a base
config, per-field value grids (``axes``), and the cross-cutting
dimensions every sweep has (seeds, scoring backends, fault severities,
scenario families).  :meth:`SweepSpec.expand` takes the cartesian
product in a fixed order and resolves every point into a full
:class:`~repro.experiments.config.ExperimentConfig`.

Job identity is *content-addressed*: :func:`job_id_for` hashes the
canonical JSON of the fully resolved config (every field, including the
defaults the spec never mentioned).  Two consequences the fleet runner
relies on:

- the id is independent of axis declaration order, axis value order,
  and ``PYTHONHASHSEED`` (canonical JSON sorts keys; nothing iterates a
  set) — pinned by ``tests/properties/test_fleet_determinism.py``;
- re-running a spec after an interrupt, or after an edit that does not
  change any resolved config (a comment, a doc tweak), produces the
  same ids, so completed jobs are skipped instead of re-executed.

Specs load from Python dicts, JSON files, or TOML files (TOML needs the
stdlib ``tomllib``, Python 3.11+; JSON works everywhere).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.config import (
    CapacityConfig,
    ChurnConfig,
    ExperimentConfig,
    FaultConfig,
    PricingConfig,
    SybilConfig,
)
from repro.obs import ObsConfig

#: Stamp hashed into every job id; bump to invalidate all stored jobs
#: after a semantics-changing schema revision.
JOB_SCHEMA = "repro-fleet/job-v2"

#: Scenario families: named config-override bundles for the adversarial
#: & economic suite, usable as a sweep dimension (``families = [...]``).
FAMILY_OVERRIDES: Dict[str, Dict[str, object]] = {
    "baseline": {},
    "sybil": {"sybil": {}},
    "pricing": {"pricing": {}},
    "capacity": {"capacity": {}},
}

#: Nested config dataclasses reachable from ExperimentConfig fields.
_NESTED_CONFIGS = {
    "churn": ChurnConfig,
    "faults": FaultConfig,
    "obs": ObsConfig,
    "pricing": PricingConfig,
    "capacity": CapacityConfig,
    "sybil": SybilConfig,
}

#: Tuple-typed fields flattened to lists by JSON, per dataclass.
_TUPLE_FIELDS = {
    ExperimentConfig: ("pf_range",),
    FaultConfig: ("bank_outages",),
}


def config_to_dict(config: ExperimentConfig) -> Dict[str, object]:
    """The fully resolved config as a canonical JSON-safe dict.

    Every field is present (defaults included), nested configs are
    plain dicts, and tuples become lists — the form both the job hash
    and the store's result records use.
    """
    return json.loads(json.dumps(asdict(config)))


def _check_fields(cls, values: Mapping[str, object]) -> None:
    """Reject keys that are not fields of ``cls``, naming them: specs are
    outside input, and a misspelled or retired knob must not surface as
    a constructor ``TypeError``."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields {unknown}")


def _nested_from_dict(cls, value: Mapping[str, object]):
    _check_fields(cls, value)
    kwargs = dict(value)
    for name in _TUPLE_FIELDS.get(cls, ()):
        if name in kwargs and kwargs[name] is not None:
            kwargs[name] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in kwargs[name]
            )
    return cls(**kwargs)


def config_from_dict(data: Mapping[str, object]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict`
    output (or any partial override dict in the same shape).  Raises
    ``ValueError`` naming any key that is not a config field."""
    _check_fields(ExperimentConfig, data)
    kwargs = dict(data)
    for name, cls in _NESTED_CONFIGS.items():
        value = kwargs.get(name)
        if isinstance(value, Mapping):
            kwargs[name] = _nested_from_dict(cls, value)
    for name in _TUPLE_FIELDS[ExperimentConfig]:
        if name in kwargs and isinstance(kwargs[name], list):
            kwargs[name] = tuple(kwargs[name])
    return ExperimentConfig(**kwargs)


def job_id_for(config: ExperimentConfig) -> str:
    """Content-addressed job id: hash of the resolved config."""
    payload = {"schema": JOB_SCHEMA, "config": config_to_dict(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class FleetJob:
    """One resolved sweep point: the unit the executor schedules."""

    job_id: str
    config: ExperimentConfig
    #: The sweep coordinates that produced this job (axis values plus
    #: family / fault_severity / backend / seed) — stored alongside the
    #: result so queries can group by sweep dimension directly.
    axes: Mapping[str, object]
    spec_name: str = ""

    def payload(self) -> Dict[str, object]:
        """JSON-safe form shipped to pool workers and into the store."""
        return {
            "job_id": self.job_id,
            "spec": self.spec_name,
            "axes": dict(self.axes),
            "config": config_to_dict(self.config),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FleetJob":
        return cls(
            job_id=str(payload["job_id"]),
            config=config_from_dict(payload["config"]),
            axes=dict(payload.get("axes", {})),
            spec_name=str(payload.get("spec", "")),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: base config × axes × cross-cutting dimensions."""

    name: str = "sweep"
    #: ExperimentConfig field overrides applied to every job.
    base: Mapping[str, object] = field(default_factory=dict)
    #: Per-field value grids; expanded in sorted-field order so the job
    #: *list* order is a function of content, not declaration order.
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    #: Scoring backends; None entries resolve the process default.
    backends: Sequence[Optional[str]] = (None,)
    #: ``FaultConfig.from_severity`` knobs; 0.0 = no fault plan.
    fault_severities: Sequence[float] = (0.0,)
    #: Scenario families (:data:`FAMILY_OVERRIDES` keys).
    families: Sequence[str] = ("baseline",)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        unknown = [f for f in self.families if f not in FAMILY_OVERRIDES]
        if unknown:
            raise ValueError(
                f"unknown families {unknown}; expected one of "
                f"{sorted(FAMILY_OVERRIDES)}"
            )

    @property
    def n_jobs(self) -> int:
        n = len(self.seeds) * len(self.backends)
        n *= len(self.fault_severities) * len(self.families)
        for values in self.axes.values():
            n *= len(values)
        return n

    def expand(self) -> List[FleetJob]:
        """The deterministic job list (sorted axis names, given value
        order, then family × severity × backend × seed innermost)."""
        from repro.core.kernels import default_backend

        axis_names = sorted(self.axes)
        axis_grids = [list(self.axes[name]) for name in axis_names]
        jobs: List[FleetJob] = []
        seen: Dict[str, Dict[str, object]] = {}
        for combo in product(
            product(*axis_grids) if axis_grids else [()],
            self.families,
            self.fault_severities,
            self.backends,
            self.seeds,
        ):
            axis_values, family, severity, backend, seed = combo
            resolved_backend = (
                default_backend() if backend is None else str(backend)
            )
            overrides: Dict[str, object] = dict(self.base)
            overrides.update(zip(axis_names, axis_values))
            for key, value in FAMILY_OVERRIDES[family].items():
                overrides.setdefault(key, value)
            if severity:
                overrides["faults"] = asdict(
                    FaultConfig.from_severity(float(severity))
                )
            overrides["backend"] = resolved_backend
            overrides["seed"] = int(seed)
            config = config_from_dict(overrides)
            axes = dict(zip(axis_names, axis_values))
            axes.update(
                family=family,
                fault_severity=float(severity),
                backend=resolved_backend,
                seed=int(seed),
            )
            job_id = job_id_for(config)
            if job_id in seen:
                raise ValueError(
                    f"spec {self.name!r} produces duplicate job {job_id} "
                    f"(coordinates {axes} and {seen[job_id]} resolve to "
                    "the same config)"
                )
            seen[job_id] = axes
            jobs.append(
                FleetJob(
                    job_id=job_id,
                    config=config,
                    axes=axes,
                    spec_name=self.name,
                )
            )
        return jobs

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        known = {
            "name", "base", "axes", "seeds", "backends",
            "fault_severities", "families",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown spec fields {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        fields = dict(data)
        for key in ("seeds", "backends", "fault_severities", "families"):
            if key in fields:
                fields[key] = tuple(fields[key])
        if "axes" in fields:
            fields["axes"] = {
                name: tuple(values) for name, values in fields["axes"].items()
            }
        return cls(**fields)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "seeds": list(self.seeds),
            "backends": list(self.backends),
            "fault_severities": list(self.fault_severities),
            "families": list(self.families),
        }


def load_spec(path) -> SweepSpec:
    """Load a spec from a ``.json`` or ``.toml`` file."""
    p = Path(path)
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 fallback advice
            raise RuntimeError(
                "TOML specs need Python 3.11+ (stdlib tomllib); "
                "use the JSON form of the spec on this interpreter"
            ) from None
        data = tomllib.loads(p.read_text())
    else:
        data = json.loads(p.read_text())
    spec = SweepSpec.from_dict(data)
    if spec.name == "sweep" and "name" not in data:
        spec = SweepSpec.from_dict({**data, "name": p.stem})
    return spec
