"""Experiment configuration with the paper's §3 defaults.

Paper setup: N = 40 nodes, d = 5 neighbours, 100 (I, R) pairs, 2000 total
message transmissions (≈ 20 rounds per pair), ``P_f`` drawn uniformly from
[50, 100], ``tau ∈ {0.5, 1, 2, 4}``, ``w_s = w_a = 0.5``, Pareto session
times with a 60-minute median, transmission cost proportional to link
bandwidth, and a fraction ``f`` of adversarial (randomly routing) nodes.

The config holds what a workload varies.  The model constants no
workload varies live in the one module that uses them:

- 5-minute probing period: ``repro.network.probing.PROBE_PERIOD``;
- Pareto session shape 2: the default of ``Pareto.with_median``;
- the link cost law (bandwidth ``U[1, 10]``, unit cost on the
  reference link): ``MIN_BANDWIDTH``, ``MAX_BANDWIDTH``,
  ``REFERENCE_BANDWIDTH``, ``UNIT_COST`` and the Prop 3 expected cost
  ``expected_transmission_cost`` in ``repro.network.bandwidth``;
- payload size 1: ``repro.core.contracts.PAYLOAD_SIZE``;
- 30-forwarder path cap and the 3-forwarder ``termination="ttl"``
  length: ``MAX_PATH_LENGTH`` and ``HOP_TTL`` in ``repro.core.protocol``;
- 5-minute recurring-round gap, the initiator's 12-period wait, the
  initiators' endowment and the incentive-coupling cap:
  ``INTER_ROUND_GAP``, ``INITIATOR_WAIT_ROUNDS``, ``ENDOWMENT`` and
  ``INCENTIVE_COUPLING_CAP`` in ``repro.experiments.scenario``;
- temporal-mode hop delays: ``TEMPORAL_PROPAGATION_DELAY`` and
  ``TEMPORAL_PROCESSING_DELAY`` in ``repro.network.transport``;
- RSA key size: ``repro.payment.bank.DEFAULT_KEY_BITS``;
- retry backoff schedule: the ``repro.sim.faults.RetryPolicy`` defaults;
- dynamic-pricing band ``[1, 500]``: ``PRICE_FLOOR`` and
  ``PRICE_CEILING`` in ``repro.gametheory.stackelberg``; the
  tatonnement's step, window and start price: ``MarketPriceProcess``'s
  defaults;
- capacity couplings: ``AVAILABILITY_COUPLING`` and ``COST_COUPLING`` in
  ``repro.network.capacity``; the Pareto shape and the class mix: the
  defaults of ``draw_capacities``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.adversary.sybil import SYBIL_STRATEGIES
from repro.core.contracts import PF_RANGE
from repro.core.edge_quality import QualityWeights
from repro.network.capacity import CAPACITY_DISTRIBUTIONS
from repro.obs import ObsConfig
from repro.sim.faults import FaultPlan, RetryPolicy


@dataclass(frozen=True)
class FaultConfig:
    """Chaos knobs: what to inject and how hard to recover.

    The injection side compiles to a :class:`repro.sim.faults.FaultPlan`
    (see :meth:`plan`), the recovery side to a
    :class:`repro.sim.faults.RetryPolicy` (see :meth:`retry_policy`).
    All probabilities are per-event; delays and windows are in simulated
    minutes.  The all-zero default is the identity: a scenario run with
    ``faults=FaultConfig()`` is bit-identical to one with ``faults=None``.
    """

    #: Transport drops per message kind (payload / reverse confirmation).
    payload_drop: float = 0.0
    confirmation_drop: float = 0.0
    #: Mean exponential extra transfer delay applied to both kinds.
    message_delay: float = 0.0
    #: Per-hop loss during path formation (unified ``loss_probability``).
    hop_loss: float = 0.0
    #: Mid-round forwarder crash probability and recovery downtime.
    forwarder_crash: float = 0.0
    crash_downtime: float = 30.0
    #: Probe-timeout probability against live neighbours.
    probe_timeout: float = 0.0
    #: (start, end) windows during which the bank refuses all operations.
    bank_outages: Tuple[Tuple[float, float], ...] = ()
    # --- recovery (capped exponential backoff, deterministic jitter;
    # the schedule itself is :class:`RetryPolicy`'s)
    max_retries: int = 3

    def __post_init__(self):
        # Delegate validation to the canonical fault/retry types.
        self.plan()
        self.retry_policy()

    @classmethod
    def from_severity(cls, severity: float, **overrides) -> "FaultConfig":
        """One-knob chaos for ablation sweeps: all probabilistic channels
        scale with ``severity`` (crashes at a quarter rate), plus one
        early bank outage whose length grows with severity."""
        if not 0.0 <= severity < 1.0:
            raise ValueError(f"severity must be in [0, 1), got {severity}")
        if severity == 0.0:
            return cls(**overrides)
        fields = dict(
            payload_drop=severity / 2.0,
            confirmation_drop=severity / 2.0,
            hop_loss=severity,
            forwarder_crash=severity / 4.0,
            probe_timeout=severity / 2.0,
            bank_outages=((60.0, 60.0 + 120.0 * severity),),
        )
        fields.update(overrides)
        return cls(**fields)

    def plan(self) -> FaultPlan:
        """Compile the injection side to a :class:`FaultPlan`."""
        drop = {}
        if self.payload_drop > 0.0:
            drop["payload"] = self.payload_drop
        if self.confirmation_drop > 0.0:
            drop["confirmation"] = self.confirmation_drop
        delay = {}
        if self.message_delay > 0.0:
            delay = {"payload": self.message_delay, "confirmation": self.message_delay}
        return FaultPlan(
            drop=drop,
            delay=delay,
            hop_loss=self.hop_loss,
            forwarder_crash=self.forwarder_crash,
            crash_downtime=self.crash_downtime,
            probe_timeout=self.probe_timeout,
            bank_outages=self.bank_outages,
        )

    def retry_policy(self) -> RetryPolicy:
        """Compile the recovery side to a :class:`RetryPolicy`."""
        return RetryPolicy(max_retries=self.max_retries)


@dataclass(frozen=True)
class ChurnConfig:
    """Churn knobs (see :class:`repro.network.churn.ChurnModel`)."""

    enabled: bool = True
    #: Median of the Pareto session time (shape 2, the
    #: :meth:`~repro.sim.distributions.Pareto.with_median` default).
    session_median: float = 60.0
    offtime_mean: float = 30.0
    depart_prob: float = 0.05
    #: Strength of the incentive->availability feedback: a node's next
    #: session is scaled by ``1 + coupling * min(own earnings / mean
    #: earnings, cap)``, the cap being
    #: :data:`repro.experiments.scenario.INCENTIVE_COUPLING_CAP`.
    #: 0 = exogenous churn (earnings don't affect uptime); this is the §1
    #: mechanism that incentives "induce peers to provide reliable
    #: service".
    incentive_coupling: float = 0.0

    def __post_init__(self):
        if self.session_median <= 0:
            raise ValueError("session_median must be positive")
        if self.offtime_mean <= 0:
            raise ValueError("offtime_mean must be positive")
        if self.incentive_coupling < 0:
            raise ValueError("incentive_coupling must be non-negative")


@dataclass(frozen=True)
class PricingConfig:
    """Dynamic-pricing knobs (see :mod:`repro.gametheory.stackelberg`).

    ``mode="stackelberg"``: before the workload starts, each initiator
    solves the leader–follower pricing game against the population's
    reserve prices (Proposition 3 thresholds under the drawn capacities)
    and posts the equilibrium ``P_f`` for its whole series — replacing
    the paper's exogenous ``U[50, 100]`` draw.  ``mode="market"``: every
    series prices each round from a shared tatonnement that reacts to
    observed round failures (with :class:`MarketPriceProcess`'s own
    defaults).  Both modes keep the price in the band
    ``[PRICE_FLOOR, PRICE_CEILING]`` of
    :mod:`repro.gametheory.stackelberg`.  Both modes are deterministic
    (the Stackelberg solve is closed-form on the reserve grid; the market
    process draws no RNG).
    """

    mode: str = "stackelberg"  # 'stackelberg' | 'market'
    # --- stackelberg (leader side)
    #: Leader's value of anonymity ``V`` in ``V * log2(1 + n)``.
    value_of_anonymity: float = 400.0

    def __post_init__(self):
        if self.mode not in ("stackelberg", "market"):
            raise ValueError(f"unknown pricing mode {self.mode!r}")
        if self.value_of_anonymity < 0:
            raise ValueError("value_of_anonymity must be >= 0")


@dataclass(frozen=True)
class CapacityConfig:
    """Heterogeneous node capacities (see :mod:`repro.network.capacity`).

    The drawn capacities feed all three couplings: session durations
    scale as ``cap ** AVAILABILITY_COUPLING``, participation cost as
    ``cap ** -COST_COUPLING`` (both constants of
    :mod:`repro.network.capacity`), and link bandwidth by
    ``min(cap_a, cap_b)``.  The ``pareto`` shape and the ``classes`` mix
    are :func:`~repro.network.capacity.draw_capacities`' defaults.
    """

    distribution: str = "uniform"  # 'uniform' | 'pareto' | 'classes'
    spread: float = 0.6

    def __post_init__(self):
        if self.distribution not in CAPACITY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown capacity distribution {self.distribution!r}; "
                f"expected one of {CAPACITY_DISTRIBUTIONS}"
            )
        if not 0 <= self.spread < 1:
            raise ValueError(f"spread must be in [0, 1), got {self.spread}")


@dataclass(frozen=True)
class SybilConfig:
    """Sybil colony attacking the token economy (repro.adversary.sybil).

    The colony joins the overlay right after bootstrap, is excluded from
    the (I, R) endpoint pool, and its identities never churn (active
    Sybils stay online; under ``strategy_mode="whitewash"`` the oldest
    identity is rotated for a fresh one every ``whitewash_every``
    simulated minutes, collecting ``join_subsidy`` each rotation).
    """

    n_sybil: int = 8
    strategy_mode: str = "persist"  # 'persist' | 'whitewash'
    #: Minutes between whitewash rotations (whitewash mode only).
    whitewash_every: float = 30.0
    #: Newcomer token grant minted to every joining identity.
    join_subsidy: float = 0.0

    def __post_init__(self):
        if self.n_sybil < 1:
            raise ValueError(f"n_sybil must be >= 1, got {self.n_sybil}")
        if self.strategy_mode not in SYBIL_STRATEGIES:
            raise ValueError(
                f"unknown strategy_mode {self.strategy_mode!r}; "
                f"expected one of {SYBIL_STRATEGIES}"
            )
        if self.whitewash_every <= 0:
            raise ValueError(
                f"whitewash_every must be > 0, got {self.whitewash_every}"
            )
        if self.join_subsidy < 0:
            raise ValueError(f"negative join_subsidy {self.join_subsidy}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation run."""

    seed: int = 0
    # --- population
    n_nodes: int = 40
    degree: int = 5
    malicious_fraction: float = 0.1
    participation_cost: float = 1.0
    # --- workload
    n_pairs: int = 100
    total_transmissions: int = 2000
    # --- incentive mechanism
    strategy: str = "utility-I"  # 'random' | 'utility-I' | 'utility-II'
    #: Adversary routing behaviour: 'random' (the paper's model — an
    #: adversary maximises observations, not income) or 'mimic' (plays the
    #: good strategy to blend in and capture paths — a stronger threat
    #: model the extension benches evaluate).
    adversary_mode: str = "random"
    tau: float = 2.0
    pf_range: Tuple[float, float] = PF_RANGE
    weight_selectivity: float = 0.5
    weight_availability: float = 0.5
    lookahead: int = 2  # utility-II backward-induction depth
    #: Position-aware selectivity (§2.3 predecessor differentiation):
    #: history entries only count towards ``sigma`` when their
    #: predecessor matches the payload's upstream hop.  Supported by
    #: both scoring backends.
    position_aware: bool = False
    # --- forwarding
    forward_probability: float = 0.7  # Crowds p_f
    termination: str = "crowds"  # 'crowds' | 'ttl'
    max_attempts: int = 10
    #: Per-hop message-loss probability (failure injection; a lost hop
    #: forces a path reformation).
    loss_probability: float = 0.0
    # --- network
    #: Overlay wiring: 'random' (paper), 'regular', 'small-world',
    #: 'scale-free' (see repro.network.topology).
    topology: str = "random"
    #: Neighbour-replacement discovery: 'oracle' (bootstrap service
    #: sampling the true online set) or 'gossip' (Cyclon-style partial
    #: views, fully decentralised; see repro.network.gossip).
    discovery: str = "oracle"
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    # --- defences (repro.core.defenses)
    #: Pin each initiator's first hop to a guard node.
    use_guards: bool = False
    #: Rotate wire connection identifiers every this many rounds
    #: (0 disables rotation; negative is rejected).
    cid_rotation_epoch: int = 0
    #: Run the §2.2 cryptographic reverse-path confirmation on every
    #: completed round (sealed hop records + initiator-side validation;
    #: see repro.core.secure_path).  Costs RSA work per round.
    validate_routes: bool = False
    #: Simulate each round's payload + confirmation transfers through the
    #: message-level transport (link contention, per-hop latency); round
    #: latencies are collected in ``ScenarioResult.round_latencies``.
    temporal_forwarding: bool = False
    # --- payment
    use_bank: bool = True
    # --- chaos (repro.sim.faults)
    #: Unified fault injection + retry/backoff recovery.  None (or an
    #: all-zero :class:`FaultConfig`) leaves the run bit-identical to a
    #: fault-free one; a nonzero plan activates the recovery layer
    #: (path/probe/settlement retries) and populates
    #: ``ScenarioResult.degradation``.
    faults: Optional[FaultConfig] = None
    # --- observability (repro.obs)
    #: Structured run tracing: None (default) wires nothing — no event
    #: bus, no live tracer, bit-identical to an untraced run.  An
    #: :class:`repro.obs.ObsConfig` enables the event bus and/or span
    #: tracer; the collected trace surfaces as ``ScenarioResult.trace``.
    #: (The metrics registry and phase timings are always populated —
    #: they are collected after the simulation, off the hot path.)
    obs: Optional[ObsConfig] = None
    # --- scoring backend (repro.core.kernels)
    #: ``"python"`` (scalar reference), ``"numpy"`` (batched array
    #: kernels — bit-identical decisions, faster), or None to resolve
    #: the ``REPRO_BACKEND`` environment variable at run time (falling
    #: back to the ``"numpy"`` default when the variable is unset; pin
    #: ``REPRO_BACKEND=python`` to keep the scalar reference).
    backend: Optional[str] = None
    # --- adversarial & economic scenario suite
    #: Dynamic ``P_f`` (Stackelberg or market pricing).  None (default)
    #: keeps the paper's exogenous ``U[pf_range]`` draw — bit-identical
    #: to pre-suite runs.
    pricing: Optional[PricingConfig] = None
    #: Heterogeneous node capacities feeding availability, participation
    #: cost, and link bandwidth.  None = homogeneous (paper model).
    capacity: Optional[CapacityConfig] = None
    #: Sybil colony attacking the token economy.  None = no colony.
    sybil: Optional[SybilConfig] = None
    #: Sharded scenario engine (``repro.sim.shard``): shared-memory
    #: world state plus ``n_shards`` worker processes for the SPNE
    #: level sweeps.  None = single-process.  Bit-identical to the
    #: numpy backend for any shard count; requires that backend and
    #: (for now) edge-based selectivity (``position_aware=False``).
    shard: Optional[object] = None

    def __post_init__(self):
        if self.backend is not None:
            from repro.core.kernels import validate_backend

            validate_backend(self.backend)
        if self.shard is not None:
            from repro.sim.shard import ShardConfig

            if not isinstance(self.shard, ShardConfig):
                raise ValueError(
                    f"shard must be a repro.sim.shard.ShardConfig, "
                    f"got {type(self.shard).__name__}"
                )
            if self.backend == "python":
                raise ValueError(
                    "the sharded engine requires the numpy backend; "
                    "backend='python' cannot be sharded"
                )
            if self.position_aware:
                raise ValueError(
                    "the sharded engine does not support position-aware "
                    "selectivity yet"
                )
        if self.n_nodes < 4:
            raise ValueError(f"need at least 4 nodes, got {self.n_nodes}")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ValueError(
                f"malicious_fraction out of [0,1]: {self.malicious_fraction}"
            )
        if self.tau < 0:
            raise ValueError(f"negative tau: {self.tau}")
        if self.n_pairs < 1 or self.total_transmissions < self.n_pairs:
            raise ValueError("need >= 1 pair and >= 1 transmission per pair")
        if self.strategy not in ("random", "utility-I", "utility-II"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.adversary_mode not in ("random", "mimic"):
            raise ValueError(
                f"unknown adversary_mode {self.adversary_mode!r}"
            )
        if abs(self.weight_selectivity + self.weight_availability - 1.0) > 1e-9:
            raise ValueError("quality weights must sum to 1")
        if not 0.0 <= self.forward_probability < 1.0:
            raise ValueError(
                f"forward_probability out of [0,1): {self.forward_probability}"
            )
        if self.termination not in ("crowds", "ttl"):
            raise ValueError(f"unknown termination {self.termination!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.cid_rotation_epoch < 0:
            raise ValueError(
                f"cid_rotation_epoch must be >= 0, got {self.cid_rotation_epoch}"
            )
        from repro.network.topology import TOPOLOGIES

        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.discovery not in ("oracle", "gossip"):
            raise ValueError(
                f"unknown discovery {self.discovery!r}; expected 'oracle' or 'gossip'"
            )

    @property
    def rounds_per_pair(self) -> int:
        """``max-connections``: transmissions split evenly over pairs."""
        return max(1, self.total_transmissions // self.n_pairs)

    @property
    def weights(self) -> QualityWeights:
        return QualityWeights(
            selectivity=self.weight_selectivity,
            availability=self.weight_availability,
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: A scaled-down configuration for fast unit/integration tests: same
#: structure, ~40x less work than the paper-scale run.
SMALL_CONFIG = ExperimentConfig(
    n_nodes=24,
    n_pairs=8,
    total_transmissions=80,
)
