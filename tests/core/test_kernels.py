"""Dual-backend differential tests: repro.core.kernels vs the scalar path.

The numpy backend is a pure optimisation — for every world, every
deciding node and every predecessor, ``backend="numpy"`` must pick
*exactly* the hop ``backend="python"`` picks, under churn, under
mid-round liveness changes, and with RNG-coupled (bandwidth-model) cost
draws.  Randomised worlds come from hypothesis; the fixed-seed scenario
goldens live in tests/experiments/test_scenario_determinism.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.kernels import (
    BACKENDS,
    WorldArrays,
    default_backend,
    validate_backend,
)
from repro.core.protocol import PathBuilder, TerminationPolicy
from repro.core.routing import ForwardingContext, UtilityModelI, UtilityModelII
from repro.network.bandwidth import BandwidthModel
from repro.network.overlay import Overlay
from repro.sim.monitoring import PERF


def make_world(seed, n=14, degree=4, rounds_of_history=6, offline=()):
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(0.0, 60.0))
    for nid, h in histories.items():
        nbrs = ov.nodes[nid].neighbor_ids()
        if not nbrs:
            continue
        for rnd in range(1, rounds_of_history + 1):
            if rng.random() < 0.6:
                h.record(
                    1,
                    rnd,
                    predecessor=int(rng.choice(list(ov.nodes))),
                    successor=int(rng.choice(nbrs)),
                )
    for nid in offline:
        if ov.is_online(nid):
            ov.leave(nid, now=1.0)
    return ov, histories


def make_context(
    ov,
    histories,
    backend,
    world=None,
    cost_model=None,
    round_index=7,
    position_aware=False,
    kernel_crossover=False,
):
    # The differential worlds here are deliberately tiny, below the
    # Model I small-world crossover — disable the heuristic so the numpy
    # lane actually exercises the Model I kernels (dispatch itself is
    # covered by the crossover tests below).
    return ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(60.0, 2.0),
        responder=len(ov.nodes) - 1,
        overlay=ov,
        cost_model=cost_model or CostModel(bandwidth=None, flat_unit_cost=1.0),
        histories=histories,
        rng=np.random.default_rng(0),
        weights=QualityWeights(),
        backend=backend,
        world=world,
        position_aware_selectivity=position_aware,
        kernel_crossover=kernel_crossover,
    )


def both_backend_choices(
    ov, histories, strategy, node, predecessor, seed=0, position_aware=False
):
    """(python choice, numpy choice) for one decision, each backend with
    its own RNG-coupled bandwidth cost model seeded identically — the
    lazy per-link draws must land on the same links in the same order."""
    choices = []
    for backend in BACKENDS:
        cost = CostModel(
            bandwidth=BandwidthModel(rng=np.random.default_rng(seed))
        )
        ctx = make_context(
            ov, histories, backend, cost_model=cost, position_aware=position_aware
        )
        choices.append(strategy.select_next_hop(node, predecessor, ctx))
    return choices


# ---- randomized differential: single decisions --------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lookahead=st.integers(min_value=1, max_value=3),
    n_offline=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_backends_pick_identical_hops(seed, lookahead, n_offline, data):
    rng = np.random.default_rng(seed ^ 0xBEEF)
    offline = [int(x) for x in rng.choice(14, size=n_offline, replace=False)]
    ov, histories = make_world(seed, offline=offline)
    strategies = [UtilityModelI(), UtilityModelII(lookahead=lookahead)]
    for start in list(ov.nodes)[:5]:
        node = ov.nodes[start]
        preds = [None] + node.neighbor_ids()[:2]
        predecessor = data.draw(st.sampled_from(preds), label="predecessor")
        for strategy in strategies:
            scalar, batched = both_backend_choices(
                ov, histories, strategy, node, predecessor, seed=seed
            )
            assert scalar == batched, (seed, start, predecessor, strategy)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lookahead=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_backends_pick_identical_hops_position_aware(seed, lookahead, data):
    """§2.3 predecessor differentiation no longer forces the scalar path:
    with position-aware selectivity on, the numpy lane scores edges
    against the payload's upstream hop (per-(state, child) qualities in
    the lookahead; per-(node, pred) vectors at the root) and must still
    match the scalar reference decision for decision."""
    ov, histories = make_world(seed)
    strategies = [UtilityModelI(), UtilityModelII(lookahead=lookahead)]
    for start in list(ov.nodes)[:5]:
        node = ov.nodes[start]
        preds = [None] + node.neighbor_ids()[:2]
        predecessor = data.draw(st.sampled_from(preds), label="predecessor")
        for strategy in strategies:
            scalar, batched = both_backend_choices(
                ov,
                histories,
                strategy,
                node,
                predecessor,
                seed=seed,
                position_aware=True,
            )
            assert scalar == batched, (seed, start, predecessor, strategy)


# ---- randomized differential: whole rounds through the builder ----------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    strategy_name=st.sampled_from(["utility-I", "utility-II"]),
    position_aware=st.booleans(),
)
def test_backends_build_identical_paths(seed, strategy_name, position_aware):
    """End to end: same seed, same world, both backends — every formed
    path (hop for hop) and every history commit must coincide."""
    paths = {}
    for backend in BACKENDS:
        ov, histories = make_world(seed, n=16, degree=4)
        strategy = (
            UtilityModelI()
            if strategy_name == "utility-I"
            else UtilityModelII(lookahead=2)
        )
        builder = PathBuilder(
            overlay=ov,
            cost_model=CostModel(
                bandwidth=BandwidthModel(rng=np.random.default_rng(seed))
            ),
            histories=histories,
            rng=np.random.default_rng(seed + 1),
            good_strategy=strategy,
            termination=TerminationPolicy.crowds(0.6),
            backend=backend,
            position_aware=position_aware,
            kernel_crossover=False,
        )
        built = []
        for rnd in range(1, 6):
            try:
                path = builder.build_round(
                    cid=1,
                    round_index=rnd,
                    initiator=0,
                    responder=len(ov.nodes) - 1,
                    contract=Contract.from_tau(60.0, 2.0),
                )
                built.append(path.forwarders)
            except Exception as exc:  # PathFailure must also coincide
                built.append(repr(exc))
        paths[backend] = built
    assert paths["python"] == paths["numpy"]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cross_connection_batching_matches_scalar(seed):
    """Several interleaved connections share one builder: the planner
    stacks every announced frontier into one batched scoring pass, and
    the interleaved decisions must still match the scalar reference for
    every cid and round."""
    cids = (1, 2, 3)
    paths = {}
    planner = None
    for backend in BACKENDS:
        ov, histories = make_world(seed, n=16, degree=4)
        builder = PathBuilder(
            overlay=ov,
            cost_model=CostModel(
                bandwidth=BandwidthModel(rng=np.random.default_rng(seed))
            ),
            histories=histories,
            rng=np.random.default_rng(seed + 1),
            good_strategy=UtilityModelII(lookahead=2),
            termination=TerminationPolicy.hop_ttl(2),
            backend=backend,
            kernel_crossover=False,
        )
        built = []
        for rnd in range(1, 5):
            for cid in cids:
                try:
                    path = builder.build_round(
                        cid=cid,
                        round_index=rnd,
                        initiator=cid % len(ov.nodes),
                        responder=len(ov.nodes) - 1,
                        contract=Contract.from_tau(60.0, 2.0),
                    )
                    built.append((cid, rnd, path.forwarders))
                except Exception as exc:
                    built.append((cid, rnd, repr(exc)))
        paths[backend] = built
        if backend == "numpy":
            planner = builder._planner
    assert paths["python"] == paths["numpy"]
    # The planner really co-batched announced frontiers (not one-by-one).
    assert planner is not None
    assert planner.max_batched_frontiers >= 2


# ---- invalidation ---------------------------------------------------------
@pytest.mark.parametrize("strategy", [UtilityModelI(), UtilityModelII(lookahead=2)])
def test_backends_agree_after_topology_and_probe_changes(strategy):
    """The array world is shared across rounds; neighbour-set changes and
    probe credits between rounds must be picked up (version counters)."""
    ov, histories = make_world(11)
    world = WorldArrays(ov)
    node = ov.nodes[0]

    def agree(round_index):
        a = strategy.select_next_hop(
            node, None, make_context(ov, histories, "python", round_index=round_index)
        )
        b = strategy.select_next_hop(
            node,
            None,
            make_context(
                ov, histories, "numpy", world=world, round_index=round_index
            ),
        )
        assert a == b

    agree(7)
    gen_before = world.generation
    # Probe credit: availability shifts, topology unchanged.
    node.credit_session_time(node.neighbor_ids()[0], 30.0)
    agree(8)
    assert world.generation == gen_before
    # Discovery: a new neighbour appears -> CSR rebuild.
    new_nbr = next(i for i in ov.nodes if i not in node.neighbors and i != 0)
    node.add_neighbor(new_nbr, initial_session_time=12.0)
    agree(9)
    assert world.generation == gen_before + 1
    # Churn: a neighbour goes offline.
    ov.leave(node.neighbor_ids()[0], now=2.0)
    agree(10)


@pytest.mark.parametrize("strategy", [UtilityModelI(), UtilityModelII(lookahead=2)])
def test_backends_agree_across_mid_round_crash(strategy):
    """A forwarder crash between formation attempts (overlay.leave inside
    the round) is seen by the next decision on both backends."""
    ov, histories = make_world(13)
    ctx_py = make_context(ov, histories, "python")
    ctx_np = make_context(ov, histories, "numpy")
    node = ov.nodes[0]
    first_py = strategy.select_next_hop(node, None, ctx_py)
    first_np = strategy.select_next_hop(node, None, ctx_np)
    assert first_py == first_np and first_py is not None
    # The chosen forwarder crashes mid-round; next attempt begins.
    ov.leave(first_py, now=3.0)
    second_py = strategy.select_next_hop(node, None, ctx_py)
    second_np = strategy.select_next_hop(node, None, ctx_np)
    assert second_py == second_np
    assert second_py != first_py  # the crashed node is no longer served


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize(
    "strategy", [UtilityModelI(), UtilityModelII(lookahead=2)], ids=["I", "II"]
)
def test_backends_read_the_live_world_within_a_round(strategy, seed):
    """Within one round (``round_index`` held fixed) a retry backs off in
    simulated time while discovery wires new neighbours and probes credit
    session time.  The next decision on a reused context must see that
    world: both backends agree with a scalar context built afresh."""
    ov, histories = make_world(seed, n=24, degree=5)
    node = ov.nodes[0]
    ctx_py = make_context(ov, histories, "python")
    ctx_np = make_context(ov, histories, "numpy")
    first = strategy.select_next_hop(node, None, ctx_py)
    assert strategy.select_next_hop(node, None, ctx_np) == first
    new_nbr = next(
        i for i in sorted(ov.nodes)
        if i not in node.neighbors and i not in (0, ctx_py.responder)
    )
    node.add_neighbor(new_nbr, initial_session_time=90.0)
    node.credit_session_time(node.neighbor_ids()[0], 120.0)
    expect = strategy.select_next_hop(
        node, None, make_context(ov, histories, "python")
    )
    assert strategy.select_next_hop(node, None, ctx_np) == expect
    assert strategy.select_next_hop(node, None, ctx_py) == expect


# ---- dispatch & plumbing --------------------------------------------------
def test_position_aware_contexts_use_kernels():
    """Position-aware selectivity is kernel-native now — it no longer
    forces the scalar fallback (the last one the numpy lane had)."""
    ov, histories = make_world(3)
    ctx = make_context(ov, histories, "numpy", position_aware=True)
    assert ctx.use_kernels()
    assert not make_context(ov, histories, "python").use_kernels()

    node = ov.nodes[0]
    strategy = UtilityModelII(lookahead=2)
    before = PERF.snapshot()
    strategy.select_next_hop(node, node.neighbor_ids()[0], ctx)
    delta = PERF.delta_since(before)
    assert delta["kernel_calls"] > 0


def test_small_world_crossover_keeps_tiny_decisions_scalar():
    """Below the Model I crossover the numpy backend dispatches to the
    scalar path (per-decision array overhead dominates on tiny candidate
    sets) — decisions are bit-identical either way, so only the counters
    tell the lanes apart."""
    ov, histories = make_world(4)  # degree 4 < 12
    node = ov.nodes[0]
    ctx = make_context(ov, histories, "numpy", kernel_crossover=True)
    assert ctx.use_kernels()
    assert not ctx.use_kernels_model1(node)

    strategy = UtilityModelI()
    before = PERF.snapshot()
    hop = strategy.select_next_hop(node, None, ctx)
    delta = PERF.delta_since(before)
    assert delta["kernel_calls"] == 0
    scalar_ctx = make_context(ov, histories, "python")
    assert hop == strategy.select_next_hop(node, None, scalar_ctx)


def test_small_world_crossover_engages_kernels_on_large_worlds():
    ov, histories = make_world(8, n=24, degree=5)
    node = ov.nodes[0]
    ctx = make_context(ov, histories, "numpy", kernel_crossover=True)
    # Model II has no crossover: the lookahead sweep is always batched...
    before = PERF.snapshot()
    UtilityModelII(lookahead=2).select_next_hop(node, None, ctx)
    assert PERF.delta_since(before)["kernel_calls"] > 0
    # ...but degree 5 < MODEL1_KERNEL_MIN_CANDIDATES keeps the one-shot
    # Model-I decision on the scalar path.
    assert not ctx.use_kernels_model1(node)


def test_validate_backend_rejects_unknown():
    assert validate_backend("numpy") == "numpy"
    with pytest.raises(ValueError, match="unknown backend"):
        validate_backend("cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        make_context(*make_world(1), backend="cuda")


def test_default_backend_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend() == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert default_backend() == "python"
    monkeypatch.setenv("REPRO_BACKEND", "fortran")
    with pytest.raises(ValueError, match="unknown backend"):
        default_backend()


def test_builder_resolves_backend_from_environment(monkeypatch):
    ov, histories = make_world(5)
    kwargs = dict(
        overlay=ov,
        cost_model=CostModel(),
        histories=histories,
        rng=np.random.default_rng(0),
        good_strategy=UtilityModelI(),
    )
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert PathBuilder(**kwargs).backend == "python"
    monkeypatch.delenv("REPRO_BACKEND")
    assert PathBuilder(**kwargs).backend == "numpy"
    assert PathBuilder(backend="python", **kwargs).backend == "python"
    with pytest.raises(ValueError, match="unknown backend"):
        PathBuilder(backend="gpu", **kwargs)


def test_builder_shares_one_world_across_rounds():
    ov, histories = make_world(9, n=16)
    builder = PathBuilder(
        overlay=ov,
        cost_model=CostModel(),
        histories=histories,
        rng=np.random.default_rng(2),
        good_strategy=UtilityModelII(lookahead=2),
        termination=TerminationPolicy.hop_ttl(2),
        backend="numpy",
        kernel_crossover=False,
    )
    for rnd in range(1, 4):
        builder.build_round(
            cid=1,
            round_index=rnd,
            initiator=0,
            responder=len(ov.nodes) - 1,
            contract=Contract.from_tau(60.0, 2.0),
        )
    world = builder._world
    assert world is not None
    # Stable topology -> exactly one CSR build amortised over all rounds.
    assert world.generation == 1


def test_kernel_perf_counters_tick_only_on_numpy_backend():
    ov, histories = make_world(6)
    node = ov.nodes[0]
    strategy = UtilityModelII(lookahead=2)

    before = PERF.snapshot()
    strategy.select_next_hop(node, None, make_context(ov, histories, "python"))
    scalar_delta = PERF.delta_since(before)
    assert scalar_delta["kernel_calls"] == 0
    assert scalar_delta["array_rebuilds"] == 0

    before = PERF.snapshot()
    strategy.select_next_hop(node, None, make_context(ov, histories, "numpy"))
    batched_delta = PERF.delta_since(before)
    assert batched_delta["kernel_calls"] > 0
    assert batched_delta["kernel_batch_elements"] > 0
    assert batched_delta["array_rebuilds"] > 0
    assert batched_delta["edges_scored"] > 0
