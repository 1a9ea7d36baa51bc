"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contracts import Contract
from repro.core.history import HistoryProfile
from repro.core.metrics import payoff_cdf
from repro.core.path import Path, SeriesLog
from repro.core.utility import entropy_anonymity_degree, forwarder_utility_model1
from repro.payment.bank import decompose
from repro.payment.ledger import Ledger
from repro.sim.distributions import Pareto


# ------------------------------------------------------------- contracts
@given(
    pf=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    tau=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    instances=st.dictionaries(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=100),
        min_size=1,
        max_size=20,
    ),
)
def test_settlement_conserves_value(pf, tau, instances):
    """Sum of forwarder payments == initiator outlay, always."""
    c = Contract.from_tau(pf, tau)
    n = len(instances)
    total = sum(c.forwarder_payment(m, n) for m in instances.values())
    # The initiator pays P_f per forwarding instance plus P_r once (§2.2).
    expected = sum(instances.values()) * c.forwarding_benefit + c.routing_benefit
    assert abs(total - expected) <= 1e-6 * max(1.0, expected)


@given(
    pf=st.floats(min_value=0.0, max_value=1e4),
    pr=st.floats(min_value=0.0, max_value=1e4),
    q1=st.floats(min_value=0.0, max_value=1.0),
    q2=st.floats(min_value=0.0, max_value=1.0),
    cost=st.floats(min_value=0.0, max_value=1e4),
)
def test_utility_monotone_in_quality(pf, pr, q1, q2, cost):
    c = Contract(pf, pr)
    lo, hi = sorted((q1, q2))
    assert forwarder_utility_model1(c, lo, cost) <= forwarder_utility_model1(
        c, hi, cost
    ) + 1e-12


# ------------------------------------------------------------- history
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10),   # round
            st.integers(min_value=0, max_value=5),    # predecessor
            st.integers(min_value=0, max_value=5),    # successor
        ),
        max_size=50,
    ),
    query_round=st.integers(min_value=1, max_value=12),
    successor=st.integers(min_value=0, max_value=5),
)
def test_selectivity_always_in_unit_interval(entries, query_round, successor):
    h = HistoryProfile(0)
    for rnd, pred, succ in entries:
        h.record(cid=1, round_index=rnd, predecessor=pred, successor=succ)
    sigma = h.selectivity(cid=1, successor=successor, round_index=query_round)
    assert 0.0 <= sigma <= 1.0


# ------------------------------------------------------------- paths
forwarder_lists = st.lists(
    st.integers(min_value=1, max_value=8), min_size=0, max_size=6
)


@given(rounds=st.lists(forwarder_lists, min_size=1, max_size=10))
def test_union_set_bounds(rounds):
    """max(per-round sets) <= union <= sum of per-round set sizes."""
    log = SeriesLog(cid=1, initiator=0, responder=9)
    for rnd, fwd in enumerate(rounds, start=1):
        log.add(Path(cid=1, round_index=rnd, initiator=0, responder=9, forwarders=tuple(fwd)))
    union = len(log.union_forwarder_set())
    per_round = [len(set(f)) for f in rounds]
    assert max(per_round) <= union <= sum(per_round)


@given(rounds=st.lists(forwarder_lists, min_size=2, max_size=8))
def test_new_edges_bounded_by_path_edges(rounds):
    log = SeriesLog(cid=1, initiator=0, responder=9)
    for rnd, fwd in enumerate(rounds, start=1):
        log.add(Path(cid=1, round_index=rnd, initiator=0, responder=9, forwarders=tuple(fwd)))
    for i, new in enumerate(log.new_edges_per_round()):
        assert 0 <= new <= log.paths[i + 1].length + 1


# ------------------------------------------------------------- metrics
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_cdf_properties(payoffs):
    values, probs = payoff_cdf(payoffs)
    assert len(values) == len(payoffs)
    assert np.all(np.diff(values) >= 0)
    assert np.all(np.diff(probs) >= 0)
    assert probs[-1] == 1.0
    assert probs[0] > 0


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=40)
)
def test_anonymity_degree_in_unit_interval(weights):
    d = entropy_anonymity_degree(weights)
    assert 0.0 <= d <= 1.0 + 1e-9


# ------------------------------------------------------------- ledger
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["transfer", "mint", "debit", "credit"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=40,
    )
)
def test_ledger_conservation_under_random_ops(ops):
    """No sequence of valid operations can break conservation."""
    from repro.payment.ledger import InsufficientFunds

    ledger = Ledger()
    for i in range(5):
        ledger.open_account(i, opening_balance=100.0)
    for op, a, b, amount in ops:
        try:
            if op == "transfer":
                ledger.transfer(a, b, amount)
            elif op == "mint":
                ledger.mint(a, amount)
            elif op == "debit":
                ledger.debit_to_float(a, amount)
            else:
                ledger.credit_from_float(b, amount)
        except InsufficientFunds:
            pass
        assert ledger.audit()


# ------------------------------------------------------------- bank
@given(amount=st.floats(min_value=0.0, max_value=16000.0))
def test_decompose_covers_amount_tightly(amount):
    denoms = tuple(2**k for k in range(15))
    parts = decompose(amount, denoms)
    total = sum(parts)
    assert total >= amount - 1e-9
    assert total < amount + 1.0 + 1e-9  # ceil overshoot < 1 unit
    assert all(p in denoms for p in parts)


# ------------------------------------------------------------- distributions
@given(
    median=st.floats(min_value=0.1, max_value=1e4),
    shape=st.floats(min_value=0.2, max_value=10.0),
)
def test_pareto_median_roundtrip(median, shape):
    p = Pareto.with_median(median, shape=shape)
    assert abs(p.median - median) <= 1e-6 * median
    assert abs(p.cdf(p.median) - 0.5) <= 1e-9


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    shape=st.floats(min_value=1.5, max_value=5.0),
)
def test_pareto_samples_in_support(seed, shape):
    p = Pareto.with_median(60.0, shape=shape)
    rng = np.random.default_rng(seed)
    s = p.sample(rng, size=100)
    assert np.all(s >= p.xm)
