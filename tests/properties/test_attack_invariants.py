"""Property-based invariants for the adversarial suite.

Random colonies, coalitions, and churn schedules -> the economic and
anonymity invariants of ISSUE 7 must hold no matter what the attacker
does:

- **token conservation**: the ledger audits green under any colony
  strategy, and every settled token appears in exactly one income
  record (initiator spend == colony income + honest income);
- **whitewashing mints nothing**: the colony's extracted value beyond
  the per-join subsidy is fully explained by settled forwarding work —
  identity churn itself never creates tokens;
- **coalition monotonicity**: growing a coalition (pooling a superset
  of observations, excluding a superset of members) never *grows* any
  series' intersection candidate set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.intersection import CoalitionObserver
from repro.adversary.sybil import SYBIL_STRATEGIES, run_sybil_experiment
from repro.core.path import Path
from repro.network.trace import NetworkTrace

colony_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2_000),
        "n_honest": st.integers(min_value=6, max_value=12),
        "n_sybil": st.integers(min_value=1, max_value=4),
        "strategy_mode": st.sampled_from(SYBIL_STRATEGIES),
        "whitewash_every": st.integers(min_value=1, max_value=4),
        "join_subsidy": st.floats(
            min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False
        ),
        "rounds": st.integers(min_value=2, max_value=6),
    }
)


@settings(max_examples=12, deadline=None)
@given(colony_params)
def test_token_conservation_under_any_colony_strategy(p):
    """Whatever identities the colony spawns, rotates, or abandons, the
    bank ledger still audits and the settlement flow balances exactly."""
    r = run_sybil_experiment(
        n_honest=p["n_honest"],
        n_sybil=p["n_sybil"],
        seed=p["seed"],
        n_pairs=3,
        rounds=p["rounds"],
        warmup_probes=2,
        strategy_mode=p["strategy_mode"],
        whitewash_every=p["whitewash_every"],
        join_subsidy=p["join_subsidy"],
        use_bank=True,
    )
    assert r.bank_audit_ok is True
    assert r.initiator_spend == pytest.approx(r.colony_income + r.honest_income)
    assert r.colony_income >= 0.0 and r.honest_income >= 0.0


@settings(max_examples=12, deadline=None)
@given(colony_params)
def test_whitewashing_yields_nothing_beyond_the_subsidy(p):
    """Identity churn mints no tokens: subsidies are exactly per-join,
    and every other token the colony holds traces to a settlement
    record of an identity it controlled."""
    r = run_sybil_experiment(
        n_honest=p["n_honest"],
        n_sybil=p["n_sybil"],
        seed=p["seed"],
        n_pairs=3,
        rounds=p["rounds"],
        warmup_probes=2,
        strategy_mode="whitewash",
        whitewash_every=p["whitewash_every"],
        join_subsidy=p["join_subsidy"],
        use_bank=True,
    )
    expected_rotations = p["rounds"] // p["whitewash_every"]
    assert r.identities_used == p["n_sybil"] + expected_rotations
    assert r.subsidy_collected == pytest.approx(
        r.identities_used * p["join_subsidy"]
    )
    # Income decomposes exactly over the colony's identities.
    assert sum(r.income_by_identity.values()) == pytest.approx(r.colony_income)


# ------------------------------------------------- coalition monotonicity
world_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=5_000),
        "n": st.integers(min_value=6, max_value=14),
        "steps": st.integers(min_value=3, max_value=12),
        "churn": st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        "n_series": st.integers(min_value=1, max_value=4),
    }
)


def random_world(p):
    """A random churn trace plus random per-round paths for each series."""
    rng = np.random.default_rng(p["seed"])
    n = p["n"]
    trace = NetworkTrace()
    for nid in range(n):
        trace.join(0.0, nid)
    online = set(range(n))
    rounds = []  # (cid, Path, time)
    now = 0.0
    for _ in range(p["steps"]):
        now += 1.0
        for nid in range(2, n):  # endpoints of series 0 never churn
            if rng.random() < p["churn"]:
                if nid in online:
                    trace.leave(now, nid)
                    online.discard(nid)
                else:
                    trace.join(now, nid)
                    online.add(nid)
        for cid in range(1, p["n_series"] + 1):
            pool = [x for x in range(1, n - 1)]
            k = int(rng.integers(1, max(2, len(pool) // 2)))
            forwarders = tuple(
                int(x) for x in rng.choice(pool, size=k, replace=False)
            )
            rounds.append(
                (
                    cid,
                    Path(
                        cid=cid,
                        round_index=len(rounds) + 1,
                        initiator=0,
                        responder=n - 1,
                        forwarders=forwarders,
                    ),
                    now,
                )
            )
    member_order = [int(x) for x in rng.permutation(np.arange(1, n - 1))]
    return trace, rounds, member_order


@settings(max_examples=40, deadline=None)
@given(world_params)
def test_candidate_sets_never_grow_with_coalition_size(p):
    """For every series both coalitions observe, the larger (prefix)
    coalition's final candidate set is a subset of the smaller's — and
    the set of observed series only ever grows."""
    trace, rounds, member_order = random_world(p)
    prev_candidates = {}
    prev_observed = set()
    for size in range(1, len(member_order) + 1):
        members = frozenset(member_order[:size])
        observer = CoalitionObserver(trace=trace, members=members)
        observed = {
            cid for cid, path, time in rounds if observer.observe_path(path, time)
        }
        assert prev_observed <= observed
        for cid in observed:
            res = observer.attack(cid, initiator=0, excluded=members)
            assert res is not None
            # Within one attack the intersection itself is monotone.
            assert res.candidate_sizes == sorted(res.candidate_sizes, reverse=True)
            if cid in prev_candidates:
                assert res.final_candidates <= prev_candidates[cid]
            prev_candidates[cid] = res.final_candidates
        prev_observed = observed


@settings(max_examples=40, deadline=None)
@given(world_params)
def test_pooled_times_are_superset_under_coalition_growth(p):
    """The mechanism behind monotonicity, pinned directly: a coalition
    prefix of size k+1 pools a superset of the size-k prefix's
    observation times for every series."""
    trace, rounds, member_order = random_world(p)
    prev_times = {}
    for size in range(1, len(member_order) + 1):
        observer = CoalitionObserver(
            trace=trace, members=frozenset(member_order[:size])
        )
        pooled = {}
        for cid, path, time in rounds:
            if observer.observe_path(path, time):
                pooled.setdefault(cid, set()).add(time)
        for cid in {c for c, _, _ in rounds}:
            times = pooled.get(cid, set())
            assert prev_times.get(cid, set()) <= times
            prev_times[cid] = times
