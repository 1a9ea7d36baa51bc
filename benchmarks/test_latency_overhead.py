"""Extension experiment: latency cost of anonymity, by routing strategy.

Not a paper figure — the paper's cost model (``C^t = b*l`` with per-unit
cost inversely proportional to link bandwidth, §2.4.1/§3) implies a
testable side effect: because forwarders pay ``C^t`` out of their
utility, incentive routing should systematically prefer *fast* links,
while random routing samples links uniformly.  We replay the paths each
strategy produced through the message-level transport simulator and
compare end-to-end payload latencies and the anonymity overhead
(path latency / direct-transfer latency).
"""

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_replicates
from repro.network.bandwidth import BandwidthModel
from repro.network.transport import measure_path_latency
from repro.sim.rng import RandomStreams


def _latencies(strategy: str, preset: str, n_seeds: int):
    cfg = ExperimentConfig(
        n_pairs=10 if preset == "quick" else 50,
        total_transmissions=100 if preset == "quick" else 1000,
        strategy=strategy,
    )
    payload, overhead, lengths = [], [], []
    for r in run_replicates(cfg, n_seeds):
        # Rebuild the same bandwidth map the scenario used (same stream).
        bw = BandwidthModel(rng=RandomStreams(r.config.seed)["bandwidth"])
        for log in r.series_logs:
            for path in log.paths[:3]:  # sample the first rounds per pair
                stats = measure_path_latency(path, bw)
                payload.append(stats["payload"])
                overhead.append(stats["overhead"])
                lengths.append(path.length)
    return (
        float(np.mean(payload)),
        float(np.mean(overhead)),
        float(np.mean(lengths)),
    )


def test_latency_overhead_by_strategy(benchmark, bench_preset, bench_seeds):
    def run():
        return {
            s: _latencies(s, bench_preset, bench_seeds)
            for s in ("random", "utility-I", "utility-II")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    rows = [
        [s, f"{v[0]:.3f}", f"{v[1]:.2f}x", f"{v[2]:.2f}"]
        for s, v in sorted(results.items())
    ]
    print(
        format_table(
            ["strategy", "payload latency", "anonymity overhead", "avg hops"],
            rows,
            title="Latency cost of anonymity (per-round payload transfer)",
        )
    )
    # Anonymity costs latency under every strategy (>1 direct transfer).
    for s, (payload, overhead, length) in results.items():
        assert overhead > 1.0
    # Per-hop latency: utility routing prefers cheap (= fast) links.  The
    # effect is real but small (C^t is a minor term next to q*P_r), so we
    # assert it as a no-regression bound rather than a strict win.
    per_hop = {
        s: payload / (length + 1)
        for s, (payload, _o, length) in results.items()
    }
    assert per_hop["utility-I"] <= per_hop["random"] * 1.05
