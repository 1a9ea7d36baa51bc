"""Sharded scenario engine: shared-memory world state + process-parallel
shard workers for 10k-100k-node overlays.

One scenario, K worker processes, zero pickled node objects.  The
authoritative hot-path state — topology CSR, SPNE gather tables, the
availability vector, the overlay liveness mask, SPNE level planes and
(when a bank runs) the ledger balances — lives in
``multiprocessing.shared_memory`` segments.  The object layer
(:class:`~repro.network.node.PeerNode`,
:class:`~repro.payment.ledger.Account`) stays the API surface but
becomes a *view*: accounts serve their balance from a slot in the
shared balances array, and the world's per-edge availability vector is
a shared segment the base :class:`~repro.core.kernels.WorldArrays`
refreshes in place.  Selectivity hit rows are coordinator-only and come
from the base planner's :class:`~repro.core.kernels.HitRows`.

**Division of labour (the bit-identity design).**  The coordinator
process runs the entire event loop: every RNG draw, every Model I and
root Model II decision, cost vectors, candidate sets, argmaxes and
settlements execute on the coordinator in exactly the order the
single-process engine executes them — so the decision *structure* is
identical for any shard count by construction.  Shard workers execute
only the state-axis range computation of the backward-induction level
sweep (:func:`repro.core.kernels.spne_state_validity` +
:func:`repro.core.kernels.spne_level_step` over the degree blocks of a
contiguous state range), which is bitwise range-decomposable: every
state's row is computed from its own children alone, so the block
layout a range gets cannot change a row's bits.  Seed -> result
therefore stays bit-identical for any ``n_shards``, pinned by the
differential property suite.

**Shard partition.**  The state axis (directed edges) is published as a
flat child axis (:class:`ShardWorld`) and split into K contiguous ranges
by bisecting the *unclipped* per-state child offsets
(``ShardWorld.st_offsets``) at balanced child counts — shard k owns
states ``[s_k, s_{k+1})`` and exactly the flat children
``[st_offsets[s_k], st_offsets[s_{k+1}])``, which it turns into degree
blocks with the world's own :func:`repro.core.kernels.degree_blocks`.
Deterministic in the topology and K alone.

**Protocol.**  One duplex pipe per worker, strict command/ack lockstep
(the coordinator never writes a shared segment while a command is in
flight, so no locks are needed).  An entire backward-induction build is
one dispatch: ``("levels", epoch, responder, n_new)`` asks every worker
to compute ``n_new`` consecutive levels into the stacked level planes,
synchronising *between* levels on a shared ``multiprocessing.Barrier``
(each plane must be fully written before any worker gathers from it) —
the final ack round-trip is the build barrier.  Batching the build
into a single command matters on few-core hosts, where per-level pipe
round-trips would otherwise dominate: the futex wait inside the
barrier is an order of magnitude cheaper than a pickled pipe
round-trip through a blocked coordinator.  Workers never touch the
RNG; their per-shard streams (:func:`repro.sim.rng.shard_stream`,
keyed by the root seed and the shard *index*, never by K) exist for
the handshake canary that pins the derivation.

**Drain semantics.**  SIGINT is latched (the idiom the fleet executor
uses): the first interrupt lets the in-flight command batch complete,
then tears the engine down — workers stopped, their PERF counters
folded into the coordinator's, every segment unlinked — and re-raises
``KeyboardInterrupt``.  A second SIGINT falls through to the default
handler.  Workers themselves ignore SIGINT; the coordinator owns their
lifecycle.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import (
    BatchPlanner,
    WorldArrays,
    degree_blocks,
    spne_level_step,
    spne_state_validity,
    state_child_axis,
)
from repro.sim.monitoring import PERF, DegradationCounters
from repro.sim.rng import shard_stream

__all__ = [
    "ShardCapacityError",
    "ShardConfig",
    "ShardEngine",
    "ShardPlanner",
    "ShardWorld",
    "shard_worker_main",
]


class ShardCapacityError(RuntimeError):
    """The overlay outgrew the shared-memory capacity reserved at
    engine start (sized with ``ShardConfig.slack`` headroom)."""


@dataclass(frozen=True)
class ShardConfig:
    """Sharded-engine knobs carried on :class:`ExperimentConfig`.

    ``n_shards`` worker processes are spawned for the run;
    ``slack`` multiplies the bootstrap-time array sizes into shared
    segment capacities (churn may grow the overlay — exceeding the
    reserve raises :class:`ShardCapacityError` rather than corrupting
    state).
    """

    n_shards: int = 2
    slack: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_shards, int) or self.n_shards < 1:
            raise ValueError(f"n_shards must be a positive int, got {self.n_shards}")
        if self.n_shards > 64:
            raise ValueError(f"n_shards unreasonably large: {self.n_shards}")
        if self.slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {self.slack}")


class _SigintLatch:
    """First SIGINT sets a flag (the engine drains and tears down at the
    next command boundary); a second falls through to the previous
    handler.  Same drain idiom as the fleet executor's interrupt flag —
    re-implemented here because nothing below ``repro.fleet`` may
    import it."""

    def __init__(self) -> None:
        self.tripped = False
        self._previous = None
        self._installed = False

    def install(self) -> None:
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGINT, self._handle)
            self._installed = True

    def restore(self) -> None:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
            self._installed = False

    def _handle(self, signum, frame) -> None:
        if self.tripped:
            signal.signal(signal.SIGINT, self._previous)
            raise KeyboardInterrupt
        self.tripped = True


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------


def _release_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment; idempotent and exception-proof
    (also used as the engine's ``weakref.finalize`` safety net)."""
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a worker-side attachment from the resource tracker: the
    coordinator owns create/unlink, so the tracker must not unlink the
    segment again when a worker exits."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _attach_segments(
    spec: List[Tuple[str, str, str, Tuple[int, ...]]],
    untrack: bool,
) -> Tuple[List[shared_memory.SharedMemory], Dict[str, np.ndarray]]:
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    for key, name, dtype, shape in spec:
        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            # Spawned workers have their own resource tracker, which
            # would otherwise unlink the coordinator's segments when the
            # worker exits.  Forked workers share the coordinator's
            # tracker (registration is an idempotent set add there), so
            # untracking would strip the coordinator's own entry.
            _untrack(shm)
        segments.append(shm)
        views[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    return segments, views


def _merge_counts(dst: Dict[str, int], src: Dict[str, int]) -> None:
    for key, value in src.items():
        dst[key] = dst.get(key, 0) + int(value)


# ---------------------------------------------------------------------------
# Shared-memory world view
# ---------------------------------------------------------------------------


class ShardWorld(WorldArrays):
    """:class:`WorldArrays` that republishes every topology rebuild to
    the engine's shared segments (which also moves ``alpha_flat`` into
    shared memory; the base class refreshes it in place).

    The segments carry the SPNE states as a flat child axis, which this
    world keeps beside the base class's degree blocks: ``st_counts``
    (children per state), ``st_offsets`` (unclipped segment starts,
    ``n_edges + 1`` entries), ``st_child_edge`` and
    ``st_child_not_pred`` (see :func:`state_child_axis`)."""

    def __init__(self, overlay, engine: "Optional[ShardEngine]" = None) -> None:
        super().__init__(overlay)
        self.engine = engine
        self.st_counts = np.zeros(0, dtype=np.int64)
        self.st_offsets = np.zeros(1, dtype=np.int64)
        self.st_child_edge = np.zeros(0, dtype=np.int64)
        self.st_child_not_pred = np.zeros(0, dtype=bool)

    def _build_state_structure(self) -> None:
        super()._build_state_structure()
        (
            self.st_counts,
            self.st_offsets,
            self.st_child_edge,
            self.st_child_not_pred,
        ) = state_child_axis(self.indptr, self.nbr_flat, self.owner_flat)

    def _rebuild_topology(self) -> None:
        super()._rebuild_topology()
        engine = self.engine
        if engine is not None and engine.started:
            engine.publish_topology()


# ---------------------------------------------------------------------------
# Planner: worker-dispatched level sweeps
# ---------------------------------------------------------------------------


class ShardPlanner(BatchPlanner):
    """:class:`BatchPlanner` whose SPNE level sweeps fan out to the
    shard workers.  Bit-identical to the base planner: the workers run
    the very same :func:`spne_state_validity`/:func:`spne_level_step`
    kernels over a range decomposition that is bitwise-exact by
    construction."""

    def __init__(self, world: ShardWorld, engine: "ShardEngine") -> None:
        super().__init__(world)
        self.engine = engine
        self._published_mask_key = None

    def _online_mask(self) -> np.ndarray:
        mask = super()._online_mask()
        if self._mask_key != self._published_mask_key:
            self.engine.publish_mask(mask)
            self._published_mask_key = self._mask_key
        return mask

    def _build_levels(self, fr, need: int, position_aware: bool) -> None:
        """Whole-build dispatch: every missing level goes to the workers
        in one ``levels`` command (they synchronise between levels on
        the shared barrier), instead of one pipe round-trip per level.
        The base planner's ``_ensure_levels`` keeps the tokens, the
        empty-child short-circuit and the perf accounting."""
        if position_aware:
            # Position-aware runs are rejected at config validation;
            # keep the single-process path as a safety net for direct
            # planner use.
            super()._build_levels(fr, need, position_aware)
            return
        self.engine.build_levels(fr, fr.q_flat, need)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _WorkerState:
    """One worker's slice of the published topology: its state range
    turned into degree blocks (the world's own block builder over the
    published flat child axis) plus the shared planes it reads and
    writes."""

    def __init__(self, views: Dict[str, np.ndarray], meta: Tuple[int, ...]) -> None:
        size, n_edges, s0, s1, c0, c1 = meta
        self.size = size
        self.n_edges = n_edges
        self.nbr = views["nbr"][:n_edges]
        self.online = views["online"]
        self.q = views["q"][:n_edges]
        self.lvl_sum = views["lsum"]
        self.lvl_n = views["ln"]
        self.n_children = c1 - c0
        counts = np.asarray(views["stc"][s0:s1])
        self.blocks = degree_blocks(
            counts,
            np.asarray(views["sto"][s0:s1]) - c0,  # local segment starts
            np.asarray(views["che"][c0:c1]),
            np.asarray(views["cnp"][c0:c1]),
        )
        #: Global state ids of each block's rows, and of the childless
        #: states, which read (0.0, 0) at every level.
        self.targets = [s0 + block.states for block in self.blocks]
        self.childless = s0 + np.flatnonzero(counts == 0)
        self._st_cache: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._epoch = -1

    def levels(self, epoch: int, responder: int, n_new: int, barrier) -> None:
        """Run ``n_new`` consecutive level steps over this shard's state
        range: plane ``i`` is computed from plane ``i-1``, with a
        barrier wait between levels so every shard's slice of a plane
        is complete before anyone gathers from it.  No barrier after
        the last level — the coordinator's ack collection is that
        barrier."""
        if epoch != self._epoch:
            self._st_cache.clear()
            self._epoch = epoch
        masks = self._st_cache.get(responder)
        if masks is None:
            # Same expression the coordinator's _ensure_liveness uses:
            # the gather through the child tables then sees identical bits.
            valid0 = self.online[self.nbr] & (self.nbr != responder)
            masks = [
                spne_state_validity(valid0, b.child, b.real, b.not_pred)
                for b in self.blocks
            ]
            if len(self._st_cache) >= 128:
                self._st_cache.pop(next(iter(self._st_cache)))
            self._st_cache[responder] = masks
        bases = [self.q[block.child] for block in self.blocks]
        for i in range(1, n_new + 1):
            plane_sum, plane_n = self.lvl_sum[i], self.lvl_n[i]
            for block, base, target, (st_valid, st_dead) in zip(
                self.blocks, bases, self.targets, masks
            ):
                out_sum = np.empty(target.size, dtype=np.float64)
                out_n = np.empty(target.size, dtype=np.int64)
                spne_level_step(
                    base,
                    self.lvl_sum[i - 1],
                    self.lvl_n[i - 1],
                    block.child,
                    st_valid,
                    st_dead,
                    out_sum,
                    out_n,
                )
                plane_sum[target] = out_sum
                plane_n[target] = out_n
            plane_sum[self.childless] = 0.0
            plane_n[self.childless] = 0
            if i < n_new and barrier is not None:
                barrier.wait(timeout=120)
        PERF.kernel_calls += n_new
        PERF.kernel_batch_elements += n_new * self.n_children


def shard_worker_main(
    spec: List[Tuple[str, str, str, Tuple[int, ...]]],
    shard_index: int,
    seed: int,
    conn,
    barrier=None,
    untrack: bool = False,
) -> None:
    """Shard worker entry point (``multiprocessing.Process`` target).

    Attaches the published segments, answers the handshake with a
    canary drawn from this shard's derived RNG stream (pinning the
    seed/shard-index derivation on both sides), then serves ``topo`` /
    ``levels`` / ``stop`` commands in strict lockstep.  ``barrier``
    synchronises the workers between the levels of one batched build.
    SIGINT is ignored — the coordinator latches the interrupt and
    drives the drain.  The final ``stopped`` reply carries this
    worker's PERF and degradation snapshots for coordinator-side
    aggregation.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    PERF.reset()  # a forked child inherits the parent's counts
    degradation = DegradationCounters()
    segments, views = _attach_segments(spec, untrack)
    state: Optional[_WorkerState] = None
    try:
        canary = float(shard_stream(seed, shard_index).random())
        conn.send(("ready", shard_index, canary))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            try:
                if cmd == "topo":
                    state = _WorkerState(views, msg[1])
                    reply = ("ok",)
                elif cmd == "levels":
                    _, epoch, responder, n_new = msg
                    assert state is not None, "levels before topo"
                    state.levels(epoch, responder, n_new, barrier)
                    reply = ("ok",)
                elif cmd == "stop":
                    conn.send(("stopped", PERF.snapshot(), degradation.snapshot()))
                    break
                else:
                    reply = ("error", f"unknown command {cmd!r}")
            except Exception as exc:  # surface instead of deadlocking
                reply = ("error", repr(exc))
            conn.send(reply)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: Keys of the segments a worker attaches (the rest are coordinator-only).
_WORKER_KEYS = ("nbr", "stc", "sto", "che", "cnp", "online", "q", "lsum", "ln")


class ShardEngine:
    """Owns the shared segments, the worker pool and the sharded
    world/planner pair a :class:`PathBuilder` is pointed at.

    Lifecycle: construct, :meth:`start` (sizes capacity from the real
    bootstrap topology, allocates segments, spawns and handshakes
    workers, publishes the initial topology), run the scenario with
    ``builder._world = engine.world`` / ``builder._planner =
    engine.planner``, :meth:`close` (stop workers, fold their counters
    into :data:`PERF`, unlink every segment).  ``close`` is idempotent
    and also wired to a ``weakref.finalize`` safety net, so segments
    never outlive the process even on an unwound stack.
    """

    def __init__(
        self,
        overlay,
        n_shards: int,
        seed: int,
        *,
        slack: float = 2.0,
        max_levels: int = 8,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {max_levels}")
        self.overlay = overlay
        self.n_shards = n_shards
        self.seed = seed
        self.slack = float(slack)
        #: Level planes per build batch; builds needing more levels are
        #: chunked into several dispatches.
        self.max_levels = int(max_levels)
        self.world = ShardWorld(overlay, engine=self)
        self.planner = ShardPlanner(self.world, self)
        self.started = False
        self.closed = False
        #: Aggregated worker counter snapshots (populated by close()).
        self.worker_perf: Dict[str, int] = {}
        self.worker_degradation: Dict[str, int] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}
        self._conns: List[object] = []
        self._procs: List[object] = []
        self._latch = _SigintLatch()
        self._mask_epoch = 0
        self._barrier = None
        self._e_cap = 0
        self._c_cap = 0
        self._size_cap = 0
        self._finalizer = None
        self._ledger = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self.started:
            raise RuntimeError("ShardEngine.start called twice")
        world = self.world
        world.ensure_fresh()  # size capacities from the real topology
        self._e_cap = max(256, int(self.slack * max(world.n_edges, 1)))
        self._c_cap = max(256, int(self.slack * max(int(world.st_child_edge.size), 1)))
        self._size_cap = max(64, int(self.slack * max(self.overlay.id_space(), 1)))
        self._alloc("nbr", (self._e_cap,), np.int64)
        self._alloc("stc", (self._e_cap,), np.int64)
        self._alloc("sto", (self._e_cap + 1,), np.int64)
        self._alloc("che", (self._c_cap,), np.int64)
        self._alloc("cnp", (self._c_cap,), np.bool_)
        self._alloc("alpha", (self._e_cap,), np.float64)
        self._alloc("online", (self._size_cap,), np.bool_)
        self._alloc("q", (self._e_cap,), np.float64)
        n_planes = self.max_levels + 1  # plane 0 holds the previous level
        self._alloc("lsum", (n_planes, self._e_cap), np.float64)
        self._alloc("ln", (n_planes, self._e_cap), np.int64)
        self._alloc("bal", (self._size_cap,), np.float64)
        self._finalizer = weakref.finalize(
            self, _release_segments, list(self._segments.values())
        )
        spec = [
            (
                key,
                self._segments[key].name,
                np.dtype(self._views[key].dtype).str,
                self._views[key].shape,
            )
            for key in _WORKER_KEYS
        ]
        ctx = self._mp_context()
        untrack = ctx.get_start_method() != "fork"
        self._barrier = ctx.Barrier(self.n_shards)
        for k in range(self.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(spec, k, self.seed, child_conn, self._barrier, untrack),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for k, conn in enumerate(self._conns):
            try:
                ready = conn.recv()
            except EOFError as exc:
                raise RuntimeError(f"shard worker {k} died during startup") from exc
            expected = float(shard_stream(self.seed, k).random())
            if ready[0] != "ready" or ready[1] != k or ready[2] != expected:
                raise RuntimeError(
                    f"shard worker {k} handshake mismatch: {ready!r} "
                    f"(expected canary {expected!r})"
                )
        self._latch.install()
        self.started = True
        self.publish_topology()

    @staticmethod
    def _mp_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            return multiprocessing.get_context("spawn")

    def bind_ledger(self, ledger) -> None:
        """Move the ledger's balances into the shared balances array
        (indexed by owner id, with the engine's capacity slack)."""
        ledger.bind_balances(self._views["bal"])
        self._ledger = ledger

    @property
    def interrupted(self) -> bool:
        return self._latch.tripped

    def poll_interrupt(self) -> None:
        """Event-loop hook (``Environment.interrupt_check``): raise once
        the latch trips so a SIGINT drains promptly even between
        dispatches."""
        if self._latch.tripped:
            raise KeyboardInterrupt

    def close(self) -> None:
        if not self.started or self.closed:
            if self._finalizer is not None and not self.closed:
                self.closed = True
                self._finalizer()
            return
        self.closed = True
        perf_total: Dict[str, int] = {}
        degradation_total: Dict[str, int] = {}
        for conn in self._conns:
            try:
                conn.send(("stop",))
                if conn.poll(10):
                    reply = conn.recv()
                    if reply and reply[0] == "stopped":
                        _merge_counts(perf_total, reply[1])
                        _merge_counts(degradation_total, reply[2])
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self.worker_perf = perf_total
        self.worker_degradation = degradation_total
        PERF.absorb(perf_total)
        self._latch.restore()
        self._detach_object_layer()
        if self._finalizer is not None:
            self._finalizer()

    def _detach_object_layer(self) -> None:
        """Copy every object-layer view out of shared memory before the
        segments are unlinked: bound ledger balances return to plain
        attributes and the world's alpha vector becomes a private
        array.  Without this, a post-run
        ``bank.audit()`` (or any later world access) would read through
        an unmapped buffer."""
        if self._ledger is not None:
            self._ledger.unbind_balances()
            self._ledger = None
        world = self.world
        if world.alpha_flat is not None:
            world.alpha_flat = np.array(world.alpha_flat, dtype=np.float64)
        self._views.clear()

    # -- shared-state publication ---------------------------------------
    def _alloc(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._segments[key] = shm
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        view.fill(0)
        self._views[key] = view
        return view

    def publish_topology(self) -> None:
        """Copy the (re)built topology into the shared segments, rebind
        the world's alpha vector to its shared slot, partition the
        state axis and re-arm every worker."""
        world = self.world
        n_edges = world.n_edges
        n_children = int(world.st_child_edge.size)
        size = world.size
        if (
            n_edges > self._e_cap
            or n_children > self._c_cap
            or size > self._size_cap
        ):
            raise ShardCapacityError(
                f"overlay outgrew the shared-memory reserve: edges {n_edges}/"
                f"{self._e_cap}, children {n_children}/{self._c_cap}, "
                f"id space {size}/{self._size_cap} — raise ShardConfig.slack"
            )
        views = self._views
        views["nbr"][:n_edges] = world.nbr_flat
        views["stc"][:n_edges] = world.st_counts
        views["sto"][: world.st_offsets.size] = world.st_offsets
        views["che"][:n_children] = world.st_child_edge
        views["cnp"][:n_children] = world.st_child_not_pred
        alpha_view = views["alpha"][:n_edges]
        alpha_view[:] = world.alpha_flat
        world.alpha_flat = alpha_view
        bounds = self._partition(n_edges, n_children)
        for k, conn in enumerate(self._conns):
            s0, s1 = bounds[k], bounds[k + 1]
            c0 = int(world.st_offsets[s0]) if n_edges else 0
            c1 = int(world.st_offsets[s1]) if n_edges else 0
            conn.send(("topo", (size, n_edges, s0, s1, c0, c1)))
        self._collect_acks("topo")

    def _partition(self, n_edges: int, n_children: int) -> List[int]:
        """Contiguous state ranges with balanced child counts, found by
        bisecting the unclipped child offsets.  Deterministic in the
        topology and the shard count alone."""
        K = self.n_shards
        if n_edges == 0:
            return [0] * (K + 1)
        offsets = self.world.st_offsets
        bounds = [0]
        for k in range(1, K):
            target = (n_children * k) // K
            bounds.append(int(np.searchsorted(offsets, target, side="left")))
        bounds.append(n_edges)
        for i in range(1, len(bounds)):  # guard monotonicity on degenerate shapes
            if bounds[i] < bounds[i - 1]:
                bounds[i] = bounds[i - 1]
        return bounds

    def publish_mask(self, mask: np.ndarray) -> None:
        self._views["online"][: mask.size] = mask
        self._mask_epoch += 1

    # -- the sharded kernel call ----------------------------------------
    def build_levels(self, fr, base_q: np.ndarray, need: int) -> None:
        """Run one whole backward-induction build — ``need`` new levels
        appended to the frontier's stack — as a single dispatch per
        plane-capacity chunk.  The coordinator publishes the base
        quality row and the previous level into plane 0, the workers
        compute planes ``1..n_new`` (synchronising between levels on
        the shared barrier), and the coordinator appends private copies
        so frontier state keeps the base planner's ownership semantics.
        """
        world = self.world
        n_edges = world.n_edges
        views = self._views
        lsum = views["lsum"]
        ln = views["ln"]
        views["q"][:n_edges] = base_q
        built = 0
        while built < need:
            n_new = min(need - built, self.max_levels)
            lsum[0, :n_edges] = fr.levels_sum[-1]
            ln[0, :n_edges] = fr.levels_n[-1]
            for conn in self._conns:
                conn.send(("levels", self._mask_epoch, int(fr.responder), n_new))
            self._collect_acks("levels")
            for i in range(1, n_new + 1):
                fr.levels_sum.append(lsum[i, :n_edges].copy())
                fr.levels_n.append(ln[i, :n_edges].copy())
            built += n_new
        if self._latch.tripped:
            # Drain point: the in-flight build completed; unwind so the
            # scenario's finally-block tears the engine down cleanly.
            raise KeyboardInterrupt

    def _collect_acks(self, label: str) -> None:
        for k, conn in enumerate(self._conns):
            reply = conn.recv()
            if reply[0] != "ok":
                raise RuntimeError(
                    f"shard worker {k} failed during {label!r}: {reply[1:]}"
                )
