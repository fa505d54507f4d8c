"""SimSan: a runtime sanitizer for the CachedAttention simulator.

SimSan checks properties of a *run*.  When enabled it instruments the live
objects — no behavioural change, only assertions — and verifies, per
simulated event:

* the event clock never goes backwards and nothing is scheduled in the
  past (discrete-event soundness);
* every engine's HBM reservation stays within the budget left after
  weights and the §3.2 read/write access buffers (occupancy bounds);
* AttentionStore byte/tier accounting is conserved after every mutation
  (:meth:`AttentionStore.check_invariants` — tier exclusivity, capacity,
  dirty-token state);
* every §3.3.1 prefetch plan equals the reference window walk
  (:func:`~repro.store.prefetch.plan_prefetches`), and the incremental
  planner's state — charges, prefix sums, disk candidates — equals a
  recomputation from the store and the queue; the reference budget
  recounts the pinned sessions' DRAM bytes from the store's pin set;
* an engine's admitted (prefilling or decoding) sessions are exactly its
  store's pin set;
* across a cluster, a session's KV cache is resident on at most one
  replica (the §3.3 exactly-one-copy contract), re-checked immediately
  after every migration;
* the §3.2 overlap timing models stay inside their analytic envelope
  (``compute <= overlapped duration <= compute + load``);
* every turn's accounting identities: prompt = reused + new, shared <=
  reused <= available, the history drop is whole §3.4 cuts (or all of
  it), and a save moves the KV the turn's session now holds in the store
  less what the turn loaded from it; at the end of a crash-free run,
  GPU-busy time equals the sum of the turns' GPU time up to rounding.

Activation: pass ``sanitize=True`` (or ``--sanitize`` on the CLI) to
``ServingEngine``/``ClusterEngine``, or set ``REPRO_SANITIZE=1`` in the
environment (how the test suite runs its sanitizer smoke pass).  A
violation raises :class:`SimSanError` at the first event that exhibits it.

Cost: cheap O(1) checks run on every event; store invariant sweeps are
O(resident items) and run every :data:`DEFAULT_MUTATION_STRIDE`-th store
mutation (a corruption is still caught within that many mutations of its
introduction) — set ``REPRO_SANITIZE_STRIDE=1`` for per-mutation sweeps
when bisecting, or larger values for very large replays.
"""

from __future__ import annotations

import os
import sys
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .cluster.engine import ClusterEngine
    from .engine.engine import ServingEngine
    from .engine.metrics import TurnRecord
    from .engine.truncation import TruncationOutcome, TurnPlan
    from .sim.loop import Simulator
    from .store.attention_store import AttentionStore
    from .store.policy import QueueView

SANITIZE_ENV = "REPRO_SANITIZE"
STRIDE_ENV = "REPRO_SANITIZE_STRIDE"

#: Store mutations between invariant sweeps (each sweep is O(resident
#: items)); keeps sanitizer overhead well under 2x on full replays.
DEFAULT_MUTATION_STRIDE = 8

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class SimSanError(AssertionError):
    """A SimSan invariant violation (the run state is corrupt)."""


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


def _mutation_stride() -> int:
    raw = os.environ.get(STRIDE_ENV, "").strip()
    if not raw:
        return DEFAULT_MUTATION_STRIDE
    stride = int(raw)
    if stride <= 0:
        raise ValueError(f"{STRIDE_ENV} must be a positive integer, got {raw!r}")
    return stride


class SimSanitizer:
    """Sanitizer state attached to one :class:`Simulator`.

    One instance exists per simulator (shared by all replicas in a
    cluster); :func:`for_simulator` creates or returns it.  Checks come in
    two flavours: *event checks* run after every processed event (must be
    O(1)), *stride checks* run every :attr:`event_stride` events (may scan
    run state).
    """

    #: Events between stride-check sweeps; cross-replica scans are
    #: O(resident sessions), so they amortise over a batch of events.
    event_stride: int = 64

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.mutation_stride = _mutation_stride()
        self._last_event_time = sim.now
        self._events_seen = 0
        self._event_checks: list[tuple[str, Callable[[], None]]] = []
        self._stride_checks: list[tuple[str, Callable[[], None]]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Check registry
    # ------------------------------------------------------------------
    def add_event_check(self, name: str, check: Callable[[], None]) -> None:
        """Register an O(1) check to run after every event."""
        self._event_checks.append((name, check))

    def add_stride_check(self, name: str, check: Callable[[], None]) -> None:
        """Register a state scan to run every :attr:`event_stride` events."""
        self._stride_checks.append((name, check))

    def run_checks(self, include_stride: bool = True) -> None:
        """Run registered checks now (also called from the event hook)."""
        checks = self._event_checks + (self._stride_checks if include_stride else [])
        for name, check in checks:
            try:
                check()
            except SimSanError:
                raise
            except AssertionError as exc:
                raise SimSanError(f"{name}: {exc}") from exc

    # ------------------------------------------------------------------
    # Simulator instrumentation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Instrument the simulator: schedule guards + per-event hook."""
        if self._installed:
            return
        sim = self.sim
        orig_at = sim.at
        orig_after = sim.after

        def checked_at(time: float, callback: Callable[[], None]) -> None:
            if time < sim.now:
                raise SimSanError(
                    f"event scheduled in the past: t={time} < now={sim.now}"
                )
            orig_at(time, callback)

        def checked_after(delay: float, callback: Callable[[], None]) -> None:
            if delay < 0:
                raise SimSanError(f"event scheduled with negative delay {delay}")
            orig_after(delay, callback)

        # Instance-level shadowing: the class stays untouched, so other
        # simulators in the process run unsanitized.
        sim.at = checked_at  # type: ignore[method-assign]
        sim.after = checked_after  # type: ignore[method-assign]
        sim.event_hook = self._on_event
        self._installed = True

    def _on_event(self, time: float) -> None:
        if time < self._last_event_time:
            raise SimSanError(
                f"event clock went backwards: {time} after "
                f"{self._last_event_time}"
            )
        self._last_event_time = time
        self._events_seen += 1
        stride_due = self._events_seen % self.event_stride == 0
        self.run_checks(include_stride=stride_due)

    # ------------------------------------------------------------------
    # Store instrumentation
    # ------------------------------------------------------------------
    #: AttentionStore methods that mutate accounting state; each gets an
    #: invariant sweep after it returns.
    STORE_MUTATORS = (
        "save",
        "save_to_hbm_cache",
        "drop",
        "discard_stale",
        "invalidate",
        "truncate",
        "apply_discard_list",
        "extract",
        "admit_migrated",
        "lose_tier",
        "wipe_volatile",
        "restore_offline",
        "decommission",
        "prefetch",
        "complete_fetch",
        "sweep_expired",
        "register_shared",
        "acquire_shared",
        "release_shared",
        "pin",
        "unpin",
    )

    def install_store(self, store: AttentionStore) -> None:
        """Wrap the store's mutators with post-condition invariant sweeps."""
        if getattr(store, "_simsan_installed", False):
            return
        counter = {"mutations": 0}
        stride = self.mutation_stride

        def wrap(name: str, orig: Callable[..., object]) -> Callable[..., object]:
            def checked(*args: object, **kwargs: object) -> object:
                result = orig(*args, **kwargs)
                counter["mutations"] += 1
                if counter["mutations"] % stride == 0:
                    try:
                        store.check_invariants()
                    except AssertionError as exc:
                        raise SimSanError(
                            f"AttentionStore invariants violated after "
                            f"{name}(): {exc}"
                        ) from exc
                return result

            checked.__name__ = f"simsan_{name}"
            return checked

        for name in self.STORE_MUTATORS:
            orig = getattr(store, name, None)
            if orig is not None:
                setattr(store, name, wrap(name, orig))

        def plan_check(queue: QueueView, fetch_ids: list[int]) -> None:
            check_prefetch_plan(store, queue, fetch_ids)

        store.plan_check = plan_check
        store._simsan_installed = True  # type: ignore[attr-defined]


def for_simulator(sim: Simulator) -> SimSanitizer:
    """Create (or return the existing) sanitizer for ``sim``."""
    existing = getattr(sim, "_simsan", None)
    if existing is not None:
        return existing  # type: ignore[no-any-return]
    simsan = SimSanitizer(sim)
    sim._simsan = simsan  # type: ignore[attr-defined]
    return simsan


# ---------------------------------------------------------------------------
# Engine / cluster installers
# ---------------------------------------------------------------------------


def check_prefetch_plan(
    store: AttentionStore, queue: QueueView, fetch_ids: list[int]
) -> None:
    """Assert a prefetch plan equals the §3.3.1 reference walk and the
    planner's state equals a recomputation (run before the plan issues).
    The reference budget recounts the DRAM bytes of the store's pinned
    sessions rather than reading the tier's counter.

    Raises:
        SimSanError: naming the first session (and its queue seq) where
            the plan or the planner's state differs.
    """
    # Local import: repro.store pulls in repro.sim, whose loop imports
    # this module.
    from .store.item import Tier
    from .store.prefetch import WindowEntry, plan_prefetches

    dram = store.dram_tier
    pinned_bytes = 0
    for session_id in store.pinned_sessions:
        item = store.get(session_id)
        if item is not None and item.tier is Tier.DRAM:
            pinned_bytes += item.n_bytes
    budget = int(
        max(0, dram.capacity_bytes - pinned_bytes)
        * store.config.prefetch_capacity_fraction
    )

    def residency(session_id: int) -> WindowEntry | None:
        item = store.get(session_id)
        if item is None or not item.valid:
            return None
        return WindowEntry(
            item.n_bytes, item.tier is Tier.DISK and not item.fetch_in_flight
        )

    reference = [
        decision.session_id
        for decision in plan_prefetches(queue, residency, budget, store.avg_item_bytes)
    ]
    for planned, expected in zip_longest(fetch_ids, reference):
        if planned != expected:
            session = planned if expected is None else expected
            raise SimSanError(
                f"prefetch plan diverged from the reference walk at session "
                f"{session} (queue seq {queue.position_map()[0].get(session)}): "
                f"planned {fetch_ids}, reference {reference}"
            )
    try:
        store.prefetch_planner.check(queue, store.disk_tier.session_ids())
    except AssertionError as exc:
        raise SimSanError(f"prefetch planner state: {exc}") from exc


def install_engine(engine: ServingEngine) -> SimSanitizer:
    """Sanitize one serving engine (and its store, if caching is on)."""
    simsan = for_simulator(engine.sim)
    if getattr(engine, "_simsan_engine_installed", False):
        return simsan
    engine._simsan_engine_installed = True  # type: ignore[attr-defined]
    simsan.install()

    def occupancy() -> None:
        reserved = engine._hbm_reserved_tokens
        budget = engine._hbm_budget_tokens
        assert 0 <= reserved <= budget, (
            f"HBM reservation out of bounds: {reserved} tokens of "
            f"{budget} budget"
        )

    simsan.add_event_check("engine HBM occupancy", occupancy)
    store = engine.store
    if store is not None:
        simsan.install_store(store)

        def pins() -> None:
            admitted = engine._active_sessions
            assert admitted == store.pinned_sessions, (
                f"admitted sessions {sorted(admitted)} != store pin set "
                f"{sorted(store.pinned_sessions)}"
            )

        simsan.add_event_check("engine admitted set is the store pin set", pins)
    return simsan


def check_exactly_one_copy(
    engines: Iterable[ServingEngine], session_id: int | None = None
) -> None:
    """Assert no session's KV cache is resident on two replicas (§3.3).

    With ``session_id`` given, only that session is checked (the cheap
    post-migration probe); otherwise all resident sessions are scanned.

    Shared prefix blocks live under *negative* pseudo session ids and are
    exempt: the invariant for them is exactly one owning copy per content
    hash *per store* (enforced by ``AttentionStore.check_invariants``) —
    two replicas legitimately hold blocks for the same hash, which is how
    a re-migrated session avoids re-shipping its prefix.
    """
    seen: dict[int, int] = {}
    for index, engine in enumerate(engines):
        store = engine.store
        if store is None:
            continue
        if session_id is not None:
            resident = [session_id] if store.get(session_id) is not None else []
        else:
            resident = [s for s in store.resident_sessions() if s >= 0]
        for sid in resident:
            if sid in seen:
                raise SimSanError(
                    f"session {sid} KV cache resident on replicas "
                    f"{seen[sid]} and {index} (exactly-one-copy violated)"
                )
            seen[sid] = index


def install_cluster(cluster: ClusterEngine) -> SimSanitizer:
    """Sanitize a cluster: every replica, plus cross-replica placement.

    The full exactly-one-copy scan runs as a stride check; each migration
    additionally probes the moved session immediately, so a violation is
    reported at the event that introduced it.
    """
    simsan = for_simulator(cluster.sim)
    simsan.install()
    for engine in cluster.engines:
        install_engine(engine)
    simsan.add_stride_check(
        "cluster exactly-one-copy",
        lambda: check_exactly_one_copy(cluster.engines),
    )

    # Local import: repro.sanitize is imported by repro.engine, which the
    # cluster package imports — by the time a cluster exists, the cycle
    # has resolved.
    from .cluster.lifecycle import ReplicaState

    def down_replicas_quiesced() -> None:
        """A crashed replica must hold nothing: no queued or batched
        work, no busy GPU, an empty store (SSD items are parked offline,
        not resident) — anything left would serve from a dead host."""
        for index, life in enumerate(cluster.lifecycles):
            if life.state is not ReplicaState.DOWN:
                continue
            engine = cluster.engines[index]
            assert not engine._gpu_busy, (
                f"replica {index} is down but its GPU is busy"
            )
            assert not engine.queue, (
                f"replica {index} is down but has queued requests"
            )
            assert not engine.batch, (
                f"replica {index} is down but has batched jobs"
            )
            if engine.store is not None:
                assert len(engine.store) == 0, (
                    f"replica {index} is down but its store holds "
                    f"{len(engine.store)} items"
                )

    simsan.add_stride_check("down replicas quiesced", down_replicas_quiesced)

    orig_move = cluster._move_kv

    def checked_move(
        source: ServingEngine,
        target: ServingEngine,
        session_id: int,
        force: bool = False,
    ) -> None:
        orig_move(source, target, session_id, force)
        check_exactly_one_copy(cluster.engines, session_id)

    cluster._move_kv = checked_move  # type: ignore[method-assign]
    return simsan


# ---------------------------------------------------------------------------
# Per-turn accounting identities, checked by the engine
# ---------------------------------------------------------------------------


def check_turn_plan(
    plan: TurnPlan,
    history_before: int,
    kept: TruncationOutcome,
    first_turn: bool,
    window: int,
    ratio: float,
) -> None:
    """Assert a turn's plan adds up against what the window kept."""
    cut = max(1, int(window * ratio))
    prompt, history = kept.prompt_tokens, kept.history_tokens
    available = prompt if first_turn else history
    if (
        plan.reused + plan.new != prompt
        or not 0 <= plan.shared <= plan.reused <= available
        or (history and (history_before - history) % cut)
        or prompt > window
    ):
        raise SimSanError(
            f"turn plan {plan} does not add up: prompt {prompt} of window "
            f"{window}, {available} available, history {history_before} -> "
            f"{history} in cuts of {cut}"
        )


def check_saved_bytes(
    record: TurnRecord, moved: int, stored: int, kv_bytes: Callable[[int], int]
) -> None:
    """Assert a save moved only KV the store did not hold before the turn:
    the ``stored`` tokens it holds for the session now (private item plus
    shared prefix) less the tokens the turn loaded from it."""
    expected = kv_bytes(stored - record.reused_tokens)
    if moved != expected:
        raise SimSanError(
            f"session {record.session_id} turn {record.turn_index} saved "
            f"{moved} bytes, expected {expected}"
        )


def check_gpu_busy(busy: float, records: list[TurnRecord]) -> None:
    """Assert a crash-free run's GPU-busy seconds are its turns' GPU time,
    up to one epsilon per rounding step: one for the prefill, three per
    generated token (busy chunk, share, record sum) and three more to
    total its record."""
    parts = sum(record.gpu_time for record in records)
    steps = sum(3 * r.generated_tokens + 4 for r in records)
    if abs(busy - parts) > steps * sys.float_info.epsilon * max(busy, parts):
        raise SimSanError(f"GPU busy {busy!r} s != turns' GPU time {parts!r} s")


# ---------------------------------------------------------------------------
# Overlap-model envelope (§3.2), checked by the engine
# ---------------------------------------------------------------------------

#: Relative slack for float accumulation in the overlap envelope.
_OVERLAP_RTOL = 1e-9


def check_overlap_envelope(
    duration: float, compute_time: float, load_time: float
) -> None:
    """Assert an overlapped prefill duration is analytically possible.

    Overlap can hide transfer behind compute but never computes faster
    than compute alone, and never does worse than fully serialising the
    transfer: ``compute <= duration <= compute + load`` (§3.2.1).
    """
    slack = _OVERLAP_RTOL * (compute_time + load_time + 1.0)
    if duration < compute_time - slack or duration > compute_time + load_time + slack:
        raise SimSanError(
            f"overlap duration {duration} outside envelope "
            f"[{compute_time}, {compute_time + load_time}]"
        )


def check_save_blocking_envelope(blocking: float, save_time: float) -> None:
    """Assert async-save blocking is within ``[0, save_time]`` (§3.2.2)."""
    slack = _OVERLAP_RTOL * (save_time + 1.0)
    if blocking < -slack or blocking > save_time + slack:
        raise SimSanError(
            f"async-save blocking {blocking} outside envelope [0, {save_time}]"
        )
