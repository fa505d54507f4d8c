"""SimSan: a runtime sanitizer for the CachedAttention simulator.

Static analysis (:mod:`repro.lint`) proves properties of the *code*; SimSan
checks properties of a *run*.  When enabled it instruments the live
objects — no behavioural change, only assertions — and verifies, per
simulated event:

* the event clock never goes backwards and nothing is scheduled in the
  past (discrete-event soundness);
* every engine's HBM reservation stays within the budget left after
  weights and the §3.2 read/write access buffers (occupancy bounds);
* AttentionStore byte/tier accounting is conserved after every mutation
  (:meth:`AttentionStore.check_invariants` — tier exclusivity, capacity,
  dirty-token state);
* across a cluster, a session's KV cache is resident on at most one
  replica (the §3.3 exactly-one-copy contract), re-checked immediately
  after every migration;
* the §3.2 overlap timing models stay inside their analytic envelope
  (``compute <= overlapped duration <= compute + load``), checked in
  :mod:`repro.engine.overlap`.

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
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .cluster.engine import ClusterEngine
    from .engine.engine import ServingEngine
    from .sim.loop import Simulator
    from .store.attention_store import AttentionStore

SANITIZE_ENV = "REPRO_SANITIZE"
STRIDE_ENV = "REPRO_SANITIZE_STRIDE"

#: Store mutations between invariant sweeps (each sweep is O(resident
#: items)); keeps sanitizer overhead well under 2x on full replays.
DEFAULT_MUTATION_STRIDE = 8

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class SimSanError(AssertionError):
    """A SimSan invariant violation (the run state is corrupt)."""


# sanitize_enabled() sits on the engine's per-turn timing path (the
# overlap models self-check when active), so the parsed value is cached
# against the raw environment value.  The guard compares by *identity*:
# a monkeypatched/rewritten value is a fresh object and forces a
# re-parse, while the steady-state call sees the same object and skips
# the decode/strip/lower/set-lookup work.
#
# On CPython the raw value is read straight out of ``os.environ._data``
# (the underlying dict): ``os.environ.get`` funnels through a
# ``__getitem__`` that *raises and catches* KeyError for the common
# unset case, which cProfile shows as thousands of avoidable exception
# round-trips per replay.  ``dict.get`` on the backing store never
# raises, and the stored (encoded) value object is stable between
# mutations, so identity caching works for set *and* unset states.
# Non-CPython mappings without ``_data`` fall back to ``environ.get``.
_environ_data = getattr(os.environ, "_data", None)
_environ_decode = getattr(os.environ, "decodevalue", None)
if _environ_data is None or _environ_decode is None:
    _environ_data = None
    _SANITIZE_KEY: object = SANITIZE_ENV
else:
    _SANITIZE_KEY = os.environ.encodekey(SANITIZE_ENV)
_env_raw_cache: object = object()  # sentinel: never matches a real read
_env_enabled_cache = False


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs."""
    global _env_raw_cache, _env_enabled_cache
    data = _environ_data
    if data is not None:
        raw: object = data.get(_SANITIZE_KEY)
        if raw is _env_raw_cache:
            return _env_enabled_cache
        value = None if raw is None else _environ_decode(raw)
    else:
        raw = os.environ.get(SANITIZE_ENV)
        if raw is _env_raw_cache:
            return _env_enabled_cache
        value = raw
    _env_raw_cache = raw
    _env_enabled_cache = value is not None and value.strip().lower() in _TRUTHY
    return _env_enabled_cache


def _mutation_stride() -> int:
    raw = os.environ.get(STRIDE_ENV, "").strip()
    if not raw:
        return DEFAULT_MUTATION_STRIDE
    stride = int(raw)
    if stride <= 0:
        raise ValueError(f"{STRIDE_ENV} must be a positive integer, got {raw!r}")
    return stride


# Set while any sanitizer is installed in this process; lets leaf timing
# models (repro.engine.overlap) self-check without threading a flag through
# every call site.
_active_sanitizers = 0


def runtime_checks_active() -> bool:
    """True when a SimSan instance is installed or the env flag is set."""
    return _active_sanitizers > 0 or sanitize_enabled()


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
        global _active_sanitizers
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
        _active_sanitizers += 1

    def uninstall(self) -> None:
        """Remove the per-event hook (used by tests; wrappers stay)."""
        if not self._installed:
            return
        global _active_sanitizers
        self.sim.event_hook = None
        self._installed = False
        _active_sanitizers -= 1

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
    if engine.store is not None:
        simsan.install_store(engine.store)
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
# Overlap-model envelope (§3.2), used by repro.engine.overlap
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
