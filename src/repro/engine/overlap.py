"""Overlapped KV cache access: the Section 3.2 timing models.

Two mechanisms hide KV transfer latency behind computation:

* **Layer-wise pre-loading** (Section 3.2.1, Figures 6-7): while the GPU
  computes transformer layer *i*, the read stream loads the KV cache of
  later layers.  An HBM *read buffer* of ``B`` layers lets the stream start
  during the previous job, so the first ``B`` layers' KV is already
  resident when computation begins.
* **Asynchronous saving** (Section 3.2.2, Figure 8): newly produced KV is
  written back layer by layer while decoding continues; an HBM *write
  buffer* absorbs the unfinished tail so the next job is not blocked.

Both models work on aggregate per-job times; the per-layer pipeline
recurrence reproduces the partial-overlap gaps of Figure 7 exactly.
"""

from __future__ import annotations


def no_preload_prefill_time(compute_time: float, load_time: float) -> float:
    """Prefill duration when the KV cache is loaded up front (NO-PL):
    the full transfer strictly precedes computation."""
    _check_nonneg(compute_time, load_time)
    return load_time + compute_time


def layerwise_prefill_time(
    n_layers: int,
    compute_time: float,
    load_time: float,
    buffer_layers: int = 0,
) -> float:
    """Prefill duration with layer-wise pre-loading (PL-B<buffer_layers>).

    Args:
        n_layers: transformer layer count ``L``.
        compute_time: total prefill computation time of the new tokens.
        load_time: total KV-cache transfer time of the historical tokens.
        buffer_layers: read-buffer depth ``B`` — layers whose KV was
            pre-loaded before the job started (0 = no read buffer).

    Returns:
        The finish time of the last layer's computation.  Per layer,
        compute takes ``c = compute_time / L`` and the load stream delivers
        one layer's KV every ``d = load_time / L``; layer ``i`` computes at
        ``max(finish(i-1), load_finish(i)) + c`` where layers below ``B``
        are ready at time 0 and layer ``i >= B`` is ready at
        ``(i - B + 1) * d``.

    Unrolling the recurrence gives ``finish = max_i(ready(i) + (L-i)*c)``:
    the critical path enters the pipeline at exactly one layer ``i`` and
    computes straight through from there.  ``ready`` is piecewise linear in
    ``i``, so the maximum sits at a segment endpoint — ``i = 0`` (pure
    compute), ``i = B`` (first unbuffered layer) or ``i = L-1`` (the drain-
    limited tail) — and the whole pipeline solves in O(1).
    """
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if buffer_layers < 0:
        raise ValueError(f"buffer_layers must be >= 0, got {buffer_layers}")
    _check_nonneg(compute_time, load_time)
    c = compute_time / n_layers
    d = load_time / n_layers
    b = min(buffer_layers, n_layers)
    if b >= n_layers:
        # Every layer's KV is pre-buffered: pure compute.
        return n_layers * c
    # Critical path entering at the first unbuffered layer vs. at the last
    # layer; the max over the linear segment is attained at one of the two.
    head = d + (n_layers - b) * c
    tail = (n_layers - b) * d + c
    finish = max(head, tail)
    if b > 0:
        # With a buffer, the path may also enter at layer 0 (ready at 0).
        finish = max(finish, n_layers * c)
    return finish


def layerwise_prefill_time_reference(
    n_layers: int,
    compute_time: float,
    load_time: float,
    buffer_layers: int = 0,
) -> float:
    """Reference O(L) recurrence for :func:`layerwise_prefill_time`.

    Evaluates the per-layer pipeline literally (Figures 6-7).  Kept as the
    oracle for the property test pinning the closed form; the serving hot
    path uses the O(1) solution above.
    """
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if buffer_layers < 0:
        raise ValueError(f"buffer_layers must be >= 0, got {buffer_layers}")
    _check_nonneg(compute_time, load_time)
    c = compute_time / n_layers
    d = load_time / n_layers
    b = min(buffer_layers, n_layers)
    finish = 0.0
    for layer in range(n_layers):
        ready = 0.0 if layer < b else (layer - b + 1) * d
        finish = max(finish, ready) + c
    return finish


def preload_speedup(
    n_layers: int, compute_time: float, load_time: float, buffer_layers: int
) -> float:
    """Fractional prefill-time reduction of PL-B<buffer> over NO-PL."""
    base = no_preload_prefill_time(compute_time, load_time)
    if base <= 0.0:
        return 0.0
    return 1.0 - layerwise_prefill_time(
        n_layers, compute_time, load_time, buffer_layers
    ) / base


def perfect_overlap_buffer_layers(
    n_layers: int, compute_time: float, load_time: float
) -> int:
    """Smallest read-buffer depth achieving (near-)perfect overlap.

    Perfect overlap means the prefill finishes at
    ``max(compute_time, residual stream time) ~= compute_time`` — i.e. no
    inter-layer gap remains.  Derived from the pipeline recurrence: gaps
    vanish once ``B >= L * (1 - c/d)`` when ``d > c``.
    """
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    _check_nonneg(compute_time, load_time)
    if load_time <= compute_time:
        return 0
    c = compute_time / n_layers
    d = load_time / n_layers
    needed = n_layers * (1.0 - c / d)
    return min(n_layers, max(0, int(needed) + 1))


def async_save_blocking_time(
    save_time: float,
    overlap_window: float,
    n_layers: int,
    write_buffer_layers: int = 0,
) -> float:
    """GPU blocking caused by saving a job's KV cache, with async writes.

    Args:
        save_time: time to write the job's full KV cache to host memory.
        overlap_window: computation time the write stream can hide behind —
            for the prefill-phase KV this is the decoding phase, and for
            decode-phase KV the remaining decode iterations (Section 3.2.2).
        n_layers: transformer layer count.
        write_buffer_layers: HBM write-buffer depth; unfinished KV of up to
            this many layers is parked in the buffer instead of blocking
            the next job.

    Returns:
        Residual blocking time on the critical path (0 when the write is
        fully hidden).
    """
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if write_buffer_layers < 0:
        raise ValueError(
            f"write_buffer_layers must be >= 0, got {write_buffer_layers}"
        )
    _check_nonneg(save_time, overlap_window)
    buffered = min(write_buffer_layers, n_layers) / n_layers * save_time
    blocking = max(0.0, save_time - overlap_window - buffered)
    return blocking


def sync_save_blocking_time(save_time: float) -> float:
    """GPU blocking with the baseline write-after-finish scheme: the full
    save sits on the critical path (Figure 8a)."""
    _check_nonneg(save_time)
    return save_time


def overlap_exposure(
    compute_time: float, load_time: float, overlapped_duration: float
) -> tuple[float, float]:
    """Split a KV load into its (hidden, exposed) parts.

    Given a prefill whose pure compute takes ``compute_time``, whose KV
    preload takes ``load_time``, and whose overlapped wall time came out
    as ``overlapped_duration`` (from :func:`layerwise_prefill_time` or
    :func:`no_preload_prefill_time`), the load time the turn actually
    *paid* is ``overlapped_duration - compute_time``; the rest was hidden
    behind computation.  Observation helper for trace annotation — it
    derives from already-computed durations and feeds nothing back.

    Returns:
        ``(hidden, exposed)`` with ``hidden + exposed == load_time`` up to
        clamping at 0 for degenerate inputs.
    """
    _check_nonneg(compute_time, load_time, overlapped_duration)
    exposed = max(0.0, overlapped_duration - compute_time)
    hidden = max(0.0, load_time - exposed)
    return hidden, exposed


def _check_nonneg(*values: float) -> None:
    for value in values:
        if value < 0:
            raise ValueError(f"times must be non-negative, got {value}")
