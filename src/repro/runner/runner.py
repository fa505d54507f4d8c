"""Process-parallel sweep execution.

``run_sweep`` is the one entry point.  Three properties it guarantees:

* **Determinism** — results are returned in point order regardless of
  completion order, each point's seed comes from
  :func:`~repro.runner.seeds.seed_for`, and ``jobs=1`` runs everything
  inline in the parent (the bit-identical reference a parallel run is
  tested against).
* **Spawn safety** — workers run under the ``spawn`` start method (the
  only one available everywhere and the only one that cannot inherit a
  forked copy of the parent's warmed-up caches, which would make results
  depend on parent state).  Workers and point params must therefore be
  picklable: module-level functions, no closures.
* **Crash containment** — an exception inside a worker is caught in the
  child and returned as that point's error; a worker process *dying*
  (OOM kill, segfault) breaks the pool, which surfaces as errors on the
  affected points while completed points keep their results.  A sweep
  never hangs on a lost worker.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from .points import PointResult, SweepPoint
from .seeds import seed_for

#: A worker takes ``(point, seed)`` and returns the point's value.  It
#: must be defined at module level (spawn pickles it by reference).
SweepWorker = Callable[[SweepPoint, int], Any]

#: Set in every worker process so point code can detect it runs inside a
#: sweep (and e.g. keep any nested sweep of its own serial).
WORKER_ENV_FLAG = "REPRO_SWEEP_WORKER"


def in_sweep_worker() -> bool:
    """True when called from inside a sweep worker process."""
    return os.environ.get(WORKER_ENV_FLAG) == "1"


def _init_worker() -> None:
    os.environ[WORKER_ENV_FLAG] = "1"


def _execute_point(worker: SweepWorker, point: SweepPoint, seed: int) -> PointResult:
    """Run one point, capturing any exception as the point's error.

    Runs in the child for parallel sweeps and in the parent for
    ``jobs=1`` — same code path, so error semantics don't depend on the
    job count.
    """
    # The three perf_counter reads below time the *host-side* execution of
    # a sweep point for operator reporting; the value never feeds simulated
    # state or results, so determinism is unaffected.
    start = time.perf_counter()
    try:
        value = worker(point, seed)
    except Exception:
        return PointResult(
            key=point.key,
            error=traceback.format_exc(),
            duration=time.perf_counter() - start,
        )
    return PointResult(
        key=point.key,
        value=value,
        duration=time.perf_counter() - start,
    )


def run_sweep(
    worker: SweepWorker,
    points: Iterable[SweepPoint],
    *,
    jobs: int = 1,
    base_seed: int = 0,
) -> list[PointResult]:
    """Execute every sweep point and return results in point order.

    Args:
        worker: module-level callable ``(point, seed) -> value``.
        points: the sweep grid; keys must be unique.
        jobs: worker processes; ``<= 1`` runs inline in this process.
        base_seed: experiment-level seed each point's seed derives from.
    """
    point_list = list(points)
    keys = [p.key for p in point_list]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate sweep point keys: {dupes}")
    seeds = [seed_for(base_seed, p.key) for p in point_list]

    if jobs <= 1 or len(point_list) <= 1:
        return [
            _execute_point(worker, point, seed)
            for point, seed in zip(point_list, seeds)
        ]

    context = multiprocessing.get_context("spawn")
    results: list[PointResult | None] = [None] * len(point_list)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(point_list)),
        mp_context=context,
        initializer=_init_worker,
    ) as pool:
        futures = [
            pool.submit(_execute_point, worker, point, seed)
            for point, seed in zip(point_list, seeds)
        ]
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                # The worker process died without returning (OOM kill,
                # segfault, interpreter abort).  Attribute the crash to
                # this point; sibling futures on the broken pool fail
                # the same way and get their own per-point error.
                results[index] = PointResult(
                    key=point_list[index].key,
                    error=(
                        "worker process crashed before returning "
                        "(BrokenProcessPool)"
                    ),
                )
            except Exception:  # defensive: pickling errors on the result
                results[index] = PointResult(
                    key=point_list[index].key, error=traceback.format_exc()
                )
    return [r for r in results if r is not None]
