"""Repository benchmark: host turns/s and paper-facing simulated outcomes.

Run from the repository root::

    python3 perfbench/run.py --workload chat-light [--seed 2024] [--seconds 10] [--trace 0]

Workloads: chat-light, chat-backlog, share-spill, cluster-crash.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced replays (``--seconds`` sets how many); ``--trace 1`` reports its
per-layer metrics from one traced replay checked against untraced ones.
Host times are CPU seconds normalised by an interleaved reference kernel
(``hostclock.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (trace turns, over all replays) and ``metrics``.
A failed check prints the metric it concerns, reports ``correct`` false
and exits with 1.  ``NOTES.md`` beside this file describes the workloads,
the metrics and which layer change each metric should show.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 2024
DEFAULT_SECONDS = 10.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Replay one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="workload seed (default %(default)s); a claimed gain must also "
        "hold on the held-out seed 7, which is not used while writing it",
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (os.path.join(SRC, "repro", "__init__.py"), SPEC_PATH):
        if not os.path.isfile(needed):
            print(f"perfbench: missing {needed}", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), SPEC_PATH)


if __name__ == "__main__":
    sys.exit(main())
