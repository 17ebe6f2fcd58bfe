"""ZHT benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root::

    python3 zhtperf/run.py --workload micro-132b --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the per-layer view instead: an untraced window, a
traced window (self-time budget per layer), and a single-thread
exact-count pass.  Every reply is checked against a reference model; a
wrong reply makes the run exit 1.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: corrupt one lookup reply in N before it is checked.
    parser.add_argument("--corrupt-every", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: ZHT sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from zhtperf import report
    from zhtperf.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workdir = os.path.join(ROOT, ".zhtperf-work", f"run-{os.getpid()}")
    try:
        if args.trace:
            result = report.traced_run(workload, args.seed, args.seconds, workdir)
        else:
            result = report.timed_run(
                workload, args.seed, args.seconds, workdir, args.corrupt_every
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result, sort_keys=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
