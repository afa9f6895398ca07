"""End-to-end benchmark of the ``repro`` Gumbo reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` makes the traced run that reports the per-layer
metrics (and the tracing overhead against an untraced pass of the same
run).  Every response is checked against the reference evaluator (see
``perfbench/README.md``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("batch-serial", "batch-sharded", "serve-mixed")
INJECTIONS = ("wrong-result", "shed")


def _import_program():
    """Import ``repro`` from this checkout's sources, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        choices=INJECTIONS,
        help="self-test fault injection: corrupt one answer, or shed reads",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = _spec()
    _import_program()

    import batch
    import measure
    import serve

    started = time.perf_counter()
    try:
        if args.workload == "serve-mixed":
            outcome = serve.run(args.seed, args.seconds, bool(args.trace), args.inject)
        else:
            outcome = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace), args.inject
            )
    finally:
        leftover = measure.stop_processes()
        if leftover:
            print(f"perfbench: stopped {leftover} process(es) left running", file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    produced = outcome["metrics"]
    if set(produced) != set(units):
        missing = sorted(set(units) - set(produced))
        extra = sorted(set(produced) - set(units))
        raise SystemExit(f"perfbench: metric mismatch, missing {missing}, extra {extra}")
    bad = [name for name, value in produced.items() if not math.isfinite(value)]
    for name in bad:
        print(f"perfbench: {name} is not finite ({produced[name]})", file=sys.stderr)

    for name, unit in units.items():
        print(f"{name:40s} {produced[name]:14.6g} {unit}")
    for name, value in outcome.get("notes", {}).items():
        print(f"# {name}: {json.dumps(value)}")
    if "record" in outcome:
        print(json.dumps(outcome["record"], indent=1, sort_keys=True))
    print(f"# wall_s: {time.perf_counter() - started:.1f}")

    correct = bool(outcome["correct"]) and not bad
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": produced[name] if name not in bad else None, "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
