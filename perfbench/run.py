"""The plan-request benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-plan --seed 0 --seconds 30 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cold-plan``  — in-process full searches (:mod:`cold_plan`);
* ``warm-cli``   — ``python -m repro plan`` children on a warm cache
  (:mod:`warm_cli`);
* ``daemon-mix`` — a ``python -m repro serve`` daemon under a Zipf
  request stream (:mod:`daemon_mix`).

The program is run from this checkout's ``src`` and is never modified.
``--trace 0`` measures without shims and reports the end-to-end metrics;
``--trace 1`` alternates shimmed and plain units of work (:mod:`layers`)
and reports the per-layer metrics and the tracing overhead instead.
The last line of standard output is the result object; problems go to
standard error.  Without ``src/repro`` the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Tuple

from common import ROOT, SRC, WORK_ROOT, Outcome
import cold_plan
import daemon_mix
import warm_cli

WORKLOADS = {"cold-plan": cold_plan, "warm-cli": warm_cli,
             "daemon-mix": daemon_mix}

#: Per-layer metrics a workload does not exercise report 0.
NOT_MEASURED = {
    "cold-plan": set(daemon_mix.SERVICE_METRICS),
    "warm-cli": set(daemon_mix.SERVICE_METRICS) | {"cold.predicted_iter_s"},
    "daemon-mix": {"cold.predicted_iter_s"},
}


def declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the program's default plan-cache and crash-dump directories are under
    # $HOME; point them into the checkout (children inherit these)
    os.environ["KARMA_PLAN_CACHE_DIR"] = str(WORK_ROOT / "plans")
    os.environ["KARMA_FLIGHT_DIR"] = str(WORK_ROOT / "flight")
    trace = bool(args.trace)
    want = declared(trace)

    out = Outcome()
    WORKLOADS[args.workload].run(args.seed, args.seconds, trace, out)
    metrics: Dict[str, Tuple[float, str]] = dict(out.metrics)
    if trace:
        for name in NOT_MEASURED[args.workload]:
            metrics.setdefault(name, (0.0, want.get(name, "")))
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"error: emitted metrics differ from BENCHMARK.json: "
              f"extra {sorted(set(got.items()) - set(want.items()))}, "
              f"missing {sorted(set(want.items()) - set(got.items()))}",
              file=sys.stderr)
        return 1
    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
