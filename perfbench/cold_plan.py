"""``cold-plan``: the full search, two closed-loop callers.

Every request calls ``repro.cli.plan_config_full`` (what ``plan_config``
wraps) against an empty plan-cache directory, so it misses, searches and
stores.  This is the path the daemon's cold tier and elastic replans take.
The seeded order cycles through a mix whose cost sits in different layers:
the simulator and local search dominate resnet200/abci, the Opt-1 DP
dominates resnet1001.

Load: one worker process per core (two), each a single in-process caller
running the closed loop over the mix, the second starting half a cycle
further on.  A plan of the heavy configs takes seconds, so one caller gets
only a handful of each per run; two double that.  The parent process only
starts the workers, waits for them and merges what they measured.

Run as a script, this module is one worker::

    python3 perfbench/cold_plan.py WORKER SEED SECONDS TRACE RESULT.json
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

from common import BENCH, Config, Outcome, WorkDir, child_env, config_dict, \
    config_name, quantile, same_plan, stop_process, wait_child
import layers

MIX: List[Config] = [
    ("resnet200", 16, "abci"), ("resnet200", 12, "none"),
    ("resnet1001", 256, "none"), ("resnet50", 640, "none"),
    ("vgg16", 128, "none"), ("wrn28_10", 1024, "none"), ("unet", 24, "none"),
]
WORKERS = 2

#: Fresh interpreters timed importing the package before the workers start
#: (with the workers' own imports: five set-up samples).
EXTRA_IMPORTS = 3

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=child_env(), check=True, capture_output=True,
                         text=True).stdout
    return float(out.strip().splitlines()[-1])


def _final_makespan(record: Dict[str, Any], kp: Any) -> float:
    """Simulated iteration time of the plan as returned (after Opt-2)."""
    if kp.recompute is not None:
        return float(kp.recompute.makespan_after)
    return float(record["makespan_s"])


def worker(index: int, seed: int, seconds: float, trace: bool,
           result: Path) -> None:
    """One closed-loop caller; writes what it measured to ``result``."""
    t0 = time.perf_counter()
    import repro.cli as cli
    import_s = time.perf_counter() - t0

    order = list(MIX)
    random.Random(seed).shuffle(order)
    shift = index * len(order) // WORKERS
    order = order[shift:] + order[:shift]
    clock = layers.LayerClock()
    checks: List[List[Any]] = []
    work = result.parent / f"worker-{index}"
    work.mkdir()
    serial = itertools.count()

    def plan_one(cfg: Config) -> tuple:
        cache_dir = work / f"cache-{next(serial)}"
        cache_dir.mkdir()
        gc.collect()   # the previous request's garbage is not ours
        t = time.perf_counter()
        record, kp = cli.plan_config_full(
            config_dict(cfg), cache_dir=str(cache_dir), n_workers=1)
        latency = time.perf_counter() - t
        stored = (cache_dir / f"{record['cache_key']}.json").is_file()
        shutil.rmtree(cache_dir)
        return record, kp, latency, stored

    # untimed warm-up cycle: also the reference every later plan of the
    # same config must reproduce
    refs: Dict[str, Dict[str, Any]] = {}
    for cfg in order:
        record, kp, _, _ = plan_one(cfg)
        refs[config_name(cfg)] = dict(
            record, final_makespan=_final_makespan(record, kp))

    latencies: Dict[str, List[float]] = {config_name(c): [] for c in order}
    cycle_s: Dict[bool, List[float]] = {False: [], True: []}
    traced_requests = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(cycle_s[False]) > len(cycle_s[True])
        if traced:
            clock.install()
        wall = 0.0
        try:
            for cfg in order:
                record, kp, latency, stored = plan_one(cfg)
                wall += latency
                ref = refs[config_name(cfg)]
                checks.append([
                    record["cache"] == "miss" and stored
                    and same_plan(record, ref)
                    and _final_makespan(record, kp) == ref["final_makespan"],
                    f"{config_name(cfg)}: cold plan differs from the "
                    "warm-up plan or was not stored"])
                if not traced:
                    latencies[config_name(cfg)].append(latency)
        finally:
            clock.uninstall()
        cycle_s[traced].append(wall)
        traced_requests += len(order) if traced else 0
        done = len(cycle_s[False]) + len(cycle_s[True])
        elapsed = time.perf_counter() - start
        if done >= (2 if trace else 1) and elapsed + wall > seconds:
            break

    result.write_text(json.dumps({
        "import_s": import_s, "refs": refs, "latencies": latencies,
        "plain_cycle_s": cycle_s[False], "traced_cycle_s": cycle_s[True],
        "traced_requests": traced_requests, "checks": checks,
        "layers": clock.snapshot(),
    }))


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    imports = [_import_seconds() for _ in range(EXTRA_IMPORTS)]
    with WorkDir("cold-plan") as work:
        procs: List[subprocess.Popen] = []
        try:
            for i in range(WORKERS):
                log = (work / f"worker-{i}.log").open("w")
                procs.append(subprocess.Popen(
                    [sys.executable, str(BENCH / "cold_plan.py"), str(i),
                     str(seed), str(seconds), str(int(trace)),
                     str(work / f"worker-{i}.json")],
                    env=child_env(), stdout=log, stderr=subprocess.STDOUT))
                log.close()
            ended = [wait_child(proc) for proc in procs]
        finally:
            for proc in procs:
                stop_process(proc)
        for i, (rc, _) in enumerate(ended):
            if rc != 0:
                tail = (work / f"worker-{i}.log").read_text()[-2000:]
                raise RuntimeError(f"cold-plan worker {i} exited {rc}:\n"
                                   f"{tail}")
        results = [json.loads((work / f"worker-{i}.json").read_text())
                   for i in range(WORKERS)]

    imports += [r["import_s"] for r in results]
    refs = results[0]["refs"]
    for r in results:
        for ok, what in r["checks"]:
            out.check(ok, what)
    for name, ref in refs.items():
        out.check(all(same_plan(r["refs"][name], ref)
                      and r["refs"][name]["final_makespan"]
                      == ref["final_makespan"] for r in results),
                  f"{name}: the workers' plans differ")

    if not trace:
        # host contention only ever adds time, so each config's fastest
        # plan in the run is its least disturbed measurement
        best = sorted(min(t for r in results for t in r["latencies"][name])
                      for name in refs)
        out.metrics.update({
            "setup_s": (median(imports), "s"),
            "peak_rss_mb": (max(rss for _, rss in ended), "MB"),
            "plans_per_s": (len(best) / sum(best), "1/s"),
            "latency_s.p50": (quantile(best, 50), "s"),
            "latency_s.p75": (quantile(best, 75), "s"),
        })
        return
    snap = layers.merge(r["layers"] for r in results)
    layers.check_fired(snap, [site for site, *_ in layers.SITES])
    plain = [t for r in results for t in r["plain_cycle_s"]]
    shimmed = [t for r in results for t in r["traced_cycle_s"]]
    out.metrics.update(layers.layer_metrics(
        snap, sum(r["traced_requests"] for r in results)))
    out.metrics.update({
        "import.s": (median(imports), "s"),
        "cold.predicted_iter_s": (sum(r["final_makespan"]
                                      for r in refs.values()), "sim_s"),
        "tracing_overhead_frac": (median(shimmed) / median(plain) - 1.0,
                                  "ratio"),
    })


if __name__ == "__main__":
    worker(int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]),
           bool(int(sys.argv[4])), Path(sys.argv[5]))
