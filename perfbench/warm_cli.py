"""``warm-cli``: ``python -m repro plan --json`` children against a warm cache.

Set-up plans the mix once through the CLI's manifest path, which fills the
disk plan cache and gives the reference records.  Each measured request is
then a whole child process: interpreter start, ``import repro``, graph
build, cost profile, digest and a cache hit.  That is the fixed cost a
user pays on every call; the search and the simulator do no work here.

Two closed-loop slots (one per core) each run one child at a time, so a
run reaches the sample count its percentiles need within the time budget.
"""

from __future__ import annotations

import json
import random
import subprocess
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import Config, Outcome, WorkDir, child_env, config_name, \
    plan_flags, plan_manifest, quantile, repro_cmd, same_plan, \
    stop_process, wait_child
import layers

MIX: List[Config] = [
    ("resnet1001", 256, "none"), ("resnet200", 16, "abci"),
    ("vgg16", 128, "none"), ("unet", 24, "none"),
]
SLOTS = 2
#: Ten samples beyond the reported p75.
MIN_CALLS = 40

#: The sites a cache-hit CLI call must pass through.
FIRED = ("cli.plan_config_full", "models.build", "costs.profile_graph@planner",
         "cache.plan_digest", "cache.get", "core.make_plan@planner")


def _prefill(work: Path) -> Tuple[float, Dict[Config, Dict[str, Any]]]:
    """Plan the mix cold into the cache; returns (seconds, references)."""
    setup_s, records = plan_manifest(MIX, work / "cache", work / "mix.json")
    refs = dict(zip(MIX, records))
    missing = [config_name(c) for c, r in refs.items()
               if r.get("cache") != "miss"]
    if missing:
        raise RuntimeError(f"cache prefill failed for {missing}")
    return setup_s, refs


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    order = list(MIX)
    random.Random(seed).shuffle(order)
    with WorkDir("warm-cli") as work:
        setup_s, refs = _prefill(work)
        lock = threading.Lock()
        live: List[subprocess.Popen] = []
        # (traced, start, end, peak RSS) per finished child
        calls: List[Tuple[bool, float, float, float]] = []
        stats: List[Path] = []
        launched = [0]
        start = time.perf_counter()

        def next_call() -> Optional[int]:
            with lock:
                if (time.perf_counter() - start >= seconds
                        and launched[0] >= MIN_CALLS):
                    return None
                launched[0] += 1
                return launched[0] - 1

        errors: List[BaseException] = []

        def slot() -> None:
            try:
                serve_calls()
            except BaseException as exc:  # re-raised after the join
                errors.append(exc)

        def serve_calls() -> None:
            while (i := next_call()) is not None:
                cfg = order[i % len(order)]
                traced = trace and i % 2 == 1
                stat = work / f"stats-{i}.json" if traced else None
                cmd = repro_cmd(["plan", *plan_flags(cfg), "--json",
                                 "--cache-dir", str(work / "cache")], stat)
                t0 = time.perf_counter()
                with lock:
                    proc = subprocess.Popen(
                        cmd, env=child_env(), stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL)
                    live.append(proc)
                stdout = proc.stdout.read()
                rc, rss = wait_child(proc)
                t1 = time.perf_counter()
                proc.stdout.close()
                try:
                    record = json.loads(stdout)[0]
                except (ValueError, IndexError, KeyError):
                    record = {}
                with lock:
                    live.remove(proc)
                    calls.append((traced, t0, t1, rss))
                    if stat is not None and stat.is_file():
                        stats.append(stat)
                    out.check(rc == 0 and record.get("cache") == "hit"
                              and same_plan(record, refs[cfg]),
                              f"{config_name(cfg)}: warm CLI call failed "
                              "or its plan differs from the cold plan")

        threads = [threading.Thread(target=slot) for _ in range(SLOTS)]
        try:
            for t in threads:
                t.start()
        finally:
            for t in threads:
                t.join()
            for proc in live:
                stop_process(proc)
        if errors:
            raise errors[0]
        loaded = [json.loads(p.read_text()) for p in stats]

    plain = [t1 - t0 for traced, t0, t1, _ in calls if not traced]
    if not trace:
        span = max(c[2] for c in calls) - min(c[1] for c in calls)
        out.metrics.update({
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(c[3] for c in calls), "MB"),
            "plans_per_s": (len(calls) / span, "1/s"),
            "latency_s.p50": (quantile(plain, 50), "s"),
            "latency_s.p75": (quantile(plain, 75), "s"),
        })
        return
    snap = layers.merge(s["layers"] for s in loaded)
    layers.check_fired(snap, FIRED)
    shimmed = [t1 - t0 for traced, t0, t1, _ in calls if traced]
    out.metrics.update(layers.layer_metrics(snap, len(loaded)))
    out.metrics.update({
        "import.s": (median([s["import_s"] for s in loaded]), "s"),
        "tracing_overhead_frac": (median(shimmed) / median(plain) - 1.0,
                                  "ratio"),
    })
