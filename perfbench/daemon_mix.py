"""``daemon-mix``: a ``python -m repro serve`` daemon under a Zipf mix.

Each epoch starts a fresh daemon (``--service-workers 2 --pool-workers 2
--max-request-workers 1 --hot-capacity 4``) over a disk cache that already
holds the ``abci`` half of the key universe, sends one epoch of requests
through two :class:`~repro.service.client.PlannerClient` connections in a
closed loop (callers wait for their plan), reads the daemon's own counters
through the ``stats`` op, and stops it with the ``shutdown`` op the way
``serve --stop`` does.  This is the only workload where the hot LRU,
single-flight, the admission queue and the socket path do the work, and
where cold plans on the daemon's threads hold up the requests behind them.

The key universe is the Fig. 5 registry grid x {none, abci}, without the
resnet200 and resnet1001 batches that take seconds each to plan cold (the
``cold-plan`` workload covers those).  Its 46 keys are ten times the hot
LRU, so repeats are served hot or, once evicted, warm from disk.  Each
epoch requests every key at least once plus Zipf shares of the rest; the
seed only orders the requests, so every seed asks for the same work.  The
infeasible unet@32 and unet@40 must come back as ``planning_failed``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import Config, Outcome, WorkDir, child_env, config_dict, \
    config_name, plan_manifest, quantile, repro_cmd, same_plan, \
    stop_process
import layers

_FIG5 = {
    "resnet50": (128, 256, 384, 512, 640, 768),
    "vgg16": (32, 64, 96, 128, 160),
    "wrn28_10": (256, 512, 768, 1024, 1280),
    "unet": (8, 16, 24, 32, 40),
    "resnet200": (4,),
    "resnet1001": (64,),
}
UNIVERSE: List[Config] = [(m, b, h) for m, batches in _FIG5.items()
                          for b in batches for h in ("none", "abci")]
#: (model, batch) pairs no plan fits; the daemon must reject them.
INFEASIBLE = {("unet", 32), ("unet", 40)}
#: Keys whose plans are on disk before the daemon starts (the warm tier).
WARM_HIERARCHY = "abci"
REQUESTS_PER_EPOCH = 150
ZIPF_S = 1.0
CLIENTS = 2
HOT_CAPACITY = 4
SERVE_FLAGS = ["--service-workers", "2", "--pool-workers", "2",
               "--max-request-workers", "1",
               "--hot-capacity", str(HOT_CAPACITY)]

#: Sites the daemon's cold and warm tiers must pass through.
FIRED = ("cli.plan_config_full", "models.build", "costs.profile_graph@planner",
         "cache.plan_digest", "cache.get", "cache.put",
         "core.solve_blocking@planner", "core.build_inputs@blocking",
         "core.portfolio_search@blocking", "core.make_plan@planner",
         "sim.simulate_plan", "sim.simulate@trainer_sim")

#: Per-layer metrics only this workload measures, with their units.
SERVICE_METRICS = {
    "service.tier.hot": "count/epoch", "service.tier.warm": "count/epoch",
    "service.tier.cold": "count/epoch", "service.merged": "count/epoch",
    "service.rejected": "count/epoch", "service.hot_ratio": "ratio",
    "service.planner.s": "s/req", "service.queue_wait_s.p50": "s",
    "service.latency_s.p90": "s", "service.hot_latency_s.p90": "s",
    "service.teardown_errors": "count",
}


def zipf_counts() -> Dict[Config, int]:
    """Requests per key in one epoch: Zipf shares of ``REQUESTS_PER_EPOCH``
    (largest remainder), at least one each.

    Popularity ranks are a fixed shuffle with the infeasible keys last:
    callers rarely repeat a request that failed.
    """
    ranked = [c for c in UNIVERSE if c[:2] not in INFEASIBLE]
    random.Random("daemon-mix popularity").shuffle(ranked)
    ranked += [c for c in UNIVERSE if c[:2] in INFEASIBLE]
    spare = REQUESTS_PER_EPOCH - len(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(share) for share in shares]
    by_remainder = sorted(range(len(ranked)),
                          key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[:REQUESTS_PER_EPOCH - sum(counts)]:
        counts[i] += 1
    return dict(zip(ranked, counts))


def epoch_stream(seed: int, epoch: int) -> List[Config]:
    """One epoch's requests: the fixed Zipf mix in a seeded order."""
    stream = [cfg for cfg, n in zipf_counts().items() for _ in range(n)]
    random.Random(f"daemon-mix {seed} {epoch}").shuffle(stream)
    return stream


def _references(work: Path) -> Tuple[Path, Dict[Config, Dict[str, Any]]]:
    """Plan the universe cold through the CLI; keep the warm half on disk."""
    template = work / "template"
    _, records = plan_manifest(UNIVERSE, template, work / "universe.json")
    refs = dict(zip(UNIVERSE, records))
    for cfg, record in refs.items():
        if "error" not in record and cfg[2] != WARM_HIERARCHY:
            (template / f"{record['cache_key']}.json").unlink()
    (template / "_stats.json").unlink(missing_ok=True)
    return template, refs


def _wait_ready(address: str, proc: subprocess.Popen,
                timeout: float = 60.0) -> None:
    """Poll ``ping`` every 10 ms until the daemon answers."""
    from repro.service.client import PlannerClient
    from repro.service.errors import ServiceRejection

    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        try:
            with PlannerClient(address, timeout=5.0) as conn:
                if conn.ping():
                    return
        except (OSError, ServiceRejection):
            pass
        time.sleep(0.01)
    raise RuntimeError(f"planner daemon did not come up at {address}")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class _Request:
    __slots__ = ("cfg", "t0", "t1", "reply", "code")

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        self.t0 = self.t1 = 0.0
        self.reply: Optional[Dict[str, Any]] = None
        self.code: Optional[str] = None


def _drive(address: str, stream: List[Config]) -> List[_Request]:
    """Send ``stream`` over ``CLIENTS`` closed-loop connections."""
    from repro.service.client import PlannerClient
    from repro.service.errors import ServiceRejection

    requests = [_Request(cfg) for cfg in stream]
    cursor = iter(requests)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            with PlannerClient(address, timeout=120.0) as conn:
                while True:
                    with lock:
                        req = next(cursor, None)
                    if req is None:
                        return
                    req.t0 = time.perf_counter()
                    try:
                        req.reply = conn.plan(config_dict(req.cfg))
                    except ServiceRejection as exc:
                        req.code = exc.code
                    req.t1 = time.perf_counter()
        except BaseException as exc:  # re-raised after the join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return requests


def _check_epoch(requests: List[_Request], refs: Dict[Config, Dict],
                 counters: Dict[str, float], out: Outcome) -> None:
    """Every reply matches the cold plan; tiers follow the cache state.

    Only a key's first flight may plan cold (the plan is on disk after
    it).  A repeat must come back hot when fewer than ``HOT_CAPACITY``
    other keys can have touched the hot LRU since the key's previous
    reply, so the LRU cannot have evicted it.
    """
    first_done: Dict[Config, float] = {}
    for req in sorted(requests, key=lambda r: r.t1):
        if req.reply is not None:
            first_done.setdefault(req.cfg, req.t1)
    served = sorted((r for r in requests if r.reply is not None),
                    key=lambda r: r.t0)
    seen = {"hot": 0, "warm": 0, "cold": 0}
    for i, req in enumerate(served):
        prev = next((p for p in reversed(served[:i])
                     if p.cfg == req.cfg and p.t1 < req.t0), None)
        if prev is not None:
            others = {q.cfg for q in served
                      if q.cfg != req.cfg and q.t1 > prev.t0
                      and q.t0 < req.t1}
            if len(others) < HOT_CAPACITY:
                out.check(req.reply["tier"] == "hot",
                          f"{config_name(req.cfg)}: repeat not served hot")
    for req in requests:
        ref, name = refs[req.cfg], config_name(req.cfg)
        if "error" in ref:
            out.check(req.code == "planning_failed",
                      f"{name}: infeasible config answered {req.code!r}")
            continue
        reply = req.reply or {}
        tier = reply.get("tier")
        if req.t0 < first_done.get(req.cfg, float("inf")):
            tier_ok = tier in ("hot", "warm" if req.cfg[2] == WARM_HIERARCHY
                               else "cold")
        else:
            tier_ok = tier in ("hot", "warm")
        if tier in seen and not reply.get("merged"):
            seen[tier] += 1
        out.check(req.reply is not None and tier_ok
                  and same_plan(reply.get("record") or {}, ref),
                  f"{name}: daemon reply {req.code or tier!r} is wrong")
    for tier, n in seen.items():
        out.check(counters.get(f"service.plans.{tier}", 0) == n,
                  f"stats op counts {tier} plans differently from replies")


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    from repro.service.client import PlannerClient

    with WorkDir("daemon-mix") as work:
        template, refs = _references(work)
        epochs: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while True:
            e = len(epochs)
            traced = trace and e % 2 == 1
            edir = work / f"epoch-{e}"
            shutil.copytree(template, edir / "cache")
            address = os.path.relpath(edir / "d.sock")
            stats_path = edir / "layers.json" if traced else None
            t_begin = time.perf_counter()
            with open(edir / "stderr.txt", "w") as err:
                proc = subprocess.Popen(
                    repro_cmd(["serve", "--socket", address, "--cache-dir",
                               str(edir / "cache"), *SERVE_FLAGS],
                              stats_path),
                    env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
            try:
                _wait_ready(address, proc)
                ready_s = time.perf_counter() - t_begin
                requests = _drive(address, epoch_stream(seed, e))
                with PlannerClient(address, timeout=60.0) as conn:
                    counters = conn.stats()["counters"]
                    hists = (next(conn.telemetry(count=1, interval_s=0.0))
                             ["metrics"]["histograms"] if trace else {})
                    rss = _peak_rss_mb(proc.pid)
                    conn.shutdown()
                try:
                    status = proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    status = None
            finally:
                stop_process(proc)
            stderr = (edir / "stderr.txt").read_text()
            _check_epoch(requests, refs, counters, out)
            epochs.append({
                "traced": traced, "ready_s": ready_s, "rss": rss,
                "requests": requests, "counters": counters, "hists": hists,
                "wall": max(r.t1 for r in requests)
                - min(r.t0 for r in requests),
                "teardown_error": status != 0 or "Traceback" in stderr,
                "layers": (json.loads(stats_path.read_text())
                           if stats_path is not None
                           and stats_path.is_file() else None),
            })
            last = time.perf_counter() - t_begin
            if (len(epochs) >= (2 if trace else 1)
                    and time.perf_counter() - start + last > seconds):
                break

    plain = [ep for ep in epochs if not ep["traced"]]
    latencies = [r.t1 - r.t0 for ep in plain for r in ep["requests"]]
    if not trace:
        out.metrics.update({
            "setup_s": (median([ep["ready_s"] for ep in epochs]), "s"),
            "peak_rss_mb": (max(ep["rss"] for ep in epochs), "MB"),
            "plans_per_s": (median([len(ep["requests"]) / ep["wall"]
                                    for ep in plain]), "1/s"),
            "latency_s.p50": (quantile(latencies, 50), "s"),
            "latency_s.p75": (quantile(latencies, 75), "s"),
        })
        return

    shimmed = [ep for ep in epochs if ep["traced"]]
    if any(ep["layers"] is None for ep in shimmed):
        raise RuntimeError("a traced daemon wrote no layer stats")
    snap = layers.merge(ep["layers"]["layers"] for ep in shimmed)
    layers.check_fired(snap, FIRED)
    out.metrics.update(layers.layer_metrics(
        snap, sum(len(ep["requests"]) for ep in shimmed)))

    def per_epoch(*names: str) -> float:
        return sum(ep["counters"].get(n, 0) for ep in epochs
                   for n in names) / len(epochs)

    every = [r for ep in epochs for r in ep["requests"]]
    hot = [r.t1 - r.t0 for r in every
           if r.reply is not None and r.reply["tier"] == "hot"]
    plan_hist = [ep["hists"].get("service.latency.plan", {}) for ep in plain]
    queue_hist = [ep["hists"].get("service.latency.queue", {})
                  for ep in plain]
    out.metrics.update({
        "import.s": (median([ep["layers"]["import_s"] for ep in shimmed]),
                     "s"),
        "service.tier.hot": (per_epoch("service.plans.hot"), "count/epoch"),
        "service.tier.warm": (per_epoch("service.plans.warm"),
                              "count/epoch"),
        "service.tier.cold": (per_epoch("service.plans.cold"),
                              "count/epoch"),
        "service.merged": (per_epoch("service.singleflight_merges"),
                           "count/epoch"),
        "service.rejected": (per_epoch("service.plan_failures",
                                       "service.rejected.queue_full",
                                       "service.rejected.deadline"),
                             "count/epoch"),
        "service.hot_ratio": (per_epoch("service.plans.hot")
                              / per_epoch("service.requests"), "ratio"),
        "service.planner.s": (sum(h.get("sum", 0.0) for h in plan_hist)
                              / len(latencies), "s/req"),
        "service.queue_wait_s.p50": (median([h.get("p50", 0.0)
                                             for h in queue_hist]), "s"),
        "service.latency_s.p90": (quantile([r.t1 - r.t0 for r in every], 90),
                                  "s"),
        "service.hot_latency_s.p90": (quantile(hot, 90), "s"),
        "service.teardown_errors": (float(sum(ep["teardown_error"]
                                              for ep in epochs)), "count"),
        "tracing_overhead_frac": (median([ep["wall"] for ep in shimmed])
                                  / median([ep["wall"] for ep in plain])
                                  - 1.0, "ratio"),
    })
