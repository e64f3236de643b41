"""Layer shims: time calls into the planner's public functions from outside.

The benchmark never edits the program.  A traced run instead replaces each
measured function *where its caller looks it up* (a module global or a
class attribute) with a shim that records the call count and the
function's self time: its duration minus the time spent in nested shimmed
calls on the same thread.  ``planner.py`` imports ``profile_graph``,
``solve_blocking`` and ``apply_recompute`` by name, and ``blocking.py``
imports the solver functions by name, so those are patched in the
importing module, not where they are defined.

A patch site that no longer exists raises at install time, and
:func:`check_fired` raises when a site the workload must exercise saw no
call, so a moved import fails loudly instead of reading 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (site id, module, attribute path, layer function name).  A layer
#: function patched at several sites (``make_plan``) aggregates under one
#: name; each site is still checked for firing on its own.
SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.plan_config_full", "repro.cli", "plan_config_full",
     "cli.plan_config_full"),
    ("models.build", "repro.models.registry", "build", "models.build"),
    ("costs.profile_graph@planner", "repro.core.planner", "profile_graph",
     "costs.profile_graph"),
    ("cache.plan_digest", "repro.cache.digest", "plan_digest",
     "cache.plan_digest"),
    ("cache.get", "repro.cache.plan_cache", "PlanCache.get", "cache.get"),
    ("cache.put", "repro.cache.plan_cache", "PlanCache.put", "cache.put"),
    ("core.solve_blocking@planner", "repro.core.planner", "solve_blocking",
     "core.solve_blocking"),
    ("core.build_inputs@blocking", "repro.core.blocking", "build_inputs",
     "core.build_inputs"),
    ("core.solve_dp@blocking", "repro.core.blocking", "solve_dp",
     "core.solve_dp"),
    ("core.portfolio_search@blocking", "repro.core.blocking",
     "portfolio_search", "core.portfolio_search"),
    ("core.local_search@blocking", "repro.core.blocking", "local_search",
     "core.local_search"),
    ("core.apply_recompute@planner", "repro.core.planner", "apply_recompute",
     "core.apply_recompute"),
    ("core.make_plan@planner", "repro.core.planner", "make_plan",
     "core.make_plan"),
    ("core.make_plan@blocking", "repro.core.blocking", "make_plan",
     "core.make_plan"),
    ("core.make_plan@recompute", "repro.core.recompute", "make_plan",
     "core.make_plan"),
    ("sim.simulate_plan", "repro.sim.trainer_sim", "simulate_plan",
     "sim.simulate_plan"),
    ("sim.compile_skeleton", "repro.sim.trainer_sim", "compile_skeleton",
     "sim.compile_skeleton"),
    ("sim.bind_costs", "repro.sim.trainer_sim", "bind_costs",
     "sim.bind_costs"),
    ("sim.simulate@trainer_sim", "repro.sim.trainer_sim", "simulate",
     "sim.simulate"),
    ("tiering.assign_tiers", "repro.tiering.placement", "assign_tiers",
     "tiering.assign_tiers"),
)

#: Layer function names, in report order.
FUNCTIONS: Tuple[str, ...] = tuple(dict.fromkeys(s[3] for s in SITES))

#: Work counters recorded at the same boundaries as the spans.
COUNTERS = ("core.candidates_evaluated", "core.candidates_rejected",
            "sim.ops_simulated", "cache.hits")


class ShimMissing(RuntimeError):
    """A patch site or an expected call is gone: the shims are stale."""


def _after_portfolio(clock: "LayerClock", args: tuple, kwargs: dict,
                     out: Any) -> None:
    clock.count("core.candidates_evaluated", out.evaluated)
    clock.count("core.candidates_rejected", len(out.rejected))


def _after_simulate(clock: "LayerClock", args: tuple, kwargs: dict,
                    out: Any) -> None:
    ops = args[0] if args else kwargs["ops"]
    clock.count("sim.ops_simulated", len(ops))


def _after_get(clock: "LayerClock", args: tuple, kwargs: dict,
               out: Any) -> None:
    if out is not None:
        clock.count("cache.hits", 1)


_AFTER: Dict[str, Callable[["LayerClock", tuple, dict, Any], None]] = {
    "core.portfolio_search": _after_portfolio,
    "sim.simulate": _after_simulate,
    "cache.get": _after_get,
}


class LayerClock:
    """Per-function call counts, self and inclusive time, and counters.

    Thread-safe: the planner daemon serves requests on several threads,
    so each thread keeps its own stack of open calls and the totals are
    merged under a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.site_calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._patched: List[Tuple[Any, str, Any]] = []

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] += int(n)

    def _wrap(self, site: str, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        tls = self._tls

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = tls.__dict__.setdefault("stack", [])
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.site_calls[site] = self.site_calls.get(site, 0) + 1
                    self.self_s[name] = (self.self_s.get(name, 0.0)
                                         + dt - child[0])
                    self.incl_s[name] = self.incl_s.get(name, 0.0) + dt
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return shim

    def install(self) -> "LayerClock":
        """Patch every site; raises :class:`ShimMissing` on a stale one."""
        if self._patched:
            return self
        for site, module, attr, name in SITES:
            owner: Any = importlib.import_module(module)
            *parents, leaf = attr.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf)
            if not callable(original):
                self.uninstall()
                raise ShimMissing(f"patch site {module}.{attr} is gone")
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(site, name, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready totals (merge several with :func:`merge`)."""
        with self._lock:
            return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                    "incl_s": dict(self.incl_s),
                    "site_calls": dict(self.site_calls),
                    "counters": dict(self.counters)}


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`LayerClock.snapshot` dicts."""
    out: Dict[str, Any] = {"calls": {}, "self_s": {}, "incl_s": {},
                           "site_calls": {},
                           "counters": {name: 0 for name in COUNTERS}}
    for snap in snapshots:
        for field, table in snap.items():
            for key, value in table.items():
                out[field][key] = out[field].get(key, 0) + value
    return out


def check_fired(snap: Dict[str, Any], sites: Iterable[str]) -> None:
    """Raise :class:`ShimMissing` unless every site in ``sites`` fired."""
    silent = [s for s in sites if not snap["site_calls"].get(s)]
    if silent:
        raise ShimMissing("shims never fired on this workload: "
                          + ", ".join(silent))


def layer_metrics(snap: Dict[str, Any],
                  requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-request layer metrics from a merged snapshot.

    ``.calls`` and self time ``.s`` for every layer function, the work
    counters, the reuse ratios, and ``trace.coverage_frac``: the share of
    ``cli.plan_config_full``'s inclusive time that its shimmed callees'
    self times account for.
    """
    n = max(1, requests)
    calls, self_s, counters = snap["calls"], snap["self_s"], snap["counters"]
    out: Dict[str, Tuple[float, str]] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "calls/req")
        out[f"{name}.s"] = (self_s.get(name, 0.0) / n, "s/req")
    for name in ("core.candidates_evaluated", "core.candidates_rejected",
                 "sim.ops_simulated"):
        out[name] = (counters[name] / n, "count/req")
    sims, priced = calls.get("sim.simulate", 0), calls.get(
        "sim.simulate_plan", 0)
    out["sim.result_reuse_ratio"] = (1.0 - sims / priced if priced else 0.0,
                                     "ratio")
    gets = calls.get("cache.get", 0)
    out["cache.hit_ratio"] = (counters["cache.hits"] / gets if gets else 0.0,
                              "ratio")
    top = snap["incl_s"].get("cli.plan_config_full", 0.0)
    out["trace.coverage_frac"] = (
        1.0 - self_s.get("cli.plan_config_full", 0.0) / top if top else 0.0,
        "ratio")
    return out
