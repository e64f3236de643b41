"""Shared plumbing: paths, child processes, statistics, the result record."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Everything a run writes (plan caches, sockets, child logs) lives here.
WORK_ROOT = ROOT / ".perfbench_work"

#: Configs are ``(model, batch, hierarchy)``; the CLI spells them as flags.
Config = Tuple[str, int, str]


def config_dict(cfg: Config) -> Dict[str, Any]:
    model, batch, hierarchy = cfg
    return {"model": model, "batch": batch, "hierarchy": hierarchy}


def config_name(cfg: Config) -> str:
    return f"{cfg[0]}@{cfg[1]}/{cfg[2]}"


def plan_flags(cfg: Config) -> List[str]:
    model, batch, hierarchy = cfg
    return ["--model", model, "--batch", str(batch),
            "--hierarchy", hierarchy]


def child_env() -> Dict[str, str]:
    """The environment children run in: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def repro_cmd(args: Sequence[str], stats: Optional[Path] = None
              ) -> List[str]:
    """``python -m repro ARGS``, or the shimmed launcher when ``stats``."""
    if stats is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(BENCH / "launch.py"), str(stats), "--",
            *args]


def plan_manifest(configs: Sequence[Config], cache_dir: Path,
                  manifest: Path) -> Tuple[float, List[Dict[str, Any]]]:
    """Plan ``configs`` cold through ``python -m repro plan --manifest``
    (two worker processes) into ``cache_dir``; returns the wall time and
    the records, in order (infeasible configs carry an ``error``)."""
    manifest.write_text(json.dumps([config_dict(c) for c in configs]))
    t0 = time.perf_counter()
    done = subprocess.run(
        repro_cmd(["plan", "--manifest", str(manifest), "--cache-dir",
                   str(cache_dir), "--workers", "2", "--json"]),
        env=child_env(), capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    try:
        records = json.loads(done.stdout)
    except ValueError:
        raise RuntimeError(f"manifest plan failed: {done.stderr[-2000:]}")
    return seconds, records


def wait_child(proc: subprocess.Popen) -> Tuple[int, float]:
    """Reap ``proc``; returns ``(exit status, peak RSS in MB)``."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop_process(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if still running and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile as :func:`statistics.quantiles` cuts it."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


class WorkDir:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self, tag: str) -> None:
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass   # another run still uses it


def same_plan(record: Dict[str, Any], ref: Dict[str, Any]) -> bool:
    """Whether two plan records describe the same plan."""
    return (record.get("plan_string") == ref["plan_string"]
            and record.get("makespan_s") == ref["makespan_s"]
            and record.get("blocks") == ref["blocks"])


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked output; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)
        return ok
