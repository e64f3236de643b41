"""Self-test: every workload runs at minimum length and reports as declared.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks ``BENCHMARK.json`` against the limits its format allows, checks
that a directory holding only ``BENCHMARK.json`` and ``perfbench/`` gets an
error exit and no result, then runs each workload (all by default) with ``--seconds 1`` (the benchmark still
meets its minimum sample counts) under ``--trace 0`` and ``--trace 1``, and
checks that the last output line is a result whose outputs were correct
and whose metric names and units are exactly the declared end-to-end or
per-layer ones.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower", setup
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("higher", "lower"), m
        assert UNIT.match(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "duplicate names"
    assert len(json.dumps(spec)) <= 64 * 1024


def run_once(command: list, workload: str, trace: int,
             declared: dict) -> None:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == declared, (workload, trace,
                             set(got.items()) ^ set(declared.items()))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) \
            and math.isfinite(m["value"]), name
    print(f"ok  {workload:<11} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_program(command: list) -> None:
    """With only the benchmark's own files present, no result is printed."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            command + ["--workload", "cold-plan", "--seed", "0",
                       "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  refuses to run without src/repro")


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_spec(spec)
        command = [sys.executable] + spec["command"][1:]
        check_refuses_without_program(command)
        for workload in argv or [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                run_once(command, workload, trace,
                         {m["name"]: m["unit"] for m in spec[key]})
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
