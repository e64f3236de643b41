"""Run one ``python -m repro`` command with the layer shims installed.

Usage::

    python perfbench/launch.py STATS.json -- plan --model unet --batch 24
    python perfbench/launch.py STATS.json -- serve --socket d.sock ...

Times ``import repro.cli``, installs :mod:`layers`' shims, then calls
``repro.cli.main`` with the arguments after ``--``, exactly as
``python -m repro`` would.  When the command returns (for ``serve``: after
the daemon is stopped) the import time and the layer totals are written to
``STATS.json`` and the command's exit status is passed through.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py STATS.json -- <repro cli args>",
              file=sys.stderr)
        return 2
    stats_path, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - t0

    from layers import LayerClock

    clock = LayerClock().install()
    try:
        rc = repro.cli.main(cli_args)
    finally:
        stats_path.write_text(json.dumps(
            {"import_s": import_s, "layers": clock.snapshot()}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
