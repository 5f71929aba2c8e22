"""One-shot table of worst cases at the work caps each CLI path admits.

    python3 perfbench/worst_case.py [--timeout SECONDS]

Not a workload and not part of a benchmark run: it runs each case once,
one at a time, as a cold `python -m sidon2d` child with a timeout, and
writes the table to `worst_case.json` next to this file, as reference
data for documenting each path's cap.  A case killed at the timeout is
recorded with `"timed_out": true` and its wall time as a lower bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from run import CLI, HERE, Launcher

# (path, cap the path admits, CLI arguments)
CASES = [
    ("search --max-sidon", "group order <= 60", "search --max-sidon 58"),
    ("search --max-sidon", "group order <= 60", "search --max-sidon 59"),
    ("search --max-sidon", "group order <= 60", "search --max-sidon 60"),
    ("search --max-sidon", "group order <= 60", "search --max-sidon 3,3,5"),
    ("search --max-ddc", "tiling volume <= 49", "search --max-ddc --lattice 5,0;0,9"),
    ("construct --family bose", "field order q^2 <= 2^20", "construct --family bose --q 512"),
    ("construct --family bose", "field order q^2 <= 2^20", "construct --family bose --q 1024"),
    ("directions", "none", "directions --lattice 100,0;0,101"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=150.0)
    args = parser.parse_args()
    rows = []
    with Launcher() as launcher:
        for path, cap, argv in CASES:
            child = launcher.run(CLI + tuple(argv.split()), timeout=args.timeout)
            row = {
                "path": path,
                "cap": cap,
                "args": argv,
                "wall_s": round(child.wall_s, 2),
                "timed_out": child.code is None,
                "exit": child.code,
                "peak_rss_mb": round(child.rss_mb, 1),
            }
            print(json.dumps(row), flush=True)
            rows.append(row)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "timeout_s": args.timeout}
    (HERE / "worst_case.json").write_text(json.dumps({"env": env, "cases": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
