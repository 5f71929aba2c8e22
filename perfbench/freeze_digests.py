"""Freeze the exit code and stdout digest of every benchmark command.

    python3 perfbench/freeze_digests.py [--seeds N]

Runs one untraced pass of each workload for seeds 0 to N-1 and writes
`digests.json` next to this file, keyed by command label (the argv and
the commands feeding its stdin).  The benchmark then requires those
commands to exit 0 with byte-identical stdout.  Run it only at a commit
whose CLI output is the reference: re-freezing after an output change
would hide that change.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from run import DIGESTS, SRC, WORKLOADS, Launcher, _digest, run_pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    digests: dict[str, list] = {}
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        for workload, build in WORKLOADS.items():
            for seed in range(args.seeds):
                ops = build(random.Random(f"{workload}:{seed}"))
                result = run_pass(launcher, ops, list(range(len(ops))), {})
                if result.failed:
                    print(f"error: {workload} seed {seed} failed its checks", file=sys.stderr)
                    return 1
                digests.update({label: [0, _digest(out)] for label, out in result.outputs.items()})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(digests)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
