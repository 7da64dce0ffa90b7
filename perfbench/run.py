"""Run one workload of the evodb benchmark and print its metrics.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample count behind each percentile.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones. Run from the root of a source checkout: the engine is imported from
``src/``. The exit code is 1 when a correctness check fails and 2 when
the engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("oltp", "migrate", "tpcc")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "evodb" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'evodb'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.suite import run

    result, code = run(args.workload, args.seed, args.seconds, args.trace,
                       ROOT / ".perfbench_out")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
