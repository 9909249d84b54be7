#!/usr/bin/env python3
"""gossipfresh benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 16 --trace 0

The workloads, metrics and layer map are described in perfbench/README.md.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.  The
line before it is the run record (machine, commit, seed, op counts).  The
package is imported from the checkout's ``src/``, never from an installed
copy; without it the run exits with code 2 and prints no result.
"""

import os

# One process, one thread: keep BLAS pools from starting extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_exact", "exact_large_n", "mc_flat", "mc_clustered")


def use_source_tree() -> None:
    """Import gossipfresh from ``ROOT/src``, or exit with code 2."""
    if not (SRC / "gossipfresh" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no gossipfresh source tree (src/ and configs/)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gossipfresh benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    use_source_tree()
    import bench

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result.unexplained[:5]:
        print(f"unexplained failure: {failure}", file=sys.stderr)
    print("record: " + json.dumps(result.record, sort_keys=True))
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
