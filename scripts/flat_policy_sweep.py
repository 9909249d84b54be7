#!/usr/bin/env python3
"""Freshness of the five flat policies as the network grows.

Runs configs/flat_policies.json: n = 1..50 for two values of alpha =
lambda_e / lambda_s, written as a CSV plus one plot series per (policy,
alpha).  Optionally adds Monte Carlo columns with --cycles.

The work is ``gossipfresh sweep --config configs/flat_policies.json
--output <out-dir>/flat_policies.csv --plot-dir <out-dir>``, passing
--cycles and --seed on when they are given; stdout and a nonzero exit
code are the CLI's.  The CLI makes --out-dir, and one that cannot be
made exits 2 with its ``i/o error:`` line, before any work.
"""

import argparse
import sys
from pathlib import Path

from gossipfresh import cli

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "flat_policies.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    ap.add_argument("--cycles", type=int, help="add Monte Carlo columns with this many cycles")
    ap.add_argument("--seed", type=int, help="Monte Carlo base seed (also adds the columns)")
    args = ap.parse_args()

    argv = ["sweep", "--config", str(CONFIG), "--output", str(args.out_dir / "flat_policies.csv")]
    argv += ["--plot-dir", str(args.out_dir)]
    for flag, value in (("--cycles", args.cycles), ("--seed", args.seed)):
        if value is not None:
            argv += [flag, str(value)]
    status = cli.main(argv)
    if status:
        sys.exit(status)


if __name__ == "__main__":
    main()
