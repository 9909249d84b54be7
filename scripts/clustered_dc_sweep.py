#!/usr/bin/env python3
"""Cluster-size study for disconnected clusters, n = 120.

Runs configs/clustered_dc.json: every divisor of 120 as the cluster size
for the four (source, cluster) policy pairs without gossip, across the
default rate cases, then prints the optimal-k report.

The work is ``gossipfresh sweep --config configs/clustered_dc.json
--output <out-dir>/clustered_dc.csv --plot-dir <out-dir>``, then
``gossipfresh optimal-k --config configs/clustered_dc.json``; stdout
and a nonzero exit code are the CLI's.  An --out-dir that cannot be
made exits 2 with the CLI's ``i/o error:`` line, before any work.
"""

import argparse
import sys
from pathlib import Path

from gossipfresh import cli

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "clustered_dc.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # reported as the CLI reports an I/O error
        print(f"i/o error: {e}", file=sys.stderr)
        sys.exit(2)
    sweep = ["sweep", "--config", str(CONFIG), "--output", str(args.out_dir / "clustered_dc.csv")]
    sweep += ["--plot-dir", str(args.out_dir)]
    for argv in (sweep, ["optimal-k", "--config", str(CONFIG)]):
        status = cli.main(argv)
        if status:
            sys.exit(status)


if __name__ == "__main__":
    main()
