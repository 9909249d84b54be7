#!/usr/bin/env python3
"""Cluster-size study for gossiping clusters, n = 120.

Runs configs/clustered_fc.json: the cluster size for the three (source,
cluster) pairs whose clusters are fully connected, across the default
rate cases, then prints the optimal-k report.

The work is ``gossipfresh sweep --config configs/clustered_fc.json
--output <out-dir>/clustered_fc.csv --plot-dir <out-dir>``, then
``gossipfresh optimal-k --config configs/clustered_fc.json``; stdout
and a nonzero exit code are the CLI's.  The CLI makes --out-dir, and
one that cannot be made exits 2 with its ``i/o error:`` line, before
any work.
"""

import argparse
import sys
from pathlib import Path

from gossipfresh import cli

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "clustered_fc.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    sweep = ["sweep", "--config", str(CONFIG), "--output", str(args.out_dir / "clustered_fc.csv")]
    sweep += ["--plot-dir", str(args.out_dir)]
    for argv in (sweep, ["optimal-k", "--config", str(CONFIG)]):
        status = cli.main(argv)
        if status:
            sys.exit(status)


if __name__ == "__main__":
    main()
