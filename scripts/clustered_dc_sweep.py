#!/usr/bin/env python3
"""Cluster-size study for disconnected clusters, n = 120.

Runs configs/clustered_dc.json: every divisor of 120 as the cluster size
for the four (source, cluster) policy pairs without gossip, across the
default rate cases, then prints the optimal-k report.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from gossipfresh.experiments import (
    ExperimentConfig,
    emit_plot_data,
    report_optimal_k,
    run_experiment,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "clustered_dc.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    config = replace(
        ExperimentConfig.from_json(CONFIG), output=str(args.out_dir / "clustered_dc.csv")
    )
    rows = run_experiment(config)
    series = emit_plot_data(rows, out_dir=args.out_dir)
    print(f"{len(rows)} rows -> {config.output}")
    print(f"{len(series)} series files in {args.out_dir}")
    for note in report_optimal_k(config).notes:
        print(note)


if __name__ == "__main__":
    main()
