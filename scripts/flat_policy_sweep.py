#!/usr/bin/env python3
"""Freshness of the five flat policies as the network grows.

Runs configs/flat_policies.json: n = 1..50 for two values of alpha =
lambda_e / lambda_s, written as a CSV plus one plot series per (policy,
alpha).  Optionally adds Monte Carlo columns with --cycles.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from gossipfresh.core import int_problem
from gossipfresh.experiments import ExperimentConfig, SimSettings, emit_plot_data, run_experiment

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "flat_policies.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    ap.add_argument("--cycles", type=int, help="add Monte Carlo columns with this many cycles")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    config = replace(
        ExperimentConfig.from_json(CONFIG), output=str(args.out_dir / "flat_policies.csv")
    )
    if args.cycles:
        problem = int_problem("--cycles", args.cycles, 1) or int_problem("--seed", args.seed, 0)
        if problem:
            ap.error(problem)
        config = replace(config, sim=SimSettings(cycles=args.cycles, seed=args.seed))
    rows = run_experiment(config)
    series = emit_plot_data(rows, out_dir=args.out_dir)
    print(f"{len(rows)} rows -> {config.output}")
    print(f"{len(series)} series files in {args.out_dir}")


if __name__ == "__main__":
    main()
