"""Command-line interface.

Verbs: ``analytic`` (one exact value), ``sweep`` (config-driven grid),
``simulate`` (sweep with Monte Carlo columns), ``optimal-k`` (best cluster
size report), and ``selftest`` (the acceptance checks).  Flags mirror
config fields and override values loaded from the config file.

Exit codes: 0 success, 1 validation or config error, 2 I/O error,
3 selftest failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
from dataclasses import replace

from .core import DC_POLICIES, GossipPolicy, NetworkSpec, Rates, int_problem, validate
from .core import alpha_problem, cycles_problem, path_problem, real_problem, require, size_problem
from .analytic import closed_flat, oracle_flat
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SimSettings,
    emit_plot_data,
    report_optimal_k,
    run_experiment,
    write_csv,
)
from . import acceptance

_POLICY_NAMES = [p.value for p in GossipPolicy]
_DC_NAMES = [p.value for p in DC_POLICIES]


def _add_rate_flags(parser):
    parser.add_argument("--lambda-e", type=float, help="source self-refresh rate")
    parser.add_argument("--lambda-s", type=float, default=0.0, help="total source delivery rate")
    parser.add_argument("--lambda-c", type=float, default=0.0, help="total per-clusterhead rate")
    parser.add_argument(
        "--lambda-g", type=float, default=0.0, help="total per-fresh-node gossip rate"
    )
    parser.add_argument("--alpha", type=float, help="lambda_e / lambda_s (instead of --lambda-e)")


def _rates_from_args(args) -> Rates:
    if args.alpha is not None:
        if args.lambda_e is not None:
            raise ValueError("--alpha and --lambda-e are mutually exclusive")
        require(alpha_problem(args.alpha, args.lambda_s, ("--alpha", "--lambda-s")))
        lambda_e = args.alpha * args.lambda_s
    elif args.lambda_e is None:
        raise ValueError("missing --lambda-e (or --alpha)")
    else:
        lambda_e = args.lambda_e
    return Rates(lambda_e, args.lambda_s, args.lambda_c, args.lambda_g)


def _cmd_analytic(args) -> int:
    # each flag obeys its input rule under its own name before any value is
    # built; --lambda-e, and --lambda-s beside --alpha, must be > 0
    sizes = (("--n", args.n), ("--k", args.k))
    reals = (
        ("--lambda-e", args.lambda_e, True),
        ("--lambda-s", args.lambda_s, args.alpha is not None),
        ("--lambda-c", args.lambda_c, False),
        ("--lambda-g", args.lambda_g, False),
    )
    problems = [size_problem(flag, value) for flag, value in sizes if value is not None]
    problems += [real_problem(*check) for check in reals if check[1] is not None]
    if any(problems):
        raise ConfigError([p for p in problems if p])
    rates = _rates_from_args(args)
    if args.k is not None or args.source_policy or args.cluster_policy:
        dests = ("k", "source_policy", "cluster_policy")
        flags = ["--" + d.replace("_", "-") for d in dests]
        if args.policy is not None:
            raise ValueError(
                f"--policy and the clustered flags ({', '.join(flags)}) are mutually exclusive"
            )
        missing = [flag for flag, d in zip(flags, dests) if getattr(args, d) is None]
        if missing:
            raise ValueError(f"clustered point needs {' '.join(missing)}")
        policies = GossipPolicy(args.source_policy), GossipPolicy(args.cluster_policy)
        spec = NetworkSpec.clustered(args.n, args.k, *policies, rates)
    elif args.policy is None:
        raise ValueError("flat point needs --policy (or pass clustered flags)")
    else:
        spec = NetworkSpec.flat(args.n, GossipPolicy(args.policy), rates)
    require("; ".join(validate(spec)))
    le = rates.lambda_e
    oracle = [oracle_flat(p, s, g, le, size) for p, s, g, size in spec.tiers]
    closed = [closed_flat(p, s, g, le, size) for p, s, g, size in spec.tiers]
    print(f"p_oracle = {math.prod(oracle):.17g}")
    if None not in closed:
        print(f"p_analytic = {math.prod(closed):.17g}")
    if len(oracle) == 2:
        print(f"p_ch = {oracle[0]:.17g}")
        print(f"p_node_given_ch = {oracle[1]:.17g}")
    return 0


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if getattr(args, "output", None):
        config = replace(config, output=args.output)
    return config


@contextlib.contextmanager
def _destinations(output: str | None, plot_dir: str | None):
    """Make the directory of the file ``output`` and the directory
    ``plot_dir`` before any work, so that a destination that cannot be
    made (a path through a file, a missing permission) or an ``output``
    that is a directory raises its ``OSError`` now.  When the block, or a
    later make, raises, the directories made here that are still empty are
    removed again, deepest first; none that existed before is touched."""
    if output and os.path.isdir(output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    dirs = [os.path.dirname(output) or "."] if output else []
    dirs += [plot_dir] if plot_dir else []
    made = []
    try:
        for path in dirs:
            missing, head = [], os.path.abspath(path)
            while not os.path.lexists(head):
                missing.append(head)
                head = os.path.dirname(head)
            made += reversed(missing)
            os.makedirs(path, exist_ok=True)
        yield
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):  # not empty: the run wrote there
                os.rmdir(path)
        raise


def _cmd_sweep(args) -> int:
    """``sweep`` and ``simulate``; ``simulate`` always adds the Monte Carlo columns."""
    # the overrides obey the integer rule of the config's sim.cycles and sim.seed,
    # and the destinations the path rule of its output, before anything is made
    problems = [
        int_problem(flag, value, minimum)
        for flag, value, minimum in (("--cycles", args.cycles, 1), ("--seed", args.seed, 0))
        if value is not None
    ]
    problems += [
        path_problem(flag, value)
        for flag, value in (("--output", args.output), ("--plot-dir", args.plot_dir))
        if value is not None
    ]
    if any(problems):
        raise ConfigError([p for p in problems if p])
    config = _load_config(args)
    if args.verb == "simulate" or args.cycles is not None or args.seed is not None:
        base = config.sim
        if args.cycles is None and base:
            cycles = base.cycles  # bounded by the config, as sim.cycles
        else:  # the flag or its default, so --cycles is the lever
            cycles = 100_000 if args.cycles is None else args.cycles
            require(cycles_problem("--cycles", cycles, config.largest_n))
        seed = args.seed if args.seed is not None else (base.seed if base else 0)
        config = replace(config, sim=SimSettings(cycles=cycles, seed=seed))
    with _destinations(config.output, args.plot_dir):
        rows = run_experiment(config)
        if config.output:
            print(f"wrote {len(rows)} rows to {config.output}")
        else:
            write_csv(rows, sys.stdout)
        if args.plot_dir:
            paths = emit_plot_data(rows, out_dir=args.plot_dir)
            print(f"wrote {len(paths)} series files to {args.plot_dir}")
    return 0


def _cmd_optimal_k(args) -> int:
    config = _load_config(args)
    report = report_optimal_k(config)
    header = f"{'case':<16} {'source':<9} {'cluster':<9} {'k*':>4} {'m*':>4}  p*"
    print(header)
    print("-" * len(header))
    for e in report.entries:
        print(
            f"{e.case:<16} {e.source_policy:<9} {e.cluster_policy:<9} "
            f"{e.k_star:>4} {e.m_star:>4}  {e.p_star:.12g}"
        )
    for note in report.notes:
        print(note)
    return 0


def _cmd_selftest(args) -> int:
    names = None
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",") if s.strip()]
        if not names:
            raise ValueError(f"--only names no criterion, got {args.only!r}")
        names = acceptance.criterion_names(names)
    if args.report is not None:
        require(path_problem("--report", args.report))
    with _destinations(args.report, None):
        results = acceptance.run_criteria(names)
        for res in results:
            print(acceptance.format_line(res))
        if args.report:
            acceptance.write_report(results, args.report)
            print(f"report written to {args.report}")
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipfresh",
        description="Long-term binary freshness of flat and clustered gossip networks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analytic", help="exact freshness of a single network point")
    p.add_argument("--n", type=int, required=True, help="node count (end nodes)")
    p.add_argument("--policy", choices=_POLICY_NAMES, help="flat network policy")
    p.add_argument("--k", type=int, help="cluster size (clustered point)")
    p.add_argument("--source-policy", choices=_DC_NAMES, help="source tier policy")
    p.add_argument("--cluster-policy", choices=_POLICY_NAMES, help="cluster tier policy")
    _add_rate_flags(p)
    p.set_defaults(func=_cmd_analytic)

    for verb, blurb in (
        ("sweep", "run a config-driven sweep (exact values)"),
        ("simulate", "run a sweep with Monte Carlo columns"),
    ):
        p = sub.add_parser(verb, help=blurb)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", help="override the config's CSV output path")
        p.add_argument("--cycles", type=int, help="Monte Carlo cycles per grid point")
        p.add_argument("--seed", type=int, help="Monte Carlo base seed")
        p.add_argument("--plot-dir", help="also write plot series files here")
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimal-k", help="optimal cluster size per policy pair")
    p.add_argument("--config", required=True, help="JSON clustered_sweep_k config")
    p.set_defaults(func=_cmd_optimal_k)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--only", help="comma-separated criteria subset, e.g. 1,2,6")
    p.add_argument("--report", help="write a deterministic CSV report here")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        for problem in e.problems if isinstance(e, ConfigError) else [e]:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
