"""Experiment configs, sweep runner, CSV output, and plot-series export.

A sweep is described by a small JSON config (or an
:class:`ExperimentConfig` built in code): which mode to run, which
policies, which rates (one case, several named cases, or an
``alpha = lambda_e / lambda_s`` list for flat sweeps), the grid, and an
optional Monte Carlo add-on.  Unknown keys anywhere in the config are
errors, so typos cannot silently corrupt a sweep.

Every grid point is evaluated with the generic recursion (``p_oracle``,
always present) and with the closed form where one exists
(``p_analytic``).  With ``sim`` enabled, a cycle-estimator column is added
using a per-row seed derived from the config seed and the row index, so
the emitted CSV is byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GossipPolicy, NetworkSpec, Rates
from .analytic import (
    closed_clustered,
    closed_flat,
    clustered_freshness,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
)
from .simulator import estimate_freshness_cycles

__all__ = [
    "ConfigError",
    "RateCase",
    "SimSettings",
    "ExperimentConfig",
    "ResultRow",
    "CSV_HEADER",
    "DEFAULT_RATE_CASES",
    "run_experiment",
    "write_csv",
    "read_csv",
    "emit_plot_data",
    "OptimalKEntry",
    "OptimalKReport",
    "report_optimal_k",
]

MODES = ("flat_sweep_n", "clustered_sweep_k", "single_point")

CSV_HEADER = (
    "experiment",
    "policy_source",
    "policy_cluster",
    "n",
    "k",
    "m",
    "lambda_e",
    "lambda_s",
    "lambda_c",
    "lambda_g",
    "p_analytic",
    "p_oracle",
    "p_sim",
    "sim_ci_lo",
    "sim_ci_hi",
    "cycles",
    "seed",
)


class ConfigError(ValueError):
    """Invalid experiment config; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid experiment config: " + "; ".join(self.problems))


@dataclass(frozen=True)
class RateCase:
    """One named rate assignment within a sweep."""

    label: str
    rates: Rates


@dataclass(frozen=True)
class SimSettings:
    cycles: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    policies: tuple  # policy values, or (source, cluster) pairs in clustered modes
    cases: tuple[RateCase, ...]
    n: int | None = None
    n_range: tuple[int, int] | None = None
    k: int | None = None
    sim: SimSettings | None = None
    output: str | None = None

    @property
    def clustered(self) -> bool:
        return self.mode == "clustered_sweep_k" or (
            self.mode == "single_point" and self.k is not None
        )

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        return _parse_config(raw)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError([f"{path}: not valid JSON ({e})"]) from e
        if not isinstance(raw, dict):
            raise ConfigError([f"{path}: top level must be an object"])
        return _parse_config(raw)


#: Rate cases used for clustered sweeps when the config names none: equal
#: tier rates, a source-heavy and a cluster-heavy split, and a fast
#: self-refreshing source.
DEFAULT_RATE_CASES = (
    RateCase("balanced", Rates(lambda_e=1.0, lambda_s=10.0, lambda_c=10.0, lambda_g=10.0)),
    RateCase("source_heavy", Rates(lambda_e=1.0, lambda_s=20.0, lambda_c=5.0, lambda_g=5.0)),
    RateCase("cluster_heavy", Rates(lambda_e=1.0, lambda_s=5.0, lambda_c=20.0, lambda_g=20.0)),
    RateCase("high_refresh", Rates(lambda_e=8.0, lambda_s=10.0, lambda_c=10.0, lambda_g=10.0)),
)

_TOP_KEYS = {"name", "mode", "policies", "rates", "cases", "n", "n_range", "k", "sim", "output"}
_RATE_KEYS = {"lambda_e", "lambda_s", "lambda_c", "lambda_g", "alpha"}
_CASE_KEYS = {"label"} | (_RATE_KEYS - {"alpha"})
_SIM_KEYS = {"cycles", "seed"}


def _as_number(value, where, problems, minimum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        problems.append(f"{where} must be a finite number, got {value!r}")
        return None
    if minimum is not None and (value <= minimum if strict_min else value < minimum):
        op = ">" if strict_min else ">="
        problems.append(f"{where} must be {op} {minimum}, got {value!r}")
        return None
    return float(value)


def _as_int(value, where, problems, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{where} must be an integer, got {value!r}")
        return None
    if value < minimum:
        problems.append(f"{where} must be >= {minimum}, got {value}")
        return None
    return value


def _parse_policy(value, where, problems):
    try:
        return GossipPolicy(value)
    except (ValueError, TypeError):
        valid = ", ".join(p.value for p in GossipPolicy)
        problems.append(f"{where}: unknown policy {value!r} (expected one of {valid})")
        return None


def _parse_rates_dict(raw, where, problems, allow_alpha):
    unknown = set(raw) - _RATE_KEYS
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown)}")
    if "alpha" in raw and not allow_alpha:
        problems.append(f"{where}: alpha parameterization is only valid for flat sweeps")
    if "alpha" in raw and "lambda_e" in raw:
        problems.append(f"{where}: alpha and lambda_e are mutually exclusive")
        return []
    lam_s = _as_number(raw.get("lambda_s", 0.0), f"{where}.lambda_s", problems, 0)
    lam_c = _as_number(raw.get("lambda_c", 0.0), f"{where}.lambda_c", problems, 0)
    lam_g = _as_number(raw.get("lambda_g", 0.0), f"{where}.lambda_g", problems, 0)
    if None in (lam_s, lam_c, lam_g):
        return []
    if "alpha" in raw and allow_alpha:
        alphas = raw["alpha"]
        if not isinstance(alphas, list):
            alphas = [alphas]
        if not alphas:
            problems.append(f"{where}.alpha must not be empty")
            return []
        if lam_s <= 0:
            problems.append(f"{where}: alpha needs lambda_s > 0, got {lam_s!r}")
            return []
        cases = []
        for a in alphas:
            av = _as_number(a, f"{where}.alpha", problems, 0, strict_min=True)
            if av is None:
                return []
            cases.append(
                RateCase(f"alpha{av:g}", Rates(av * lam_s, lam_s, lam_c, lam_g))
            )
        return cases
    if "lambda_e" not in raw:
        problems.append(f"{where} needs lambda_e (or alpha, for flat sweeps)")
        return []
    lam_e = _as_number(raw["lambda_e"], f"{where}.lambda_e", problems, 0, strict_min=True)
    if lam_e is None:
        return []
    return [RateCase("case1", Rates(lam_e, lam_s, lam_c, lam_g))]


def _parse_config(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown keys {sorted(unknown)}")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"name must be a nonempty string, got {name!r}")
        name = "experiment"
    mode = raw.get("mode")
    if mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {mode!r}")
        raise ConfigError(problems)

    k = None
    if "k" in raw:
        if mode != "single_point":
            problems.append("k is only valid for single_point configs")
        else:
            k = _as_int(raw["k"], "k", problems, 1)
    clustered = mode == "clustered_sweep_k" or (mode == "single_point" and k is not None)

    # policies: names for flat modes, [source, cluster] pairs for clustered
    policies: list = []
    raw_policies = raw.get("policies")
    if not isinstance(raw_policies, list) or not raw_policies:
        problems.append(f"policies must be a nonempty list, got {raw_policies!r}")
    else:
        for i, entry in enumerate(raw_policies):
            where = f"policies[{i}]"
            if clustered:
                if not isinstance(entry, list) or len(entry) != 2:
                    problems.append(f"{where} must be a [source, cluster] pair, got {entry!r}")
                    continue
                src = _parse_policy(entry[0], where, problems)
                cl = _parse_policy(entry[1], where, problems)
                if src is not None and cl is not None:
                    policies.append((src, cl))
            else:
                pol = _parse_policy(entry, where, problems)
                if pol is not None:
                    policies.append(pol)

    # rates / cases
    allow_alpha = not clustered
    cases: list[RateCase] = []
    if "rates" in raw and "cases" in raw:
        problems.append("rates and cases are mutually exclusive")
    elif "rates" in raw:
        if not isinstance(raw["rates"], dict):
            problems.append(f"rates must be an object, got {raw['rates']!r}")
        else:
            cases = _parse_rates_dict(raw["rates"], "rates", problems, allow_alpha)
    elif "cases" in raw:
        if not isinstance(raw["cases"], list) or not raw["cases"]:
            problems.append(f"cases must be a nonempty list, got {raw['cases']!r}")
        else:
            for i, entry in enumerate(raw["cases"]):
                where = f"cases[{i}]"
                if not isinstance(entry, dict):
                    problems.append(f"{where} must be an object, got {entry!r}")
                    continue
                unknown = set(entry) - _CASE_KEYS
                if unknown:
                    problems.append(f"{where}: unknown keys {sorted(unknown)}")
                    continue
                label = entry.get("label", f"case{i + 1}")
                parsed = _parse_rates_dict(
                    {key: v for key, v in entry.items() if key != "label"},
                    where,
                    problems,
                    allow_alpha=False,
                )
                if parsed:
                    cases.append(RateCase(str(label), parsed[0].rates))
    elif clustered:
        cases = list(DEFAULT_RATE_CASES)
    else:
        problems.append("flat configs need a rates (or cases) section")

    # grid
    n = None
    n_range = None
    if mode == "flat_sweep_n":
        rng = raw.get("n_range")
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in rng)
        ):
            problems.append(f"n_range must be [lo, hi] integers, got {rng!r}")
        elif not 1 <= rng[0] <= rng[1]:
            problems.append(f"n_range needs 1 <= lo <= hi, got {rng!r}")
        else:
            n_range = (rng[0], rng[1])
        if "n" in raw:
            problems.append("n is not valid for flat_sweep_n (use n_range)")
    else:
        if "n_range" in raw:
            problems.append(f"n_range is only valid for flat_sweep_n, not {mode}")
        n = _as_int(raw.get("n"), "n", problems, 1)
        if mode == "single_point" and k is not None and n is not None and n % k != 0:
            problems.append(f"k must divide n, got n={n} k={k}")

    sim = None
    if "sim" in raw:
        if not isinstance(raw["sim"], dict):
            problems.append(f"sim must be an object, got {raw['sim']!r}")
        else:
            unknown = set(raw["sim"]) - _SIM_KEYS
            if unknown:
                problems.append(f"sim: unknown keys {sorted(unknown)}")
            cycles = _as_int(raw["sim"].get("cycles"), "sim.cycles", problems, 1)
            seed = _as_int(raw["sim"].get("seed", 0), "sim.seed", problems, 0)
            if cycles is not None and seed is not None:
                sim = SimSettings(cycles=cycles, seed=seed)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output must be a string path, got {output!r}")
        output = None

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        name=name,
        mode=mode,
        policies=tuple(policies),
        cases=tuple(cases),
        n=n,
        n_range=n_range,
        k=k,
        sim=sim,
        output=output,
    )


@dataclass(frozen=True)
class ResultRow:
    """One evaluated grid point; mirrors the CSV column order exactly."""

    experiment: str
    policy_source: str
    policy_cluster: str | None
    n: int
    k: int | None
    m: int | None
    lambda_e: float
    lambda_s: float
    lambda_c: float | None
    lambda_g: float | None
    p_analytic: float | None
    p_oracle: float
    p_sim: float | None
    sim_ci_lo: float | None
    sim_ci_hi: float | None
    cycles: int | None
    seed: int | None


def _row_seed(base_seed: int, index: int) -> int:
    """Stable per-row child seed; independent of evaluation order."""
    return int(np.random.SeedSequence(entropy=(base_seed, index)).generate_state(1, np.uint64)[0])


def _flat_row(config, case, policy, n, index, p_oracle) -> ResultRow:
    r = case.rates
    spec = NetworkSpec.flat(n, policy, r)
    p_analytic = closed_flat(policy, r.lambda_s, r.lambda_g, r.lambda_e, n)
    sim_cols = _sim_columns(config, spec, index)
    return ResultRow(
        experiment=config.name,
        policy_source=policy.value,
        policy_cluster=None,
        n=n,
        k=None,
        m=None,
        lambda_e=r.lambda_e,
        lambda_s=r.lambda_s,
        lambda_c=None,
        lambda_g=r.lambda_g if policy.gossips else None,
        p_analytic=p_analytic,
        p_oracle=p_oracle,
        **sim_cols,
    )


def _clustered_row(config, case, pair, n, k, index, p_oracle) -> ResultRow:
    src, cl = pair
    r = case.rates
    spec = NetworkSpec.clustered(n, k, src, cl, r)
    p_analytic = closed_clustered(src, cl, n // k, k, r)
    sim_cols = _sim_columns(config, spec, index)
    return ResultRow(
        experiment=config.name,
        policy_source=src.value,
        policy_cluster=cl.value,
        n=n,
        k=k,
        m=n // k,
        lambda_e=r.lambda_e,
        lambda_s=r.lambda_s,
        lambda_c=r.lambda_c,
        lambda_g=r.lambda_g if cl.gossips else None,
        p_analytic=p_analytic,
        p_oracle=p_oracle,
        **sim_cols,
    )


def _sim_columns(config, spec, index) -> dict:
    if config.sim is None:
        return dict(p_sim=None, sim_ci_lo=None, sim_ci_hi=None, cycles=None, seed=None)
    seed = _row_seed(config.sim.seed, index)
    est = estimate_freshness_cycles(spec, config.sim.cycles, seed)
    return dict(
        p_sim=est.p_hat,
        sim_ci_lo=est.ci95[0],
        sim_ci_hi=est.ci95[1],
        cycles=config.sim.cycles,
        seed=seed,
    )


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every grid point of ``config`` in deterministic order.

    Writes the rows to ``config.output`` as CSV when set, and returns
    them.  Grid order is: rate case (config order), then policy (config
    order), then n or k ascending.  Each (case, policy) sweep gets its
    exact values from one batched call: :func:`oracle_sizes` over the n
    range, or the :func:`optimal_cluster_size` profile over the divisors.
    """
    if config.mode not in MODES:
        raise ConfigError([f"mode must be one of {MODES}, got {config.mode!r}"])
    if not config.policies or not config.cases:
        raise ConfigError(["config has no policies or no rate cases"])
    rows: list[ResultRow] = []
    index = 0
    if config.mode == "flat_sweep_n":
        lo, hi = config.n_range
        ns = range(lo, hi + 1)
        for case in config.cases:
            r = case.rates
            for policy in config.policies:
                exact = oracle_sizes(policy, r.lambda_s, r.lambda_g, r.lambda_e, ns)
                for n, p in zip(ns, exact.tolist()):
                    rows.append(_flat_row(config, case, policy, n, index, p))
                    index += 1
    elif config.mode == "clustered_sweep_k":
        for case in config.cases:
            for pair in config.policies:
                _, _, _, profile = optimal_cluster_size(config.n, case.rates, *pair)
                for k, p in profile:
                    rows.append(_clustered_row(config, case, pair, config.n, k, index, p))
                    index += 1
    else:  # single_point
        n = config.n
        for case in config.cases:
            r = case.rates
            for pol in config.policies:
                if config.k is not None:
                    spec = NetworkSpec.clustered(n, config.k, *pol, r)
                    p, _ = clustered_freshness(spec)
                    rows.append(_clustered_row(config, case, pol, n, config.k, index, p))
                else:
                    p = oracle_flat(pol, r.lambda_s, r.lambda_g, r.lambda_e, n)
                    rows.append(_flat_row(config, case, pol, n, index, p))
                index += 1
    if config.output:
        write_csv(rows, config.output)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows, path) -> None:
    """Write rows under the fixed header; floats carry 17 significant
    digits so parsing the file back reproduces them exactly.  ``path`` may
    also be an open text stream such as ``sys.stdout``; it is left open."""
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in CSV_HEADER])


_INT_COLS = {"n", "k", "m", "cycles", "seed"}
_STR_COLS = {"experiment", "policy_source", "policy_cluster"}


def read_csv(path) -> list[ResultRow]:
    """Parse a CSV produced by :func:`write_csv` back into rows."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for record in reader:
            kwargs = {}
            for col, text in zip(CSV_HEADER, record):
                if text == "":
                    kwargs[col] = None
                elif col in _STR_COLS:
                    kwargs[col] = text
                elif col in _INT_COLS:
                    kwargs[col] = int(text)
                else:
                    kwargs[col] = float(text)
            rows.append(ResultRow(**kwargs))
    return rows


def _case_labels(rows) -> dict:
    """Deterministic case label per row index.

    Flat rows are labelled by alpha = lambda_e / lambda_s.  Clustered rows
    are labelled case1, case2, ... in the order distinct rate tuples
    appear within their policy pair; since sweeps emit rate cases in
    config order for every pair, the numbering is consistent across
    pairs.
    """
    labels = {}
    seen: dict[tuple, dict[tuple, str]] = {}
    for i, row in enumerate(rows):
        if row.k is None:
            if row.lambda_s > 0:
                labels[i] = f"alpha{row.lambda_e / row.lambda_s:g}"
            else:
                labels[i] = "alphainf"
        else:
            group = seen.setdefault((row.policy_source, row.policy_cluster), {})
            key = (row.lambda_e, row.lambda_s, row.lambda_c, row.lambda_g)
            if key not in group:
                group[key] = f"case{len(group) + 1}"
            labels[i] = group[key]
    return labels


def emit_plot_data(rows, group_by=None, out_dir=".") -> list[Path]:
    """Write one two-column series file per (policy, case) group.

    Files are named ``<experiment>__<policy>__<case>.dat`` and hold
    ``x p_oracle`` pairs (x is k for clustered rows, n for flat ones)
    behind a ``#`` comment header.  ``group_by`` may list (policy, case)
    label pairs to restrict the output; a listed group with no rows gets a
    warning and no file.  Returns the written paths.
    """
    if not rows:
        raise ValueError("emit_plot_data needs at least one row")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = _case_labels(rows)
    groups: dict[tuple[str, str], list] = {}
    for i, row in enumerate(rows):
        policy = (
            row.policy_source
            if row.policy_cluster is None
            else f"{row.policy_source}+{row.policy_cluster}"
        )
        groups.setdefault((policy, labels[i]), []).append(row)
    if group_by is None:
        wanted = list(groups)
    else:
        wanted = [tuple(g) for g in group_by]
    written = []
    for key in wanted:
        members = groups.get(key, [])
        if not members:
            warnings.warn(f"no rows for series {key}; skipping", stacklevel=2)
            continue
        policy, case = key
        path = out_dir / f"{members[0].experiment}__{policy}__{case}.dat"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(f"# series: experiment={members[0].experiment} policy={policy} case={case}\n")
            f.write("# columns: x freshness\n")
            for row in members:
                x = row.n if row.k is None else row.k
                f.write(f"{x} {format(row.p_oracle, '.17g')}\n")
        written.append(path)
    return written


@dataclass(frozen=True)
class OptimalKEntry:
    case: str
    source_policy: str
    cluster_policy: str
    k_star: int
    m_star: int
    p_star: float


@dataclass(frozen=True)
class OptimalKReport:
    entries: tuple[OptimalKEntry, ...]
    notes: tuple[str, ...]


def report_optimal_k(config: ExperimentConfig) -> OptimalKReport:
    """Best cluster size per (case, policy pair), with comparison notes.

    Beyond the raw optima, the notes flag which pair wins each case and,
    when both single-sided stale-targeting placements are present, whether
    the placement matching the larger tier rate wins (their peaks tie when
    lambda_s == lambda_c).
    """
    if config.mode != "clustered_sweep_k":
        raise ConfigError(["report_optimal_k needs a clustered_sweep_k config"])
    entries = []
    notes = []
    for case in config.cases:
        case_entries = []
        for src, cl in config.policies:
            k_star, m_star, p_star, _ = optimal_cluster_size(config.n, case.rates, src, cl)
            case_entries.append(
                OptimalKEntry(case.label, src.value, cl.value, k_star, m_star, p_star)
            )
        entries.extend(case_entries)
        best = max(case_entries, key=lambda e: e.p_star)
        notes.append(
            f"{case.label}: best pair ({best.source_policy},{best.cluster_policy}) "
            f"with p*={best.p_star:.12g} at k*={best.k_star}"
        )
        by_pair = {(e.source_policy, e.cluster_policy): e for e in case_entries}
        src_side = by_pair.get(("DC_RC", "DC_noRC"))
        cl_side = by_pair.get(("DC_noRC", "DC_RC"))
        if src_side and cl_side:
            r = case.rates
            if r.lambda_s == r.lambda_c:
                notes.append(
                    f"{case.label}: lambda_s == lambda_c, single-sided peaks "
                    f"differ by {abs(src_side.p_star - cl_side.p_star):.3g} "
                    f"(k*={src_side.k_star} vs k*={cl_side.k_star})"
                )
            elif r.lambda_s > r.lambda_c:
                holds = src_side.p_star >= cl_side.p_star
                notes.append(
                    f"{case.label}: lambda_s > lambda_c, source-side placement "
                    f"{'wins' if holds else 'UNEXPECTEDLY loses'} "
                    f"({src_side.p_star:.12g} vs {cl_side.p_star:.12g})"
                )
            else:
                holds = cl_side.p_star >= src_side.p_star
                notes.append(
                    f"{case.label}: lambda_s < lambda_c, cluster-side placement "
                    f"{'wins' if holds else 'UNEXPECTEDLY loses'} "
                    f"({cl_side.p_star:.12g} vs {src_side.p_star:.12g})"
                )
    return OptimalKReport(entries=tuple(entries), notes=tuple(notes))
