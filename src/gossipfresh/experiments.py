"""Experiment configs, sweep runner, CSV output, and plot-series export.

A sweep is described by a small JSON config (or an
:class:`ExperimentConfig` built in code): which mode to run, which
policies, which rates (one case, several named cases, or an
``alpha = lambda_e / lambda_s`` list for flat sweeps), the grid, and an
optional Monte Carlo add-on.  Unknown keys anywhere in the config, and a
key given twice in one object, are errors, so typos cannot silently
corrupt a sweep.

Every grid point is evaluated with the generic recursion (``p_oracle``,
always present) and with the closed form where one exists
(``p_analytic``).  With ``sim`` enabled, a cycle-estimator column is added
using a per-row seed derived from the config seed and the row index, so
the emitted CSV is byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import GossipPolicy, NetworkSpec, Rates, alpha_problem, cycles_problem, divides_problem
from .core import int_problem, name_problem, path_problem, real_problem, require, size_problem
from .analytic import (
    closed_sizes,
    clustered_profiles,
    divisors,
    oracle_sizes,
    optimal_cluster_size,  # noqa: F401 - perfbench/layers.py traces it under this name
    closed_clustered, closed_flat, clustered_freshness, oracle_flat,  # noqa: F401 - likewise traced
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


def _is_clustered(mode: str, names_k: bool) -> bool:
    """Clustered sweeps, and single points that name a cluster size k."""
    return mode == "clustered_sweep_k" or (mode == "single_point" and names_k)


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
    """A sweep config, valid however it is built (``dataclasses.replace``
    too): a problem :func:`_config_problems` finds raises ``ConfigError``."""

    name: str
    mode: str
    policies: tuple  # policy values, or (source, cluster) pairs in clustered modes
    cases: tuple[RateCase, ...]
    n: int | None = None
    n_range: tuple[int, int] | None = None
    k: int | None = None
    sim: SimSettings | None = None
    output: str | None = None

    def __post_init__(self):
        given = {f: v for f, v in vars(self).items() if v is not None}
        if problems := _config_problems(given):
            raise ConfigError(problems)

    @property
    def clustered(self) -> bool:
        return _is_clustered(self.mode, self.k is not None)

    @property
    def largest_n(self) -> int | None:
        """The most nodes of any grid point: the top of ``n_range``, or n."""
        return self.n_range[1] if self.n_range else self.n

    @staticmethod
    def from_dict(raw) -> "ExperimentConfig":
        return _parse_config(raw)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        # id -> (object, {key: count}) of each object that repeats a key; holding
        # the object keeps its id from passing to a later one
        repeats = {}

        def as_object(pairs):
            obj = dict(pairs)
            if len(obj) < len(pairs):
                counts = Counter(key for key, _ in pairs)
                repeats[id(obj)] = obj, {key: c for key, c in counts.items() if c > 1}
            return obj

        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f, object_pairs_hook=as_object)
        except (ValueError, RecursionError) as e:  # bad syntax, UTF-8 or digits; deep nesting
            raise ConfigError([f"{path}: not valid JSON ({e})"]) from e
        return _parse_config(raw, f"{path}: ", _repeat_problems(raw, repeats) if repeats else [])


#: Rate cases used for clustered sweeps when the config names none: equal
#: tier rates, a source-heavy and a cluster-heavy split, and a fast
#: self-refreshing source.
DEFAULT_RATE_CASES = (
    RateCase("balanced", Rates(lambda_e=1.0, lambda_s=10.0, lambda_c=10.0, lambda_g=10.0)),
    RateCase("source_heavy", Rates(lambda_e=1.0, lambda_s=20.0, lambda_c=5.0, lambda_g=5.0)),
    RateCase("cluster_heavy", Rates(lambda_e=1.0, lambda_s=5.0, lambda_c=20.0, lambda_g=20.0)),
    RateCase("high_refresh", Rates(lambda_e=8.0, lambda_s=10.0, lambda_c=10.0, lambda_g=10.0)),
)

# each JSON section's keys are its dataclass's fields, with the JSON-only "rates" and "alpha"
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)} | {"rates"}
_RATE_KEYS = {f.name for f in fields(Rates)} | {"alpha"}
_CASE_KEYS = {"label"} | (_RATE_KEYS - {"alpha"})
_SIM_KEYS = {f.name for f in fields(SimSettings)}
_OPTIONAL_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is None]  # may be left out


def _as_rate(value, where, problems, positive=False):
    if problem := real_problem(where, value, positive):
        problems.append(problem)
    return None if problem else float(value)


#: A section or entry the parser has reported and left for no rule to judge
#: again; an entry keeps the positions of the entries after it.
_REPORTED = object()


def _as_policy(value):
    """The policy ``value`` names, or ``value`` as given."""
    try:
        return GossipPolicy(value)
    except (ValueError, TypeError):
        return value


def _config_problems(given: dict) -> list[str]:
    """Every rule of a config's typed values, each judged here alone: the
    problems of ``given``, a map of field names to values.  name, mode, the
    mode's grid (n, or n_range in a flat sweep), policies and cases are
    checked also when missing, any other field where given.  policies and
    cases are each a nonempty list or tuple (or ``_REPORTED``); each
    policies entry is a policy (a ``(source, cluster)`` tuple of two in
    clustered modes), and a repeat of a valid entry is named; ``sim`` is a
    :class:`SimSettings`; each case is a :class:`RateCase` holding
    :class:`Rates` under a nonempty string label.  These types keep the
    parser's wording for the JSON values they stand for."""
    problems = [name_problem("name", given.get("name"))]
    mode = given.get("mode")
    if mode not in MODES:
        return [p for p in problems + [f"mode must be one of {MODES}, got {mode!r}"] if p]
    largest = None  # the grid's largest n, once the grid is valid
    if mode == "flat_sweep_n":
        rng = given.get("n_range")
        if not isinstance(rng, (list, tuple)) or len(rng) != 2:
            problems.append(f"n_range must be [lo, hi] integers, got {rng!r}")
        elif any(sizes := [size_problem(f"n_range[{i}]", v) for i, v in enumerate(rng)]):
            problems += sizes
        elif rng[0] > rng[1]:
            problems.append(f"n_range needs 1 <= lo <= hi, got {list(rng)}")
        else:
            largest = rng[1]
        if "n" in given:
            problems.append("n is not valid for flat_sweep_n (use n_range)")
    else:
        if "n_range" in given:
            problems.append(f"n_range is only valid for flat_sweep_n, not {mode}")
        problems.append(size_problem("n", given.get("n")))
        largest = None if problems[-1] else given["n"]
    if "k" in given:
        if mode != "single_point":
            problems.append("k is only valid for single_point configs")
        else:
            problems.append(size_problem("k", given["k"]))
            if not problems[-1] and largest is not None:
                problems.append(divides_problem(largest, given["k"]))
    if "sim" in given:
        sim = given["sim"]
        if not isinstance(sim, SimSettings):
            problems.append(f"sim must be an object, got {sim!r}")
        else:
            sims = [int_problem("sim.cycles", sim.cycles, 1), int_problem("sim.seed", sim.seed, 0)]
            if not any(sims) and largest is not None:
                sims.append(cycles_problem("sim.cycles", sim.cycles, largest))
            problems += sims
    if "output" in given:
        problems.append(path_problem("output", given["output"]))
    sections = {}  # each valid section's entries
    for key in ("policies", "cases"):
        entries = given.get(key)
        if isinstance(entries, (list, tuple)) and entries:
            sections[key] = entries
        elif entries is not _REPORTED:
            problems.append(f"{key} must be a nonempty list, got {entries!r}")
    clustered = _is_clustered(mode, "k" in given)
    valid = ", ".join(p.value for p in GossipPolicy)
    first: dict = {}  # each valid entry's first position
    for i, policy in enumerate(sections.get("policies", ())):
        where = f"policies[{i}]"
        if clustered and not (isinstance(policy, tuple) and len(policy) == 2):
            problems.append(f"{where} must be a [source, cluster] pair, got {policy!r}")
        elif unknown := [
            f"{where}: unknown policy {q!r} (expected one of {valid})"
            for q in (policy if clustered else (policy,))
            if not isinstance(q, GossipPolicy)
        ]:
            problems += unknown
        elif first.setdefault(policy, i) != i:
            problems.append(f"{where} repeats policies[{first[policy]}]")
    for i, case in enumerate(sections.get("cases", ())):
        if case is _REPORTED:
            continue
        if not isinstance(case, RateCase) or not isinstance(case.rates, Rates):
            problems.append(f"cases[{i}] must be an object, got {case!r}")
        elif not isinstance(case.label, str) or not case.label:
            problems.append(f"cases[{i}].label must be a nonempty string, got {case.label!r}")
    return [p for p in problems if p]


def _parse_rates_dict(raw, where, problems, allow_alpha):
    unknown = set(raw) - _RATE_KEYS
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown, key=str)}")
    if "alpha" in raw and not allow_alpha:
        problems.append(f"{where}: alpha parameterization is only valid for flat sweeps")
    if "alpha" in raw and "lambda_e" in raw:
        problems.append(f"{where}: alpha and lambda_e are mutually exclusive")
        return []
    lam_s = _as_rate(raw.get("lambda_s", 0.0), f"{where}.lambda_s", problems)
    lam_c = _as_rate(raw.get("lambda_c", 0.0), f"{where}.lambda_c", problems)
    lam_g = _as_rate(raw.get("lambda_g", 0.0), f"{where}.lambda_g", problems)
    if None in (lam_s, lam_c, lam_g):
        return []
    if "alpha" in raw and allow_alpha:
        alphas = raw["alpha"]
        if not isinstance(alphas, list):
            alphas = [alphas]
        if not alphas:
            problems.append(f"{where}.alpha must not be empty")
            return []
        cases = []
        for a in alphas:
            if problem := alpha_problem(a, lam_s, (f"{where}.alpha", f"{where}.lambda_s")):
                problems.append(problem)
                return []
            cases.append(RateCase(f"alpha{float(a):g}", Rates(a * lam_s, lam_s, lam_c, lam_g)))
        return cases
    if "lambda_e" not in raw:
        problems.append(f"{where} needs lambda_e (or alpha, for flat sweeps)")
        return []
    lam_e = _as_rate(raw["lambda_e"], f"{where}.lambda_e", problems, positive=True)
    if lam_e is None:
        return []
    return [RateCase("case1", Rates(lam_e, lam_s, lam_c, lam_g))]


def _repeat_problems(raw, repeats: dict) -> list[str]:
    """A problem for each key that an object of ``raw`` repeats, named by
    its path (``n_range``, ``rates.lambda_e``, ``cases[1].label``): an
    object's keys before those of the objects inside it, and otherwise in
    the file's order.  ``repeats`` maps the ``id`` of each such object to
    the object and the count of each key it repeats.  An object that a
    later value of its key replaced is no part of ``raw``: that key is
    named, and the keys inside the replaced object are not."""
    problems, stack = [], [("", raw)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            counts = repeats[id(value)][1] if id(value) in repeats else {}
            problems += [f"{path}{key} is given {count} times" for key, count in counts.items()]
            stack += reversed([(f"{path}{key}.", v) for key, v in value.items()])
        elif isinstance(value, list):
            stack += reversed([(f"{path[:-1]}[{i}].", v) for i, v in enumerate(value)])
    return problems


def _parse_config(raw, prefix: str = "", problems=()) -> ExperimentConfig:
    """Check the raw structure (the top level, keys, rates), convert the
    rest of the JSON to typed values for :func:`_config_problems` to judge,
    and raise the problems of both, after ``problems``, in one
    ``ConfigError``; ``prefix`` leads the top-level problem.  A nonempty
    policies or cases list becomes a tuple; a policy name becomes its
    policy, a clustered ``[source, cluster]`` list a tuple of two.  Any
    other section, entry or ``sim`` is given as it stands.  A config
    without problems is judged only here."""
    if not isinstance(raw, dict):
        raise ConfigError([f"{prefix}top level must be an object"])
    problems = list(problems)
    if unknown := set(raw) - _TOP_KEYS:
        problems.append(f"unknown keys {sorted(unknown, key=str)}")
    given = {key: raw[key] for key in _OPTIONAL_KEYS if key in raw}
    given.update(name=raw.get("name"), mode=raw.get("mode"))
    mode = given["mode"]
    if mode not in MODES:  # the mode decides how the rest reads
        raise ConfigError(problems + _config_problems(given))
    # a point that names k is clustered even when k is invalid, so that its
    # [source, cluster] pairs are not also reported as unknown flat policies
    clustered = _is_clustered(mode, "k" in raw)

    policies = raw.get("policies")  # as it stands unless a nonempty list
    if isinstance(policies, list) and policies:
        policies = tuple(
            (tuple(map(_as_policy, e)) if isinstance(e, list) and len(e) == 2 else e)
            if clustered else _as_policy(e)
            for e in policies
        )
    given["policies"] = policies

    # rates / cases; a section reported here is given as _REPORTED
    allow_alpha = not clustered
    cases = raw.get("cases", _REPORTED)  # as it stands unless a nonempty list
    if "rates" in raw and "cases" in raw:
        problems.append("rates and cases are mutually exclusive")
        cases = _REPORTED
    elif "rates" in raw:
        if not isinstance(raw["rates"], dict):
            problems.append(f"rates must be an object, got {raw['rates']!r}")
        else:
            cases = tuple(_parse_rates_dict(raw["rates"], "rates", problems, allow_alpha)) or cases
    elif isinstance(cases, list) and cases:
        entries = []
        for i, entry in enumerate(cases):
            where = f"cases[{i}]"
            case = entry  # no object: judged as it stands
            if isinstance(entry, dict):
                rates = {key: v for key, v in entry.items() if key != "label"}
                case = _REPORTED
                if unknown := set(entry) - _CASE_KEYS:
                    problems.append(f"{where}: unknown keys {sorted(unknown, key=str)}")
                elif parsed := _parse_rates_dict(rates, where, problems, allow_alpha=False):
                    case = RateCase(entry.get("label", f"case{i + 1}"), parsed[0].rates)
            entries.append(case)
        cases = tuple(entries)
    elif "cases" not in raw and clustered:
        cases = DEFAULT_RATE_CASES
    elif "cases" not in raw:
        problems.append("flat configs need a rates (or cases) section")
    given["cases"] = cases

    if isinstance(raw.get("sim"), dict):
        if unknown := set(raw["sim"]) - _SIM_KEYS:
            problems.append(f"sim: unknown keys {sorted(unknown, key=str)}")
        given["sim"] = SimSettings(raw["sim"].get("cycles"), raw["sim"].get("seed", 0))
    if problems := problems + _config_problems(given):
        raise ConfigError(problems)
    if "n_range" in given:
        given["n_range"] = tuple(given["n_range"])
    return _build(ExperimentConfig, {f.name: given.get(f.name) for f in fields(ExperimentConfig)})


@dataclass(frozen=True)
class ResultRow:
    """One evaluated grid point: the CSV columns in order, then ``case``,
    the index of its rate case in the config.  ``case`` is no CSV column,
    so rows from :func:`read_csv` hold None there; equality ignores it."""

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
    case: int | None = field(default=None, compare=False)


#: The CSV columns: :class:`ResultRow`'s fields in order, without ``case``.
CSV_HEADER = tuple(f.name for f in fields(ResultRow) if f.name != "case")


def _build(cls, values: dict):
    """``cls(**values)`` for judged ``values`` of every field in order, without the
    generated ``__init__``, whose ``object.__setattr__`` per field outcosts a sweep row."""
    instance = object.__new__(cls)
    instance.__dict__.update(values)
    return instance


def _grid(config, route) -> tuple[list, list]:
    """The grid ``xs`` of ``config`` and ``profiles[c][q]``, ``route``'s
    values for case ``c`` and policy ``q`` over it as a list, or None where
    the route has no formula.  A clustered grid is the divisors of n (or
    the one k) through :func:`clustered_profiles`; a flat one is n from lo
    to hi (or the one n), with one ``route`` call per policy under every
    case."""
    if config.clustered:
        xs = divisors(config.n) if config.k is None else [config.k]
        rates = [case.rates for case in config.cases]
        profiles = clustered_profiles(route, config.n, xs, rates, config.policies)
    else:
        lo, hi = config.n_range or (config.n, config.n)
        xs = list(range(lo, hi + 1))
        rates = [(c.rates.lambda_e, c.rates.lambda_s, c.rates.lambda_g) for c in config.cases]
        le, ls, lg = map(list, zip(*rates))
        values = [route(q, ls, lg, le, xs) for q in config.policies]
        profiles = [[None if v is None else v[c] for v in values] for c in range(len(rates))]
    return xs, [[None if v is None else v.tolist() for v in case] for case in profiles]


def _rows(config, case, policy, xs, exact, closed, index) -> list[ResultRow]:
    """The rows of config case ``case`` and ``policy`` over ``xs``, numbered
    from ``index``; ``closed`` may be None.  A flat row is its policy as the
    source policy, with ``policy_cluster``, ``k``, ``m`` and ``lambda_c`` None."""
    r, n, sim = config.cases[case].rates, config.n, config.sim
    src, cl = policy if config.clustered else (policy, None)
    flat = cl is None
    template = dict(  # the fields the rows share; every field in order, with case last
        dict.fromkeys(CSV_HEADER), experiment=config.name, policy_source=src.value, case=case,
        policy_cluster=None if flat else cl.value, n=None if flat else n, lambda_e=r.lambda_e,
        lambda_s=r.lambda_s, lambda_c=None if flat else r.lambda_c, cycles=sim and sim.cycles,
        lambda_g=r.lambda_g if (src if flat else cl).gossips else None,
    )
    rows = []
    for i, (x, p, c) in enumerate(zip(xs, exact, closed or [None] * len(xs)), index):
        values = template.copy()
        values["n" if flat else "k"], values["m"] = x, None if flat else n // x
        values["p_analytic"], values["p_oracle"] = c, p
        if sim is not None:
            spec = NetworkSpec.flat(x, src, r) if flat else NetworkSpec.clustered(n, x, src, cl, r)
            # a child seed per row index, independent of evaluation order
            seed = int(np.random.SeedSequence((sim.seed, i)).generate_state(1, np.uint64)[0])
            est = estimate_freshness_cycles(spec, sim.cycles, seed)
            values.update(p_sim=est.p_hat, sim_ci_lo=est.ci95[0], sim_ci_hi=est.ci95[1], seed=seed)
        rows.append(_build(ResultRow, values))
    return rows


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every grid point of ``config`` in deterministic order.

    Writes the rows to ``config.output`` as CSV when set, and returns
    them.  Grid order is: rate case (config order), then policy (config
    order), then n or k ascending.  A single point is a one-cell grid:
    its n, or its k when ``config.clustered``.  :func:`_grid` gives the
    grid and each route's values over it, from one route call per policy
    (per tier policy when clustered) under every rate case: first
    :func:`oracle_sizes`, then :func:`closed_sizes`.  Every value is
    bit-identical to a call per point.  :func:`_rows` builds the rows of
    each (case, policy), numbered across the whole run; a
    :class:`NetworkSpec` is built per row only for the Monte Carlo columns.
    """
    xs, exact = _grid(config, oracle_sizes)
    closed = _grid(config, closed_sizes)[1]
    rows: list[ResultRow] = []
    for c in range(len(config.cases)):
        for q, policy in enumerate(config.policies):
            rows += _rows(config, c, policy, xs, exact[c][q], closed[c][q], len(rows))
    if config.output:
        write_csv(rows, config.output)
    return rows


#: The ``%`` conversion of each number-column type whose text needs no CSV quoting.
_NUMBER_FORMATS = {float: "%.17g", int: "%s", bool: "%s", type(None): "%.0s"}
_TEXT_TYPES = {str, type(None)}  # the text-column types whose quoted cells are cached


def write_csv(rows, path) -> None:
    """Write rows under the fixed header; floats carry 17 significant
    digits so parsing the file back reproduces them exactly, None is an
    empty field and everything else is written as ``str`` gives it.
    ``path`` may also be an open text stream such as ``sys.stdout``; it is
    left open.  An int is refused: ``open`` would write and close that file
    descriptor.  A file is written in one piece by :func:`_write_text`.

    A row is its text columns as ``csv`` quotes them, then one ``%`` of the
    format of its number columns' types, each built once per call; a row
    with text columns other than ``str`` or None, or with a number column
    of another type, is written field by field."""
    if isinstance(path, int):  # bool included
        raise ValueError(f"write_csv needs a file path or a text stream, got {path!r}")
    stream = path if hasattr(path, "write") else io.StringIO()
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\n")  # one per call: each holds a 128 KiB buffer

    def csv_line(cells) -> str:
        line.seek(0)
        line.truncate()
        writer.writerow(cells)
        return line.getvalue()

    stream.write(csv_line(CSV_HEADER))
    texts, numbers = attrgetter(*CSV_HEADER[:3]), attrgetter(*CSV_HEADER[3:])
    formats, prefixes = {}, {}
    for row in rows:
        text, values = texts(row), numbers(row)
        kinds = (*map(type, values),)  # a resized tuple(map(...)) would stay on a free list
        if (fmt := formats.get(kinds)) is None:
            known = all(map(_NUMBER_FORMATS.__contains__, kinds))
            fmt = formats[kinds] = ",".join(map(_NUMBER_FORMATS.get, kinds)) + "\n" if known else ""
        plain = _TEXT_TYPES.issuperset(map(type, text))  # a list is no cache key
        if plain and (prefix := prefixes.get(text)) is None:
            # the quoted text cells, each with the comma after it
            prefix = prefixes[text] = csv_line(text + ("",))[:-1]
        if fmt and plain:
            stream.write(prefix + fmt % values)
        else:
            cells = ["%.17g" % v if isinstance(v, float) else v for v in text + values]
            stream.write(csv_line(cells))
    if stream is not path:
        _write_text(path, stream.getvalue())


def _write_text(path, text: str) -> None:
    """Write ``text`` to the file ``path`` as UTF-8, in one call; every
    file the package writes goes through here.

    An existing file is overwritten in place and truncated only when it
    was longer than the new bytes: ext4 frees the blocks of a file that
    is truncated to zero and starts its writeback on close
    (``auto_da_alloc``), which made up most of the cost of rewriting a
    small file.  The final bytes, mode, inode and ``OSError`` messages
    are those of ``open(path, "wb")``.  No write was ever atomic or
    fsync'd, and none is now: a crash can leave a mix of old and new
    bytes.  A target that is no regular file, such as ``os.devnull``,
    reports size 0 and so is never truncated."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        longer = os.fstat(f.fileno()).st_size > len(data)
        f.write(data)
        if longer:
            f.truncate(len(data))


_INT_COLS = {"n", "k", "m", "cycles", "seed"}
_STR_COLS = {"experiment", "policy_source", "policy_cluster"}


def read_csv(path) -> list[ResultRow]:
    """Parse a CSV produced by :func:`write_csv` back into rows.  An empty
    file, a foreign header, a row whose length is not the header's, or a
    number that does not parse raises ``ValueError`` naming path and line."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}, line 1: empty file, expected the CSV header")
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected header {tuple(header)!r}")
        kinds = [str if c in _STR_COLS else int if c in _INT_COLS else float for c in CSV_HEADER]
        rows = []
        for record in reader:
            where = f"{path}, line {reader.line_num}"
            if len(record) != len(CSV_HEADER):
                raise ValueError(f"{where}: {len(record)} fields, expected {len(CSV_HEADER)}")
            kwargs = {}
            for col, kind, text in zip(CSV_HEADER, kinds, record):
                try:
                    kwargs[col] = kind(text) if text else None
                except ValueError:
                    raise ValueError(f"{where}: {col} is no {kind.__name__}: {text!r}") from None
            rows.append(_build(ResultRow, {**kwargs, "case": None}))
    return rows


#: A row's case, then the fields that put it into its plot series.
_stretch_key = attrgetter(
    "case", "experiment", "policy_source", "policy_cluster",
    "lambda_e", "lambda_s", "lambda_c", "lambda_g",
)


def _series(rows) -> dict[str, tuple]:
    """Plot series in order of first appearance, keyed by file name, each
    an ``(experiment, policy, case)`` label and its rows.

    A series is one experiment's policy (``source+cluster`` for clustered
    rows) at one full rate tuple as its rows carry it.  A row of a policy
    that does not gossip has no ``lambda_g``, so rate cases that differ
    only in ``lambda_g`` are one series for that policy, which keeps each
    point ``(n, k)`` once.  A series is numbered ``i`` by its first row's
    config case, ``row.case + 1``.  Clustered series are labelled
    ``case<i>``; flat ones ``alpha<lambda_e / lambda_s>`` (``alphainf``
    when lambda_s = 0), with ``_case<i>`` added where several series of
    one experiment's policy share it.  A row without a case (read back by
    :func:`read_csv`), two series under one name, or a name that breaks
    core's name rule (a config built in code may name its experiment
    ``../x``) raise ``ValueError``.
    """
    groups: dict[tuple, tuple[int, dict]] = {}  # series key: (number, points)
    for key, stretch in groupby(rows, _stretch_key):  # one group lookup per stretch
        if key[0] is None:
            raise ValueError("plot series need rows from run_experiment; CSV rows carry no case")
        points = groups.setdefault(key[1:], (key[0] + 1, {}))[1]
        for row in stretch:
            points.setdefault((row.n, row.k), row)
    shared = Counter((*key[:2], _alpha(*key[3:5])) for key in groups if key[2] is None)
    series = {}
    for key, (number, points) in groups.items():
        experiment, source, cluster, le, ls = key[:5]
        case = f"case{number}"
        if cluster is None:
            alpha = _alpha(le, ls)
            unique = shared[experiment, source, alpha] == 1
            label = (experiment, source, alpha if unique else f"{alpha}_{case}")
        else:
            label = (experiment, f"{source}+{cluster}", case)
        name = "__".join(label) + ".dat"
        require(name_problem("plot series file name", name))  # a file inside out_dir
        if name in series:
            raise ValueError(f"two plot series would write {name}")
        series[name] = label, list(points.values())
    return series


def _alpha(lambda_e, lambda_s) -> str:
    """The label of a flat series: ``alpha<lambda_e / lambda_s>``."""
    return f"alpha{lambda_e / lambda_s:g}" if lambda_s > 0 else "alphainf"


def emit_plot_data(rows, out_dir=".") -> list[Path]:
    """Write one two-column series file per (experiment, policy, case) group.

    Files are named ``<experiment>__<policy>__<case>.dat`` and hold
    ``x p_oracle`` pairs (x is k for clustered rows, n for flat ones)
    behind a ``#`` comment header; :func:`_series` groups and names them,
    and raises ``ValueError`` before any file is written for rows without
    a case (read back by :func:`read_csv`), for two series with one name
    and for a name with a path separator.  Returns the written paths.
    """
    if not rows:
        raise ValueError("emit_plot_data needs at least one row")
    series = _series(rows)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, ((experiment, policy, case), members) in series.items():
        lines = [
            f"# series: experiment={experiment} policy={policy} case={case}\n",
            "# columns: x freshness\n",
            *(f"{row.n if row.k is None else row.k} {row.p_oracle:.17g}\n" for row in members),
        ]
        path = out_dir / name
        _write_text(path, "".join(lines))
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

    All divisor scans come from one :func:`_grid` pass over
    :func:`oracle_sizes`, the one :func:`run_experiment` reads, so each
    tier policy is evaluated once over every (case, divisor) cell; each
    optimum equals :func:`optimal_cluster_size`'s, ties going to the
    smallest k.  Beyond the raw optima, the notes flag which pair wins
    each case and, when both single-sided stale-targeting placements are
    present, whether the placement matching the larger tier rate wins
    (their peaks tie when lambda_s == lambda_c).
    """
    if config.mode != "clustered_sweep_k":
        raise ConfigError(["report_optimal_k needs a clustered_sweep_k config"])
    ks, profiles = _grid(config, oracle_sizes)
    entries = []
    notes = []
    for case, case_profiles in zip(config.cases, profiles):
        case_entries = []
        for (src, cl), profile in zip(config.policies, case_profiles):
            p_star = max(profile)
            k_star = ks[profile.index(p_star)]
            case_entries.append(
                OptimalKEntry(case.label, src.value, cl.value, k_star, config.n // k_star, p_star)
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
            else:
                # the placement on the faster tier should win
                above = r.lambda_s > r.lambda_c
                fast, slow = (src_side, cl_side) if above else (cl_side, src_side)
                notes.append(
                    f"{case.label}: lambda_s {'>' if above else '<'} lambda_c, "
                    f"{'source' if above else 'cluster'}-side placement "
                    f"{'wins' if fast.p_star >= slow.p_star else 'UNEXPECTEDLY loses'} "
                    f"({fast.p_star:.12g} vs {slow.p_star:.12g})"
                )
    return OptimalKReport(entries=tuple(entries), notes=tuple(notes))
