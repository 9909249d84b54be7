"""Acceptance checks: the verification gate for the whole package.

Each criterion is a pure function returning a :class:`CriterionResult`;
the CLI ``selftest`` verb and the test suite both run these.  Details are
deterministic (all Monte Carlo seeds are fixed), so a report written by
:func:`write_report` is byte-identical across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import DC_POLICIES, STALE_TARGETING, Clustered, GossipPolicy, NetworkSpec, Rates
from .analytic import (
    closed_clustered,
    closed_flat,
    closed_sizes,
    clustered_freshness,
    clustered_profiles,
    count_law_sizes,
    divisors,
    oracle_flat,
    oracle_sizes,
)
from .simulator import decomposition_check, estimate_freshness_cycles, estimate_freshness_time
from .experiments import ExperimentConfig, run_experiment

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "criterion_names",
    "run_criteria",
    "format_line",
    "write_report",
]

RATE_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)
MAX_N = 64
NS = tuple(range(1, MAX_N + 1))
TOL = 1e-12
#: lambda_s / lambda_e decades, 10^-1 .. 10^12, that criterion 1 adds to
#: the flat tiers' (lambda_e, lambda_s) grid at lambda_e = 1.
RATIO_DECADES = tuple(10.0**d for d in range(-1, 13))
FLAT_RATE_POINTS = tuple(
    dict.fromkeys(
        [(le, ls) for le in RATE_GRID for ls in RATE_GRID]
        + [(1.0, ratio) for ratio in RATIO_DECADES]
    )
)

_DC_PAIRS = (
    (GossipPolicy.DC_noRC, GossipPolicy.DC_noRC),
    (GossipPolicy.DC_noRC, GossipPolicy.DC_RC),
    (GossipPolicy.DC_RC, GossipPolicy.DC_noRC),
    (GossipPolicy.DC_RC, GossipPolicy.DC_RC),
)
_FC_PAIRS = (
    (GossipPolicy.DC_noRC, GossipPolicy.FC_noRC),
    (GossipPolicy.DC_RC, GossipPolicy.FC_noRC),
    (GossipPolicy.DC_RC, GossipPolicy.FC_allRC),
)


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    title: str
    passed: bool
    runtime: float
    detail: str


def _result(criterion, title, t0, failures, detail_ok, budget=None):
    runtime = time.perf_counter() - t0
    if budget is not None and runtime >= budget:
        failures = list(failures) + [f"runtime {runtime:.2f}s exceeded the {budget:.0f}s budget"]
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... {len(failures)} failures total"
        return CriterionResult(criterion, title, False, runtime, shown)
    return CriterionResult(criterion, title, True, runtime, detail_ok)


def criterion_1() -> CriterionResult:
    """Every flat closed form and the capture-count law match the recursion
    to 1e-12, one call per route and policy over every rate point."""
    t0 = time.perf_counter()
    failures: list[str] = []
    worst = {"closed": 0.0, "count law": 0.0}
    for pol in GossipPolicy:
        gossip = RATE_GRID if pol.gossips else (0.0,)
        points = [(le, ls, lg) for lg in gossip for le, ls in FLAT_RATE_POINTS]
        les, lss, lgs = zip(*points)  # row c of each route is points[c]
        oracle = oracle_sizes(pol, lss, lgs, les, NS)
        # every flat policy against the count law; FC_sRC has no closed form
        for route, values in (
            ("closed", closed_sizes(pol, lss, lgs, les, NS)),
            ("count law", count_law_sizes(pol, lss, lgs, les, NS)),
        ):
            if values is None:
                continue
            diff = np.abs(values - oracle)
            worst[route] = max(worst[route], float(diff.max()))
            for c, i in zip(*np.nonzero(diff > TOL)):
                where = "{} n={} le={} ls={} lg={}".format(pol.value, NS[i], *points[c])
                failures.append(f"{where}: |{route} - oracle| = {diff[c, i]:.3e}")

    return _result(
        "1",
        "closed forms and the count law match the generic recursion on the full grid",
        t0,
        failures,
        "max |closed - oracle| = {:.3e}, max |count law - oracle| = {:.3e}".format(
            *worst.values()
        ),
        budget=2.0,
    )


def _chain_freshness(spec: NetworkSpec) -> Fraction:
    """Exact end-node freshness of ``spec`` from the continuous-time Markov
    chain over the *sets* of fresh nodes and fresh clusterheads, built from
    each policy's definition alone, in ``Fraction`` arithmetic of the
    spec's float rates.

    A state is a bit mask of the fresh members.  The source, always fresh,
    pushes at lambda_s to a uniform member of its tier, or to a uniform
    stale one under a stale-targeting policy; each fresh clusterhead
    relays at lambda_c to its own k nodes the same way; under an FC policy
    each fresh node gossips at lambda_g to a uniform other node of its tier,
    or to a uniform stale one under ``FC_allRC``; a refresh at lambda_e
    empties every set.  Every transition but the refresh adds a member, so
    a nonempty set's balance equation involves only smaller masks, and one
    pass in increasing mask order solves for the stationary law, up to its
    normalisation.  Freshness is E[fresh end nodes] / n.  The chain shares
    no code with the ``u(j)`` table or the renewal recursion it checks.
    """
    r, shape = spec.rates, spec.shape
    le, ls, lc, lg = (Fraction(x) for x in (r.lambda_e, r.lambda_s, r.lambda_c, r.lambda_g))
    if isinstance(shape, Clustered):
        m, k = shape.m, shape.k
        groups = [range(m + c * k, m + (c + 1) * k) for c in range(m)]
        senders = [(None, ls, range(m), shape.source_policy in STALE_TARGETING)]
        senders += [(c, lc, groups[c], shape.cluster_policy in STALE_TARGETING) for c in range(m)]
        policy, ends = shape.cluster_policy, range(m, m + shape.n)
    else:
        policy, ends = shape.policy, range(shape.n)
        groups = [ends]
        senders = [(None, ls, ends, policy in STALE_TARGETING)]
    if policy.gossips:  # a fresh node gossips within its own tier or cluster
        senders += [
            (i, lg, [j for j in group if j != i], policy is GossipPolicy.FC_allRC)
            for group in groups
            for i in group
        ]
    inflow, law = {0: Fraction(1)}, {}  # the empty set's weight is 1; law is unnormalised
    for mask in range(1 << (max(ends) + 1)):
        if mask not in inflow:
            continue  # no transition reaches this set
        moves = {}
        for sender, rate, targets, stale_only in senders:
            if sender is None or mask >> sender & 1:  # only a fresh member sends
                stale = [t for t in targets if not mask >> t & 1]
                for t in stale:
                    share = rate / len(stale if stale_only else targets)
                    moves[mask | 1 << t] = moves.get(mask | 1 << t, 0) + share
        law[mask] = inflow[mask] / (sum(moves.values()) + le) if mask else inflow[mask]
        for to, rate in moves.items():
            inflow[to] = inflow.get(to, 0) + law[mask] * rate
    fresh = sum(p * sum(mask >> i & 1 for i in ends) for mask, p in law.items())
    return fresh / (sum(law.values()) * len(ends))


def _route_values(spec: NetworkSpec):
    """``(where, route, value)`` for each exact route of ``spec`` that has
    a formula: the recursion and the closed form of a flat spec, or of a
    clustered one."""
    r, shape = spec.rates, spec.shape
    if isinstance(shape, Clustered):
        src, cl = shape.source_policy, shape.cluster_policy
        where = f"({src.value},{cl.value}) m={shape.m} k={shape.k} le={r.lambda_e} "
        where += f"ls={r.lambda_s} lc={r.lambda_c} lg={r.lambda_g}"
        values = {
            "clustered_freshness": clustered_freshness(spec)[0],
            "closed_clustered": closed_clustered(src, cl, shape.m, shape.k, r),
        }
    else:
        pol, rates = shape.policy, (r.lambda_s, r.lambda_g, r.lambda_e, shape.n)
        where = f"{pol.value} n={shape.n} le={r.lambda_e} ls={r.lambda_s} lg={r.lambda_g}"
        values = {"oracle_flat": oracle_flat(pol, *rates), "closed_flat": closed_flat(pol, *rates)}
    return [(where, route, v) for route, v in values.items() if v is not None]


def criterion_2() -> CriterionResult:
    """Every exact route equals the fresh-set Markov chain to 1e-12: each
    flat policy at n = 1..5 at criterion 4's ``MC_RATE_POINTS``, and each DC
    source with each cluster policy at every shape of at most six members
    (m + m k <= 6), at unit rates and criterion 5's ``DECOMP_RATES``."""
    t0 = time.perf_counter()
    failures = []
    worst, count = 0.0, 0
    specs = [
        NetworkSpec.flat(n, pol, Rates(le, ls, 0.0, lg))
        for le, ls, lg in MC_RATE_POINTS
        for pol in GossipPolicy
        for n in range(1, 6)
    ]
    specs += [
        NetworkSpec.clustered(m * k, k, src, cl, rates)
        for rates in (Rates(1.0, 1.0, 1.0, 1.0), DECOMP_RATES)
        for m in range(1, 4)
        for k in range(1, 6)
        if m + m * k <= 6
        for src in DC_POLICIES
        for cl in GossipPolicy
    ]
    for spec in specs:
        want = _chain_freshness(spec)
        for where, route, got in _route_values(spec):
            diff = abs(got - float(want))
            worst, count = max(worst, diff), count + 1
            if diff > TOL:
                failures.append(f"{where}: {route} = {got!r}, want {want} (diff {diff:.3e})")
    return _result(
        "2",
        "exact routes match the fresh-set Markov chain at small sizes",
        t0,
        failures,
        f"{count} route values, max diff = {worst:.3e}",
        budget=1.0,
    )


def criterion_3() -> CriterionResult:
    """Stale-targeting dominance, FC policy ordering, zero-gossip collapse,
    one route call per policy over every rate point."""
    t0 = time.perf_counter()
    failures = []
    P = GossipPolicy
    fc = (P.FC_allRC, P.FC_sRC, P.FC_noRC)
    points = [(le, ls, lg) for le in RATE_GRID for ls in RATE_GRID for lg in RATE_GRID]
    les, lss, lgs = zip(*points)  # row c of each route is points[c]
    p_all, p_src, p_no = (oracle_sizes(pol, lss, lgs, les, NS) for pol in fc)
    for c, i in zip(*np.nonzero(~((p_all >= p_src) & (p_src >= p_no)))):
        failures.append("FC ordering broken at n={} le={} ls={} lg={}".format(NS[i], *points[c]))
    # dominance between the closed forms (n = 1 is a tie); zero-gossip
    # collapse: exact through the recursion, 1e-12 between the closed forms
    points = [(le, ls) for le in RATE_GRID for ls in RATE_GRID]
    les, lss = zip(*points)
    c_rc, c_norc, c_all, c_no = (
        closed_sizes(pol, lss, 0.0, les, NS) for pol in (P.DC_RC, P.DC_noRC, P.FC_allRC, P.FC_noRC)
    )
    p_rc, p_norc, p_all, p_src, p_no = (
        oracle_sizes(pol, lss, 0.0, les, NS) for pol in (P.DC_RC, P.DC_noRC, *fc)
    )
    for bad, what in (
        (~(c_rc > c_norc) & (np.array(NS) > 1), "DC_RC <= DC_noRC"),
        (p_all != p_rc, "FC_allRC(lg=0) != DC_RC"),
        (p_src != p_rc, "FC_sRC(lg=0) != DC_RC"),
        (p_no != p_norc, "FC_noRC(lg=0) != DC_noRC"),
        (np.abs(c_all - c_rc) > TOL, "closed FC_allRC(lg=0) far from DC_RC"),
        (np.abs(c_no - c_norc) > TOL, "closed FC_noRC(lg=0) far from DC_noRC"),
    ):
        failures.extend(
            "{} at n={} le={} ls={}".format(what, NS[i], *points[c])
            for c, i in zip(*np.nonzero(bad))
        )
    return _result(
        "3",
        "policy orderings and zero-gossip collapse",
        t0,
        failures,
        "dominance, ordering, and collapse hold on the full grid",
    )


#: (lambda_e, lambda_s, lambda_g) points for the Monte Carlo criteria.
MC_RATE_POINTS = ((1.0, 1.0, 1.0), (0.1, 1.0, 0.5), (2.0, 1.0, 4.0))
MC_NS = (1, 2, 3, 5, 8)
MC_CYCLES = 100_000
#: Criterion 4's trajectory horizon, in expected refresh cycles (1 / lambda_e).
MC_REFRESHES = 5_000


def criterion_4() -> CriterionResult:
    """Both flat engines within 4 sigma of the exact value, every flat case.

    The cycle estimator samples the capture-count law that criterion 1
    already holds to the recursion, so the independent check is the
    trajectory engine (:func:`estimate_freshness_time`), which simulates
    every delivery event by event; it runs over ``MC_REFRESHES / lambda_e``.
    """
    t0 = time.perf_counter()
    failures = []
    worst_z = {"cycle": 0.0, "trajectory": 0.0}
    idx = 0
    les, lss, lgs = zip(*MC_RATE_POINTS)
    for policy in GossipPolicy:
        targets = oracle_sizes(policy, lss, lgs, les, MC_NS).T.tolist()
        for n, n_targets in zip(MC_NS, targets):
            for (le, ls, lg), target in zip(MC_RATE_POINTS, n_targets):
                spec = NetworkSpec.flat(n, policy, Rates(le, ls, 0.0, lg))
                seed = 1000 + idx
                idx += 1
                estimates = {
                    "cycle": estimate_freshness_cycles(spec, MC_CYCLES, seed=seed),
                    "trajectory": estimate_freshness_time(spec, MC_REFRESHES / le, seed=seed),
                }
                for engine, est in estimates.items():
                    z = (est.p_hat - target) / est.stderr
                    worst_z[engine] = max(worst_z[engine], abs(z))
                    if abs(z) > 4.0:
                        where = f"{policy.value} n={n} le={le} ls={ls} lg={lg}"
                        shown = "" if engine == "cycle" else f"{engine} "
                        failures.append(f"{where}: {shown}|z| = {abs(z):.2f}")
    return _result(
        "4",
        "flat Monte Carlo agrees with exact values (trajectory engine as the independent check)",
        t0,
        failures,
        f"{idx} runs of {MC_CYCLES} cycles, max |z| = {worst_z['cycle']:.2f}; "
        f"{idx} trajectories of {MC_REFRESHES} refreshes, max |z| = {worst_z['trajectory']:.2f}",
        budget=20.0,
    )


DECOMP_SHAPES = ((2, 2), (3, 4), (4, 3))
DECOMP_RATES = Rates(lambda_e=1.0, lambda_s=2.0, lambda_c=3.0, lambda_g=1.5)


def criterion_5() -> CriterionResult:
    """Two-level simulation within 4 sigma of the stage product."""
    t0 = time.perf_counter()
    failures = []
    worst_z = 0.0
    idx = 0
    for src in DC_POLICIES:
        for cl in GossipPolicy:
            for m, k in DECOMP_SHAPES:
                spec = NetworkSpec.clustered(m * k, k, src, cl, DECOMP_RATES)
                rep = decomposition_check(spec, MC_CYCLES, seed=2000 + idx)
                idx += 1
                worst_z = max(worst_z, abs(rep.z))
                if abs(rep.z) > 4.0:
                    failures.append(
                        f"({src.value},{cl.value}) m={m} k={k}: |z| = {abs(rep.z):.2f}"
                    )
    return _result(
        "5",
        "clustered simulation matches the two-stage product",
        t0,
        failures,
        f"{idx} runs of {MC_CYCLES} cycles, max |z| = {worst_z:.2f}",
        budget=5.0,
    )


def criterion_6() -> CriterionResult:
    """Optimal-cluster-size claims at n = 120 (analytic only), from one
    divisor scan of every rate case and policy pair."""
    t0 = time.perf_counter()
    failures = []
    P = GossipPolicy
    ks = divisors(120)
    eq = Rates(1.0, 1.0, 1.0, 1.0)
    fast_src, fast_cl = Rates(1.0, 2.0, 1.0, 0.0), Rates(1.0, 1.0, 2.0, 0.0)
    cases, pairs = (eq, fast_src, fast_cl), _DC_PAIRS + _FC_PAIRS
    peak = {}  # (rates, pair) -> (k*, p*), the first maximum being the smallest k
    for rates, row in zip(cases, clustered_profiles(oracle_sizes, 120, ks, cases, pairs)):
        for pair, profile in zip(pairs, row):
            profile = profile.tolist()
            peak[rates, pair] = ks[profile.index(max(profile))], max(profile)

    def beats(winner, others):
        name = lambda pair: f"({pair[0].value},{pair[1].value})"
        best = peak[eq, winner][1]
        for pair in others:
            p = peak[eq, pair][1]
            if pair != winner and not best > p:
                failures.append(
                    f"{name(winner)} peak {best!r} does not beat {name(pair)} peak {p!r}"
                )

    beats((P.DC_RC, P.DC_RC), _DC_PAIRS)
    src_side, cl_side = (P.DC_RC, P.DC_noRC), (P.DC_noRC, P.DC_RC)
    (k_srcside, p_srcside), (k_clside, p_clside) = peak[eq, src_side], peak[eq, cl_side]
    if abs(p_srcside - p_clside) > TOL:
        failures.append(
            f"single-sided peaks differ at lambda_s == lambda_c: "
            f"{p_srcside!r} vs {p_clside!r}"
        )
    if k_srcside == k_clside:
        failures.append(f"single-sided optima share k* = {k_srcside}")
    if not peak[fast_src, src_side][1] >= peak[fast_src, cl_side][1]:
        failures.append("source-side placement loses despite lambda_s > lambda_c")
    if not peak[fast_cl, cl_side][1] >= peak[fast_cl, src_side][1]:
        failures.append("cluster-side placement loses despite lambda_s < lambda_c")
    beats((P.DC_RC, P.FC_allRC), _FC_PAIRS)

    return _result(
        "6",
        "optimal cluster size study at n=120",
        t0,
        failures,
        f"single-sided peaks match to {abs(p_srcside - p_clside):.1e} "
        f"at k*={k_srcside} vs k*={k_clside}",
        budget=5.0,
    )


_DETERMINISM_CONFIG = {
    "name": "determinism_probe",
    "mode": "flat_sweep_n",
    "policies": ["DC_RC", "FC_allRC"],
    "rates": {"lambda_s": 1.0, "lambda_g": 1.0, "alpha": [0.5]},
    "n_range": [1, 6],
    "sim": {"cycles": 2000, "seed": 11},
}


def criterion_7() -> CriterionResult:
    """Same seeds give byte-identical CSVs and identical estimates."""
    import tempfile

    t0 = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        blobs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig.from_dict(
                dict(_DETERMINISM_CONFIG, output=str(td / f"sweep_{name}.csv"))
            )
            run_experiment(cfg)
            blobs.append((td / f"sweep_{name}.csv").read_bytes())
        if blobs[0] != blobs[1]:
            failures.append("sweep CSVs differ between identically seeded runs")

        reports = []
        for runtime in (0.25, 7.5):  # a report holds no wall-clock column
            path = td / f"selftest_{runtime}.csv"
            result = CriterionResult("1", "a title", True, runtime, 'a detail, with a "quote"')
            write_report([result], path)
            reports.append(path.read_bytes())
        if reports[0] != reports[1]:
            failures.append("selftest report CSVs differ between runs")

    specs = {
        "flat": NetworkSpec.flat(3, GossipPolicy.FC_sRC, Rates(1.0, 1.0, 0.0, 1.0)),
        "clustered": NetworkSpec.clustered(
            12, 4, GossipPolicy.DC_RC, GossipPolicy.FC_allRC, Rates(1.0, 1.0, 1.0, 1.0)
        ),
    }
    for shape, spec in specs.items():
        if estimate_freshness_cycles(spec, 5000, seed=3) != estimate_freshness_cycles(
            spec, 5000, seed=3
        ):
            failures.append(f"{shape} cycle estimator not reproducible")
        if estimate_freshness_time(spec, 500.0, seed=3) != estimate_freshness_time(
            spec, 500.0, seed=3
        ):
            failures.append(f"{shape} time estimator not reproducible")
    return _result(
        "7",
        "seeded runs are byte-identical",
        t0,
        failures,
        "sweep CSV, selftest report, and both estimators on a flat and a "
        "clustered spec reproduce exactly",
    )


CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
}


def criterion_names(names=None) -> list[str]:
    """The criteria ``names`` selects (all of them by default), in order,
    each once; ``ValueError`` names the first unknown one."""
    names = list(CRITERIA) if names is None else list(dict.fromkeys(names))
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; valid: {sorted(CRITERIA)}")
    return names


def run_criteria(names=None) -> list[CriterionResult]:
    """Run the criteria :func:`criterion_names` selects; every name is
    checked before the first criterion runs."""
    return [CRITERIA[name]() for name in criterion_names(names)]


def format_line(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return f"{status} criterion {res.criterion}: {res.title} ({res.detail}) [{res.runtime:.2f}s]"


def write_report(results, path) -> Path:
    """Deterministic CSV report (no wall-clock columns)."""
    import csv

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("criterion", "title", "passed", "detail"))
        for res in results:
            writer.writerow((res.criterion, res.title, str(res.passed), res.detail))
    return path
