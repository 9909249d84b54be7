"""Acceptance checks: the verification gate for the whole package.

Each criterion is a pure function returning a :class:`CriterionResult`;
the CLI ``selftest`` verb and the test suite both run these.  Details are
deterministic (all Monte Carlo seeds are fixed), so a report written by
:func:`write_report` is byte-identical across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import DC_POLICIES, GossipPolicy, NetworkSpec, Rates
from .analytic import (
    closed_clustered,
    closed_flat,
    divisors,
    freshness_dc_norc,
    freshness_dc_rc,
    freshness_fc_allrc,
    freshness_fc_norc,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
)
from .simulator import decomposition_check, estimate_freshness_cycles, estimate_freshness_time
from .experiments import ExperimentConfig, run_experiment

__all__ = ["CriterionResult", "CRITERIA", "run_criteria", "format_line", "write_report"]

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


def _size_pairs():
    """All (m, k) with m * k <= MAX_N."""
    pairs = []
    for n in range(1, MAX_N + 1):
        for k in divisors(n):
            pairs.append((n // k, k))
    return pairs


def criterion_1() -> CriterionResult:
    """Closed forms and clustered products match the recursion to 1e-12."""
    t0 = time.perf_counter()
    failures: list[str] = []
    worst = 0.0

    def check(label, closed, oracle):
        nonlocal worst
        diff = abs(closed - oracle)
        if diff > worst:
            worst = diff
        if diff > TOL:
            failures.append(f"{label}: |closed - oracle| = {diff:.3e}")

    flat_cases = [(GossipPolicy.DC_noRC, 0.0), (GossipPolicy.DC_RC, 0.0)] + [
        (pol, lg) for pol in (GossipPolicy.FC_allRC, GossipPolicy.FC_noRC) for lg in RATE_GRID
    ]
    for le, ls in FLAT_RATE_POINTS:
        for pol, lg in flat_cases:
            oracles = oracle_sizes(pol, ls, lg, le, NS).tolist()
            for n, oracle in zip(NS, oracles):
                check(
                    f"{pol.value} n={n} le={le} ls={ls} lg={lg}",
                    closed_flat(pol, ls, lg, le, n),
                    oracle,
                )

    # clustered products: cache per-tier factors, then compare every row
    sizes = sorted({s for pair in _size_pairs() for s in pair})
    src_c, src_o, cl_c, cl_o = {}, {}, {}, {}
    for pol in DC_POLICIES:
        for le in RATE_GRID:
            for lam in RATE_GRID:
                oracles = oracle_sizes(pol, lam, 0.0, le, sizes).tolist()
                for s, oracle in zip(sizes, oracles):
                    src_c[pol, s, lam, le] = closed_flat(pol, lam, 0.0, le, s)
                    src_o[pol, s, lam, le] = oracle
    cl_c.update(src_c)
    cl_o.update(src_o)
    for pol in (GossipPolicy.FC_noRC, GossipPolicy.FC_allRC):
        for le in RATE_GRID:
            for lc in RATE_GRID:
                for lg in RATE_GRID:
                    oracles = oracle_sizes(pol, lc, lg, le, sizes).tolist()
                    for s, oracle in zip(sizes, oracles):
                        cl_c[pol, s, lc, lg, le] = closed_flat(pol, lc, lg, le, s)
                        cl_o[pol, s, lc, lg, le] = oracle

    for m, k in _size_pairs():
        for le in RATE_GRID:
            for ls in RATE_GRID:
                for lc in RATE_GRID:
                    for src, cl in _DC_PAIRS:
                        closed = src_c[src, m, ls, le] * cl_c[cl, k, lc, le]
                        oracle = src_o[src, m, ls, le] * cl_o[cl, k, lc, le]
                        check(f"({src.value},{cl.value}) m={m} k={k}", closed, oracle)
                    for lg in RATE_GRID:
                        for src, cl in _FC_PAIRS:
                            closed = src_c[src, m, ls, le] * cl_c[cl, k, lc, lg, le]
                            oracle = src_o[src, m, ls, le] * cl_o[cl, k, lc, lg, le]
                            check(f"({src.value},{cl.value}) m={m} k={k}", closed, oracle)

    return _result(
        "1",
        "closed forms match the generic recursion on the full grid",
        t0,
        failures,
        f"max |closed - oracle| = {worst:.3e}",
        budget=10.0,
    )


def criterion_2() -> CriterionResult:
    """Hand-derived rational spot values, each to 1e-12."""
    t0 = time.perf_counter()
    one = Rates(1.0, 1.0, 1.0, 1.0)
    cases = [
        ("DC_RC n=3", freshness_dc_rc(1.0, 1.0, 3), Fraction(7, 24)),
        ("FC_allRC n=2", freshness_fc_allrc(1.0, 1.0, 1.0, 2), Fraction(5, 12)),
        ("FC_allRC n=3", freshness_fc_allrc(1.0, 1.0, 1.0, 3), Fraction(13, 36)),
        (
            "FC_sRC n=3 (recursion)",
            oracle_flat(GossipPolicy.FC_sRC, 1.0, 1.0, 1.0, 3),
            Fraction(19, 54),
        ),
        (
            "(DC_RC,DC_RC) m=k=2",
            closed_clustered(GossipPolicy.DC_RC, GossipPolicy.DC_RC, 2, 2, one),
            Fraction(9, 64),
        ),
        (
            "(DC_RC,FC_allRC) m=k=2",
            closed_clustered(GossipPolicy.DC_RC, GossipPolicy.FC_allRC, 2, 2, one),
            Fraction(5, 32),
        ),
    ]
    failures = []
    worst = 0.0
    for label, got, frac in cases:
        diff = abs(got - float(frac))
        worst = max(worst, diff)
        if diff > TOL:
            failures.append(f"{label}: got {got!r}, want {frac} (diff {diff:.3e})")
    return _result(
        "2", "hand-derived spot values", t0, failures, f"max diff = {worst:.3e}"
    )


def criterion_3() -> CriterionResult:
    """Stale-targeting dominance, FC policy ordering, zero-gossip collapse."""
    t0 = time.perf_counter()
    failures = []
    for n in range(2, MAX_N + 1):
        for le in RATE_GRID:
            for ls in RATE_GRID:
                rc = freshness_dc_rc(ls, le, n)
                norc = freshness_dc_norc(ls, le, n)
                if not rc > norc:
                    failures.append(f"DC_RC <= DC_noRC at n={n} le={le} ls={ls}")
    fc = (GossipPolicy.FC_allRC, GossipPolicy.FC_sRC, GossipPolicy.FC_noRC)
    for le in RATE_GRID:
        for ls in RATE_GRID:
            for lg in RATE_GRID:
                p_all, p_src, p_no = (oracle_sizes(pol, ls, lg, le, NS).tolist() for pol in fc)
                for n, a, s, o in zip(NS, p_all, p_src, p_no):
                    if not (a >= s >= o):
                        failures.append(f"FC ordering broken at n={n} le={le} ls={ls} lg={lg}")
            # zero-gossip collapse: exact through the recursion, 1e-12
            # between the independently coded closed forms
            p_rc = oracle_sizes(GossipPolicy.DC_RC, ls, 0.0, le, NS).tolist()
            p_norc = oracle_sizes(GossipPolicy.DC_noRC, ls, 0.0, le, NS).tolist()
            p_all, p_src, p_no = (oracle_sizes(pol, ls, 0.0, le, NS).tolist() for pol in fc)
            for n, rc, norc, a, s, o in zip(NS, p_rc, p_norc, p_all, p_src, p_no):
                if a != rc:
                    failures.append(f"FC_allRC(lg=0) != DC_RC at n={n} le={le} ls={ls}")
                if s != rc:
                    failures.append(f"FC_sRC(lg=0) != DC_RC at n={n} le={le} ls={ls}")
                if o != norc:
                    failures.append(f"FC_noRC(lg=0) != DC_noRC at n={n} le={le} ls={ls}")
                if abs(freshness_fc_allrc(ls, 0.0, le, n) - freshness_dc_rc(ls, le, n)) > TOL:
                    failures.append(f"closed FC_allRC(lg=0) far from DC_RC at n={n}")
                if abs(freshness_fc_norc(ls, 0.0, le, n) - freshness_dc_norc(ls, le, n)) > TOL:
                    failures.append(f"closed FC_noRC(lg=0) far from DC_noRC at n={n}")
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


def criterion_4() -> CriterionResult:
    """Cycle estimator within 4 sigma of the exact value, every flat case."""
    t0 = time.perf_counter()
    failures = []
    worst_z = 0.0
    idx = 0
    for policy in GossipPolicy:
        for n in MC_NS:
            for le, ls, lg in MC_RATE_POINTS:
                target = oracle_flat(policy, ls, lg, le, n)
                spec = NetworkSpec.flat(n, policy, Rates(le, ls, 0.0, lg))
                est = estimate_freshness_cycles(spec, MC_CYCLES, seed=1000 + idx)
                idx += 1
                z = (est.p_hat - target) / est.stderr
                worst_z = max(worst_z, abs(z))
                if abs(z) > 4.0:
                    failures.append(
                        f"{policy.value} n={n} le={le} ls={ls} lg={lg}: |z| = {abs(z):.2f}"
                    )
    return _result(
        "4",
        "flat Monte Carlo agrees with exact values",
        t0,
        failures,
        f"{idx} runs of {MC_CYCLES} cycles, max |z| = {worst_z:.2f}",
        budget=60.0,
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
    )


def criterion_6() -> CriterionResult:
    """Optimal-cluster-size claims at n = 120 (analytic only)."""
    t0 = time.perf_counter()
    failures = []
    n = 120

    def peak(rates, src, cl):
        k_star, _, p_star, _ = optimal_cluster_size(n, rates, src, cl)
        return k_star, p_star

    eq = Rates(1.0, 1.0, 1.0, 1.0)
    peaks = {(src, cl): peak(eq, src, cl) for src, cl in _DC_PAIRS}
    best = peaks[GossipPolicy.DC_RC, GossipPolicy.DC_RC][1]
    for pair, (_, p) in peaks.items():
        if pair != (GossipPolicy.DC_RC, GossipPolicy.DC_RC) and not best > p:
            failures.append(f"(DC_RC,DC_RC) peak {best!r} does not beat {pair} peak {p!r}")

    k_srcside, p_srcside = peaks[GossipPolicy.DC_RC, GossipPolicy.DC_noRC]
    k_clside, p_clside = peaks[GossipPolicy.DC_noRC, GossipPolicy.DC_RC]
    if abs(p_srcside - p_clside) > TOL:
        failures.append(
            f"single-sided peaks differ at lambda_s == lambda_c: "
            f"{p_srcside!r} vs {p_clside!r}"
        )
    if k_srcside == k_clside:
        failures.append(f"single-sided optima share k* = {k_srcside}")

    _, p_src_hi = peak(Rates(1.0, 2.0, 1.0, 0.0), GossipPolicy.DC_RC, GossipPolicy.DC_noRC)
    _, p_cl_lo = peak(Rates(1.0, 2.0, 1.0, 0.0), GossipPolicy.DC_noRC, GossipPolicy.DC_RC)
    if not p_src_hi >= p_cl_lo:
        failures.append("source-side placement loses despite lambda_s > lambda_c")
    _, p_src_lo = peak(Rates(1.0, 1.0, 2.0, 0.0), GossipPolicy.DC_RC, GossipPolicy.DC_noRC)
    _, p_cl_hi = peak(Rates(1.0, 1.0, 2.0, 0.0), GossipPolicy.DC_noRC, GossipPolicy.DC_RC)
    if not p_cl_hi >= p_src_lo:
        failures.append("cluster-side placement loses despite lambda_s < lambda_c")

    fc_peaks = {(src, cl): peak(eq, src, cl)[1] for src, cl in _FC_PAIRS}
    best_fc = fc_peaks[GossipPolicy.DC_RC, GossipPolicy.FC_allRC]
    for pair, p in fc_peaks.items():
        if pair != (GossipPolicy.DC_RC, GossipPolicy.FC_allRC) and not best_fc > p:
            failures.append(f"(DC_RC,FC_allRC) peak {best_fc!r} does not beat {pair} {p!r}")

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


def criterion_7(tmp_dir=None) -> CriterionResult:
    """Same seeds give byte-identical CSVs and identical estimates."""
    import tempfile

    t0 = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(dir=tmp_dir) as td:
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
        for name in ("a", "b"):
            path = td / f"selftest_{name}.csv"
            write_report([criterion_2(), criterion_6()], path)
            reports.append(path.read_bytes())
        if reports[0] != reports[1]:
            failures.append("selftest report CSVs differ between runs")

    spec = NetworkSpec.flat(3, GossipPolicy.FC_sRC, Rates(1.0, 1.0, 0.0, 1.0))
    if estimate_freshness_cycles(spec, 5000, seed=3) != estimate_freshness_cycles(
        spec, 5000, seed=3
    ):
        failures.append("cycle estimator not reproducible")
    if estimate_freshness_time(spec, 500.0, seed=3) != estimate_freshness_time(
        spec, 500.0, seed=3
    ):
        failures.append("time estimator not reproducible")
    return _result(
        "7",
        "seeded runs are byte-identical",
        t0,
        failures,
        "sweep CSV, selftest report, and both estimators reproduce exactly",
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


def run_criteria(names=None) -> list[CriterionResult]:
    """Run the selected criteria (all of them by default), in order."""
    if names is None:
        names = list(CRITERIA)
    results = []
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; valid: {sorted(CRITERIA)}")
        results.append(CRITERIA[name]())
    return results


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
