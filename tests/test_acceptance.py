"""Acceptance gate: every criterion at its stated tolerance.

Each test prints its one-line verdict (visible with ``pytest -s`` or on
failure) and asserts it.  Budgeted criteria include their runtime check.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gossipfresh import acceptance, analytic, core, experiments
from gossipfresh.core import GossipPolicy, NetworkSpec, Rates


def _run(name):
    result = acceptance.CRITERIA[name]()
    print(acceptance.format_line(result))
    assert result.passed, acceptance.format_line(result)
    return result


def test_criterion_1_closed_forms_match_recursion():
    result = _run("1")
    assert result.runtime < 2.0


def test_criterion_2_spot_values():
    result = _run("2")
    assert result.runtime < 1.0


def test_criterion_3_orderings_and_collapse():
    _run("3")


def test_criterion_4_flat_monte_carlo():
    result = _run("4")
    assert result.runtime < 20.0


def test_criterion_5_clustered_decomposition():
    result = _run("5")
    assert result.runtime < 5.0


def test_criterion_6_optimal_cluster_claims():
    result = _run("6")
    assert result.runtime < 5.0


def test_criterion_7_reproducibility():
    result = acceptance.criterion_7()
    print(acceptance.format_line(result))
    assert result.passed, acceptance.format_line(result)


def test_selftest_aggregator_covers_all_criteria():
    assert sorted(acceptance.CRITERIA) == ["1", "2", "3", "4", "5", "6", "7"]
    with pytest.raises(ValueError, match="unknown criterion"):
        acceptance.run_criteria(["8"])


def test_criterion_1_names_a_failing_cell(monkeypatch):
    # one closed value off by 1e-9: the flat FC_noRC cell at n = 7, le = 0.5,
    # ls = 2.0, lg = 0.5
    real = acceptance.closed_sizes

    def skewed(policy, ls, lg, le, sizes):
        p = real(policy, ls, lg, le, sizes)
        if policy is GossipPolicy.FC_noRC:
            for c, case in enumerate(zip(le, ls, lg)):
                if case == (0.5, 2.0, 0.5):
                    p[c, 6] += 1e-9
        return p

    monkeypatch.setattr(acceptance, "closed_sizes", skewed)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail == "FC_noRC n=7 le=0.5 ls=2.0 lg=0.5: |closed - oracle| = 1.000e-09"


def test_criterion_1_names_a_failing_count_law_cell(monkeypatch):
    # one count-law value off by 1e-9: the flat FC_sRC cell at n = 7,
    # le = 0.5, ls = 2.0, lg = 0.5, a policy with no closed form, planted
    # in the count law's block kernel
    real = acceptance._law_block

    def skewed(policy, ls, lg, le, sizes, width):
        p = real(policy, ls, lg, le, sizes, width)
        if policy is GossipPolicy.FC_sRC:
            p[(le[:, 0] == 0.5) & (ls[:, 0] == 2.0) & (lg[:, 0] == 0.5) & (sizes == 7)] += 1e-9
        return p

    monkeypatch.setattr(acceptance, "_law_block", skewed)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail == "FC_sRC n=7 le=0.5 ls=2.0 lg=0.5: |count law - oracle| = 1.000e-09"


def test_criterion_3_names_a_broken_ordering(monkeypatch):
    # FC_sRC at n = 7, le = 0.5, ls = 2.0, lg = 0.5 drops to 0, below FC_noRC
    real = acceptance.oracle_sizes

    def skewed(policy, ls, lg, le, sizes):
        p = real(policy, ls, lg, le, sizes)
        if policy is GossipPolicy.FC_sRC and lg != 0.0:  # not the zero-gossip call
            for c, case in enumerate(zip(le, ls, lg)):
                if case == (0.5, 2.0, 0.5):
                    p[c, 6] = 0.0
        return p

    monkeypatch.setattr(acceptance, "oracle_sizes", skewed)
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.detail == "FC ordering broken at n=7 le=0.5 ls=2.0 lg=0.5"


def test_criterion_4_names_a_run_beyond_4_sigma(monkeypatch):
    # every estimate is exact, but the first run's (seed 1000) is 5 sigma high
    def estimate(spec, cycles, seed):
        s, r = spec.shape, spec.rates
        p = acceptance.oracle_flat(s.policy, r.lambda_s, r.lambda_g, r.lambda_e, s.n)
        return SimpleNamespace(p_hat=p + (5e-3 if seed == 1000 else 0.0), stderr=1e-3)

    monkeypatch.setattr(acceptance, "estimate_freshness_cycles", estimate)
    result = acceptance.criterion_4()
    assert not result.passed
    assert result.detail == "DC_noRC n=1 le=1.0 ls=1.0 lg=1.0: |z| = 5.00"


def test_criterion_4_names_a_trajectory_beyond_4_sigma(monkeypatch):
    # every trajectory estimate is exact, but the one of seed 1004
    # (DC_noRC n=2 le=0.1 ls=1.0 lg=0.5) is 5 sigma low; the cycle runs
    # are real and pass
    def estimate(spec, horizon, seed):
        s, r = spec.shape, spec.rates
        assert horizon == acceptance.MC_REFRESHES / r.lambda_e
        p = acceptance.oracle_flat(s.policy, r.lambda_s, r.lambda_g, r.lambda_e, s.n)
        return SimpleNamespace(p_hat=p - (5e-3 if seed == 1004 else 0.0), stderr=1e-3)

    monkeypatch.setattr(acceptance, "estimate_freshness_time", estimate)
    result = acceptance.criterion_4()
    assert not result.passed
    assert result.detail == "DC_noRC n=2 le=0.1 ls=1.0 lg=0.5: trajectory |z| = 5.00"


def test_criterion_5_names_a_shape_beyond_4_sigma(monkeypatch):
    def check(spec, cycles, seed):
        return SimpleNamespace(z=-6.0 if seed == 2004 else 0.0)

    monkeypatch.setattr(acceptance, "decomposition_check", check)
    result = acceptance.criterion_5()
    assert not result.passed
    assert result.detail == "(DC_noRC,DC_RC) m=3 k=4: |z| = 6.00"


def test_criterion_6_names_every_broken_claim(monkeypatch):
    # every profile is flat, so every peak is at k* = 1; a DC_noRC source
    # peaks at 0.5 and a DC_RC one at 0.25, the other way round when
    # lambda_c = 2, so no claim holds
    def profiles(route, n, ks, cases, pairs):
        peak = lambda r, src: 0.5 if (src is GossipPolicy.DC_noRC) != (r.lambda_c == 2.0) else 0.25
        return [[np.full(len(ks), peak(r, src)) for src, _ in pairs] for r in cases]

    monkeypatch.setattr(experiments, "clustered_profiles", profiles)
    result = acceptance.criterion_6()
    assert not result.passed
    assert result.detail.split("; ") == [
        "(DC_RC,DC_RC) peak 0.25 does not beat (DC_noRC,DC_noRC) peak 0.5",
        "(DC_RC,DC_RC) peak 0.25 does not beat (DC_noRC,DC_RC) peak 0.5",
        "(DC_RC,DC_RC) peak 0.25 does not beat (DC_RC,DC_noRC) peak 0.25",
        "single-sided peaks differ at lambda_s == lambda_c: 0.25 vs 0.5",
        "... 9 failures total",
    ]
    # the five failures past the four that the detail shows
    monkeypatch.setattr(acceptance, "_result", lambda *args, **kwargs: args[3])
    assert acceptance.criterion_6()[4:] == [
        "single-sided optima share k* = 1",
        "source-side placement loses despite lambda_s > lambda_c",
        "cluster-side placement loses despite lambda_s < lambda_c",
        "(DC_RC,FC_allRC) peak 0.25 does not beat (DC_noRC,FC_noRC) peak 0.5",
        "(DC_RC,FC_allRC) peak 0.25 does not beat (DC_RC,FC_noRC) peak 0.25",
    ]


def test_criterion_7_names_every_run_that_does_not_reproduce(monkeypatch):
    # each call writes or returns a new value, so no pair of runs agrees
    count = itertools.count()

    def write(path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(str(next(count)))

    monkeypatch.setattr(acceptance, "run_experiment", lambda config: write(config.output))
    monkeypatch.setattr(acceptance, "write_report", lambda results, path: write(path))
    for name in ("estimate_freshness_cycles", "estimate_freshness_time"):
        monkeypatch.setattr(acceptance, name, lambda spec, size, seed: next(count))
    result = acceptance.criterion_7()
    assert not result.passed
    assert result.detail == (
        "sweep CSVs differ between identically seeded runs; "
        "selftest report CSVs differ between runs; "
        "flat cycle estimator not reproducible; "
        "flat time estimator not reproducible; ... 6 failures total"
    )


def test_a_criterion_over_its_budget_fails(monkeypatch):
    # criterion 6 passes its claims but its clock shows 6 s of a 5 s budget
    clock = iter([0.0, 6.0])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = acceptance.criterion_6()
    assert not result.passed
    assert result.runtime == 6.0
    assert result.detail == "runtime 6.00s exceeded the 5s budget"


def test_criterion_2_names_each_spot_value_it_misses(monkeypatch):
    # two clustered closed values at m = k = 2 and unit rates drop to 0.25
    real = acceptance.closed_clustered

    def skewed(src, cl, m, k, rates):
        missed = src is GossipPolicy.DC_RC and cl in (GossipPolicy.DC_RC, GossipPolicy.FC_allRC)
        missed = missed and (m, k) == (2, 2) and rates == ONE
        return 0.25 if missed else real(src, cl, m, k, rates)

    monkeypatch.setattr(acceptance, "closed_clustered", skewed)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.detail == (
        "(DC_RC,DC_RC) m=2 k=2 le=1.0 ls=1.0 lc=1.0 lg=1.0: "
        "closed_clustered = 0.25, want 9/64 (diff 1.094e-01); "
        "(DC_RC,FC_allRC) m=2 k=2 le=1.0 ls=1.0 lc=1.0 lg=1.0: "
        "closed_clustered = 0.25, want 5/32 (diff 9.375e-02)"
    )


ONE = Rates(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "spec,value",
    [
        (NetworkSpec.flat(3, GossipPolicy.DC_RC, Rates(1.0, 1.0)), Fraction(7, 24)),
        (NetworkSpec.flat(2, GossipPolicy.FC_noRC, ONE), Fraction(2, 5)),
        (NetworkSpec.flat(2, GossipPolicy.FC_allRC, ONE), Fraction(5, 12)),
        (NetworkSpec.flat(3, GossipPolicy.FC_allRC, ONE), Fraction(13, 36)),
        (NetworkSpec.flat(3, GossipPolicy.FC_sRC, ONE), Fraction(19, 54)),
        (NetworkSpec.clustered(4, 2, GossipPolicy.DC_RC, GossipPolicy.DC_RC, ONE), Fraction(9, 64)),
        (
            NetworkSpec.clustered(4, 2, GossipPolicy.DC_RC, GossipPolicy.FC_allRC, ONE),
            Fraction(5, 32),
        ),
    ],
)
def test_the_fresh_set_chain_gives_the_hand_derived_values(monkeypatch, spec, value):
    # the chain reaches neither the u(j) table nor either sum over it
    def unused(*args):
        raise AssertionError("the chain reached the u(j) table or a route over it")

    for module, name in (
        (core, "per_stale_rate"),
        (core, "stale_rate_rows"),
        (analytic, "stale_rate_rows"),
        (analytic, "_survival"),
        (analytic, "_recursion"),
    ):
        monkeypatch.setattr(module, name, unused)
    assert acceptance._chain_freshness(spec) == value
