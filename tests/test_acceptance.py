"""Acceptance gate: every criterion at its stated tolerance.

Each test prints its one-line verdict (visible with ``pytest -s`` or on
failure) and asserts it.  Budgeted criteria include their runtime check.
"""

import pytest

from gossipfresh import acceptance
from gossipfresh.core import GossipPolicy


def _run(name):
    result = acceptance.CRITERIA[name]()
    print(acceptance.format_line(result))
    assert result.passed, acceptance.format_line(result)
    return result


def test_criterion_1_closed_forms_match_recursion():
    result = _run("1")
    assert result.runtime < 2.0


def test_criterion_2_spot_values():
    _run("2")


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
    # ls = 2.0, lg = 0.5, which is also a cluster tier of the clustered pairs
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
    assert result.detail.startswith(
        "FC_noRC n=7 le=0.5 ls=2.0 lg=0.5: |closed - oracle| = 1.000e-09; "
        "(DC_noRC,FC_noRC) m=1 k=7: |closed - oracle| = "
    )


def test_criterion_1_names_a_failing_count_law_cell(monkeypatch):
    # one count-law value off by 1e-9: the flat FC_sRC cell at n = 7,
    # le = 0.5, ls = 2.0, lg = 0.5, a policy with no closed form
    real = acceptance.count_law_sizes

    def skewed(policy, ls, lg, le, sizes):
        p = real(policy, ls, lg, le, sizes)
        if policy is GossipPolicy.FC_sRC and lg == 0.5:
            for c, case in enumerate(zip(le, ls)):
                if case == (0.5, 2.0):
                    p[c, 6] += 1e-9
        return p

    monkeypatch.setattr(acceptance, "count_law_sizes", skewed)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail == "FC_sRC n=7 le=0.5 ls=2.0 lg=0.5: |count law - oracle| = 1.000e-09"
