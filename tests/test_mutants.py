"""The selftest mutant table: how many known defects ``gossipfresh selftest``
catches.

Each row plants one defect in-process, through ``monkeypatch``, under every
name the package's modules hold the patched object by, and runs only the
criteria the row names through :func:`acceptance.run_criteria`.  A row
passes when every named criterion fails, so the table's passing rows are
selftest's catch count.  A defect that selftest misses today is a strict
expected failure naming the ROADMAP item that will catch it; once that item
lands its row passes, and ``strict`` makes the stale marker fail until it
is removed.

A defect inside a function body is planted by compiling the function again
from its source with one snippet replaced; the snippet must occur exactly
once, so a row whose code has moved fails loudly instead of planting
nothing.
"""

import __future__
import inspect
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import gossipfresh
from gossipfresh import acceptance, analytic, cli, core, experiments, simulator
from gossipfresh.core import GossipPolicy as GP

MODULES = (gossipfresh, core, analytic, simulator, experiments, acceptance, cli)


def _plant(monkeypatch, original, mutant):
    """Put ``mutant`` in place of ``original`` under every name a package
    module holds it by."""
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, mutant)


def _rewritten(func, old, new):
    """``func`` compiled again from its source with the one ``old`` in it
    replaced by ``new``, in the globals of its module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__name__} no longer holds {old!r} once"
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(func),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def _rows_mutant(policy, change):
    """A mutant of ``core.stale_rate_rows`` whose ``u`` block, for
    ``policy`` only, becomes ``change(u, n, unmixed)``, where ``n`` holds
    the tier sizes and ``unmixed`` is the block at zero gossip."""
    real = core.stale_rate_rows

    def mutant(which, total_source, total_gossip, n, j):
        stale, u = real(which, total_source, total_gossip, n, j)
        if which is not policy:
            return stale, u
        unmixed = real(which, total_source, 0.0, n, j)[1]
        return stale, change(u, n, unmixed)

    return real, mutant


def _gossip_scaled(policy, factor, where=lambda n: True):
    """``policy``'s gossip term times ``factor(n)``, at the tier sizes
    ``where`` picks."""
    return _rows_mutant(
        policy, lambda u, n, unmixed: np.where(where(n), unmixed + (u - unmixed) * factor(n), u)
    )


def _gossip_divisor_n(policy, where=lambda n: True):
    """``policy``'s gossip term divided by n instead of n - 1, at the tier
    sizes ``where`` picks."""
    return _gossip_scaled(policy, lambda n: (n - 1) / n, where)


def _scaled(policy, factor, where=lambda n: True):
    """``policy``'s ``u`` times ``factor`` at the tier sizes ``where`` picks."""
    return _rows_mutant(policy, lambda u, n, unmixed: np.where(where(n), u * factor, u))


def _survival_ratio():
    """``_survival``'s ratio ``lambda_e / d`` times 1.02."""
    real = analytic._survival
    return real, lambda d, lambda_e: real(d, lambda_e * 1.02)


def _doubled_stderr():
    """Every cycle estimate, the clustered ones behind
    ``decomposition_check`` too, with twice its stderr."""
    real = simulator._cycle_estimate

    def mutant(tab, num_cycles, seed):
        est = real(tab, num_cycles, seed)
        return replace(est, stderr=2 * est.stderr, ci95=simulator._ci95(est.p_hat, 2 * est.stderr))

    return real, mutant


def _clustered_counts(old, new):
    real = simulator._clustered_counts
    return real, _rewritten(real, old, new)


def _swapped_tiers():
    """``closed_clustered`` over k clusters of m nodes instead of m clusters
    of k nodes."""
    real = analytic.closed_clustered
    old, new = "NetworkSpec.clustered(m * k, k,", "NetworkSpec.clustered(m * k, m,"
    return real, _rewritten(real, old, new)


def _one_case_lambda_e():
    """A one-case call's lambda_e times (1 + 1e-10), where the kernel gets
    its rates as floats; a call with a rate per case keeps its columns."""
    real = analytic._blocked
    old = "float(lambda_e[0])]"
    return real, _rewritten(real, old, "float(lambda_e[0]) * (1 + 1e-10)]")


def _reversed_pairs():
    """The clustered grid's profiles, which the optimal-k report reads,
    evaluated for its policy pairs in reverse order."""
    real = experiments._grid
    old = "clustered_profiles(route, config.n, xs, rates, config.policies)"
    return real, _rewritten(real, old, old.replace("config.policies", "config.policies[::-1]"))


#: id, the mutant as ``(original, replacement)``, the criteria that must
#: fail, and the ROADMAP item that will catch a defect selftest misses.
MUTANTS = [
    ("FC_noRC gossip divisor n - 1 -> n", lambda: _gossip_divisor_n(GP.FC_noRC), "2", None),
    (
        "FC_noRC gossip divisor n - 1 -> n at n >= 3",
        lambda: _gossip_divisor_n(GP.FC_noRC, lambda n: n >= 3),
        "2",
        None,
    ),
    ("FC_sRC gossip divisor n - 1 -> n", lambda: _gossip_divisor_n(GP.FC_sRC), "23", None),
    ("FC_allRC u x (1 + 1e-11)", lambda: _scaled(GP.FC_allRC, 1 + 1e-11), "13", None),
    (
        "FC_allRC u x (1 + 1e-11) at n = 3 mod 7",
        lambda: _scaled(GP.FC_allRC, 1 + 1e-11, lambda n: n % 7 == 3),
        "13",
        None,
    ),
    (
        "DC_noRC u x (1 + 1e-10) at n = 5",
        lambda: _scaled(GP.DC_noRC, 1 + 1e-10, lambda n: n == 5),
        "13",
        None,
    ),
    ("_survival ratio x 1.02", _survival_ratio, "14", None),
    ("closed_clustered swaps its tier sizes", _swapped_tiers, "2", None),
    ("one-case kernel lambda_e x (1 + 1e-10)", _one_case_lambda_e, "2", None),
    ("clustered grid profiles its policy pairs in reverse", _reversed_pairs, "6", None),
    (
        "clusters share one row of in-cluster draws",
        lambda: _clustered_counts(
            "rng.standard_exponential((len(within), k))",
            "rng.standard_exponential((1, k)).repeat(len(within), axis=0)",
        ),
        "5",
        None,
    ),
    (
        "in-cluster clock starts at 0, not at the clusterhead's capture",
        lambda: _clustered_counts(
            "gap = length[cycle] - capture[cluster, cycle]", "gap = length[cycle]"
        ),
        "5",
        None,
    ),
    ("cycle stderr x 2", _doubled_stderr, "4", 3),
    (
        "FC_noRC gossip divisor n - 1 -> n at n >= 6",
        lambda: _gossip_divisor_n(GP.FC_noRC, lambda n: n >= 6),
        "1",
        None,
    ),
    (
        "FC_sRC gossip term x (1 - 1e-9) at n >= 6",
        lambda: _gossip_scaled(GP.FC_sRC, lambda n: 1 - 1e-9, lambda n: n >= 6),
        "1",
        None,
    ),
    (
        "FC_noRC gossip term x (1 + 1e-9) at n >= 6",
        lambda: _gossip_scaled(GP.FC_noRC, lambda n: 1 + 1e-9, lambda n: n >= 6),
        "1",
        None,
    ),
]


@pytest.mark.parametrize(
    "mutant,criteria",
    [
        pytest.param(
            mutant,
            criteria,
            id=name,
            marks=[]
            if item is None
            else pytest.mark.xfail(
                raises=AssertionError,
                strict=True,
                reason=f"selftest misses it until ROADMAP item {item}",
            ),
        )
        for name, mutant, criteria, item in MUTANTS
    ],
)
def test_selftest_catches_the_mutant(monkeypatch, mutant, criteria):
    _plant(monkeypatch, *mutant())
    passed = [r.criterion for r in acceptance.run_criteria(list(criteria)) if r.passed]
    assert not passed, f"criteria {passed} pass under the mutant"

