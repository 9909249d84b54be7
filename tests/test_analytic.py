import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gossipfresh import analytic, core
from gossipfresh.core import GossipPolicy, NetworkSpec, Rates, per_stale_rate, size_problem
from gossipfresh.analytic import (
    BLOCK_CELLS,
    closed_clustered,
    closed_flat,
    closed_sizes,
    clustered_freshness,
    clustered_profiles,
    count_law_sizes,
    divisors,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
    renewal_freshness,
    _recursion,
)

GP = GossipPolicy
rate = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


# --- closed-form spot values -------------------------------------------------


@pytest.mark.parametrize(
    "ls,le,n,expected",
    [
        (1.0, 1.0, 1, Fraction(1, 2)),
        (1.0, 0.1, 10, Fraction(1, 2)),
        (0.0, 1.0, 5, Fraction(0)),
    ],
)
def test_dc_norc_values(ls, le, n, expected):
    assert closed_flat(GP.DC_noRC, ls, 0.0, le, n) == pytest.approx(float(expected), abs=1e-15)


@pytest.mark.parametrize(
    "ls,le,n,expected",
    [
        (1.0, 1.0, 1, Fraction(1, 2)),
        (1.0, 1.0, 3, Fraction(7, 24)),
        (1.0, 1.0, 2, Fraction(3, 8)),
        (0.0, 1.0, 4, Fraction(0)),
    ],
)
def test_dc_rc_values(ls, le, n, expected):
    assert closed_flat(GP.DC_RC, ls, 0.0, le, n) == pytest.approx(float(expected), abs=1e-15)


def test_dc_rc_beats_dc_norc_at_two_nodes():
    rc = closed_flat(GP.DC_RC, 1.0, 0.0, 1.0, 2)
    assert rc > closed_flat(GP.DC_noRC, 1.0, 0.0, 1.0, 2) == 1 / 3


@pytest.mark.parametrize(
    "ls,lg,le,n,expected",
    [
        (1.0, 1.0, 1.0, 2, Fraction(5, 12)),
        (1.0, 0.0, 1.0, 3, Fraction(7, 24)),
        (1.0, 1.0, 1.0, 3, Fraction(13, 36)),
    ],
)
def test_fc_allrc_values(ls, lg, le, n, expected):
    assert closed_flat(GP.FC_allRC, ls, lg, le, n) == pytest.approx(float(expected), abs=1e-15)


def test_fc_norc_value():
    assert closed_flat(GP.FC_noRC, 1.0, 1.0, 1.0, 3) == pytest.approx(111 / 336, abs=1e-15)


@pytest.mark.parametrize(
    "args",
    [
        (GP.DC_noRC, 1.0, 0.0, 0.0, 3),
        (GP.DC_RC, 1.0, 0.0, -1.0, 3),
        (GP.FC_allRC, 1.0, 1.0, 1.0, 0),
        (GP.FC_noRC, -1.0, 1.0, 1.0, 3),
        (GP.DC_RC, 1.0, -5.0, 1.0, 3),
        (GP.DC_RC, 1.0, 0.0, 1.0, 2.5),
        (GP.DC_RC, 1.0, 0.0, 1.0, True),
    ],
)
def test_closed_forms_reject_bad_arguments(args):
    # both routes share one check, so they reject the same input
    for route in (closed_flat, oracle_flat):
        with pytest.raises(ValueError):
            route(*args)


# --- generic recursion -------------------------------------------------------


def _steps(u, n, le):
    """The recursion's ``(p, q, tau)`` over one table, with ``p`` checked
    against :func:`renewal_freshness` and the last, unused tau dropped."""
    p, q, tau = _recursion(np.asarray(u, dtype=float), n - np.arange(n, dtype=float), le)
    assert float(p) == renewal_freshness(u, n, le)
    return float(p), q, tau[:-1]


def test_recursion_specialises_to_even_split():
    p = renewal_freshness([0.1] * 10, 10, 0.1)
    assert type(p) is float
    assert p == pytest.approx(0.5, abs=1e-12)


def test_recursion_src_rc_hand_values():
    u = per_stale_rate(GP.FC_sRC, 1.0, 1.0, 3)
    p, q, tau = _steps(u, 3, 1.0)
    assert p == pytest.approx(19 / 54, abs=1e-15)
    assert q == pytest.approx((1 / 6, 1 / 3, 2 / 3), abs=1e-15)
    assert tau == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def test_recursion_fc_norc_hand_values():
    u = per_stale_rate(GP.FC_noRC, 1.0, 1.0, 3)
    p, q, tau = _steps(u, 3, 1.0)
    assert p == pytest.approx(111 / 336, abs=1e-15)
    assert q == pytest.approx((1 / 6, 5 / 16, 4 / 7), abs=1e-15)
    assert tau == pytest.approx((1 / 3, 5 / 16), abs=1e-15)


def test_recursion_rejects_bad_rate_function():
    with pytest.raises(ValueError, match=r"u\(2\)"):
        renewal_freshness([1.0, 1.0, -1.0, 1.0, 1.0], 5, 1.0)
    with pytest.raises(ValueError, match=r"u\(0\)"):
        renewal_freshness([math.nan] * 3, 3, 1.0)
    with pytest.raises(ValueError):
        renewal_freshness([1.0] * 3, 3, 0.0)


@given(
    policy=st.sampled_from(list(GP)),
    ls=rate,
    lg=rate,
    le=rate,
    n=st.integers(1, 48),
)
def test_closed_forms_match_recursion(policy, ls, lg, le, n):
    closed = closed_flat(policy, ls, lg, le, n)
    oracle = oracle_flat(policy, ls, lg, le, n)
    assert 0.0 <= oracle <= 1.0
    if closed is not None:
        assert closed == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("decade", range(-1, 13))
def test_dc_rc_closed_form_holds_at_extreme_rate_ratios(decade):
    # lambda_s / lambda_e up to 1e12, where 1 - a**n cancels catastrophically
    ratio = 10.0**decade
    for n in (1, 2, 3, 50, 999, 10**4):
        oracle = oracle_flat(GP.DC_RC, ratio, 0.0, 1.0, n)
        assert closed_flat(GP.DC_RC, ratio, 0.0, 1.0, n) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n", [1, 10, 10**4])
def test_dc_rc_closed_form_holds_for_all_rates_the_api_accepts(n):
    # lambda_s, lambda_e anywhere in [1e-300, 1e300]: the prefactor
    # lambda_s / (n * lambda_e) overflows past lambda_s / lambda_e ~ 1e308
    decades = [10.0**d for d in range(-300, 301, 10)]
    for ls in decades:
        for le in decades:
            closed = closed_flat(GP.DC_RC, ls, 0.0, le, n)
            oracle = oracle_flat(GP.DC_RC, ls, 0.0, le, n)
            assert abs(closed - oracle) <= 1e-12, (ls, le, closed, oracle)


@pytest.mark.parametrize("ratio", [1e18, 1e36])
@pytest.mark.parametrize("policy", list(GP))
def test_every_exact_route_keeps_p_at_most_1_at_huge_rate_ratios(policy, ratio):
    # the true value lies within n * 2**-52 below 1 here, where the
    # recursion's running sum of n rounded terms, and DC_RC's rounded
    # closed form, would pass 1 at about half of these sizes unclamped
    sizes = list(range(1, 201)) + list(range(201, 3001, 50)) + [287_204]
    floor = 1 - np.array(sizes) * 2.0**-52
    for lg in (0.0, ratio):
        for route in (oracle_sizes, closed_sizes, count_law_sizes):
            p = route(policy, ratio, lg, 1.0, sizes)
            if p is not None:
                assert (floor <= p).all() and (p <= 1.0).all(), route.__name__
        for n in sizes:
            p = renewal_freshness(per_stale_rate(policy, ratio, lg, n), n, 1.0)
            assert 1 - n * 2.0**-52 <= p <= 1.0, n


def test_recursion_rejects_a_table_of_the_wrong_length():
    with pytest.raises(ValueError, match="n = 3"):
        renewal_freshness([1.0, 1.0], 3, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_flat(GP.FC_noRC, 1e308, 1e308, 1.0, 10),
        lambda: oracle_flat(GP.FC_allRC, 1e308, 1e308, 1.0, 10),
        lambda: closed_flat(GP.FC_noRC, 1e308, 1e308, 1.0, 10),
        lambda: closed_flat(GP.FC_allRC, 1e308, 1e308, 1.0, 10),
        lambda: closed_flat(GP.DC_RC, 1e308, 0.0, 1e307, 100),
        lambda: closed_flat(GP.DC_noRC, 1.0, 0.0, 1e307, 100),
        lambda: oracle_sizes(GP.DC_RC, 1.0, 0.0, 1e305, [1, 10**4]),
        lambda: renewal_freshness([1e308] * 10, 10, 1.0),
    ],
)
def test_rates_that_would_overflow_are_rejected(call):
    # every value passes Rates, but n * (lambda_e + rates) overflows inside
    with pytest.raises(ValueError, match="rates too large"):
        call()


#: Sizes that break core's size rule: past float64's exact integers, past
#: int64 and past uint64, and a float that holds an integer.
BAD_SIZES = [2**53 + 1, 2**63 - 1, 2**64, 3.0]


@pytest.mark.parametrize("bad", BAD_SIZES)
@pytest.mark.parametrize("policy", list(GP))
def test_every_exact_route_rejects_a_size_past_the_size_rule_alike(policy, bad):
    # FC_sRC's closed route returned None at 2**63, where the recursion crashed
    calls = [(view, 1.0, bad) for view in (oracle_flat, closed_flat)]
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        for sizes in ([bad], [2, bad], (bad, 2)):
            calls += [(route, 1.0, sizes), (route, [1.0, 2.0], sizes)]
    for route, ls, sizes in calls:
        with pytest.raises(ValueError) as err:
            route(policy, ls, 1.0, 1.0, sizes)
        assert str(err.value) == size_problem("n", bad)


@pytest.mark.parametrize("policy", list(GP))
def test_sizes_of_mixed_integer_types_are_sizes(policy):
    # NumPy makes [int64, uint64] a float array; FC_allRC's closed form
    # indexes its running sum with the sizes
    mixed = [np.int64(3), np.uint64(5)]
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        p, q = route(policy, 1.0, 1.0, 1.0, mixed), route(policy, 1.0, 1.0, 1.0, [3, 5])
        assert p is q is None or p.tolist() == q.tolist()


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_every_size_argument_obeys_the_size_rule(bad):
    one, pair = Rates(1.0, 1.0, 1.0, 1.0), (GP.DC_RC, GP.FC_allRC)
    for call, name in (
        (lambda: renewal_freshness([1.0], bad, 1.0), "n"),
        (lambda: divisors(bad), "n"),
        (lambda: optimal_cluster_size(bad, one, *pair), "n"),
        (lambda: closed_clustered(*pair, bad, 1, one), "m"),
        (lambda: clustered_profiles(oracle_sizes, bad, [1], [one], [pair]), "n"),
        (lambda: clustered_profiles(oracle_sizes, 4, [bad], [one], [pair]), "k"),
        (lambda: clustered_profiles(closed_sizes, 4, [1, bad], [one], [pair]), "k"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == size_problem(name, bad)


def test_the_scalar_closed_forms_take_the_largest_size():
    # 2**53 allocates nothing in these two forms; larger sizes are refused
    n = 2**53
    assert closed_flat(GP.DC_noRC, 1.0, 0.0, 1.0, n) == 1.0 / (1.0 + n)
    assert closed_sizes(GP.DC_noRC, 1.0, 0.0, 1.0, [1, n]).tolist() == [0.5, 1.0 / (1.0 + n)]
    assert closed_flat(GP.DC_RC, 1.0, 0.0, 1.0, n) == 1.0 / n


def test_src_rc_has_no_closed_form():
    assert closed_flat(GP.FC_sRC, 1.0, 1.0, 1.0, 3) is None


@pytest.mark.parametrize("policy", ["DC_RC", "bogus", None])
def test_both_routes_reject_an_unknown_policy_with_one_message(policy):
    # no formula is FC_sRC's answer alone; anything that is no GossipPolicy
    # is rejected by the closed route as the recursion rejects it
    message = f"unknown policy {policy!r}"
    one = Rates(1.0, 1.0, 1.0, 1.0)
    for sizes_route, one_route in ((oracle_sizes, oracle_flat), (closed_sizes, closed_flat)):
        for call in (
            lambda: sizes_route(policy, 1.0, 0.0, 1.0, [3]),
            lambda: sizes_route(policy, [1.0, 2.0], 0.5, 1.0, [3, 5]),
            lambda: one_route(policy, 1.0, 0.0, 1.0, 3),
            lambda: clustered_profiles(sizes_route, 4, [2], [one], [(GP.DC_RC, policy)]),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
    spec = NetworkSpec.clustered(4, 2, GP.DC_RC, policy, one)
    for call in (
        lambda: closed_clustered(GP.DC_RC, policy, 2, 2, one),
        lambda: clustered_freshness(spec),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # the arguments are checked first, as the recursion checks them
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        with pytest.raises(ValueError, match="lambda_e must be finite and > 0"):
            route(policy, 1.0, 0.0, 0.0, [3])
        with pytest.raises(ValueError, match="sizes must be a nonempty sequence"):
            route(policy, 1.0, 0.0, 1.0, [])


@given(
    policy=st.sampled_from(list(GP)),
    ls=rate,
    lg=rate,
    le=rate,
    n=st.integers(1, 32),
)
def test_recursion_step_outcomes_partition(policy, ls, lg, le, n):
    u = per_stale_rate(policy, ls, lg, n)
    p, qs, taus = _steps(u, n, le)
    assert all(0.0 <= q <= 1.0 for q in qs)
    assert all(0.0 <= t <= 1.0 for t in taus)
    # p is exactly the q/tau accumulation
    total = 0.0
    passed = 1.0
    for step in range(1, n + 1):
        total += passed * qs[step - 1]
        if step < n:
            passed *= taus[step - 1]
    assert p == pytest.approx(total, abs=1e-12)
    # per-step: tagged capture + other capture + cycle end partition the draw
    for step in range(1, n + 1):
        stale = n - step + 1
        denom = stale * u[step - 1] + le
        end = le / denom
        tk = taus[step - 1] if step < n else 0.0
        assert qs[step - 1] + tk + end == pytest.approx(1.0, abs=1e-12)


# The pure-Python table, recursion and closed forms the array code
# replaced, one size at a time.  The arrays accumulate left to right and
# DC_RC calls math's log1p and expm1, so they must agree bit for bit.


def _loop_table(policy, src, gsp, n):
    split = gsp / (n - 1) if n > 1 else 0.0
    if policy is GP.DC_noRC:
        return [src / n] * n
    if policy is GP.DC_RC:
        return [src / (n - j) for j in range(n)]
    if policy is GP.FC_noRC:
        return [src / n + j * split for j in range(n)]
    if policy is GP.FC_sRC:
        return [src / (n - j) + j * split for j in range(n)]
    return [src / (n - j) + j * gsp / (n - j) for j in range(n)]


def _loop_recursion(table, n, le):
    p = 0.0
    passed = 1.0
    for step in range(1, n + 1):
        rate = table[step - 1]
        stale = n - step + 1
        denom = stale * rate + le
        p += passed * (rate / denom)
        passed *= (stale - 1) * rate / denom
    return min(p, 1.0)


def _loop_fc_allrc(ls, lg, le, n):
    total = 0.0
    prod = 1.0
    for j in range(1, n + 1):
        r = ls + (j - 1) * lg
        prod *= r / (r + le)
        total += prod
    return total / n


def _scalar_closed(policy, ls, lg, le, n):
    if policy is GP.DC_noRC:
        return ls / (ls + n * le)
    if policy is GP.DC_RC:
        if ls == 0:
            return 0.0
        x = le / ls
        if n * x < 2.0**-53:
            return 1.0
        return min(1.0, ls / (n * le) * -math.expm1(-n * math.log1p(x)))
    if policy is GP.FC_noRC:
        return _loop_recursion(_loop_table(policy, ls, lg, n), n, le)
    if policy is GP.FC_allRC:
        return _loop_fc_allrc(ls, lg, le, n)
    return None


wide_rate = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)


@given(
    policy=st.sampled_from(list(GP)),
    ls=wide_rate,
    lg=st.one_of(st.just(0.0), wide_rate),
    le=wide_rate,
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
# exp(-n log1p(1e-3)) spans (0.05, 1) here, where a vectorised expm1 may
# round differently from math's
@example(policy=GP.DC_RC, ls=1e3, lg=0.0, le=1.0, n=3000, seed=0)
def test_array_routes_equal_the_python_loops(policy, ls, lg, le, n, seed):
    table = _loop_table(policy, ls, lg, n)
    assert per_stale_rate(policy, ls, lg, n).tolist() == table
    oracle = _loop_recursion(table, n, le)
    assert oracle_flat(policy, ls, lg, le, n) == oracle
    renewal = renewal_freshness(table, n, le)
    assert type(renewal) is float and renewal == oracle
    assert closed_flat(policy, ls, lg, le, n) == _scalar_closed(policy, ls, lg, le, n)
    # A shuffled size vector with repeats.  The DC references cost O(1) a
    # size, so their vectors are long enough to show a log1p or expm1 that
    # rounds differently from math's in one input of a hundred.
    rng = random.Random(seed)
    count = 256 if policy in (GP.DC_noRC, GP.DC_RC) else 4
    sizes = rng.choices(range(1, n + 1), k=count) + [n, n]
    rng.shuffle(sizes)
    closed = closed_sizes(policy, ls, lg, le, sizes)
    if policy is GP.FC_sRC:
        assert closed is None
    else:
        assert closed.tolist() == [_scalar_closed(policy, ls, lg, le, s) for s in sizes]


@pytest.mark.parametrize("policy", list(GP))
def test_oracle_sizes_equals_one_size_at_a_time(policy):
    half = BLOCK_CELLS // 2
    sweep = list(range(1, math.isqrt(BLOCK_CELLS) + 40))  # crosses one block edge
    scattered = [half + 1, 7, BLOCK_CELLS + 1, half, 1, BLOCK_CELLS, 7, 2]
    for sizes_route, one_route in ((oracle_sizes, oracle_flat), (closed_sizes, closed_flat)):
        for sizes in (sweep, scattered):
            got = sizes_route(policy, 1.7, 0.6, 0.9, sizes)
            one = [one_route(policy, 1.7, 0.6, 0.9, n) for n in sizes]
            if got is None:
                assert sizes_route is closed_sizes and policy is GP.FC_sRC
                assert one == [None] * len(sizes)
                continue
            assert isinstance(got, np.ndarray) and got.shape == (len(sizes),)
            assert got.tolist() == one


def test_blocks_are_cut_greedily_in_size_order(monkeypatch):
    # each block, padded to its last (largest) size, holds at most
    # BLOCK_CELLS cells or is one wider cell, and one more cell would not fit
    blocks = []

    def record(policy, source, gossip, lambda_e, sizes, width):
        blocks.append((sizes.tolist(), width))
        return np.zeros(len(sizes))

    monkeypatch.setattr(analytic, "_block", record)
    rng = random.Random(37)
    for _ in range(150):
        top = rng.choice([2, 30, 400, 5_000, 40_000])
        sizes = sorted(rng.choices(range(1, top + 1), k=rng.randint(1, 5_000)))
        blocks.clear()
        got = analytic._blocked(GP.DC_RC, [1.0], [0.0], [1.0], sizes)
        assert got.shape == (1, len(sizes))
        assert [n for block, _ in blocks for n in block] == sizes  # each cell once, in order
        for i, (block, width) in enumerate(blocks):
            assert width == block[-1]
            assert len(block) * width <= BLOCK_CELLS or len(block) == 1
            if i + 1 < len(blocks):
                assert (len(block) + 1) * blocks[i + 1][0][0] > BLOCK_CELLS


@pytest.mark.parametrize("policy", list(GP))
def test_a_multi_block_call_equals_oracle_flat(policy, monkeypatch):
    calls = []
    block = analytic._block
    monkeypatch.setattr(analytic, "_block", lambda *args: calls.append(args) or block(*args))
    rng = random.Random(38)
    sizes = rng.choices(range(1, 2_000), k=40) + [1, BLOCK_CELLS + 3]
    rng.shuffle(sizes)
    cases = [(1.7, 0.6, 0.9), (30.0, 0.0, 0.05)]
    got = oracle_sizes(policy, *map(list, zip(*cases)), sizes)
    assert len(calls) > 2
    assert got.tolist() == [[oracle_flat(policy, *case, n) for n in sizes] for case in cases]


@pytest.mark.parametrize("sizes", [[], [0, 3], [2.0, 3.0], [[2, 3]]])
def test_oracle_sizes_rejects_bad_sizes(sizes):
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        for policy in GP:
            with pytest.raises(ValueError):
                route(policy, 1.0, 0.0, 1.0, sizes)


@pytest.mark.parametrize(
    "sizes,bad", [([5, 0, -1], 0), ((3, 2**60, 0), 2**60), (np.array([4, -2, 0]), np.int64(-2))]
)
def test_the_first_bad_size_is_named(sizes, bad):
    # not the least or the largest size: the first bad one, as given
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        with pytest.raises(ValueError) as err:
            route(GP.DC_RC, 1.0, 0.0, 1.0, sizes)
        assert str(err.value) == size_problem("n", bad)



# --- the capture-count law: an exact check independent of the recursion ----
#
# The law has no tagged node and no q/tau split, so it checks FC_sRC,
# which has no closed form, and FC_noRC, whose closed form is the
# recursion over its own table.


def test_the_capture_count_law_gives_the_hand_values(monkeypatch):
    # the law reaches neither the u(j) table nor the recursion it checks
    def unused(*args):
        raise AssertionError("the count law reached the u(j) table or the recursion")

    for module, name in (
        (core, "per_stale_rate"),
        (core, "stale_rate_rows"),
        (analytic, "stale_rate_rows"),
        (analytic, "_recursion"),
    ):
        monkeypatch.setattr(module, name, unused)

    def law(policy, lg):
        return count_law_sizes(policy, 1.0, lg, 1.0, [3])[0]

    assert law(GP.DC_noRC, 0.0) == pytest.approx(1 / 4, abs=1e-15)
    assert law(GP.DC_RC, 0.0) == pytest.approx(7 / 24, abs=1e-15)
    assert law(GP.FC_allRC, 1.0) == pytest.approx(13 / 36, abs=1e-15)
    assert law(GP.FC_noRC, 1.0) == pytest.approx(111 / 336, abs=1e-15)
    assert law(GP.FC_sRC, 1.0) == pytest.approx(19 / 54, abs=1e-15)
    # a policy that is no GossipPolicy is named after the size and rate checks
    for policy in ("DC_RC", None):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            count_law_sizes(policy, 1.0, 0.0, 1.0, [0])
        with pytest.raises(ValueError, match=r"^lambda_s must be finite"):
            count_law_sizes(policy, -1.0, 0.0, 1.0, [3])
        with pytest.raises(ValueError) as err:
            count_law_sizes(policy, [1.0, 2.0], 0.0, 1.0, [3, 5])
        assert str(err.value) == f"unknown policy {policy!r}"


def test_the_capture_count_law_takes_a_zero_or_subnormal_total_rate_quietly():
    # d = 0, or a subnormal d whose lambda_e / d overflows, raises no
    # RuntimeWarning (the suite makes one an error); P(count >= 1) is 0
    # there, within 1e-320 of the recursion
    args = (GP.DC_RC, [0.0, 1e-320], 0.0, 1.0, [1, 2])
    law = count_law_sizes(*args)
    assert law.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert np.abs(law - oracle_sizes(*args)).max() <= 1e-320


@pytest.mark.parametrize("policy", list(GP))
def test_the_recursion_agrees_with_the_capture_count_law(policy):
    rng = random.Random(f"capture-count law {policy.value}")
    for draw in range(60):
        ls, lg, le = (10.0 ** rng.uniform(-3, 3) for _ in range(3))
        lg = 0.0 if draw % 2 else lg
        sizes = [rng.randint(1, 300) for _ in range(4)] + [1, 300]
        got = oracle_sizes(policy, ls, lg, le, sizes)
        law = count_law_sizes(policy, ls, lg, le, sizes)
        assert np.abs(got - law).max() <= 1e-12, (ls, lg, le, sizes)


# --- rate cases: one rate per case, every size under every case ------------

case_rate = st.one_of(st.just(0.0), wide_rate)
sequence = st.sampled_from([list, tuple, np.array])


@given(
    policy=st.sampled_from(list(GP)),
    cases=st.lists(st.tuples(case_rate, case_rate, wide_rate), min_size=1, max_size=5),
    kinds=st.tuples(sequence, sequence, sequence),
    shared=st.sampled_from([None, 0, 1, 2]),
    seed=st.integers(0, 2**32),
)
def test_rate_cases_equal_a_call_per_case(policy, cases, kinds, shared, seed):
    rng = random.Random(seed)
    sizes = rng.choices(range(1, 300), k=30) + [BLOCK_CELLS + 1]  # repeats, block edges
    rng.shuffle(sizes)
    rates = [kind(column) for kind, column in zip(kinds, zip(*cases))]
    if shared is not None:
        # a rate that is the same for every case may stay a number
        value = cases[0][shared]
        cases = [case[:shared] + (value,) + case[shared + 1 :] for case in cases]
        rates[shared] = value
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        got = route(policy, *rates, sizes)
        alone = [route(policy, *case, sizes) for case in cases]
        if route is closed_sizes and policy is GP.FC_sRC:
            assert got is None and alone == [None] * len(cases)
        else:
            assert isinstance(got, np.ndarray) and got.shape == (len(cases), len(sizes))
            assert got.tolist() == [p.tolist() for p in alone]


def test_an_invalid_later_case_raises_the_message_of_a_call_with_it_alone():
    sizes = [3, 10]
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        for ls in ([1.0, 1e307, 2e307], [1.0, 2e307, 1e307]):
            with pytest.raises(ValueError) as alone:
                route(GP.DC_RC, ls[1], 0.0, 1.0, sizes)
            for kind in (list, tuple, np.array):
                with pytest.raises(ValueError, match="rates too large") as got:
                    route(GP.DC_RC, kind(ls), 0.0, 1.0, sizes)
                assert str(got.value) == str(alone.value)


def test_rate_cases_are_rejected_as_a_call_per_case_rejects_them():
    sizes = [3, 10]
    for route in (oracle_sizes, closed_sizes, count_law_sizes):
        unequal = ([1.0, 2.0], 0.0, [1.0] * 3), ([1.0], [0.0] * 2, 1.0), ([], 0.0, 1.0)
        for ls, lg, le in unequal:
            with pytest.raises(ValueError, match="rate sequences must share one length >= 1"):
                route(GP.DC_RC, ls, lg, le, sizes)
        nested = r"lambda_s must be a real number, got \[1.0, 1.0\]"
        for ls in ([[1.0, 1.0]], np.ones((2, 2))):  # a case's rate is a number
            with pytest.raises(ValueError, match=nested):
                route(GP.DC_RC, ls, 0.0, 1.0, sizes)
        with pytest.raises(ValueError, match="lambda_s must be finite and >= 0, got -1.0"):
            route(GP.DC_RC, [1.0, -1.0], 0.0, 1.0, sizes)
        with pytest.raises(ValueError, match="lambda_e must be finite and > 0, got 0.0"):
            route(GP.DC_RC, 1.0, 0.0, [1.0, 0.0], sizes)
        # an entry that is not an int or a float fails with the message of a
        # call with that entry as a number
        for name, bad in (("lambda_s", True), ("lambda_g", "1"), ("lambda_e", True)):
            one = {"lambda_s": 1.0, "lambda_g": 0.0, "lambda_e": 1.0, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be a real number") as alone:
                route(GP.FC_allRC, one["lambda_s"], one["lambda_g"], one["lambda_e"], sizes)
            objects = np.array([1, bad], dtype=object)
            for rates in ([1, bad], (1.0, bad), objects, np.array([bad] * 2)):
                args = dict(one, **{name: rates})
                with pytest.raises(ValueError) as got:
                    route(GP.FC_allRC, args["lambda_s"], args["lambda_g"], args["lambda_e"], sizes)
                assert str(got.value) == str(alone.value)
        # ints, floats of any width and NumPy float64 scalars are rates
        for rates in ([1, 2.0, 3], np.array([1, 2, 3], dtype=np.float32), np.array([1, 2, 3])):
            got = route(GP.FC_allRC, rates, 1, np.float64(1.0), sizes)
            alone = [route(GP.FC_allRC, float(v), 1.0, 1.0, sizes).tolist() for v in rates]
            assert got.tolist() == alone


def test_fc_allrc_keeps_the_sign_of_a_zero_rate_per_case():
    # a call per case tells -0.0 from 0.0 (the n = 1 value keeps the sign of
    # ls), and so does each case's own running sum
    sizes = [1, 2000, 3]
    got = closed_sizes(GP.FC_allRC, [0.0, -0.0, 1.0], [0.0, -0.0, 0.5], 1.0, sizes)
    assert np.signbit(got[:, 0]).tolist() == [False, True, False]
    for row, (ls, lg) in zip(got, [(0.0, 0.0), (-0.0, -0.0), (1.0, 0.5)]):
        alone = closed_sizes(GP.FC_allRC, ls, lg, 1.0, sizes)
        assert row.tolist() == alone.tolist()
        assert np.signbit(row).tolist() == np.signbit(alone).tolist()


@pytest.mark.parametrize("route", [oracle_sizes, closed_sizes, count_law_sizes])
def test_an_integer_too_large_for_a_float_is_not_a_finite_rate(route):
    with pytest.raises(ValueError, match="lambda_s must be finite and >= 0"):
        route(GP.DC_RC, 10**400, 0.0, 1.0, [3])
    with pytest.raises(ValueError, match="lambda_e must be finite and > 0"):
        route(GP.DC_RC, 1.0, 0.0, 10**400, [3])
    with pytest.raises(ValueError, match="lambda_g must be finite and >= 0"):
        route(GP.FC_allRC, [1.0, 1.0], [0.0, -(10**400)], 1.0, [3])


@given(
    policy=st.sampled_from(list(GP)),
    ls=rate,
    lg=rate,
    le=rate,
    n=st.integers(1, 32),
    factor=st.floats(min_value=1e-3, max_value=1e3),
)
def test_time_rescaling_invariance(policy, ls, lg, le, n, factor):
    base = oracle_flat(policy, ls, lg, le, n)
    scaled = oracle_flat(policy, ls * factor, lg * factor, le * factor, n)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_clustered_rescaling_invariance():
    r = Rates(0.7, 1.3, 2.1, 0.4)
    spec = NetworkSpec.clustered(12, 4, GP.DC_RC, GP.FC_sRC, r)
    p0, _ = clustered_freshness(spec)
    scaled = Rates(*(37.0 * v for v in (0.7, 1.3, 2.1, 0.4)))
    p1, _ = clustered_freshness(NetworkSpec.clustered(12, 4, GP.DC_RC, GP.FC_sRC, scaled))
    assert p1 == pytest.approx(p0, abs=1e-12)


def test_clustered_freshness_refuses_a_flat_spec():
    spec = NetworkSpec.flat(4, GP.DC_RC, Rates(1.0, 1.0))
    with pytest.raises(ValueError) as err:
        clustered_freshness(spec)
    assert str(err.value) == "clustered_freshness requires a Clustered shape"


@pytest.mark.parametrize("policy", list(GP))
def test_monotone_in_rates(policy):
    grid = (0.1, 0.5, 1.0, 2.0, 10.0)
    n = 6
    for hi, lo in zip(grid[1:], grid):
        # worse with a faster self-refreshing source
        assert oracle_flat(policy, 1.0, 1.0, hi, n) <= oracle_flat(policy, 1.0, 1.0, lo, n)
        # better with more delivery or gossip budget
        assert oracle_flat(policy, hi, 1.0, 1.0, n) >= oracle_flat(policy, lo, 1.0, 1.0, n)
        assert oracle_flat(policy, 1.0, hi, 1.0, n) >= oracle_flat(policy, 1.0, lo, 1.0, n)


# --- clustered composition ---------------------------------------------------


def test_clustered_spot_values():
    p, bd = clustered_freshness(
        NetworkSpec.clustered(4, 2, GP.DC_noRC, GP.DC_noRC, Rates(0.5, 1.0, 1.0))
    )
    assert p == pytest.approx(0.25, abs=1e-15)
    assert bd.p_ch == pytest.approx(0.5, abs=1e-15)
    assert bd.p_node_given_ch == pytest.approx(0.5, abs=1e-15)

    one = Rates(1.0, 1.0, 1.0, 1.0)
    p, _ = clustered_freshness(NetworkSpec.clustered(4, 2, GP.DC_RC, GP.DC_RC, one))
    assert p == pytest.approx(9 / 64, abs=1e-15)
    p, bd = clustered_freshness(NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, one))
    assert p == pytest.approx(5 / 32, abs=1e-15)
    assert bd.p == bd.p_ch * bd.p_node_given_ch


def test_closed_clustered_matches_recursion_composition():
    r = Rates(0.9, 1.2, 2.3, 0.8)
    for src in (GP.DC_noRC, GP.DC_RC):
        for cl in GP:
            closed = closed_clustered(src, cl, 3, 4, r)
            p, _ = clustered_freshness(NetworkSpec.clustered(12, 4, src, cl, r))
            if cl is GP.FC_sRC:
                assert closed is None
            else:
                assert closed == pytest.approx(p, abs=1e-12)
    # the sweeps' calls: every (m, k) with m k <= 64, every pair, three
    # rate cases; an FC_sRC cluster tier has no closed form
    cases = [r, Rates(1.0, 1.0, 1.0, 1.0), Rates(0.5, 2.0, 3.0, 1.25)]
    pairs = [(src, cl) for src in (GP.DC_noRC, GP.DC_RC) for cl in GP]
    for n in range(1, 65):
        closed, oracle = (
            clustered_profiles(route, n, divisors(n), cases, pairs)
            for route in (closed_sizes, oracle_sizes)
        )
        for closed_case, oracle_case in zip(closed, oracle):
            for (_, cl), c, p in zip(pairs, closed_case, oracle_case):
                if cl is GP.FC_sRC:
                    assert c is None
                else:
                    np.testing.assert_allclose(c, p, rtol=0, atol=1e-12)


def test_clustered_freshness_rejects_invalid_spec():
    spec = NetworkSpec.clustered(5, 2, GP.DC_noRC, GP.DC_noRC, Rates(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="^invalid network spec: k must divide n, got n=5 k=2$"):
        clustered_freshness(spec)
    # closed_clustered checks the same shape: a gossiping source tier, an
    # empty or non-integer tier; a spec has no m, so the m cases are its alone
    r = Rates(1.0, 1.0, 1.0, 1.0)
    for args, match in (
        ((GP.FC_allRC, GP.DC_RC, 2, 2), "source_policy"),
        ((GP.DC_RC, GP.DC_RC, 0, 2), "m must be"),
        ((GP.DC_RC, GP.DC_RC, 2, 0), "k must be"),
        ((GP.DC_RC, GP.DC_RC, 2, 2.5), "k must be"),
        ((GP.DC_RC, GP.DC_RC, True, 2), "m must be"),
    ):
        with pytest.raises(ValueError, match=match):
            closed_clustered(*args, r)
        if match != "m must be":
            shape = NetworkSpec.clustered(args[2] * args[3], args[3], *args[:2], r)
            with pytest.raises(ValueError, match=match):
                clustered_freshness(shape)


def test_single_node_clusters_have_no_gossip_term():
    # k = 1: the in-cluster tier is a bare two-rate race however gossipy
    r = Rates(1.0, 1.0, 1.0, 5.0)
    for cl in (GP.FC_noRC, GP.FC_sRC, GP.FC_allRC):
        p, bd = clustered_freshness(NetworkSpec.clustered(3, 1, GP.DC_noRC, cl, r))
        assert bd.p_node_given_ch == pytest.approx(0.5, abs=1e-15)


# --- optimal cluster size ----------------------------------------------------


def test_divisors():
    assert divisors(120) == [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            divisors(bad)


def test_divisors_from_prime_factors_equal_trial_division():
    for n in range(1, 5001):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        assert divisors(n) == small + [n // d for d in reversed(small) if d * d != n], n
    # trial division to sqrt(n) took 8.8 s at 2**53; never run an exact route this wide
    assert divisors(2**53) == [2**i for i in range(54)]
    assert divisors(3**33) == [3**i for i in range(34)]


def test_divisors_of_products_of_large_primes_equal_their_prime_powers_products():
    small = [p for p in range(2, 2**13) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    rng = random.Random(5)
    draws = (rng.randrange(2**13, 2**26) for _ in range(2000))
    primes = [p for p in draws if all(p % d for d in small)]
    # both sides of the trial bound, and the largest prime below 2**26
    primes += rng.sample(small, 20) + [997, 1009, 1013, 2**26 - 5]
    for _ in range(300):
        factors, n = [], 1
        while len(factors) < 6 and n * (p := rng.choice(primes)) <= 2**53:
            factors.append(p)
            n *= p
        expected = {1}
        for p in factors:
            expected |= {d * p for d in expected}
        assert divisors(n) == sorted(expected), factors
    assert divisors(1009**5) == [1009**i for i in range(6)]
    assert divisors((2**26 - 5) ** 2) == [1, 2**26 - 5, (2**26 - 5) ** 2]


@pytest.mark.parametrize("prime", [2**48 - 59, 2**53 - 111])
def test_divisors_of_a_large_prime_are_quick(prime):
    # trial division to sqrt(n) took 1.8 s at 2**48 - 59 and about 10 s at 2**53 - 111
    start = time.perf_counter()
    assert divisors(prime) == [1, prime]
    assert time.perf_counter() - start < 0.05


def test_optimal_cluster_size_square_grid():
    k, m, p, profile = optimal_cluster_size(
        16, Rates(1.0, 1.0, 1.0), GP.DC_noRC, GP.DC_noRC
    )
    assert (k, m) == (4, 4)
    assert p == pytest.approx(0.04, abs=1e-15)
    assert [kk for kk, _ in profile] == divisors(16)
    assert max(pp for _, pp in profile) == p


def test_optimal_cluster_size_trivial_network():
    k, m, _, profile = optimal_cluster_size(1, Rates(1.0, 1.0, 1.0), GP.DC_RC, GP.DC_RC)
    assert (k, m) == (1, 1)
    assert len(profile) == 1
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="n must be an integer"):
            optimal_cluster_size(bad, Rates(1.0, 1.0, 1.0), GP.DC_RC, GP.DC_RC)


def test_clustered_profiles_take_only_cluster_sizes_that_divide_n():
    r, pair = Rates(1.0, 1.0, 1.0), (GP.DC_RC, GP.FC_allRC)
    ((p,),) = clustered_profiles(oracle_sizes, 12, [3], [r], [pair])
    ((c,),) = clustered_profiles(closed_sizes, 12, [3], [r], [pair])
    assert p.tolist() == [clustered_freshness(NetworkSpec.clustered(12, 3, *pair, r))[0]]
    assert c.tolist() == [closed_clustered(*pair, 4, 3, r)]
    # the first bad k gets core's integer or cluster-shape message
    for ks, message in (
        ([1, 5], "k must divide n, got n=12 k=5"),
        ([0], "k must be an integer and k >= 1, got 0"),
        ([3.0], "k must be an integer and k >= 1, got 3.0"),
        ([True], "k must be an integer and k >= 1, got True"),
        ([], "ks must hold at least one cluster size, got []"),
    ):
        for route in (oracle_sizes, closed_sizes):
            with pytest.raises(ValueError) as err:
                clustered_profiles(route, 12, ks, [r], [pair])
            assert str(err.value) == message
    for route in (oracle_sizes, closed_sizes):
        with pytest.raises(ValueError, match="cases must hold at least one Rates, got"):
            clustered_profiles(route, 12, [3], [], [pair])


def test_optimal_cluster_size_tie_goes_to_smallest_k():
    # symmetric rates on n=12 tie k=3 and k=4 exactly
    k, m, p, profile = optimal_cluster_size(
        12, Rates(1.0, 1.0, 1.0), GP.DC_noRC, GP.DC_noRC
    )
    by_k = dict(profile)
    assert by_k[3] == by_k[4] == p
    assert k == 3


def test_stale_targeting_improves_the_peak_at_n120():
    r = Rates(1.0, 1.0, 1.0)
    _, _, p_rc, _ = optimal_cluster_size(120, r, GP.DC_RC, GP.DC_RC)
    _, _, p_norc, _ = optimal_cluster_size(120, r, GP.DC_noRC, GP.DC_noRC)
    assert p_rc > p_norc


def test_in_cluster_stage_is_a_flat_tier_at_the_cluster_rates():
    # one cluster's tier is a flat tier with lambda_c in the source role
    r = Rates(lambda_e=1.0, lambda_s=9.0, lambda_c=2.0, lambda_g=1.0)
    p = oracle_flat(GP.FC_allRC, r.lambda_c, r.lambda_g, r.lambda_e, 4)
    _, bd = clustered_freshness(NetworkSpec.clustered(4, 4, GP.DC_noRC, GP.FC_allRC, r))
    assert p == bd.p_node_given_ch


@pytest.mark.parametrize("n", [1, 120, 5040])
@pytest.mark.parametrize("src", [GP.DC_noRC, GP.DC_RC])
@pytest.mark.parametrize("cl", list(GP))
def test_optimal_cluster_size_profile_is_clustered_freshness(n, src, cl):
    r = Rates(lambda_e=0.8, lambda_s=3.0, lambda_c=5.0, lambda_g=1.5)
    k_star, m_star, p_star, profile = optimal_cluster_size(n, r, src, cl)
    assert [k for k, _ in profile] == divisors(n)
    for k, p in profile:
        assert type(p) is float
        assert p == clustered_freshness(NetworkSpec.clustered(n, k, src, cl, r))[0]
    assert (k_star, p_star) == max(profile, key=lambda kp: kp[1])
    assert m_star == n // k_star


def test_single_sided_placements_mirror_when_tier_rates_match():
    r = Rates(1.0, 1.0, 1.0)
    k1, _, p1, prof1 = optimal_cluster_size(120, r, GP.DC_RC, GP.DC_noRC)
    k2, _, p2, prof2 = optimal_cluster_size(120, r, GP.DC_noRC, GP.DC_RC)
    assert p1 == pytest.approx(p2, abs=1e-12)
    assert k1 != k2
    assert k1 * k2 == 120
    mirrored = {k: p for k, p in prof2}
    for k, p in prof1:
        assert p == pytest.approx(mirrored[120 // k], abs=1e-12)
