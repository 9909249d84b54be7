import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gossipfresh.core import GossipPolicy, NetworkSpec, Rates, per_stale_rate
from gossipfresh.analytic import (
    BLOCK_CELLS,
    closed_clustered,
    closed_flat,
    clustered_freshness,
    divisors,
    freshness_dc_norc,
    freshness_dc_rc,
    freshness_fc_allrc,
    freshness_fc_norc,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
    renewal_freshness,
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
    assert freshness_dc_norc(ls, le, n) == pytest.approx(float(expected), abs=1e-15)


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
    assert freshness_dc_rc(ls, le, n) == pytest.approx(float(expected), abs=1e-15)


def test_dc_rc_beats_dc_norc_at_two_nodes():
    assert freshness_dc_rc(1.0, 1.0, 2) > freshness_dc_norc(1.0, 1.0, 2) == 1 / 3


@pytest.mark.parametrize(
    "ls,lg,le,n,expected",
    [
        (1.0, 1.0, 1.0, 2, Fraction(5, 12)),
        (1.0, 0.0, 1.0, 3, Fraction(7, 24)),
        (1.0, 1.0, 1.0, 3, Fraction(13, 36)),
    ],
)
def test_fc_allrc_values(ls, lg, le, n, expected):
    assert freshness_fc_allrc(ls, lg, le, n) == pytest.approx(float(expected), abs=1e-15)


def test_fc_norc_value():
    assert freshness_fc_norc(1.0, 1.0, 1.0, 3) == pytest.approx(111 / 336, abs=1e-15)


@pytest.mark.parametrize(
    "fn,args",
    [
        (freshness_dc_norc, (1.0, 0.0, 3)),
        (freshness_dc_rc, (1.0, -1.0, 3)),
        (freshness_fc_allrc, (1.0, 1.0, 1.0, 0)),
        (freshness_fc_norc, (-1.0, 1.0, 1.0, 3)),
    ],
)
def test_closed_forms_reject_bad_arguments(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# --- generic recursion -------------------------------------------------------


def test_recursion_specialises_to_even_split():
    p, _ = renewal_freshness([0.1] * 10, 10, 0.1)
    assert p == pytest.approx(0.5, abs=1e-12)


def test_recursion_src_rc_hand_values():
    u = per_stale_rate(GP.FC_sRC, 1.0, 1.0, 3)
    p, trace = renewal_freshness(u, 3, 1.0)
    assert p == pytest.approx(19 / 54, abs=1e-15)
    assert trace.q == pytest.approx((1 / 6, 1 / 3, 2 / 3), abs=1e-15)
    assert trace.tau == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def test_recursion_fc_norc_hand_values():
    u = per_stale_rate(GP.FC_noRC, 1.0, 1.0, 3)
    p, trace = renewal_freshness(u, 3, 1.0)
    assert p == pytest.approx(111 / 336, abs=1e-15)
    assert trace.q == pytest.approx((1 / 6, 5 / 16, 4 / 7), abs=1e-15)
    assert trace.tau == pytest.approx((1 / 3, 5 / 16), abs=1e-15)


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
        assert freshness_dc_rc(ratio, 1.0, n) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n", [1, 10, 10**4])
def test_dc_rc_closed_form_holds_for_all_rates_the_api_accepts(n):
    # lambda_s, lambda_e anywhere in [1e-300, 1e300]: the prefactor
    # lambda_s / (n * lambda_e) overflows past lambda_s / lambda_e ~ 1e308
    decades = [10.0**d for d in range(-300, 301, 10)]
    for ls in decades:
        for le in decades:
            closed = freshness_dc_rc(ls, le, n)
            oracle = oracle_flat(GP.DC_RC, ls, 0.0, le, n)
            assert abs(closed - oracle) <= 1e-12, (ls, le, closed, oracle)


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


def test_src_rc_has_no_closed_form():
    assert closed_flat(GP.FC_sRC, 1.0, 1.0, 1.0, 3) is None


@given(
    policy=st.sampled_from(list(GP)),
    ls=rate,
    lg=rate,
    le=rate,
    n=st.integers(1, 32),
)
def test_trace_step_outcomes_partition(policy, ls, lg, le, n):
    u = per_stale_rate(policy, ls, lg, n)
    p, trace = renewal_freshness(u, n, le)
    assert all(0.0 <= q <= 1.0 for q in trace.q)
    assert all(0.0 <= t <= 1.0 for t in trace.tau)
    # p is exactly the q/tau accumulation
    total = 0.0
    passed = 1.0
    for step in range(1, n + 1):
        total += passed * trace.q[step - 1]
        if step < n:
            passed *= trace.tau[step - 1]
    assert p == pytest.approx(total, abs=1e-12)
    assert trace.p == p
    # per-step: tagged capture + other capture + cycle end partition the draw
    for step in range(1, n + 1):
        stale = n - step + 1
        denom = stale * u[step - 1] + le
        end = le / denom
        tk = trace.tau[step - 1] if step < n else 0.0
        assert trace.q[step - 1] + tk + end == pytest.approx(1.0, abs=1e-12)


# The pure-Python table, recursion and closed-form loops the array code
# replaced.  The arrays accumulate left to right, so they must agree bit
# for bit.


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
    return p


def _loop_fc_allrc(ls, lg, le, n):
    total = 0.0
    prod = 1.0
    for j in range(1, n + 1):
        r = ls + (j - 1) * lg
        prod *= r / (r + le)
        total += prod
    return total / n


wide_rate = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)


@given(
    policy=st.sampled_from(list(GP)),
    ls=wide_rate,
    lg=st.one_of(st.just(0.0), wide_rate),
    le=wide_rate,
    n=st.integers(1, 3000),
)
def test_array_routes_equal_the_python_loops(policy, ls, lg, le, n):
    table = _loop_table(policy, ls, lg, n)
    assert per_stale_rate(policy, ls, lg, n).tolist() == table
    oracle = _loop_recursion(table, n, le)
    assert oracle_flat(policy, ls, lg, le, n) == oracle
    assert renewal_freshness(table, n, le)[0] == oracle
    if policy is GP.FC_noRC:
        assert closed_flat(policy, ls, lg, le, n) == oracle
    if policy is GP.FC_allRC:
        assert closed_flat(policy, ls, lg, le, n) == _loop_fc_allrc(ls, lg, le, n)


@pytest.mark.parametrize("policy", list(GP))
def test_oracle_sizes_equals_one_size_at_a_time(policy):
    half = BLOCK_CELLS // 2
    sweep = list(range(1, math.isqrt(BLOCK_CELLS) + 40))  # crosses one block edge
    scattered = [half + 1, 7, BLOCK_CELLS + 1, half, 1, BLOCK_CELLS, 7, 2]
    for sizes in (sweep, scattered):
        got = oracle_sizes(policy, 1.7, 0.6, 0.9, sizes)
        assert isinstance(got, np.ndarray) and got.shape == (len(sizes),)
        assert got.tolist() == [oracle_flat(policy, 1.7, 0.6, 0.9, n) for n in sizes]


@pytest.mark.parametrize("sizes", [[], [0, 3], [2.0, 3.0], [[2, 3]]])
def test_oracle_sizes_rejects_bad_sizes(sizes):
    with pytest.raises(ValueError):
        oracle_sizes(GP.DC_RC, 1.0, 0.0, 1.0, sizes)


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
    p1, _ = clustered_freshness(
        NetworkSpec.clustered(12, 4, GP.DC_RC, GP.FC_sRC, r.scaled(37.0))
    )
    assert p1 == pytest.approx(p0, abs=1e-12)


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


def test_clustered_freshness_rejects_invalid_spec():
    spec = NetworkSpec.clustered(5, 2, GP.DC_noRC, GP.DC_noRC, Rates(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="m\\*k"):
        clustered_freshness(spec)


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
