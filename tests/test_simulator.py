import collections
import functools
import hashlib
import math
import random
import re
import statistics
import warnings

import numpy as np
import pytest

from gossipfresh.core import DC_POLICIES, Flat, GossipPolicy, NetworkSpec, Rates, per_stale_rate
from gossipfresh.acceptance import DECOMP_RATES, DECOMP_SHAPES
from gossipfresh.analytic import BLOCK_CELLS, _survival, clustered_freshness, oracle_flat
from gossipfresh import analytic, simulator
from gossipfresh.simulator import (
    SimState,
    TrajectorySim,
    _child_seed,
    _clustered_counts,
    _flat_counts,
    _Tables,
    decomposition_check,
    estimate_freshness_cycles,
    estimate_freshness_time,
)

GP = GossipPolicy
ONE = Rates(1.0, 1.0, 1.0, 1.0)


def z_score(est, target):
    return (est.p_hat - target) / est.stderr


# --- single cycles -----------------------------------------------------------


def first_cycle(spec, rng):
    """Step a trajectory to its first source refresh, which settles every
    node's fresh time: the captured nodes hold version 1.  Returns each
    node's (captured, fresh time) and the cycle's length."""
    sim = TrajectorySim(spec, rng)
    while sim.step() != "source_refresh":
        pass
    state = sim.state
    return list(zip((v == 1 for v in state.node_versions), state.fresh_time_accum)), state.clock


def test_cycle_outcome_invariants_flat():
    spec = NetworkSpec.flat(5, GP.FC_sRC, ONE)
    rng = random.Random(123)
    for _ in range(200):
        nodes, length = first_cycle(spec, rng)
        assert length > 0
        for captured, fresh in nodes:
            assert captured == (fresh > 0.0)
            assert fresh <= length
    assert len(nodes) == 5


def test_cycle_outcome_invariants_clustered():
    spec = NetworkSpec.clustered(6, 3, GP.DC_RC, GP.FC_allRC, ONE)
    rng = random.Random(5)
    saw_update = False
    for _ in range(300):
        nodes, length = first_cycle(spec, rng)
        saw_update = saw_update or any(captured for captured, _ in nodes)
        for captured, fresh in nodes:
            assert captured == (fresh > 0.0)
            assert fresh <= length
    assert saw_update


def test_first_cycle_deterministic_per_stream():
    spec = NetworkSpec.flat(4, GP.FC_allRC, ONE)
    a = [first_cycle(spec, random.Random(7)) for _ in range(20)]
    b = [first_cycle(spec, random.Random(7)) for _ in range(20)]
    assert a == b


def test_two_node_race_frequency():
    # n=1, lambda_s = lambda_e: capture probability is exactly 1/2
    spec = NetworkSpec.flat(1, GP.DC_noRC, ONE)
    est = estimate_freshness_cycles(spec, 100_000, seed=0)
    assert abs(z_score(est, 0.5)) <= 4.0


# --- cycle estimator ---------------------------------------------------------


def test_cycle_estimator_matches_exact_value_large_run():
    spec = NetworkSpec.flat(2, GP.FC_allRC, ONE)
    est = estimate_freshness_cycles(spec, 10**6, seed=42)
    assert abs(est.p_hat - 5 / 12) <= 4.0 * est.stderr
    assert est.ci95[0] <= est.p_hat <= est.ci95[1]
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / 10**6), abs=1e-12
    )


def test_cycle_estimator_covers_policy_without_closed_form():
    spec = NetworkSpec.flat(3, GP.FC_sRC, ONE)
    est = estimate_freshness_cycles(spec, 100_000, seed=7)
    assert abs(z_score(est, 19 / 54)) <= 4.0


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("n", [1, 4])
def test_cycle_estimator_statistical_agreement(policy, n):
    le, ls, lg = 0.5, 1.0, 2.0
    target = oracle_flat(policy, ls, lg, le, n)
    spec = NetworkSpec.flat(n, policy, Rates(le, ls, 0.0, lg))
    est = estimate_freshness_cycles(spec, 30_000, seed=100 + n)
    assert abs(z_score(est, target)) <= 4.0


def test_cycle_estimator_deterministic():
    spec = NetworkSpec.clustered(6, 2, GP.DC_RC, GP.FC_sRC, ONE)
    a = estimate_freshness_cycles(spec, 20_000, seed=9)
    b = estimate_freshness_cycles(spec, 20_000, seed=9)
    assert a == b
    c = estimate_freshness_cycles(spec, 20_000, seed=10)
    assert c != a


def test_per_node_symmetry():
    # the cycle kernels count captures without node identities, so the
    # per-node check runs on the trajectory engine
    spec = NetworkSpec.flat(5, GP.FC_allRC, ONE)
    est = estimate_freshness_time(spec, 100_000.0, seed=3)
    assert len(est.per_node) == 5
    sigma = math.sqrt(est.p_hat * (1 - est.p_hat) / est.samples)
    for a in est.per_node:
        for b in est.per_node:
            assert abs(a - b) <= 5.0 * sigma


def test_per_node_symmetry_clustered():
    spec = NetworkSpec.clustered(6, 3, GP.DC_RC, GP.FC_noRC, ONE)
    est = estimate_freshness_time(spec, 100_000.0, seed=4)
    assert len(est.per_node) == 6
    sigma = math.sqrt(est.p_hat * (1 - est.p_hat) / est.samples)
    for a in est.per_node:
        for b in est.per_node:
            assert abs(a - b) <= 5.0 * sigma


def _stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _count_hist(tab, seed, num_cycles):
    """The capture-count histogram a cycle-estimator call with ``seed`` draws."""
    return (_clustered_counts if tab.k else _flat_counts)(tab, _stream(seed), num_cycles)


class _CountingGenerator:
    """A ``numpy.random.Generator`` stand-in that passes uniform, standard
    exponential and multinomial requests on; it records the cells of each
    uniform or exponential request in ``requests`` and the ``(trials,
    outcomes)`` of each multinomial one in ``multinomials``.  Any other
    draw fails."""

    def __init__(self, seed):
        self._rng = _stream(seed)
        self.requests = []
        self.multinomials = []

    def random(self, size):
        self.requests.append(math.prod(np.atleast_1d(size)))
        return self._rng.random(size)

    def standard_exponential(self, size):
        self.requests.append(math.prod(size))
        return self._rng.standard_exponential(size)

    def multinomial(self, n, pvals):
        self.multinomials.append((n, len(pvals)))
        return self._rng.multinomial(n, pvals)


def _p_hat(hist, num_cycles):
    """The estimate of the capture-count histogram ``hist`` of ``num_cycles``
    cycles: its total capture count over ``num_cycles * n``."""
    return int(hist @ np.arange(len(hist))) / (num_cycles * (len(hist) - 1))


@pytest.mark.parametrize("num_cycles", [1, 8193, 10**9])
def test_a_flat_call_is_one_multinomial_draw_on_the_seeded_generator(monkeypatch, num_cycles):
    spec = NetworkSpec.flat(3, GP.FC_sRC, ONE)
    tab = _Tables(spec)
    hist = _flat_counts(tab, _stream(7), num_cycles)
    assert len(hist) == spec.shape.n + 1 and hist.sum() == num_cycles
    made = []

    class Counting(_CountingGenerator):
        def __init__(self, bits, _generator=np.random.Generator):
            self._rng, self.requests, self.multinomials = _generator(bits), [], []
            made.append((bits.seed_seq.entropy, self))

    monkeypatch.setattr(np.random, "Generator", Counting)
    est = estimate_freshness_cycles(spec, num_cycles, seed=7)
    assert [(e, g.requests, g.multinomials) for e, g in made] == [(7, [], [(num_cycles, 4)])]
    assert (est.p_hat, est.samples, est.per_node) == (_p_hat(hist, num_cycles), num_cycles, ())


def test_a_clustered_call_is_one_kernel_run_on_the_seeded_generator():
    # 8,193 cycles span more than one pass-1 block of the kernel
    spec = NetworkSpec.clustered(6, 2, GP.DC_RC, GP.FC_allRC, ONE)
    hist = _clustered_counts(_Tables(spec), _stream(7), 8193)
    assert len(hist) == spec.shape.n + 1 and hist.sum() == 8193
    est = estimate_freshness_cycles(spec, 8193, seed=7)
    assert (est.p_hat, est.samples, est.per_node) == (_p_hat(hist, 8193), 8193, ())
    assert decomposition_check(spec, 8193, seed=7).estimate == est


@pytest.mark.parametrize("n", [1, 50, 10**4])
@pytest.mark.parametrize("count", [1, 8192])
def test_flat_kernel_draws_one_multinomial_per_stream(n, count):
    tab = _Tables(NetworkSpec.flat(n, GP.FC_sRC, Rates(1.0, 1000.0, 0.0, 2.0)))
    rng = _CountingGenerator(n)
    hist = _flat_counts(tab, rng, count)
    assert (rng.requests, rng.multinomials) == ([], [(count, n + 1)])
    assert len(hist) == n + 1 and hist.min() >= 0 and hist.sum() == count


@pytest.mark.parametrize("m,k", [(2, 3), (40, 3), (3, 40)])
@pytest.mark.parametrize(
    "rates,per_cluster",
    [(Rates(1.0, 0.0, 2.0, 1.5), 0), (Rates(1e-6, 1e6, 2.0, 1.5), 1)],
    ids=["no_capture", "all_captured"],
)
def test_clustered_kernel_draws_in_cluster_times_only_for_captured_clusters(
    m, k, rates, per_cluster
):
    # lambda_s = 0 captures no clusterhead; lambda_s >> lambda_e captures
    # every one before the cycle ends (at these seeds)
    tab = _Tables(NetworkSpec.clustered(m * k, k, GP.DC_RC, GP.FC_allRC, rates))
    rng = _CountingGenerator(m + k)
    _clustered_counts(tab, rng, 8192)
    assert sum(rng.requests) == 8192 * (1 + m + per_cluster * m * k)
    assert max(rng.requests) <= BLOCK_CELLS


# --- exact capture-count law -------------------------------------------------


def _race_pmf(tab, tier):
    """P(count = c), c = 0 .. size, of one tier's race from zero captures
    within a cycle, in product form and plain floats: with ``d[j]`` the
    tier's total rate to its stale nodes when j are captured, the race
    passes j with chance ``d[j] / (d[j] + lambda_e)`` and stops there with
    chance ``lambda_e / (d[j] + lambda_e)``; ``d`` ends in 0.0."""
    lam_e, pmf, passed = tab.lam_e, [], 1.0
    for d in tab.dcl if tier else tab.dsrc:
        pmf.append(passed * lam_e / (d + lam_e))
        passed *= d / (d + lam_e)
    return np.array(pmf)


def _one_cluster_pmf(tab):
    """P(count = c) of a clustered cycle with one cluster: the clusterhead
    is captured (the source tier's count is 1), after which its cluster
    runs the flat race from zero holders."""
    miss, hit = _race_pmf(tab, 0)
    pmf = hit * _race_pmf(tab, 1)
    pmf[0] += miss
    return pmf


def _assert_chi_square_fits(observed, pmf):
    """Pearson chi-square of the count histogram ``observed`` against
    ``pmf``, with adjacent bins pooled until each expects at least 5,
    rejected at the Wilson-Hilferty 1 - 1e-6 quantile."""
    assert len(observed) == len(pmf)
    assert not observed[pmf == 0.0].any(), "a count the law gives probability 0"
    expected = pmf * observed.sum()
    obs_bins, exp_bins = [], []
    o = e = 0.0
    for ob, ex in zip(observed, expected):
        o, e = o + ob, e + ex
        if e >= 5.0:
            obs_bins.append(o)
            exp_bins.append(e)
            o = e = 0.0
    if exp_bins:
        obs_bins[-1] += o
        exp_bins[-1] += e
    obs_bins, exp_bins = np.array(obs_bins), np.array(exp_bins)
    df = len(exp_bins) - 1
    if df == 0:
        return
    chi2 = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
    assert chi2 <= _chi_square_quantile(df, 1.0 - 1e-6), (chi2, df)


def _chi_square_quantile(df, q):
    """The Wilson-Hilferty approximation of the chi-square ``q`` quantile."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + statistics.NormalDist().inv_cdf(q) * math.sqrt(h)) ** 3


LAW_CYCLES = 200_000


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("n", [1, 3, 8, 50, 500])
def test_flat_kernel_capture_count_law(policy, n):
    spec = NetworkSpec.flat(n, policy, Rates(0.5, 1.0, 0.0, 2.0))
    tab = _Tables(spec)
    _assert_chi_square_fits(_count_hist(tab, 300 + n, LAW_CYCLES), _race_pmf(tab, 0))


def _flat_count_sd(spec):
    """Exact sd of one flat cycle's count / n, from the survival row
    P(count >= c), with E[count] = sum_c P(count >= c) and E[count^2] =
    sum_c (2c - 1) P(count >= c)."""
    tab = _Tables(spec)
    stale, u = tab.rows[0]
    survive = _survival(stale * u, tab.lam_e)
    c = np.arange(1, tab.n + 1)
    mean, square = math.fsum(survive), math.fsum((2 * c - 1) * survive)
    return math.sqrt(square - mean * mean) / tab.n


SPREAD_SEEDS = 300
SPREAD_CYCLES = 10_000  # two child streams


@pytest.mark.parametrize("n", [3, 50])
@pytest.mark.parametrize(
    "rates", [Rates(1.0, 2.0, 0.0, 0.5), Rates(0.25, 3.0, 0.0, 4.0)], ids=["slow", "fast"]
)
def test_cycle_estimator_spread_matches_the_count_law(n, rates):
    # p_hat is a mean of SPREAD_CYCLES independent count / n, so its sample
    # variance over seeds, times (seeds - 1) / Var(p_hat), is chi-square
    spec = NetworkSpec.flat(n, GP.FC_sRC, rates)
    p_hats = [estimate_freshness_cycles(spec, SPREAD_CYCLES, s).p_hat for s in range(SPREAD_SEEDS)]
    df = SPREAD_SEEDS - 1
    ratio = df * statistics.variance(p_hats) / (_flat_count_sd(spec) ** 2 / SPREAD_CYCLES)
    low, high = (_chi_square_quantile(df, q) for q in (0.5e-6, 1.0 - 0.5e-6))
    assert low <= ratio <= high, (low, ratio, high)


LARGE_N_CYCLES = 20_000


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize(
    "rates", [Rates(1.0, 1000.0, 0.0, 2.0), Rates(0.01, 50.0, 0.0, 0.2)], ids=["fast", "slow"]
)
def test_cycle_estimator_agrees_with_the_oracle_at_large_n(policy, n, rates):
    # the binomial bar is several times the true per-cycle spread at this n,
    # so the gate uses the exact sd of count / n
    spec = NetworkSpec.flat(n, policy, rates)
    target = oracle_flat(policy, rates.lambda_s, rates.lambda_g, rates.lambda_e, n)
    sd = _flat_count_sd(spec)
    assert 0.0 < sd < math.sqrt(target * (1.0 - target))  # below the binomial sd
    est = estimate_freshness_cycles(spec, LARGE_N_CYCLES, seed=n + list(GP).index(policy))
    assert abs(est.p_hat - target) <= 4.0 * sd / math.sqrt(LARGE_N_CYCLES)


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("k", [1, 3, 8])
def test_clustered_kernel_capture_count_law_with_one_cluster(policy, k):
    # one clusterhead: refreshed within the cycle with probability p_ch,
    # after which its cluster runs the flat race from zero holders
    spec = NetworkSpec.clustered(k, k, GP.DC_RC, policy, Rates(0.5, 1.0, 2.0, 1.5))
    tab = _Tables(spec)
    _assert_chi_square_fits(_count_hist(tab, 400 + k, LAW_CYCLES), _one_cluster_pmf(tab))


def _clustered_count_pmf(tab):
    """Exact capture-count law of a clustered cycle, by a DP over the
    embedded jump chain of the class counts ``N[f][h]``: the number of
    clusters whose clusterhead is fresh (f = 1) or stale (f = 0) and in
    which h nodes hold the clusterhead's version.  Every event is kept,
    stale-version deliveries included; a clusterhead refresh moves its
    cluster from (0, h) to (1, 0), and the cycle-ending refresh counts the
    holders of fresh clusters."""
    m, K, lam_e = tab.m, tab.k + 1, tab.lam_e

    @functools.lru_cache(maxsize=None)
    def law(state):  # state[f * K + h] = N[f][h]
        j = sum(state[K:])
        per_stale_ch = tab.dsrc[j] / (m - j) if j < m else 0.0
        # (rate, from, to): clusterhead refreshes, then deliveries (dcl[k] = 0)
        moves = [(state[h] * per_stale_ch, h, K) for h in range(K)]
        moves += [(state[i] * tab.dcl[i % K], i, i + 1) for i in range(2 * K)]
        total = lam_e + sum(w for w, _, _ in moves)
        pmf = np.zeros(tab.n + 1)
        pmf[sum(h * c for h, c in enumerate(state[K:]))] = lam_e / total
        for w, src, dst in moves:
            if w > 0.0:
                nxt = list(state)
                nxt[src] -= 1
                nxt[dst] += 1
                pmf += w / total * law(tuple(nxt))
        return pmf

    return law((m,) + (0,) * (2 * K - 1))


@pytest.mark.parametrize("src", DC_POLICIES)
@pytest.mark.parametrize("cl", list(GP))
@pytest.mark.parametrize(
    "m,k,rates",
    [
        pytest.param(m, k, rates, id=f"{m}-{k}")
        for (m, k), rates in [
            ((2, 2), Rates(0.5, 1.0, 2.0, 1.5)),
            ((3, 2), Rates(0.5, 1.0, 2.0, 1.5)),
            ((2, 3), Rates(0.5, 1.0, 2.0, 1.5)),
            # few captures: P(count = 0) is about 0.77, so the kernel skips
            # the in-cluster draws of most clusters
            ((8, 2), Rates(1.0, 0.5, 2.0, 1.5)),
            ((6, 3), Rates(1.0, 0.5, 2.0, 1.5)),
        ]
    ],
)
def test_clustered_kernel_capture_count_law_with_several_clusters(src, cl, m, k, rates):
    spec = NetworkSpec.clustered(m * k, k, src, cl, rates)
    tab = _Tables(spec)
    pmf = _clustered_count_pmf(tab)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    _assert_chi_square_fits(_count_hist(tab, 500 + 10 * m + k, LAW_CYCLES), pmf)


def test_clustered_count_pmf_with_one_cluster_is_the_flat_race():
    # the DP reference against the closed m = 1 law of the test above
    spec = NetworkSpec.clustered(3, 3, GP.DC_RC, GP.FC_sRC, Rates(0.5, 1.0, 2.0, 1.5))
    tab = _Tables(spec)
    assert _clustered_count_pmf(tab) == pytest.approx(_one_cluster_pmf(tab), abs=1e-15)


#: Specs whose freshness is exactly 0 or 1 in floating point: lambda_c = 0,
#: so no cluster gets a first holder whatever lambda_g (lambda_s = 0 is
#: test_zero_source_rate_means_never_fresh), or rates 1e300 apart from
#: lambda_e.
EDGE_SPECS = [
    (NetworkSpec.clustered(6, 3, GP.DC_RC, GP.FC_allRC, Rates(1.0, 4.0, 0.0, 0.0)), 0.0),
    (NetworkSpec.clustered(6, 3, GP.DC_noRC, GP.FC_sRC, Rates(1.0, 4.0, 0.0, 5.0)), 0.0),
] + [
    (spec(Rates(le, r, r, r)), 0.0 if r < le else 1.0)
    for le, r in ((1.0, 1e-300), (1e300, 1.0), (1.0, 1e300), (1e-300, 1.0))
    for spec in (
        lambda rates: NetworkSpec.flat(5, GP.FC_sRC, rates),
        lambda rates: NetworkSpec.clustered(6, 2, GP.DC_noRC, GP.FC_noRC, rates),
        lambda rates: NetworkSpec.clustered(40, 4, GP.DC_RC, GP.FC_allRC, rates),
    )
]


@pytest.mark.parametrize("spec,limit", EDGE_SPECS)
def test_cycle_kernels_return_the_exact_limit_at_edge_rates(spec, limit):
    # the suite turns RuntimeWarnings into errors, so a 0/0, an inf - inf
    # or an overflow in a kernel fails here
    est = estimate_freshness_cycles(spec, 5_000, seed=1)
    assert est.p_hat == limit
    assert est.stderr == 0.0


def test_zero_source_rate_means_never_fresh():
    est = estimate_freshness_cycles(
        NetworkSpec.flat(3, GP.FC_allRC, Rates(1.0, 0.0, 0.0, 5.0)), 5_000, seed=1
    )
    assert est.p_hat == 0.0
    # clustered: the clusterheads never learn the new version, so their
    # (busy) in-cluster deliveries must never confer freshness
    est = estimate_freshness_cycles(
        NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, Rates(1.0, 0.0, 8.0, 5.0)),
        5_000,
        seed=1,
    )
    assert est.p_hat == 0.0


def test_fast_refresh_drives_freshness_down():
    previous = 1.0
    for le in (1.0, 10.0, 100.0):
        est = estimate_freshness_cycles(
            NetworkSpec.flat(3, GP.DC_RC, Rates(le, 1.0)), 20_000, seed=6
        )
        assert est.p_hat < previous
        previous = est.p_hat


#: Rates every tier passes one by one, but whose sums overflow: n * (lambda_e
#: + rates) above sys.float_info.max / 4, and for the last spec the m = 100
#: clusters' in-cluster rates, 100 * lambda_c.
OVERFLOWING_SPECS = [
    NetworkSpec.flat(4, GP.DC_RC, Rates(1e308, 1e308)),
    NetworkSpec.flat(4, GP.FC_allRC, Rates(1.0, 1e308, 0.0, 1e308)),
    NetworkSpec.clustered(6, 3, GP.DC_RC, GP.DC_RC, Rates(1e308, 1e308, 1e308)),
    NetworkSpec.clustered(100, 1, GP.DC_RC, GP.DC_RC, Rates(1.0, 1.0, 1e307)),
]


def _exact(spec):
    if isinstance(spec.shape, Flat):
        r = spec.rates
        return oracle_flat(spec.shape.policy, r.lambda_s, r.lambda_g, r.lambda_e, spec.shape.n)
    return clustered_freshness(spec)


@pytest.mark.parametrize(
    "engine",
    [
        lambda spec: estimate_freshness_cycles(spec, 100, seed=1),
        lambda spec: TrajectorySim(spec, random.Random(1)),
        _exact,
    ],
    ids=["cycle_kernel", "trajectory", "exact"],
)
@pytest.mark.parametrize("spec", OVERFLOWING_SPECS)
def test_rates_that_would_overflow_are_rejected_by_every_engine(engine, spec):
    with pytest.raises(ValueError, match="rates too large"):
        engine(spec)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda s: estimate_freshness_cycles(s, 1000.0), "num_cycles"),
        (lambda s: estimate_freshness_cycles(s, math.nan), "num_cycles"),
        (lambda s: estimate_freshness_cycles(s, True), "num_cycles"),
        (lambda s: estimate_freshness_cycles(s, 100, seed=True), "seed"),
        (lambda s: estimate_freshness_cycles(s, 100, seed=3.0), "seed"),
        (lambda s: estimate_freshness_time(s, 1000.0, seed=True), "seed"),
        (lambda s: _child_seed(True), "seed"),
    ],
)
def test_integer_arguments_reject_bools_and_non_integers(call, name):
    with pytest.raises(ValueError, match=name):
        call(NetworkSpec.flat(2, GP.DC_noRC, ONE))


def test_cycle_estimator_rejects_bad_arguments():
    spec = NetworkSpec.flat(2, GP.DC_noRC, ONE)
    with pytest.raises(ValueError):
        estimate_freshness_cycles(spec, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_freshness_cycles(spec, 100, seed=-1)
    bad = NetworkSpec.flat(2, GP.DC_noRC, Rates(0.0, 1.0))
    with pytest.raises(ValueError, match="lambda_e"):
        estimate_freshness_cycles(bad, 100, seed=1)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate_freshness_cycles(NetworkSpec.flat(n, GP.DC_noRC, ONE), 100, seed=1)
    with pytest.raises(ValueError, match="k must be an integer"):
        estimate_freshness_cycles(NetworkSpec.clustered(4, True, GP.DC_noRC, GP.DC_RC, ONE), 100)


# --- time-average estimator --------------------------------------------------


def test_time_estimator_two_rate_race():
    spec = NetworkSpec.flat(1, GP.DC_noRC, ONE)
    est = estimate_freshness_time(spec, 1e6, seed=1)
    assert abs(z_score(est, 0.5)) <= 4.0
    assert est.estimator == "time_average"
    assert est.samples == 1e6


def test_time_estimator_matches_analytic_with_slow_refresh():
    target = oracle_flat(GP.DC_RC, 1.0, 0.0, 0.1, 10)
    spec = NetworkSpec.flat(10, GP.DC_RC, Rates(0.1, 1.0))
    est = estimate_freshness_time(spec, 1e5, seed=2)
    assert abs(z_score(est, target)) <= 4.0


def test_time_estimator_agrees_with_cycle_estimator():
    spec = NetworkSpec.flat(3, GP.FC_sRC, ONE)
    t_est = estimate_freshness_time(spec, 50_000.0, seed=5)
    c_est = estimate_freshness_cycles(spec, 50_000, seed=5)
    combined = math.hypot(t_est.stderr, c_est.stderr)
    assert abs(t_est.p_hat - c_est.p_hat) <= 4.0 * combined


def test_time_estimator_clustered():
    spec = NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, ONE)
    est = estimate_freshness_time(spec, 30_000.0, seed=8)
    assert abs(z_score(est, 5 / 32)) <= 4.0


def test_time_estimator_deterministic():
    spec = NetworkSpec.flat(2, GP.DC_RC, ONE)
    assert estimate_freshness_time(spec, 2_000.0, seed=3) == estimate_freshness_time(
        spec, 2_000.0, seed=3
    )


def test_time_estimator_warns_on_short_horizon():
    spec = NetworkSpec.flat(1, GP.DC_noRC, ONE)
    with pytest.warns(UserWarning, match="100 expected refresh"):
        estimate_freshness_time(spec, 50.0, seed=1)


def test_time_estimator_rejects_bad_arguments():
    spec = NetworkSpec.flat(1, GP.DC_noRC, ONE)
    with pytest.raises(ValueError):
        estimate_freshness_time(spec, 0.0, seed=1)
    with pytest.raises(ValueError):
        estimate_freshness_time(spec, math.inf, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        estimate_freshness_time(spec, True, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        estimate_freshness_time(spec, "5", seed=1)
    for horizon in (5e-324, 1e-322):  # a window's width rounded to 0
        with pytest.raises(ValueError, match="horizon"):
            estimate_freshness_time(spec, horizon, seed=1)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate_freshness_time(NetworkSpec.flat(n, GP.DC_noRC, ONE), 1000.0, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        # the capture sum of 10**17 cycles of 100 nodes wrapped in int64
        lambda: estimate_freshness_cycles(
            NetworkSpec.flat(100, GP.DC_RC, Rates(1e-9, 1e3, 0, 0)), 10**17, seed=1
        ),
        # 2**63 cycles overflowed NumPy's multinomial
        lambda: estimate_freshness_cycles(NetworkSpec.flat(1, GP.DC_RC, ONE), 2**63, seed=1),
        lambda: decomposition_check(
            NetworkSpec.clustered(4, 2, GP.DC_RC, GP.DC_RC, ONE), 2**62, seed=-1
        ),
    ],
    ids=["capture-sum", "multinomial", "decomposition"],
)
def test_cycle_estimators_reject_num_cycles_times_n_past_int64(call):
    with pytest.raises(ValueError, match=r"^num_cycles \* n must be at most 2\*\*63 - 1, got "):
        call()


def test_estimators_report_errors_in_argument_order_before_the_warning():
    bad_spec = NetworkSpec.flat(2, GP.DC_noRC, Rates(0.0, 1.0))
    good_flat = NetworkSpec.flat(2, GP.DC_noRC, ONE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a short horizon must not warn first
        with pytest.raises(ValueError, match="invalid network spec"):
            estimate_freshness_time(bad_spec, 50.0, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            estimate_freshness_time(good_flat, 50.0, seed=-1)
    with pytest.raises(ValueError, match="num_cycles"):
        estimate_freshness_cycles(bad_spec, 0)
    with pytest.raises(ValueError, match="invalid network spec"):
        decomposition_check(bad_spec, 0)
    with pytest.raises(ValueError, match="Clustered shape"):
        decomposition_check(good_flat, 0)
    with pytest.raises(ValueError, match="num_cycles"):
        decomposition_check(NetworkSpec.clustered(4, 2, GP.DC_RC, GP.DC_RC, ONE), 0, seed=-1)


# --- trajectory invariants ---------------------------------------------------


def _assert_version_invariants(sim, spec):
    state = sim.state
    k = spec.shape.k
    for i, v in enumerate(state.node_versions):
        assert v <= state.source_version
        ch_v = state.ch_versions[i // k]
        assert v <= ch_v
        if v == state.source_version:  # fresh node: its clusterhead must be too
            assert ch_v == state.source_version
    for ch_v in state.ch_versions:
        assert ch_v <= state.source_version


def test_trajectory_version_flow_clustered():
    spec = NetworkSpec.clustered(6, 2, GP.DC_RC, GP.FC_allRC, ONE)
    sim = TrajectorySim(spec, random.Random(11))
    prev_source = sim.state.source_version
    prev_accum = list(sim.state.fresh_time_accum)
    prev_nodes = list(sim.state.node_versions)
    prev_chs = list(sim.state.ch_versions)
    for _ in range(3000):
        label = sim.step()
        state = sim.state
        if label == "source_refresh":
            assert state.source_version == prev_source + 1
            assert state.node_versions == prev_nodes
            assert state.ch_versions == prev_chs
        elif label == "ch_update":
            changed = [
                c for c, (a, b) in enumerate(zip(prev_chs, state.ch_versions)) if a != b
            ]
            assert len(changed) == 1
            assert state.ch_versions[changed[0]] == state.source_version
        elif label == "node_delivery":
            changed = [
                i
                for i, (a, b) in enumerate(zip(prev_nodes, state.node_versions))
                if a != b
            ]
            assert len(changed) == 1
            # the receiver got exactly its clusterhead's current version
            c = changed[0] // spec.shape.k
            assert state.node_versions[changed[0]] == state.ch_versions[c]
        _assert_version_invariants(sim, spec)
        for before, after in zip(prev_accum, state.fresh_time_accum):
            assert after >= before
        prev_source = state.source_version
        prev_accum = list(state.fresh_time_accum)
        prev_nodes = list(state.node_versions)
        prev_chs = list(state.ch_versions)


def test_trajectory_version_flow_flat():
    spec = NetworkSpec.flat(4, GP.FC_noRC, ONE)
    sim = TrajectorySim(spec, random.Random(13))
    refreshes = 0
    for _ in range(2000):
        label = sim.step()
        state = sim.state
        assert all(v <= state.source_version for v in state.node_versions)
        fresh = [i for i, v in enumerate(state.node_versions) if v == state.source_version]
        assert sorted(sim.fresh_nodes()) == fresh
        if label == "source_refresh":
            refreshes += 1
    assert state.source_version == 1 + refreshes
    assert state.clock > 0


def test_trajectory_capping_accumulates_partial_interval():
    spec = NetworkSpec.flat(1, GP.DC_noRC, Rates(1.0, 1000.0))
    sim = TrajectorySim(spec, random.Random(1))
    sim.run_until(25.0)
    assert sim.state.clock == 25.0
    # the single node is fresh almost always at this delivery rate
    assert sim.state.fresh_time_accum[0] == pytest.approx(25.0, rel=0.05)


def test_an_end_time_behind_the_clock_or_nan_is_rejected():
    sim = TrajectorySim(NetworkSpec.flat(3, GP.DC_RC, Rates(1.0, 5.0)), random.Random(1))
    for _ in range(3):
        sim.step()
    state = sim.state
    before = (state.clock, list(state.fresh_time_accum), sim.rng.getstate())
    clock = state.clock
    for cap in (clock - 0.5, math.nan):
        message = f"cap must be >= the clock {clock!r}, got {cap!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sim.step(cap=cap)
    message = f"t_end must be >= the clock {clock!r}, got nan"
    with pytest.raises(ValueError, match=re.escape(message)):
        sim.run_until(math.nan)
    assert (state.clock, state.fresh_time_accum, sim.rng.getstate()) == before
    # a t_end behind the clock is still a no-op, and a cap at the clock caps
    sim.run_until(clock - 0.5)
    assert (state.clock, state.fresh_time_accum, sim.rng.getstate()) == before
    assert sim.step(cap=clock) == "capped"
    assert state.clock == clock


def test_an_infinite_end_time_is_rejected_but_an_infinite_cap_is_one_event():
    sim = TrajectorySim(NetworkSpec.flat(3, GP.DC_RC, Rates(1.0, 5.0)), random.Random(1))
    sim.step()
    state = sim.state
    before = (state.clock, list(state.fresh_time_accum), sim.rng.getstate())
    # the event loop never reached an infinite end: it ran until killed
    with pytest.raises(ValueError, match=re.escape("t_end must be finite, got inf")):
        sim.run_until(math.inf)
    assert (state.clock, state.fresh_time_accum, sim.rng.getstate()) == before
    assert sim.step(cap=math.inf) != "capped"
    assert before[0] < state.clock < math.inf


class _PerEventSim:
    """A per-event trajectory engine: one method call, two shape
    dispatches and an accumulate pass over the fresh nodes per event.
    The reference for the event loop's draws, labels and fresh time."""

    def __init__(self, spec, rng):
        tab = _Tables(spec)
        self.tab = tab
        self.rng = rng
        n = tab.n
        if isinstance(spec.shape, Flat):
            self.state = SimState(1, [0] * n, None, 0.0, [0.0] * n)
            self._stale = list(range(n))
            self._fresh = []
        else:
            m, k = tab.m, tab.k
            self.state = SimState(1, [-1] * n, [0] * m, 0.0, [0.0] * n)
            self._stale_ch = list(range(m))
            self._fresh = []
            self._holders = [0] * m
            self._nonhold = [list(range(k)) for _ in range(m)]
            self._crates = [tab.dcl[0]] * m
            self._csum = tab.dcl[0] * m

    def _accumulate(self, dt):
        accum = self.state.fresh_time_accum
        for i in self._fresh:
            accum[i] += dt

    def _do_refresh(self):
        self.state.source_version += 1
        self._fresh = []
        if self.state.ch_versions is None:
            self._stale = list(range(self.tab.n))
        else:
            self._stale_ch = list(range(self.tab.m))
        return "source_refresh"

    @staticmethod
    def _pick(rng_random, count):
        i = int(rng_random() * count)
        return count - 1 if i >= count else i

    def step(self, cap=None):
        tab, state, rng = self.tab, self.state, self.rng
        flat = state.ch_versions is None
        if flat:
            deliver = tab.dsrc[len(self._fresh)]
            total = tab.lam_e + deliver
        else:
            deliver = tab.dsrc[tab.m - len(self._stale_ch)]
            total = tab.lam_e + deliver + self._csum
        t_next = state.clock + rng.expovariate(total)
        if cap is not None and t_next > cap:
            self._accumulate(cap - state.clock)
            state.clock = cap
            return "capped"
        self._accumulate(t_next - state.clock)
        state.clock = t_next
        x = rng.random() * total
        if x < tab.lam_e:
            return self._do_refresh()
        x -= tab.lam_e
        if flat:
            i = self._pick(rng.random, len(self._stale))
            node = self._stale[i]
            self._stale[i] = self._stale[-1]
            self._stale.pop()
            state.node_versions[node] = state.source_version
            self._fresh.append(node)
            return "node_delivery"
        if x < deliver:
            i = self._pick(rng.random, len(self._stale_ch))
            c = self._stale_ch[i]
            self._stale_ch[i] = self._stale_ch[-1]
            self._stale_ch.pop()
            state.ch_versions[c] = state.source_version
            self._holders[c] = 0
            self._nonhold[c] = list(range(tab.k))
            self._csum += tab.dcl[0] - self._crates[c]
            self._crates[c] = tab.dcl[0]
            return "ch_update"
        x -= deliver
        crates = self._crates
        c = tab.m - 1
        for cc in range(tab.m):
            if x < crates[cc]:
                c = cc
                break
            x -= crates[cc]
        if crates[c] == 0.0:
            active = [cc for cc in range(tab.m) if crates[cc] > 0.0]
            if not active:
                return self._do_refresh()
            c = active[-1]
        lst = self._nonhold[c]
        i = self._pick(rng.random, len(lst))
        node = lst[i]
        lst[i] = lst[-1]
        lst.pop()
        gid = c * tab.k + node
        state.node_versions[gid] = state.ch_versions[c]
        self._holders[c] += 1
        self._csum += tab.dcl[self._holders[c]] - crates[c]
        crates[c] = tab.dcl[self._holders[c]]
        if state.ch_versions[c] == state.source_version:
            self._fresh.append(gid)
        return "node_delivery"

    def run_until(self, t_end):
        while self.state.clock < t_end:
            self.step(cap=t_end)


LOOP_SPECS = [
    NetworkSpec.flat(n, policy, Rates(1.0, 1.0, 0.0, lg))
    for policy in GP
    for n in (1, 3, 8, 50)
    for lg in (0.0, 1.0)
] + [
    NetworkSpec.clustered(m * k, k, src, cl, Rates(0.7, 1.3, 2.1, 0.9))
    for src in DC_POLICIES
    for cl in GP
    for m, k in ((2, 2), (3, 4), (4, 3), (40, 3), (3, 40))
]


@pytest.mark.parametrize("spec", LOOP_SPECS)
def test_trajectory_loop_equals_the_per_event_reference(spec, monkeypatch):
    sim = TrajectorySim(spec, random.Random(17))
    ref = _PerEventSim(spec, random.Random(17))
    for _ in range(3000):
        label = sim.step()
        assert label == ref.step()
        a, b = sim.state, ref.state
        assert (a.clock, a.node_versions, a.ch_versions) == (b.clock, b.node_versions, b.ch_versions)
    got = estimate_freshness_time(spec, 200.0, seed=5)
    monkeypatch.setattr(simulator, "TrajectorySim", _PerEventSim)
    want = estimate_freshness_time(spec, 200.0, seed=5)
    assert got.p_hat == pytest.approx(want.p_hat, abs=1e-12)
    assert got.stderr == pytest.approx(want.stderr, abs=1e-12)
    assert got.per_node == pytest.approx(want.per_node, abs=1e-12)


#: SHA-256 of ``repr((p_hat, stderr, per_node))`` of the time-average
#: estimator over every spec of LOOP_SPECS, at each seed of
#: TRAJECTORY_DIGEST_SEEDS, horizon 400.  It pins every bit of the
#: trajectory engine's draws, stage choices and fresh time; a change that
#: means to alter them updates it and says why.
TRAJECTORY_DIGEST = "2b4c4eb0f54f3107a4e3d494344d18cd6ecc92ff149fa126cafe33f7d011c52b"
TRAJECTORY_DIGEST_SEEDS = (0, 5)


def test_time_estimator_outputs_are_bit_identical():
    digest = hashlib.sha256()
    for seed in TRAJECTORY_DIGEST_SEEDS:
        for spec in LOOP_SPECS:
            est = estimate_freshness_time(spec, 400.0, seed)
            digest.update(repr((est.p_hat, est.stderr, est.per_node)).encode())
    assert digest.hexdigest() == TRAJECTORY_DIGEST


class _StubRandom:
    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_csum_drift_with_no_active_cluster_fires_no_refresh():
    # Every cluster complete (no in-cluster rate left), one clusterhead
    # stale, and csum a drift of 1e-17.  Small rates keep that drift above
    # half an ulp of the total, so the largest uniform lands past the
    # clusterhead stage, where only the drift is left.
    spec = NetworkSpec.clustered(4, 2, GP.DC_RC, GP.DC_RC, Rates(1e-3, 1e-3, 1.0))
    sim = TrajectorySim(spec, _StubRandom([0.5, 1.0 - 2.0**-53, 0.0]))
    state = sim.state
    state.ch_versions = [1, 0]
    state.node_versions = [1, 1, 0, 0]
    sim._stale = [1]
    sim._holders = [2, 2]
    sim._nonhold = [[], []]
    sim._crates = [0.0, 0.0]
    sim._csum = 1e-17
    assert sim.step() == "ch_update"
    assert state.source_version == 1
    assert state.ch_versions == [1, 1]
    assert sim._csum == sum(sim._crates)


def test_a_uniform_pick_never_reaches_the_end_of_its_list():
    # random.Random.random() is k / 2**53 with k < 2**53, so TrajectorySim's
    # int(random() * s) stays below s at every list length s up to 2**53
    top = 1 - 2**-53
    assert top == math.nextafter(1.0, 0.0)
    s = np.arange(1, 2 * 10**6 + 1, dtype=float)
    assert np.array_equal(np.trunc(top * s), s - 1)  # the same IEEE product
    near_powers = {s for p in range(54) for s in range(2**p - 2, 2**p + 3) if 1 <= s <= 2**53}
    assert all(int(top * s) == s - 1 for s in near_powers)


# --- decomposition -----------------------------------------------------------


def test_decomposition_check_matches_two_stage_product():
    rep = decomposition_check(
        NetworkSpec.clustered(4, 2, GP.DC_noRC, GP.DC_noRC, Rates(0.5, 1.0, 1.0)),
        50_000,
        seed=21,
    )
    assert rep.p_analytic == pytest.approx(0.25, abs=1e-15)
    assert abs(rep.z) <= 4.0
    rep = decomposition_check(
        NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, ONE), 50_000, seed=22
    )
    assert rep.p_analytic == pytest.approx(5 / 32, abs=1e-15)
    assert abs(rep.z) <= 4.0
    p, bd = clustered_freshness(NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, ONE))
    assert rep.p_ch == bd.p_ch
    assert rep.p_node_given_ch == bd.p_node_given_ch


#: Criterion 5's grid plus its rates at the n = 120 shapes (40, 3) and
#: (3, 40), and flat tiers under every policy at the same rates.
PINNED_CLUSTERED = [
    NetworkSpec.clustered(m * k, k, src, cl, DECOMP_RATES)
    for src in DC_POLICIES
    for cl in GP
    for m, k in DECOMP_SHAPES + ((40, 3), (3, 40))
]
PINNED_FLAT = [NetworkSpec.flat(n, policy, DECOMP_RATES) for n in (1, 3, 8, 50) for policy in GP]


def _totals_by_hand(policy, total_source, total_gossip, size):
    u = per_stale_rate(policy, total_source, total_gossip, size).tolist()
    return [(size - j) * u[j] for j in range(size)] + [0.0]


@pytest.mark.parametrize("spec", PINNED_FLAT + PINNED_CLUSTERED)
def test_kernel_totals_are_the_stale_counts_times_the_per_stale_rates(spec):
    tab = _Tables(spec)
    source, *cluster = spec.tiers
    assert tab.dsrc == _totals_by_hand(*source)
    assert tab.dcl == (_totals_by_hand(*cluster[0]) if cluster else [])


@pytest.mark.parametrize("spec", PINNED_CLUSTERED)
def test_decomposition_check_reports_clustered_freshness_exactly(spec):
    rep = decomposition_check(spec, 1, seed=0)
    p, bd = clustered_freshness(spec)
    assert (rep.p_analytic, rep.p_ch, rep.p_node_given_ch) == (p, bd.p_ch, bd.p_node_given_ch)


FLAT_FC = NetworkSpec.flat(3, GP.FC_sRC, ONE)
CLUSTERED_FC = NetworkSpec.clustered(6, 2, GP.DC_RC, GP.FC_allRC, ONE)


@pytest.mark.parametrize(
    "call,spec",
    [
        (estimate_freshness_cycles, FLAT_FC),
        (estimate_freshness_cycles, CLUSTERED_FC),
        (estimate_freshness_time, FLAT_FC),
        (estimate_freshness_time, CLUSTERED_FC),
        (decomposition_check, CLUSTERED_FC),
    ],
    ids=["cycles-flat", "cycles-clustered", "time-flat", "time-clustered", "decomposition"],
)
def test_a_monte_carlo_call_validates_once_and_builds_one_row_per_tier(monkeypatch, call, spec):
    # each tier's row comes straight from stale_rate_rows, after the one
    # validation: no rate check again through per_stale_rate, and the exact
    # product reuses the kernel's rows, no second build through the oracle
    calls = collections.Counter()
    for owner, name in (
        (simulator, "require_valid"),
        (analytic, "require_valid"),
        (simulator, "per_stale_rate"),
        (simulator, "stale_rate_rows"),
        (analytic, "stale_rate_rows"),
    ):

        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    call(spec, 200, seed=1)
    assert dict(calls) == {"require_valid": 1, "stale_rate_rows": len(spec.tiers)}


def test_decomposition_check_requires_clustered_spec():
    with pytest.raises(ValueError):
        decomposition_check(NetworkSpec.flat(2, GP.DC_noRC, ONE), 100, seed=1)


def test_decomposition_check_of_a_source_that_never_sends_has_z_zero():
    # lambda_s = 0: no clusterhead, so no node, is ever fresh; the estimate
    # has no spread, and an exact match is z = 0 rather than 0 / 0
    spec = NetworkSpec.clustered(4, 2, GP.DC_RC, GP.FC_allRC, Rates(1.0, 0.0, 1.0, 1.0))
    rep = decomposition_check(spec, 1000, seed=1)
    assert rep.estimate.p_hat == rep.p_analytic == 0
    assert rep.estimate.stderr == 0
    assert rep.z == 0.0
