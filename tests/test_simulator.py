import functools
import math
import random

import numpy as np
import pytest

from gossipfresh.core import DC_POLICIES, Flat, GossipPolicy, NetworkSpec, Rates
from gossipfresh.analytic import clustered_freshness, oracle_flat
from gossipfresh import simulator
from gossipfresh.simulator import (
    CYCLE_BATCH,
    SimState,
    TrajectorySim,
    _child_seeds,
    _clustered_counts,
    _flat_counts,
    _make_tables,
    _stream_counts,
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


def _cycle_counts(tab, seed, num_cycles):
    return np.concatenate(list(_stream_counts(tab, seed, num_cycles)))


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec.flat(3, GP.FC_sRC, ONE),
        NetworkSpec.clustered(6, 2, GP.DC_RC, GP.FC_allRC, ONE),
    ],
)
def test_cycle_counts_merge_child_streams_across_the_batch_boundary(spec):
    tab = _make_tables(spec)
    kernel = _flat_counts if isinstance(spec.shape, Flat) else _clustered_counts
    first, second = _child_seeds(7, 2)
    below = _cycle_counts(tab, 7, CYCLE_BATCH - 1)
    above = _cycle_counts(tab, 7, CYCLE_BATCH + 1)
    assert below.tolist() == kernel(tab, _stream(first), CYCLE_BATCH - 1).tolist()
    assert above.tolist() == (
        kernel(tab, _stream(first), CYCLE_BATCH).tolist()
        + kernel(tab, _stream(second), 1).tolist()
    )
    for num, counts in ((CYCLE_BATCH - 1, below), (CYCLE_BATCH + 1, above)):
        est = estimate_freshness_cycles(spec, num, seed=7)
        assert est == estimate_freshness_cycles(spec, num, seed=7)
        assert est.p_hat == int(counts.sum()) / (num * spec.shape.n)
        assert est.per_node == ()


# --- exact capture-count law -------------------------------------------------


def _first_success_pmf(end_prob):
    """P(J = j) = prod_{i<j} (1 - e_i) * e_j, the law of the first success
    of independent Bernoulli(e_j) trials (``e_n = 1``)."""
    survive = np.concatenate([[1.0], np.cumprod(1.0 - np.asarray(end_prob[:-1]))])
    return survive * np.asarray(end_prob)


def _assert_chi_square_fits(counts, pmf):
    """Pearson chi-square of the count histogram against ``pmf``, with
    adjacent bins pooled until each expects at least 5, rejected at the
    Wilson-Hilferty 1 - 1e-6 quantile."""
    observed = np.bincount(counts, minlength=len(pmf))
    assert len(observed) == len(pmf), "a count the law gives probability 0"
    expected = pmf * len(counts)
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
    z = 4.753424  # standard normal 1 - 1e-6 quantile
    h = 2.0 / (9.0 * df)
    critical = df * (1.0 - h + z * math.sqrt(h)) ** 3
    assert chi2 <= critical, (chi2, critical, df)


LAW_CYCLES = 200_000


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("n", [1, 3, 8, 50])
def test_flat_kernel_capture_count_law(policy, n):
    spec = NetworkSpec.flat(n, policy, Rates(0.5, 1.0, 0.0, 2.0))
    tab = _make_tables(spec)
    counts = _cycle_counts(tab, 300 + n, LAW_CYCLES)
    _assert_chi_square_fits(counts, _first_success_pmf(tab.end_prob))


@pytest.mark.parametrize("policy", list(GP))
@pytest.mark.parametrize("k", [1, 3, 8])
def test_clustered_kernel_capture_count_law_with_one_cluster(policy, k):
    # one clusterhead: refreshed within the cycle with probability p_ch,
    # after which its cluster runs the flat race from zero holders
    spec = NetworkSpec.clustered(k, k, GP.DC_RC, policy, Rates(0.5, 1.0, 2.0, 1.5))
    tab = _make_tables(spec)
    p_ch = tab.dsrc[0] / (tab.dsrc[0] + tab.lam_e)
    pmf = p_ch * _first_success_pmf([tab.lam_e / (tab.lam_e + d) for d in tab.dcl])
    pmf[0] += 1.0 - p_ch
    counts = _cycle_counts(tab, 400 + k, LAW_CYCLES)
    _assert_chi_square_fits(counts, pmf)


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
@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 3)])
def test_clustered_kernel_capture_count_law_with_several_clusters(src, cl, m, k):
    spec = NetworkSpec.clustered(m * k, k, src, cl, Rates(0.5, 1.0, 2.0, 1.5))
    tab = _make_tables(spec)
    pmf = _clustered_count_pmf(tab)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    counts = _cycle_counts(tab, 500 + 10 * m + k, LAW_CYCLES)
    _assert_chi_square_fits(counts, pmf)


def test_clustered_count_pmf_with_one_cluster_is_the_flat_race():
    # the DP reference against the closed m = 1 law of the test above
    spec = NetworkSpec.clustered(3, 3, GP.DC_RC, GP.FC_sRC, Rates(0.5, 1.0, 2.0, 1.5))
    tab = _make_tables(spec)
    p_ch = tab.dsrc[0] / (tab.dsrc[0] + tab.lam_e)
    pmf = p_ch * _first_success_pmf([tab.lam_e / (tab.lam_e + d) for d in tab.dcl])
    pmf[0] += 1.0 - p_ch
    assert _clustered_count_pmf(tab) == pytest.approx(pmf, abs=1e-15)


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
        (lambda s: estimate_freshness_time(s, 1000.0, batches=2.5), "batches"),
        (lambda s: estimate_freshness_time(s, 1000.0, batches=True), "batches"),
        (lambda s: estimate_freshness_time(s, 1000.0, seed=True), "seed"),
        (lambda s: _child_seeds(True, 1), "seed"),
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
    with pytest.raises(ValueError):
        estimate_freshness_time(spec, 1000.0, seed=1, batches=1)
    with pytest.raises(ValueError, match="horizon"):
        estimate_freshness_time(spec, True, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        estimate_freshness_time(spec, "5", seed=1)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate_freshness_time(NetworkSpec.flat(n, GP.DC_noRC, ONE), 1000.0, seed=1)


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


class _PerEventSim:
    """A per-event trajectory engine: one method call, two shape
    dispatches and an accumulate pass over the fresh nodes per event.
    The reference for the event loop's draws, labels and fresh time."""

    def __init__(self, spec, rng):
        tab = _make_tables(spec)
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


def test_decomposition_check_requires_clustered_spec():
    with pytest.raises(ValueError):
        decomposition_check(NetworkSpec.flat(2, GP.DC_noRC, ONE), 100, seed=1)
