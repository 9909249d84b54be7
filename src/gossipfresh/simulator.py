"""Monte Carlo simulation of flat and clustered networks.

Two independent estimators target the same quantity (the long-term
average binary freshness of a node):

* the cycle estimator (:func:`estimate_freshness_cycles`) counts the
  captures (nodes that receive the current version) in each of many
  independent refresh cycles.  A cycle is an Exp(lambda_e) renewal and a
  node's fresh time after its capture is memoryless, so freshness is
  E[captures per cycle] / n.  Batched NumPy kernels return one capture
  count per cycle for a block of cycles, without node identities;
* the time-average estimator (:func:`estimate_freshness_time`) runs one
  long trajectory with explicit version counters and divides accumulated
  fresh time by the horizon.

:class:`TrajectorySim`, the trajectory engine, is the event-by-event
reference in pure Python.  It resamples after every event: whenever the
state changes it recomputes all active intensities and draws one
exponential, which is exact for competing exponential clocks even though
the rates move at every event under the stale-targeting policies.

Clusterhead semantics: a clusterhead keeps relaying its *own* current
version, targeting the nodes of its cluster that lack that version.
While the clusterhead is stale those deliveries carry an old version and
never make a node fresh; the moment the clusterhead is refreshed, none of
its nodes hold the new version, so the target set resets and the
in-cluster race starts over.  Stale-version deliveries can thus never
change a capture count.  :class:`TrajectorySim` simulates them; the
clustered cycle kernel draws each cycle from holding times alone (the
cycle clock, the clusterhead captures, and each captured cluster's
holder arrivals), so :func:`decomposition_check` compares the two-stage
analytic product with a simulation that never multiplies stage values.

Reproducibility: the cycle estimator gives each batch of
:data:`CYCLE_BATCH` cycles its own ``numpy.random.Generator(PCG64(s))``
(uniforms for flat cycles, standard exponentials for clustered ones),
and the time estimator gives its trajectory a ``random.Random``; the
seeds ``s`` are child seeds of the user seed.  Identical ``(spec, count,
seed)`` inputs give identical outputs, and batches may be run
concurrently and merged by index.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Clustered, Flat, NetworkSpec, per_stale_rate
from .core import require_int, require_rates, require_valid
from .analytic import BLOCK_CELLS, clustered_freshness

__all__ = [
    "SimState",
    "FreshnessEstimate",
    "DecompositionReport",
    "TrajectorySim",
    "estimate_freshness_cycles",
    "estimate_freshness_time",
    "decomposition_check",
]

#: Cycles per RNG child stream in the cycle estimator.
CYCLE_BATCH = 8192

_Z95 = 1.959963984540054


@dataclass
class SimState:
    """Mutable state of one simulated trajectory.

    Versions are integer counters: the source's bumps by one at each
    self-refresh, a node's is set to its sender's current version on
    delivery, and can therefore never exceed the source's.  Node ``i`` is
    fresh while ``node_versions[i] == source_version``.
    ``fresh_time_accum[i]`` is node ``i``'s fresh time up to the last
    source refresh or cap; between uncapped :meth:`TrajectorySim.step`
    calls it lags for the nodes that are fresh.
    """

    source_version: int
    node_versions: list[int]
    ch_versions: list[int] | None
    clock: float
    fresh_time_accum: list[float]


@dataclass(frozen=True)
class FreshnessEstimate:
    """Point estimate of long-term freshness with a 95% normal CI.

    ``samples`` is the cycle count (cycle estimator) or the horizon
    (time-average estimator).  ``per_node`` carries one estimate per end
    node, node 0 first, for symmetry checks; it is empty for the cycle
    estimator, whose kernels count captures without node identities.
    """

    p_hat: float
    stderr: float
    ci95: tuple[float, float]
    samples: float
    seed: int
    estimator: str
    per_node: tuple[float, ...]


@dataclass(frozen=True)
class DecompositionReport:
    """Full two-level simulation versus the analytic two-stage product."""

    estimate: FreshnessEstimate
    p_analytic: float
    p_ch: float
    p_node_given_ch: float
    z: float


def _child_seeds(seed: int, count: int) -> list[int]:
    """Deterministic 128-bit child seeds for independent streams."""
    require_int("seed", seed, 0)
    words = np.random.SeedSequence(seed).generate_state(4 * count, np.uint32)
    return [
        int.from_bytes(words[4 * i : 4 * i + 4].tobytes(), "little")
        for i in range(count)
    ]


def _ci95(p_hat: float, stderr: float) -> tuple[float, float]:
    return (max(0.0, p_hat - _Z95 * stderr), min(1.0, p_hat + _Z95 * stderr))


# ---------------------------------------------------------------------------
# rate tables


class _FlatTables:
    """Per-state rates of a flat network, indexed by the fresh count j.

    ``dsrc[j]`` is the total delivery intensity to the stale nodes (the
    source's, plus the fresh nodes' gossip under the FC policies);
    ``end_prob[j]`` is the chance that the cycle ends before the next
    capture.
    """

    def __init__(self, spec: NetworkSpec):
        shape = spec.shape
        assert isinstance(shape, Flat)
        n = shape.n
        lam_e = spec.rates.lambda_e
        u = per_stale_rate(shape.policy, spec.rates.lambda_s, spec.rates.lambda_g, n).tolist()
        dsrc = [(n - j) * u[j] for j in range(n)] + [0.0]
        self.n = n
        self.lam_e = lam_e
        self.dsrc = dsrc
        self.end_prob = [lam_e / (lam_e + d) for d in dsrc]


class _ClusteredTables:
    """Per-state rates of a clustered network.

    ``dsrc[j]`` is the source's total intensity to the stale clusterheads
    with j of them fresh; ``dcl[j]`` is the total in-cluster delivery
    intensity of one cluster in which j nodes hold the clusterhead's
    current version.
    """

    def __init__(self, spec: NetworkSpec):
        shape = spec.shape
        assert isinstance(shape, Clustered)
        r = spec.rates
        m, k = shape.m, shape.k
        u_src = per_stale_rate(shape.source_policy, r.lambda_s, 0.0, m).tolist()
        u_cl = per_stale_rate(shape.cluster_policy, r.lambda_c, r.lambda_g, k).tolist()
        self.m = m
        self.k = k
        self.n = shape.n
        self.lam_e = r.lambda_e
        self.dsrc = [(m - j) * u_src[j] for j in range(m)] + [0.0]
        self.dcl = [(k - j) * u_cl[j] for j in range(k)] + [0.0]


def _make_tables(spec: NetworkSpec):
    require_valid(spec)
    if isinstance(spec.shape, Flat):
        return _FlatTables(spec)
    return _ClusteredTables(spec)


# ---------------------------------------------------------------------------
# capture-count kernels


def _flat_counts(tab: _FlatTables, rng: np.random.Generator, count: int) -> np.ndarray:
    """Capture counts of ``count`` flat cycles.

    Row i of a uniform block holds cycle i's draws, one per fresh count j;
    the cycle ends at the first j whose uniform falls below ``end_prob[j]``
    (``end_prob[n] = 1``).  Blocks hold at most :data:`BLOCK_CELLS` cells.
    """
    end_prob = np.asarray(tab.end_prob)
    rows = max(1, BLOCK_CELLS // len(end_prob))
    shapes = [(min(rows, count - start), len(end_prob)) for start in range(0, count, rows)]
    return np.concatenate([(rng.random(shape) < end_prob).argmax(axis=1) for shape in shapes])


def _clustered_counts(tab: _ClusteredTables, rng: np.random.Generator, count: int) -> np.ndarray:
    """Capture counts of ``count`` clustered cycles, each drawn in one pass.

    A cycle is an Exp(lambda_e) clock that runs independently of the
    network, so it is drawn from holding times alone: the cycle lasts
    ``T = E / lambda_e``; with j clusterheads fresh the next is captured
    after ``E / dsrc[j]``, so the clusterheads are captured at the partial
    sums ``S``; a cluster captured at ``S`` restarts from zero holders and
    its h-th holder arrives at ``S`` plus the partial sum of ``E / dcl``
    up to h.  Clusters are exchangeable and a cluster's rate ``dcl[h]``
    depends only on its own h holders, so a cycle counts the holder
    arrivals before ``T``; a cluster captured after ``T`` has none.  A zero rate gives an
    infinite holding time.  Row i of a block holds cycle i's ``m * (k +
    1)`` holding times, laid out as one ``(source, k in-cluster)`` row per
    cluster; blocks hold at most :data:`BLOCK_CELLS` cells.
    """
    m, k = tab.m, tab.k
    rates = np.empty((m, k + 1))
    rates[:, 0] = tab.dsrc[:m]
    rates[:, 1:] = tab.dcl[:k]
    rows = max(1, BLOCK_CELLS // (rates.size + 1))
    out = []
    with np.errstate(over="ignore"):  # a time past the float range is inf
        for start in range(0, count, rows):
            size = min(rows, count - start)
            length = rng.standard_exponential(size) / tab.lam_e
            draws = rng.standard_exponential((size, m, k + 1))
            hold = np.divide(draws, rates, out=np.full_like(draws, np.inf), where=rates > 0)
            hold[:, :, 0] = hold[:, :, 0].cumsum(axis=1)  # capture times S
            np.add.accumulate(hold, axis=2, out=hold)  # holder arrival times
            out.append((hold[:, :, 1:] < length[:, None, None]).sum(axis=(1, 2)))
    return np.concatenate(out)


def _stream_counts(tab, seed: int, num_cycles: int):
    """Capture counts of ``num_cycles`` cycles, yielded one child stream
    (:data:`CYCLE_BATCH` cycles) at a time, in stream order."""
    kernel = _flat_counts if isinstance(tab, _FlatTables) else _clustered_counts
    seeds = _child_seeds(seed, (num_cycles + CYCLE_BATCH - 1) // CYCLE_BATCH)
    for b, child in enumerate(seeds):
        size = min(CYCLE_BATCH, num_cycles - b * CYCLE_BATCH)
        yield kernel(tab, np.random.Generator(np.random.PCG64(child)), size)


# ---------------------------------------------------------------------------
# estimators


def estimate_freshness_cycles(
    spec: NetworkSpec, num_cycles: int, seed: int = 0
) -> FreshnessEstimate:
    """Cycle estimator: fraction of (cycle, node) pairs that got updated.

    Runs ``num_cycles`` independent refresh cycles on child RNG streams
    (one per batch of :data:`CYCLE_BATCH` cycles) and divides the total
    capture count by ``num_cycles * n``.  The standard error uses the
    binomial approximation with ``num_cycles`` effective samples, which is
    conservative: indicators within a cycle are positively correlated, so
    averaging across nodes cannot be treated as extra samples.  The
    kernels count captures without naming nodes, so ``per_node`` is empty.
    """
    require_int("num_cycles", num_cycles, 1)
    tab = _make_tables(spec)
    captures = sum(int(counts.sum()) for counts in _stream_counts(tab, seed, num_cycles))
    p_hat = captures / (num_cycles * tab.n)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / num_cycles)
    return FreshnessEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci95=_ci95(p_hat, stderr),
        samples=num_cycles,
        seed=seed,
        estimator="cycle",
        per_node=(),
    )


class TrajectorySim:
    """One long trajectory with explicit version counters.

    Drives a :class:`SimState` event by event; versions only ever flow
    downward from the source.  :meth:`step` and :meth:`run_until` both
    drive one event loop, :meth:`_advance`.  Per-node fresh time is
    settled lazily: a node's capture clock is kept while it is fresh, and
    ``state.fresh_time_accum`` gains the time since then at each source
    refresh and at each cap, so between uncapped :meth:`step` calls it
    lags for the nodes that are fresh.  Used by
    :func:`estimate_freshness_time`, and directly by invariant tests.
    """

    def __init__(self, spec: NetworkSpec, rng: random.Random):
        tab = _make_tables(spec)
        self.spec = spec
        self.tab = tab
        self.rng = rng
        n = tab.n
        if isinstance(tab, _FlatTables):
            self.state = SimState(1, [0] * n, None, 0.0, [0.0] * n)
            clusters, k, dcl0 = 0, 0, 0.0
        else:
            clusters, k, dcl0 = tab.m, tab.k, tab.dcl[0]
            self.state = SimState(1, [-1] * n, [0] * clusters, 0.0, [0.0] * n)
        # the source's receivers are the end nodes of a flat network and
        # the clusterheads of a clustered one; resets copy these lists
        self._receivers = list(range(len(tab.dsrc) - 1))
        self._cluster_nodes = list(range(k))
        self._stale = self._receivers[:]
        self._fresh: list[int] = []
        self._since = [0.0] * n  # capture clock of each fresh node
        self._holders = [0] * clusters
        self._nonhold = [self._cluster_nodes[:] for _ in range(clusters)]
        self._crates = [dcl0] * clusters
        self._csum = dcl0 * clusters

    def fresh_nodes(self) -> list[int]:
        return list(self._fresh)

    def _advance(self, cap: float, limit: int | None) -> str:
        """Run events until ``limit`` of them have happened (``None``: no
        limit) or the next one would pass ``cap``; return the last label.

        One pass is one event.  It draws, in this order, the holding time
        ``-log(1 - U) / total`` (what ``random.Random.expovariate(total)``
        computes), a uniform times ``total`` that picks the stage (the
        refresh, a delivery from the source, or one cluster's delivery),
        and, unless the source refreshes, a uniform index that picks the
        receiver.  On reaching ``cap`` the fresh nodes' time is settled
        there.
        """
        tab, state = self.tab, self.state
        random, log = self.rng.random, math.log
        lam_e, dsrc = tab.lam_e, tab.dsrc
        sv, clock = state.source_version, state.clock
        nodes, chs, accum = state.node_versions, state.ch_versions, state.fresh_time_accum
        dcl, k = (tab.dcl, tab.k) if chs is not None else ((), 0)
        stale, fresh, since = self._stale, self._fresh, self._since
        holders, nonhold, crates, csum = self._holders, self._nonhold, self._crates, self._csum
        every_receiver, every_node = self._receivers, self._cluster_nodes
        receivers, clusters = len(every_receiver), len(crates)
        refresh, source = -2, -1  # stage codes; an in-cluster delivery is its cluster
        events = 0
        while True:
            d = dsrc[receivers - len(stale)]
            total = lam_e + d + csum
            t = clock - log(1.0 - random()) / total
            if t > cap:
                clock = cap
                label = "capped"
                break
            clock = t
            x = random() * total - lam_e
            if x < d:
                c = refresh if x < 0.0 else source
            else:
                x -= d
                c = clusters - 1  # the last cluster when x passes them all
                for c in range(clusters):
                    if x < crates[c]:
                        break
                    x -= crates[c]
                if c < 0 or crates[c] == 0.0:
                    # csum drift can park x a few ulps past the active
                    # clusters: land on the last active one.  With none
                    # active csum is all drift; reset it and give the event
                    # to the source's delivery, or to the refresh when that
                    # is the only stage left with a positive rate.
                    c = max((cc for cc in range(clusters) if crates[cc] > 0.0), default=-1)
                    if c < 0:
                        csum = sum(crates)
                        c = source if d > 0.0 else refresh
            if c == refresh:
                sv += 1
                for i in fresh:
                    accum[i] += t - since[i]
                fresh = []
                # every receiver is stale again; in-cluster holder sets
                # persist, they track the clusterheads' unchanged versions
                stale = every_receiver[:]
                label = "source_refresh"
            else:
                # a uniform index into the stale receivers or into the
                # cluster's non-holders, robust to float spill at the edge
                lst = stale if c == source else nonhold[c]
                s = len(lst)
                i = int(random() * s)
                if i == s:
                    i -= 1
                r = lst[i]
                lst[i] = lst[-1]
                lst.pop()
                if c != source:
                    gid = c * k + r
                    nodes[gid] = chs[c]
                    h = holders[c] + 1
                    holders[c] = h
                    csum += dcl[h] - crates[c]
                    crates[c] = dcl[h]
                    if chs[c] == sv:
                        fresh.append(gid)
                        since[gid] = t
                    label = "node_delivery"
                elif chs is None:
                    nodes[r] = sv
                    fresh.append(r)
                    since[r] = t
                    label = "node_delivery"
                else:
                    chs[r] = sv
                    holders[r] = 0
                    nonhold[r] = every_node[:]
                    csum += dcl[0] - crates[r]
                    crates[r] = dcl[0]
                    label = "ch_update"
            events += 1
            if events == limit or t == cap:
                break
        if clock == cap:
            for i in fresh:
                accum[i] += cap - since[i]
                since[i] = cap
        state.source_version, state.clock = sv, clock
        self._stale, self._fresh, self._csum = stale, fresh, csum
        return label

    def step(self, cap: float | None = None) -> str:
        """Advance to the next event (or to ``cap`` if it comes first).

        Returns the label of what happened: ``source_refresh``,
        ``ch_update``, ``node_delivery``, or ``capped``.
        """
        return self._advance(math.inf if cap is None else cap, 1)

    def run_until(self, t_end: float) -> None:
        """Advance to ``t_end`` and settle the fresh nodes' time there."""
        if self.state.clock < t_end:
            self._advance(t_end, None)


def estimate_freshness_time(
    spec: NetworkSpec, horizon: float, seed: int = 0, batches: int = 50
) -> FreshnessEstimate:
    """Time-average estimator over one long trajectory.

    Accumulated per-node fresh time divided by ``horizon``, averaged over
    nodes; the standard error comes from batch means over ``batches``
    equal windows.  Warns when the horizon covers fewer than ~100 expected
    refresh cycles.
    """
    require_rates(horizon=horizon)  # a finite real >= 0, not a bool
    if horizon == 0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    require_int("batches", batches, 2)
    require_valid(spec)
    lam_e = spec.rates.lambda_e
    if horizon < 100.0 / lam_e:
        warnings.warn(
            f"horizon {horizon:g} covers fewer than 100 expected refresh "
            f"cycles (1/lambda_e = {1.0 / lam_e:g}); the estimate will be noisy",
            stacklevel=2,
        )
    (child,) = _child_seeds(seed, 1)
    sim = TrajectorySim(spec, random.Random(child))
    n = sim.tab.n
    accum = sim.state.fresh_time_accum
    window_means = []
    prev_sum = 0.0
    for b in range(1, batches + 1):
        edge = horizon * b / batches
        sim.run_until(edge)
        cur = sum(accum)
        window_means.append((cur - prev_sum) / n / (edge - horizon * (b - 1) / batches))
        prev_sum = cur
    w = np.asarray(window_means)
    p_hat = float(sum(accum) / (n * horizon))
    stderr = float(np.std(w, ddof=1) / math.sqrt(batches))
    return FreshnessEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci95=_ci95(p_hat, stderr),
        samples=horizon,
        seed=seed,
        estimator="time_average",
        per_node=tuple(a / horizon for a in accum),
    )


def decomposition_check(
    spec: NetworkSpec, num_cycles: int, seed: int = 0
) -> DecompositionReport:
    """Compare full two-level simulation with the analytic stage product.

    The z-score is (simulated - analytic) / stderr; values within a few
    units confirm that the two-stage factorisation, including the reset of
    a cluster's race when its clusterhead is refreshed, matches the
    simulated network.
    """
    require_valid(spec)
    if not isinstance(spec.shape, Clustered):
        raise ValueError("decomposition_check requires a Clustered shape")
    est = estimate_freshness_cycles(spec, num_cycles, seed)
    p, breakdown = clustered_freshness(spec)
    if est.stderr > 0:
        z = (est.p_hat - p) / est.stderr
    else:
        z = 0.0 if est.p_hat == p else math.inf
    return DecompositionReport(
        estimate=est,
        p_analytic=p,
        p_ch=breakdown.p_ch,
        p_node_given_ch=breakdown.p_node_given_ch,
        z=z,
    )
