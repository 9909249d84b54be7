"""Monte Carlo simulation of flat and clustered networks.

Two independent estimators target the same quantity (the long-term
average binary freshness of a node):

* the cycle estimator (:func:`estimate_freshness_cycles`) counts the
  captures (nodes that receive the current version) in each of many
  independent refresh cycles.  A cycle is an Exp(lambda_e) renewal and a
  node's fresh time after its capture is memoryless, so freshness is
  E[captures per cycle] / n.  NumPy kernels return the capture-count
  histogram of a block of cycles, without node identities;
* the time-average estimator (:func:`estimate_freshness_time`) runs one
  long trajectory with explicit version counters and divides accumulated
  fresh time by the horizon; one call of the event loop walks all its
  window edges.

:class:`TrajectorySim`, the trajectory engine, is the event-by-event
reference in pure Python.  It resamples after every event: each event
updates the intensities it changed, and the next holding time is one
exponential at their total, which is exact for competing exponential
clocks even though the rates move at every event under the
stale-targeting policies.

Clusterhead semantics: a clusterhead keeps relaying its *own* current
version, targeting the nodes of its cluster that lack that version.
While the clusterhead is stale those deliveries carry an old version and
never make a node fresh; the moment the clusterhead is refreshed, none of
its nodes hold the new version, so the target set resets and the
in-cluster race starts over.  Stale-version deliveries can thus never
change a capture count.  :class:`TrajectorySim` simulates them; the
clustered cycle kernel draws each cycle from holding times alone, in two
passes (the cycle clock and the clusterhead captures, then the holder
arrivals of the clusters captured before the cycle ends), so
:func:`decomposition_check` compares the two-stage analytic product with
a simulation that never multiplies stage values.

Where a call checks its input: each Monte Carlo call (both estimators,
:func:`decomposition_check` and a :class:`TrajectorySim`) builds one
:class:`_Tables` from its spec.  That is the call's one validation of the
spec and its one build of each tier's rates, straight from
:func:`~gossipfresh.core.stale_rate_rows`; the kernels, the trajectory
engine and the exact product all read those tables.  A cycle count must
also keep ``num_cycles * n`` within the int64 capture sum
(:func:`~gossipfresh.core.cycles_problem`).

Reproducibility: each cycle-estimator call draws from one
``numpy.random.Generator(PCG64(seed))``, seeded with the user seed
itself: one ``multinomial(num_cycles, pmf)`` request for a flat call,
whatever its cycle count, and standard exponentials for a clustered one
in the order :func:`_clustered_counts` documents.  The time estimator
gives its trajectory a ``random.Random`` seeded from a child seed of the
user seed.  Identical ``(spec, count, seed)`` inputs give identical
outputs.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Clustered, NetworkSpec, cycles_problem, horizon_problem, int_problem
from .core import require, require_valid, stale_rate_rows
from .core import per_stale_rate  # noqa: F401 - perfbench/layers.py traces it
from .analytic import _recursion, _survival
from .analytic import clustered_freshness  # noqa: F401 - perfbench/layers.py traces it

__all__ = [
    "SimState",
    "FreshnessEstimate",
    "DecompositionReport",
    "TrajectorySim",
    "estimate_freshness_cycles",
    "estimate_freshness_time",
    "decomposition_check",
]

#: Equal windows whose batch means give the time-average estimator's stderr.
TIME_WINDOWS = 50

#: Largest draw request of the clustered cycle kernel, in cells.  It sets
#: which cycles share a block, so another value draws other estimates.
DRAW_CELLS = 1 << 14

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


def _child_seed(seed: int) -> int:
    """A deterministic 128-bit child seed of ``seed``."""
    require(int_problem("seed", seed, 0))
    words = np.random.SeedSequence(seed).generate_state(4, np.uint32)
    return int.from_bytes(words.tobytes(), "little")


def _ci95(p_hat: float, stderr: float) -> tuple[float, float]:
    return (max(0.0, p_hat - _Z95 * stderr), min(1.0, p_hat + _Z95 * stderr))


# ---------------------------------------------------------------------------
# rate tables


class _Tables:
    """Per-state rates of a network, one ``(stale, u)`` row per tier of
    :attr:`~gossipfresh.core.NetworkSpec.tiers`.

    This is where a Monte Carlo call turns its spec into rates.  It
    validates the spec, the call's one check of it, and takes each tier's
    row from one :func:`~gossipfresh.core.stale_rate_rows` call, which
    checks nothing again: ``u[j]`` is the rate each of the ``stale[j] =
    size - j`` stale receivers sees with j fresh.  The rows feed the
    kernels and :func:`decomposition_check`'s exact product.
    ``totals[i] = stale * u`` is tier i's total rate to its stale
    receivers, the fresh nodes' gossip included: tier 0 is the source's
    race to its m receivers (the end nodes of a flat network, the
    clusterheads of a clustered one), tier 1 one cluster's race to its k
    nodes; a flat network has ``k = 0``.  The trajectory engine reads the
    same totals as Python lists, :attr:`dsrc` and :attr:`dcl`, built on
    first use.
    """

    def __init__(self, spec: NetworkSpec):
        require_valid(spec)
        self.rows = [
            stale_rate_rows(p, s, g, float(n), np.arange(n, dtype=float))
            for p, s, g, n in spec.tiers
        ]
        self.totals = [stale * u for stale, u in self.rows]
        source, *cluster = self.totals
        self.m, self.k = len(source), len(cluster[0]) if cluster else 0
        self.n = int(spec.shape.n)  # a plain int, as m and k are
        self.lam_e = spec.rates.lambda_e

    @cached_property
    def dsrc(self) -> list[float]:
        """``dsrc[j]``: the source's total rate with j receivers fresh,
        ending in 0.0 (all fresh)."""
        return self.totals[0].tolist() + [0.0]

    @cached_property
    def source_totals(self) -> list[float]:
        """``source_totals[j] = lam_e + dsrc[j]``: the rate of the
        source's own events, its refresh and its deliveries, with j
        receivers fresh."""
        return [self.lam_e + d for d in self.dsrc]

    @cached_property
    def dcl(self) -> list[float]:
        """``dcl[h]``: one cluster's total in-cluster rate with h of its k
        nodes holding the clusterhead's version, ending in 0.0; empty for a
        flat network."""
        return self.totals[1].tolist() + [0.0] if self.k else []


# ---------------------------------------------------------------------------
# capture-count kernels


def _flat_counts(tab: _Tables, rng: np.random.Generator, count: int) -> np.ndarray:
    """Capture-count histogram of ``count`` flat cycles, in one draw.

    The estimator reads the cycles only through their histogram, entry c
    the number of cycles that captured c nodes.  The cycles are
    independent, so that histogram is exactly Multinomial(count, pmf),
    ``pmf[c] = P(count = c)``, c = 0 .. m: the differences of the source
    tier's survival row (:func:`~gossipfresh.analytic._survival` of its
    totals) between 1 and 0.  The row never increases, so no entry is
    negative.  Draw order: one ``rng.multinomial(count, pmf)`` request,
    which NumPy draws as n conditional binomials at most (Devroye 1986), so
    a call costs O(n), not O(count).
    """
    row = np.empty(tab.m + 2)
    row[0], row[-1] = 1.0, 0.0
    row[1:-1] = _survival(tab.totals[0], tab.lam_e)
    return rng.multinomial(count, row[:-1] - row[1:])


def _arrival_times(draws: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Partial sums down the columns of the holding times ``E / rate``,
    where ``draws`` holds the standard exponentials ``E`` and row j of it
    takes ``rates[j]``; a zero rate gives an infinite time.  ``draws`` may
    be a transposed view, the result is a new C-ordered array."""
    rates = rates[:, None]
    times = np.divide(draws, rates, out=np.full(draws.shape, np.inf), where=rates > 0)
    for j in range(1, len(times)):  # add.accumulate down axis 0 goes cell by cell
        times[j] += times[j - 1]
    return times


def _clustered_counts(tab: _Tables, rng: np.random.Generator, count: int) -> np.ndarray:
    """Capture-count histogram of ``count`` clustered cycles, drawn in two
    passes; each block of cycles adds its counts' histogram.

    A cycle is an Exp(lambda_e) clock that runs independently of the
    network, so it is drawn from holding times alone: the cycle lasts
    ``T = E / lambda_e``; with j clusterheads fresh the next is captured
    after ``E / dsrc[j]``, so the clusterheads are captured at the partial
    sums ``S``; a cluster captured at ``S`` restarts from zero holders and
    its h-th holder arrives ``S`` plus the partial sum of ``E / dcl`` up
    to h into the cycle.  Clusters are exchangeable and a cluster's rate
    ``dcl[h]`` depends only on its own h holders, so a cycle counts, over
    its clusters with ``S < T``, the partial sums below ``T - S``; a
    cluster captured after ``T`` has no holder and draws no in-cluster
    time.  A zero rate gives an infinite holding time.

    Draw order: pass 1 takes a block of cycles and draws one row of
    ``1 + m`` per cycle, its length and then its m clusterhead holding
    times; pass 2 then draws k in-cluster holding times for each captured
    cluster of the block, in (cycle, cluster) row-major order.  Neither
    pass makes a draw request or a temporary of more than
    :data:`DRAW_CELLS` cells, or of one cycle's ``1 + m`` or one cluster's
    k where that alone is wider (binning a block's counts takes one cell
    per value up to its largest count); pass 2 is cut into whole clusters,
    which does not change the draws.
    """
    m, k, lam_e = tab.m, tab.k, tab.lam_e
    dsrc, dcl = tab.totals
    rows = max(1, DRAW_CELLS // (m + 1))
    piece = max(1, DRAW_CELLS // k)
    hist = np.zeros(tab.n + 1, dtype=np.int64)
    # arrival times are transposed, one row per clusterhead or holder, so
    # that their partial sums add whole rows
    with np.errstate(over="ignore"):  # a time past the float range is inf
        for start in range(0, count, rows):
            first = rng.standard_exponential((min(rows, count - start), 1 + m))
            length = first[:, 0] / lam_e
            capture = _arrival_times(first[:, 1:].T, dsrc)
            cycle, cluster = (capture < length).T.nonzero()  # (cycle, cluster) order
            gap = length[cycle] - capture[cluster, cycle]  # T - S > 0, never inf - inf
            holders = np.empty(len(gap), dtype=np.int64)
            for lo in range(0, len(gap), piece):
                within = gap[lo : lo + piece]
                arrive = _arrival_times(rng.standard_exponential((len(within), k)).T, dcl)
                holders[lo : lo + piece] = (arrive < within).sum(axis=0)
            counts = np.bincount(cycle, holders, minlength=len(first)).astype(np.int64)
            binned = np.bincount(counts)  # up to the block's largest count, at most n
            hist[: len(binned)] += binned
    return hist


# ---------------------------------------------------------------------------
# estimators


def estimate_freshness_cycles(
    spec: NetworkSpec, num_cycles: int, seed: int = 0
) -> FreshnessEstimate:
    """Cycle estimator: fraction of (cycle, node) pairs that got updated.

    Runs ``num_cycles`` independent refresh cycles on one
    ``numpy.random.Generator(PCG64(seed))``, takes their capture-count
    histogram and divides the total capture count by ``num_cycles * n``.
    A flat call is one multinomial draw, so its cost grows with n, not
    with its cycles.  The standard error is binomial with ``num_cycles``
    samples.  That bar is too wide, not conservative: it was measured at
    1.2-5.7 times the true per-cycle spread of count / n, so the 4-sigma
    gates of selftest criteria 4 and 5 act as 4.6-8.7-sigma gates.  The
    kernels count captures without naming nodes, so ``per_node`` is empty.
    ``num_cycles`` is an integer >= 1 with ``num_cycles * n <= 2**63 - 1``.
    """
    require(int_problem("num_cycles", num_cycles, 1))
    return _cycle_estimate(_Tables(spec), num_cycles, seed)


def _cycle_estimate(tab: _Tables, num_cycles: int, seed: int) -> FreshnessEstimate:
    """:func:`estimate_freshness_cycles` on built tables, for a
    ``num_cycles`` that passed :func:`~gossipfresh.core.int_problem`; its
    :func:`~gossipfresh.core.cycles_problem` bound keeps the capture sum
    below int64 overflow."""
    require(cycles_problem("num_cycles", num_cycles, tab.n))
    require(int_problem("seed", seed, 0))
    num_cycles, seed = int(num_cycles), int(seed)  # no NumPy integer reaches the result
    rng = np.random.Generator(np.random.PCG64(seed))
    hist = (_clustered_counts if tab.k else _flat_counts)(tab, rng, num_cycles)
    captures = int(hist @ np.arange(tab.n + 1))
    p_hat = captures / (num_cycles * tab.n)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / num_cycles)
    return FreshnessEstimate(p_hat, stderr, _ci95(p_hat, stderr), num_cycles, seed, "cycle", ())


class TrajectorySim:
    """One long trajectory with explicit version counters.

    Drives a :class:`SimState` event by event; versions only ever flow
    downward from the source.  One event loop, :meth:`_advance`, walks a
    list of caps: :func:`estimate_freshness_time` passes all its window
    edges in one call, and :meth:`run_until` and :meth:`step` are one-cap
    calls of it.  Per-node fresh time is settled lazily: a node's capture
    clock is kept while it is fresh, and ``state.fresh_time_accum`` gains
    the time since then at each source refresh and at each cap, so between
    uncapped :meth:`step` calls it lags for the nodes that are fresh.  Used
    by :func:`estimate_freshness_time`, and directly by invariant tests.
    """

    def __init__(self, spec: NetworkSpec, rng: random.Random):
        self.tab = tab = _Tables(spec)
        self.rng = rng
        n = tab.n
        if tab.k:
            clusters, dcl0 = tab.m, tab.dcl[0]
            self.state = SimState(1, [-1] * n, [0] * clusters, 0.0, [0.0] * n)
        else:
            clusters, dcl0 = 0, 0.0
            self.state = SimState(1, [0] * n, None, 0.0, [0.0] * n)
        # the source's receivers are the end nodes of a flat network and
        # the clusterheads of a clustered one; resets copy these lists
        self._receivers = list(range(tab.m))
        self._cluster_nodes = list(range(tab.k))
        self._stale = self._receivers[:]
        self._fresh: list[int] = []
        self._since = [0.0] * n  # capture clock of each fresh node
        self._nonhold = [self._cluster_nodes[:] for _ in range(clusters)]
        self._crates = [dcl0] * clusters
        self._csum = dcl0 * clusters

    def _advance(self, caps: list[float], one_event: bool = False) -> list[float]:
        """Run the events up to each cap of ``caps`` in turn, and return
        ``sum(state.fresh_time_accum)`` at each; with ``one_event``, an
        event that comes by the cap ends the call, and no sum is returned.

        One pass is one event.  It draws, in this order, the holding time
        ``-log(1 - U) / total`` (what ``random.Random.expovariate(total)``
        computes), a uniform times ``total`` that picks the stage (the
        refresh, a delivery from the source, or one cluster's delivery),
        and, unless the source refreshes, a uniform index that picks the
        receiver; then it branches once on the stage and does that stage's
        work.  Every event recomputes ``total = source_totals[j] + csum``,
        the holding time and the stage.  The loop counts the fresh
        receivers j; the source's delivery rate ``d = dsrc[j]`` and its
        total ``lam_e + d`` (one entry of :attr:`_Tables.source_totals`)
        change only at the source's own events, its refreshes and
        deliveries, and are updated only there.  A refresh with no fresh
        receiver leaves the stale receivers as they are: no pick has
        reordered them since they were last reset.  A cluster keeps one
        list, its nodes that lack its clusterhead's version: a delivery
        picks from its s of them and leaves ``k - s + 1`` holders, the index
        into ``dcl``, and a clusterhead update refills it, which leaves
        none.  A pick is ``floor(U * s)``, the same integer as ``int(U *
        s)``.  The holding draw that passes a cap is discarded, the clock
        stops at the cap, and the fresh nodes' time is settled there; the
        next cap's events start from a new draw.  j, d and the totals are
        read from the lists on entry, so a state set by hand is honoured.
        """
        tab, state = self.tab, self.state
        random, log, floor = self.rng.random, math.log, math.floor
        lam_e, dsrc, dcl, k = tab.lam_e, tab.dsrc, tab.dcl, tab.k
        source_totals = tab.source_totals
        sv, clock = state.source_version, state.clock
        nodes, chs, accum = state.node_versions, state.ch_versions, state.fresh_time_accum
        stale, fresh, since = self._stale, self._fresh, self._since
        nonhold, crates, csum = self._nonhold, self._crates, self._csum
        every_receiver, every_node = self._receivers, self._cluster_nodes
        receivers = len(every_receiver)
        cluster_ids = range(len(crates))  # the scan's range, built once per call
        j = receivers - len(stale)
        d, source_total = dsrc[j], source_totals[j]
        sums = []
        for cap in caps:
            # the event that ends the inner loop: any, or one landing on the cap
            stop = -math.inf if one_event else cap
            while True:
                total = source_total + csum
                t = clock - log(1.0 - random()) / total
                if t > cap:
                    clock = cap
                    break
                clock = t
                x = random() * total - lam_e
                if x >= d:
                    # the cluster whose share of csum holds x - d
                    y = x - d
                    for c in cluster_ids:
                        if y < crates[c]:
                            break
                        y -= crates[c]
                    else:
                        # the scan passed every cluster, which only csum
                        # drift does (a break leaves crates[c] > y >= 0):
                        # land on the last active cluster.  With none active
                        # (or none at all) csum is all drift; reset it and
                        # give the event to the source's delivery, or to the
                        # refresh when that is the only stage left with a
                        # positive rate.
                        c = max((cc for cc in cluster_ids if crates[cc] > 0.0), default=-1)
                        if c < 0:
                            csum = sum(crates)
                            x = 0.0 if d > 0.0 else -1.0
                if x < 0.0:
                    sv += 1
                    for i in fresh:
                        accum[i] += t - since[i]
                    fresh = []
                    if j:
                        # every receiver is stale again; in-cluster holder
                        # sets persist, they track the clusterheads'
                        # unchanged versions
                        stale = every_receiver[:]
                        j = 0
                        d, source_total = dsrc[0], source_totals[0]
                elif x < d:
                    # a uniform index into the receivers - j stale
                    # receivers (random() is at most 1 - 2**-53, so the
                    # index stays below their count); the last one takes
                    # its place
                    i = floor(random() * (receivers - j))
                    r = stale[i]
                    stale[i] = stale[-1]
                    stale.pop()
                    if k:
                        chs[r] = sv
                        nonhold[r] = every_node[:]  # no node holds the new version
                        csum += dcl[0] - crates[r]
                        crates[r] = dcl[0]
                    else:
                        nodes[r] = sv
                        fresh.append(r)
                        since[r] = t
                    j += 1
                    d, source_total = dsrc[j], source_totals[j]
                else:
                    # the same pick among cluster c's non-holders
                    lst = nonhold[c]
                    s = len(lst)
                    i = floor(random() * s)
                    gid = c * k + lst[i]
                    lst[i] = lst[-1]
                    lst.pop()
                    v = nodes[gid] = chs[c]
                    h = k - s + 1  # the cluster's holders, this one included
                    csum += dcl[h] - crates[c]
                    crates[c] = dcl[h]
                    if v == sv:
                        fresh.append(gid)
                        since[gid] = t
                if t >= stop:
                    break
            if clock == cap:
                for i in fresh:
                    accum[i] += cap - since[i]
                    since[i] = cap
            if one_event and t <= cap:
                break  # the event ends the call; no sum, even if it landed on the cap
            sums.append(sum(accum))
        state.source_version, state.clock = sv, clock
        self._stale, self._fresh, self._csum = stale, fresh, csum
        return sums

    def step(self, cap: float | None = None) -> str:
        """Advance to the next event (or to ``cap`` if it comes first).

        Returns the label of what happened, read from what the event
        changed: ``capped`` when the clock stopped at the cap,
        ``source_refresh`` when the source's version moved, ``ch_update``
        (clustered) or ``node_delivery`` (flat) when a stale receiver of
        the source was served, and otherwise ``node_delivery``, a delivery
        inside a cluster.  Raises ``ValueError`` when ``cap`` is NaN or
        below the clock.
        """
        if cap is None:
            cap = math.inf
        elif not cap >= self.state.clock:  # NaN fails too
            raise self._end_error("cap", cap)
        sv, stale_before = self.state.source_version, len(self._stale)
        if self._advance([cap], one_event=True):
            return "capped"
        if self.state.source_version != sv:
            return "source_refresh"
        if len(self._stale) < stale_before and self.tab.k:
            return "ch_update"
        return "node_delivery"

    def run_until(self, t_end: float) -> None:
        """Advance to ``t_end`` and settle the fresh nodes' time there: one
        cap of :meth:`_advance`.

        A ``t_end`` at or below the clock does nothing; a NaN or an infinite
        one, which the event loop would never reach, raises ``ValueError``.
        """
        if t_end == math.inf:
            raise ValueError(f"t_end must be finite, got {t_end!r}")
        if self.state.clock < t_end:
            self._advance([t_end])
        elif t_end != t_end:
            raise self._end_error("t_end", t_end)

    def _end_error(self, name: str, end: float) -> ValueError:
        return ValueError(f"{name} must be >= the clock {self.state.clock!r}, got {end!r}")


def estimate_freshness_time(spec: NetworkSpec, horizon: float, seed: int = 0) -> FreshnessEstimate:
    """Time-average estimator over one long trajectory.

    Accumulated per-node fresh time divided by ``horizon``, averaged over
    nodes; the standard error comes from batch means over
    :data:`TIME_WINDOWS` equal windows.  One call of the event loop walks
    every window edge and returns the fresh time accumulated by each, the
    same values, bit for bit, as a :meth:`TrajectorySim.run_until` per
    edge.  Warns when the horizon covers fewer than ~100 expected refresh
    cycles.
    """
    require(horizon_problem(horizon, TIME_WINDOWS))
    sim = TrajectorySim(spec, random.Random(0))  # the one check of the spec
    sim.rng.seed(_child_seed(seed))  # a bad spec is reported before a bad seed
    lam_e = sim.tab.lam_e
    if horizon < 100.0 / lam_e:
        warnings.warn(
            f"horizon {horizon:g} covers fewer than 100 expected refresh "
            f"cycles (1/lambda_e = {1.0 / lam_e:g}); the estimate will be noisy",
            stacklevel=2,
        )
    n = sim.tab.n
    edges = [horizon * b / TIME_WINDOWS for b in range(TIME_WINDOWS + 1)]
    sums = [0.0] + sim._advance(edges[1:])  # the fresh time accumulated by each edge
    w = np.diff(sums) / n / np.diff(edges)  # the window means
    p_hat = float(sums[-1] / (n * horizon))
    stderr = float(np.std(w, ddof=1) / math.sqrt(TIME_WINDOWS))
    return FreshnessEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci95=_ci95(p_hat, stderr),
        samples=horizon,
        seed=int(seed),  # checked by _child_seed
        estimator="time_average",
        per_node=tuple(a / horizon for a in sim.state.fresh_time_accum),
    )


def decomposition_check(
    spec: NetworkSpec, num_cycles: int, seed: int = 0
) -> DecompositionReport:
    """Compare full two-level simulation with the analytic stage product.

    The z-score is (simulated - analytic) / stderr; values within a few
    units confirm that the two-stage factorisation, including the reset of
    a cluster's race when its clusterhead is refreshed, matches the
    simulated network.

    One :class:`_Tables` validates the spec and builds each tier's u(j)
    row once; the kernel runs on its totals, and the recursion over its
    rows gives :func:`clustered_freshness`'s stage values, bit for bit.
    That still tests the product: the kernel never multiplies stages.
    """
    tab = _Tables(spec)
    if not isinstance(spec.shape, Clustered):
        raise ValueError("decomposition_check requires a Clustered shape")
    require(int_problem("num_cycles", num_cycles, 1))
    est = _cycle_estimate(tab, num_cycles, seed)
    p_ch, p_node = [float(_recursion(u, stale, tab.lam_e)[0]) for stale, u in tab.rows]
    p = p_ch * p_node
    if est.stderr > 0:
        z = (est.p_hat - p) / est.stderr
    else:
        z = 0.0 if est.p_hat == p else math.inf
    return DecompositionReport(estimate=est, p_analytic=p, p_ch=p_ch, p_node_given_ch=p_node, z=z)
