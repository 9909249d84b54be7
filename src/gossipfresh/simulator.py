"""Event-driven Monte Carlo simulation of flat and clustered networks.

Two independent estimators target the same quantity (the long-term
average binary freshness of a node):

* the cycle estimator runs many independent refresh cycles and averages
  the did-the-node-get-updated indicator (:func:`estimate_freshness_cycles`);
* the time-average estimator runs one long trajectory with explicit
  version counters and divides accumulated fresh time by the horizon
  (:func:`estimate_freshness_time`).

The engine resamples after every event: whenever the state changes it
recomputes all active intensities and draws one exponential.  That is
exact for competing exponential clocks and sidesteps event-list
invalidation when rates move, which they do at every event under the
stale-targeting policies.  Simultaneous events have probability zero in
continuous time, so exactly one event is applied per draw.

Clusterhead semantics: a clusterhead keeps relaying its *own* current
version, targeting the nodes of its cluster that lack that version.
While the clusterhead is stale those deliveries carry an old version and
never make a node fresh; the moment the clusterhead is refreshed, none of
its nodes hold the new version, so the target set resets and the
in-cluster race starts over.  :func:`decomposition_check` validates this
against the two-stage analytic product.

Reproducibility: estimators derive independent child streams from the
user seed (one per fixed-size batch of cycles for the cycle estimator,
one per trajectory for the time estimator), so identical
``(spec, count, seed)`` inputs give identical outputs and batches may be
farmed out concurrently and merged by index.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Clustered, Flat, NetworkSpec, per_stale_rate, require_valid
from .analytic import clustered_freshness

__all__ = [
    "SimState",
    "CycleOutcome",
    "FreshnessEstimate",
    "DecompositionReport",
    "TrajectorySim",
    "simulate_cycle",
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
    """

    source_version: int
    node_versions: list[int]
    ch_versions: list[int] | None
    clock: float
    fresh_time_accum: list[float]


@dataclass(frozen=True)
class CycleOutcome:
    """What one refresh cycle did to each node."""

    updated: tuple[bool, ...]
    fresh_duration: tuple[float, ...]
    cycle_length: float


@dataclass(frozen=True)
class FreshnessEstimate:
    """Point estimate of long-term freshness with a 95% normal CI.

    ``samples`` is the cycle count (cycle estimator) or the horizon
    (time-average estimator).  ``per_node`` carries one estimate per end
    node, node 0 first, for symmetry checks.
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
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
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
    """Per-state rates of a flat network, indexed by the fresh count j."""

    def __init__(self, spec: NetworkSpec):
        shape = spec.shape
        assert isinstance(shape, Flat)
        n = shape.n
        lam_e = spec.rates.lambda_e
        u = per_stale_rate(shape.policy, spec.rates.lambda_s, spec.rates.lambda_g, n).tolist()
        deliver = [(n - j) * u[j] for j in range(n)] + [0.0]
        self.n = n
        self.lam_e = lam_e
        self.deliver = deliver
        self.end_prob = [lam_e / (lam_e + d) for d in deliver]


class _ClusteredTables:
    """Per-state rates of a clustered network.

    ``dsrc[j]`` is the total source-to-clusterhead intensity with j fresh
    clusterheads; ``dcl[j]`` the total in-cluster delivery intensity of one
    cluster in which j nodes hold the clusterhead's current version.
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


def _pick(rng_random, count: int) -> int:
    """Uniform index in [0, count), robust to float spill at the edge."""
    i = int(rng_random() * count)
    return count - 1 if i >= count else i


# ---------------------------------------------------------------------------
# single-cycle engines


def _flat_cycle(tab: _FlatTables, rng: random.Random, timed: bool):
    """One refresh cycle of a flat network.

    Returns ``(order, times, length)``: node ids in capture order, their
    capture times (None when not timed), and the cycle length (None when
    not timed).  The capture identities form the whole freshness story;
    times are only drawn when the caller needs durations.
    """
    n = tab.n
    end_prob = tab.end_prob
    deliver = tab.deliver
    lam_e = tab.lam_e
    rr = rng.random
    stale = list(range(n))
    order: list[int] = []
    times: list[float] | None = [] if timed else None
    t = 0.0
    j = 0
    while True:
        if timed:
            t += rng.expovariate(lam_e + deliver[j])
        if rr() < end_prob[j]:
            return order, times, (t if timed else None)
        i = _pick(rr, n - j)
        node = stale[i]
        stale[i] = stale[-1]
        stale.pop()
        order.append(node)
        if timed:
            times.append(t)
        j += 1


def _clustered_cycle(tab: _ClusteredTables, rng: random.Random, timed: bool):
    """One refresh cycle of a clustered network.

    Returns ``(order, times, length)`` where ``order`` holds global node
    ids (cluster c, local node l -> c*k + l) in the order they became
    fresh.  Deliveries from stale clusterheads and stale-version gossip
    are simulated (they shrink the target set) but confer no freshness.
    """
    m, k = tab.m, tab.k
    lam_e = tab.lam_e
    dsrc = tab.dsrc
    dcl = tab.dcl
    rr = rng.random
    stale_ch = list(range(m))
    ch_fresh = [False] * m
    holders = [0] * m
    nonhold = [list(range(k)) for _ in range(m)]
    crates = [dcl[0]] * m
    csum = dcl[0] * m
    jch = 0
    order: list[int] = []
    times: list[float] | None = [] if timed else None
    t = 0.0
    while True:
        src_rate = dsrc[jch]
        total = lam_e + src_rate + csum
        if timed:
            t += rng.expovariate(total)
        x = rr() * total
        if x < lam_e:
            return order, times, (t if timed else None)
        x -= lam_e
        if x < src_rate:
            i = _pick(rr, m - jch)
            c = stale_ch[i]
            stale_ch[i] = stale_ch[-1]
            stale_ch.pop()
            jch += 1
            ch_fresh[c] = True
            # the refreshed clusterhead has a brand-new version: nobody
            # in its cluster holds it, so targeting starts over
            holders[c] = 0
            nonhold[c] = list(range(k))
            csum += dcl[0] - crates[c]
            crates[c] = dcl[0]
            continue
        x -= src_rate
        c = m - 1
        for cc in range(m):
            if x < crates[cc]:
                c = cc
                break
            x -= crates[cc]
        if crates[c] == 0.0:
            # drift in the incrementally maintained csum can park x a few
            # ulps past the active clusters; land on the last real one, or
            # end the cycle if none can receive
            active = [cc for cc in range(m) if crates[cc] > 0.0]
            if not active:
                return order, times, (t if timed else None)
            c = active[-1]
        lst = nonhold[c]
        i = _pick(rr, len(lst))
        node = lst[i]
        lst[i] = lst[-1]
        lst.pop()
        holders[c] += 1
        csum += dcl[holders[c]] - crates[c]
        crates[c] = dcl[holders[c]]
        if ch_fresh[c]:
            order.append(c * k + node)
            if timed:
                times.append(t)


def simulate_cycle(spec: NetworkSpec, rng: random.Random) -> CycleOutcome:
    """Simulate one refresh cycle and report per-node rewards.

    A node's reward is the time it spent fresh, i.e. from its capture to
    the cycle-ending self-refresh; nodes that were never captured score
    zero.  ``rng`` is any ``random.Random``-compatible stream.
    """
    tab = _make_tables(spec)
    if isinstance(tab, _FlatTables):
        order, times, length = _flat_cycle(tab, rng, timed=True)
    else:
        order, times, length = _clustered_cycle(tab, rng, timed=True)
    n = tab.n
    updated = [False] * n
    duration = [0.0] * n
    for node, t in zip(order, times):
        updated[node] = True
        duration[node] = length - t
    return CycleOutcome(tuple(updated), tuple(duration), length)


# ---------------------------------------------------------------------------
# estimators


def estimate_freshness_cycles(
    spec: NetworkSpec, num_cycles: int, seed: int = 0
) -> FreshnessEstimate:
    """Cycle estimator: fraction of (cycle, node) pairs that got updated.

    Runs ``num_cycles`` independent refresh cycles on child RNG streams
    (one per batch of :data:`CYCLE_BATCH` cycles) and averages the updated
    indicator over nodes and cycles.  The standard error uses the
    binomial approximation with ``num_cycles`` effective samples, which is
    conservative: indicators within a cycle are positively correlated, so
    averaging across nodes cannot be treated as extra samples.
    """
    if num_cycles < 1:
        raise ValueError(f"num_cycles must be >= 1, got {num_cycles}")
    tab = _make_tables(spec)
    n = tab.n
    flat = isinstance(tab, _FlatTables)
    counts = [0] * n
    n_batches = (num_cycles + CYCLE_BATCH - 1) // CYCLE_BATCH
    remaining = num_cycles
    for bseed in _child_seeds(seed, n_batches):
        rng = random.Random(bseed)
        for _ in range(min(CYCLE_BATCH, remaining)):
            if flat:
                order, _, _ = _flat_cycle(tab, rng, timed=False)
            else:
                order, _, _ = _clustered_cycle(tab, rng, timed=False)
            for node in order:
                counts[node] += 1
        remaining -= CYCLE_BATCH
    p_hat = sum(counts) / (num_cycles * n)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / num_cycles)
    return FreshnessEstimate(
        p_hat=p_hat,
        stderr=stderr,
        ci95=_ci95(p_hat, stderr),
        samples=num_cycles,
        seed=seed,
        estimator="cycle",
        per_node=tuple(c / num_cycles for c in counts),
    )


class TrajectorySim:
    """One long trajectory with explicit version counters.

    Drives a :class:`SimState` event by event; versions only ever flow
    downward from the source, and per-node fresh time accumulates in
    ``state.fresh_time_accum``.  Used by :func:`estimate_freshness_time`
    and directly by invariant tests.
    """

    def __init__(self, spec: NetworkSpec, rng: random.Random):
        tab = _make_tables(spec)
        self.spec = spec
        self.tab = tab
        self.rng = rng
        n = tab.n
        if isinstance(tab, _FlatTables):
            self.state = SimState(1, [0] * n, None, 0.0, [0.0] * n)
            self._stale = list(range(n))
            self._fresh: list[int] = []
        else:
            m, k = tab.m, tab.k
            self.state = SimState(1, [-1] * n, [0] * m, 0.0, [0.0] * n)
            self._stale_ch = list(range(m))
            self._fresh = []
            self._holders = [0] * m
            self._nonhold = [list(range(k)) for _ in range(m)]
            self._crates = [tab.dcl[0]] * m
            self._csum = tab.dcl[0] * m

    def fresh_nodes(self) -> list[int]:
        return list(self._fresh)

    def _accumulate(self, dt: float) -> None:
        accum = self.state.fresh_time_accum
        for i in self._fresh:
            accum[i] += dt

    def _do_refresh(self) -> str:
        state = self.state
        state.source_version += 1
        self._fresh = []
        if isinstance(self.tab, _FlatTables):
            self._stale = list(range(self.tab.n))
        else:
            # clusterheads are stale again; in-cluster holder sets persist,
            # they track the clusterheads' unchanged versions
            self._stale_ch = list(range(self.tab.m))
        return "source_refresh"

    def step(self, cap: float | None = None) -> str:
        """Advance to the next event (or to ``cap`` if it comes first).

        Returns the label of what happened: ``source_refresh``,
        ``ch_update``, ``node_delivery``, or ``capped``.
        """
        tab = self.tab
        state = self.state
        rng = self.rng
        if isinstance(tab, _FlatTables):
            j = len(self._fresh)
            deliver = tab.deliver[j]
            total = tab.lam_e + deliver
        else:
            jch = tab.m - len(self._stale_ch)
            deliver = tab.dsrc[jch]
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

        if isinstance(tab, _FlatTables):
            i = _pick(rng.random, len(self._stale))
            node = self._stale[i]
            self._stale[i] = self._stale[-1]
            self._stale.pop()
            state.node_versions[node] = state.source_version
            self._fresh.append(node)
            return "node_delivery"

        if x < deliver:
            i = _pick(rng.random, len(self._stale_ch))
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

        m = tab.m
        crates = self._crates
        c = m - 1
        for cc in range(m):
            if x < crates[cc]:
                c = cc
                break
            x -= crates[cc]
        if crates[c] == 0.0:
            # same float-dust guard as the cycle engine
            active = [cc for cc in range(m) if crates[cc] > 0.0]
            if not active:
                return self._do_refresh()
            c = active[-1]
        lst = self._nonhold[c]
        i = _pick(rng.random, len(lst))
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

    def run_until(self, t_end: float) -> None:
        while self.state.clock < t_end:
            self.step(cap=t_end)


def estimate_freshness_time(
    spec: NetworkSpec, horizon: float, seed: int = 0, batches: int = 50
) -> FreshnessEstimate:
    """Time-average estimator over one long trajectory.

    Accumulated per-node fresh time divided by ``horizon``, averaged over
    nodes; the standard error comes from batch means over ``batches``
    equal windows.  Warns when the horizon covers fewer than ~100 expected
    refresh cycles.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
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
    units confirm that the two-stage factorisation, including the
    stale-clusterhead delivery semantics, matches the simulated network.
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
