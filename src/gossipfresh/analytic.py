"""Exact long-term freshness values.

Freshness renews whenever the source refreshes itself: the time between
two consecutive self-refreshes is an Exp(lambda_e) cycle, the network
state resets at each boundary, and a node's long-term average freshness
equals the probability ``p`` that it receives the current version within
one cycle.  Everything here computes that probability exactly.

Two independent routes are implemented on purpose.  The closed forms
(:func:`freshness_dc_norc`, :func:`freshness_dc_rc`,
:func:`freshness_fc_allrc`, :func:`freshness_fc_norc`, and the clustered
products in :func:`closed_clustered`) evaluate explicit formulas.  The
generic route, :func:`renewal_freshness`, walks the within-cycle race
between deliveries and the next self-refresh for an arbitrary per-stale
update table ``u(j)`` and therefore covers every policy, including the two
with no standalone formula.  The test suite holds the two routes to
within 1e-12 of each other everywhere both exist.

Both routes run on float64 arrays.  Their running sums and products use
``np.add.accumulate`` and ``np.multiply.accumulate``, which add and
multiply strictly left to right, so every value is bit-identical to the
plain loop ``p += passed * q; passed *= tau``; ``np.sum``/``np.prod`` sum
pairwise and would not be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Clustered,
    FreshnessValue,
    GossipPolicy,
    NetworkSpec,
    Rates,
    rate_sum_problem,
    require_rates,
    require_valid,
    stale_rate_rows,
)

__all__ = [
    "RecursionTrace",
    "ClusteredBreakdown",
    "freshness_dc_norc",
    "freshness_dc_rc",
    "freshness_fc_allrc",
    "freshness_fc_norc",
    "renewal_freshness",
    "oracle_sizes",
    "oracle_flat",
    "closed_flat",
    "closed_clustered",
    "clustered_freshness",
    "optimal_cluster_size",
    "divisors",
]


@dataclass(frozen=True)
class RecursionTrace:
    """Per-step probabilities behind one :func:`renewal_freshness` value.

    ``q[k-1]`` is the probability that the tagged node is the k-th node
    captured within the cycle (given the race reached that step), and
    ``tau[j-1]`` the probability that the j-th capture goes to some other
    stale node instead.  ``p = sum_k q_k * prod_{j<k} tau_j``.
    """

    q: np.ndarray
    tau: np.ndarray
    p: float


@dataclass(frozen=True)
class ClusteredBreakdown:
    """Two-stage factorisation of clustered freshness.

    ``p_ch`` is the probability the clusterhead is refreshed within the
    cycle; ``p_node_given_ch`` the probability the node then receives the
    new version from its (fresh) clusterhead before the cycle ends.  By
    memorylessness of the remaining cycle time, ``p = p_ch *
    p_node_given_ch``.
    """

    p_ch: float
    p_node_given_ch: float
    p: float


def _check_rates(n: int, lambda_e: float, **named: float) -> None:
    """The one boundary check of the exact routes: ``n >= 1``, a finite
    ``lambda_e > 0``, finite rates >= 0, and no overflow inside
    (:func:`~gossipfresh.core.rate_sum_problem`)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(lambda_e) or lambda_e <= 0:
        raise ValueError(f"lambda_e must be finite and > 0, got {lambda_e!r}")
    require_rates(**named)
    problem = rate_sum_problem(n, lambda_e, named)
    if problem:
        raise ValueError(problem)


def freshness_dc_norc(lambda_s: float, lambda_e: float, n: int) -> FreshnessValue:
    """Disconnected tier, even split: each node independently races an
    Exp(lambda_s / n) delivery against the Exp(lambda_e) refresh, giving
    ``lambda_s / (lambda_s + n * lambda_e)``."""
    _check_rates(n, lambda_e, lambda_s=lambda_s)
    return lambda_s / (lambda_s + n * lambda_e)


def freshness_dc_rc(lambda_s: float, lambda_e: float, n: int) -> FreshnessValue:
    """Disconnected tier with the sender concentrating on stale nodes:

        (lambda_s / (n * lambda_e)) * (1 - (lambda_s / (lambda_s + lambda_e))**n)

    The bracket is evaluated as ``-expm1(-n * log1p(lambda_e / lambda_s))``:
    the power form cancels catastrophically when lambda_s >> lambda_e, and
    ``log1p(-lambda_e / (lambda_s + lambda_e))`` leaves the domain of
    ``log1p`` once lambda_s is below an ulp of lambda_e.  Once
    ``n * lambda_e / lambda_s < 2**-53`` the value is within an ulp of 1
    and 1.0 is returned, since the prefactor may overflow there.  The
    lambda_s = 0 limit is 0 (no deliveries ever happen).
    """
    _check_rates(n, lambda_e, lambda_s=lambda_s)
    if lambda_s == 0:
        return 0.0
    x = lambda_e / lambda_s
    if n * x < 2.0**-53:
        # p = 1 - (n + 1) x / 2 + O((n x)^2) is within an ulp of 1, and
        # lambda_s / (n * lambda_e) may overflow (or x have lost bits).
        return 1.0
    return lambda_s / (n * lambda_e) * -math.expm1(-n * math.log1p(x))


def freshness_fc_allrc(
    lambda_s: float, lambda_g: float, lambda_e: float, n: int
) -> FreshnessValue:
    """Fully connected tier, stale-targeting at the source and at every
    gossiper:

        (1/n) * sum_{k=1}^{n} prod_{j=1}^{k} (lambda_s + (j-1) lambda_g)
                                / (lambda_s + (j-1) lambda_g + lambda_e)

    With lambda_g = 0 the product telescopes into the DC_RC geometric sum.
    """
    _check_rates(n, lambda_e, lambda_s=lambda_s, lambda_g=lambda_g)
    rate = lambda_s + np.arange(n, dtype=float) * lambda_g
    prod = np.multiply.accumulate(rate / (rate + lambda_e))
    return float(np.add.accumulate(prod)[-1]) / n


def freshness_fc_norc(
    lambda_s: float, lambda_g: float, lambda_e: float, n: int
) -> FreshnessValue:
    """Fully connected tier with fixed even splits (per-target rates
    ``lambda_s/n`` from the source and ``lambda_g/(n-1)`` from each fresh
    node, independent of how many nodes are already fresh).

    Sum-product over the position ``r`` at which the tagged node is
    captured, with per-target rate ``w_r = lambda_s/n + (r-1) lambda_g/(n-1)``:

        sum_r  w_r / ((n-r+1) w_r + lambda_e)
               * prod_{i<r} (n-i) w_i / ((n-i+1) w_i + lambda_e)

    ``w_r`` is the ``FC_noRC`` table and the sum-product is the renewal
    recursion over it, so it is evaluated by the same kernel.  For n = 1
    the gossip term vanishes and this is the two-rate race.
    """
    _check_rates(n, lambda_e, lambda_s=lambda_s, lambda_g=lambda_g)
    p = _oracle_block(GossipPolicy.FC_noRC, lambda_s, lambda_g, lambda_e, np.array([[n]]), n)
    return float(p[0])


def _recursion(u: np.ndarray, stale: np.ndarray, lambda_e: float):
    """The renewal recursion over the last axis of a ``(..., width)`` block.

    ``u`` holds the per-stale rates and ``stale`` the number of stale nodes
    at each step.  Returns ``(p, q, tau)``; ``p`` has the block's leading
    shape.  A cell with ``u = 0`` and ``stale = 1`` has ``q = tau = 0`` and
    adds exactly ``+0.0`` to ``p``, so rows may be padded with such cells.
    """
    denom = stale * u
    denom += lambda_e
    q = u / denom
    tau = stale - 1
    tau *= u
    tau /= denom
    # denom's buffer then holds passed[k] = tau[0] * ... * tau[k-1], the
    # terms q * passed and their running sum, which saves three
    # block-sized temporaries at the peak.
    terms = denom
    terms[..., 0] = 1.0
    np.multiply.accumulate(tau[..., :-1], axis=-1, out=terms[..., 1:])
    terms *= q
    p = np.add.accumulate(terms, axis=-1, out=terms)[..., -1]
    return p, q, tau


def renewal_freshness(
    u, n: int, lambda_e: float
) -> tuple[FreshnessValue, RecursionTrace]:
    """Within-cycle capture probability for an arbitrary rate table ``u``.

    ``u`` is array-like of length ``n``: ``u[j]`` is the update intensity
    delivered to each stale node while exactly ``j`` of the ``n`` nodes are
    fresh (:func:`per_stale_rate` builds it for the five policies).
    Conditional on the race reaching the step with ``j = k - 1`` fresh
    nodes, the next event is a capture of the tagged node, a capture of
    one of the other ``n - k`` stale nodes, or the cycle-ending
    self-refresh:

        q_k   = u(k-1) / ((n-k+1) u(k-1) + lambda_e)
        tau_k = (n-k) u(k-1) / ((n-k+1) u(k-1) + lambda_e)

    and ``p = sum_k q_k prod_{j<k} tau_j``.  This is the exact reference
    value for every policy; the closed forms are special cases of it.

    Returns the probability and the (q, tau) trace as arrays.

    Raises:
        ValueError: for invalid ``n``/``lambda_e``, a table of the wrong
            length, a negative, NaN, or infinite rate (the first offending
            ``j`` is named), or rates so large the recursion would overflow.
    """
    _check_rates(n, lambda_e)
    table = np.asarray(u, dtype=float)
    if table.shape != (n,):
        raise ValueError(f"u must hold n = {n} rates, got shape {table.shape}")
    bad = ~np.isfinite(table) | (table < 0)
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(f"u({j}) must be finite and >= 0, got {float(table[j])!r}")
    _check_rates(n, lambda_e, max_u=float(table.max()))
    p, q, tau = _recursion(table, n - np.arange(n, dtype=float), lambda_e)
    p = float(p)
    return p, RecursionTrace(q, tau[:-1], p)


#: Largest block (rows times width) :func:`oracle_sizes` evaluates at once.
BLOCK_CELLS = 1 << 14


def _oracle_block(policy, total_source, total_gossip, lambda_e, sizes, width) -> np.ndarray:
    """Freshness at each size of the column ``sizes``, in one block padded
    to ``width``."""
    stale, u = stale_rate_rows(policy, total_source, total_gossip, sizes, width)
    return _recursion(u, stale, lambda_e)[0]


def oracle_sizes(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    sizes,
) -> np.ndarray:
    """Freshness of a flat tier at each of several sizes, via the generic
    recursion.

    ``sizes`` is a sequence of tier sizes (any order, repeats allowed);
    the result holds one probability per size, in the same order, each
    bit-identical to :func:`oracle_flat` at that size.  The sizes are
    sorted and cut into zero-padded blocks of at most :data:`BLOCK_CELLS`
    cells, so a whole sweep costs a few array passes instead of one per
    size.

    Raises:
        ValueError: if ``sizes`` is empty or holds a non-integer or a size
            below 1, or for invalid rates.
    """
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.dtype.kind not in "iu":
        raise ValueError(f"sizes must be a nonempty sequence of integers, got {sizes!r}")
    if sizes.min() < 1:
        raise ValueError(f"n must be >= 1, got {int(sizes.min())}")
    _check_rates(int(sizes.max()), lambda_e, lambda_s=total_source, lambda_g=total_gossip)
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order].tolist()
    p = np.empty(len(sizes))
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * ordered[stop] <= BLOCK_CELLS:
            stop += 1
        block = np.array(ordered[start:stop])[:, None]
        p[order[start:stop]] = _oracle_block(
            policy, total_source, total_gossip, lambda_e, block, ordered[stop - 1]
        )
        start = stop
    return p


def oracle_flat(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    n: int,
) -> FreshnessValue:
    """Freshness of a flat tier via the generic recursion (works for all
    five policies); the one-size case of :func:`oracle_sizes`."""
    return float(oracle_sizes(policy, total_source, total_gossip, lambda_e, [n])[0])


def closed_flat(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    n: int,
) -> FreshnessValue | None:
    """Closed-form freshness of a flat tier, or None where no formula
    exists (``FC_sRC`` mixes stale-targeting and even splits and has no
    standalone expression)."""
    if policy is GossipPolicy.DC_noRC:
        return freshness_dc_norc(total_source, lambda_e, n)
    if policy is GossipPolicy.DC_RC:
        return freshness_dc_rc(total_source, lambda_e, n)
    if policy is GossipPolicy.FC_noRC:
        return freshness_fc_norc(total_source, total_gossip, lambda_e, n)
    if policy is GossipPolicy.FC_allRC:
        return freshness_fc_allrc(total_source, total_gossip, lambda_e, n)
    return None


def closed_clustered(
    source_policy: GossipPolicy,
    cluster_policy: GossipPolicy,
    m: int,
    k: int,
    rates: Rates,
) -> FreshnessValue | None:
    """Closed-form end-node freshness of a clustered network: the product
    of the clusterhead-tier formula (m receivers at total rate lambda_s)
    and the in-cluster formula (k receivers at total rate lambda_c, gossip
    lambda_g).  None when either tier lacks a closed form."""
    f_src = closed_flat(source_policy, rates.lambda_s, 0.0, rates.lambda_e, m)
    f_cl = closed_flat(cluster_policy, rates.lambda_c, rates.lambda_g, rates.lambda_e, k)
    if f_src is None or f_cl is None:
        return None
    return f_src * f_cl


def clustered_freshness(spec: NetworkSpec) -> tuple[FreshnessValue, ClusteredBreakdown]:
    """End-node freshness of a clustered spec via the generic recursion.

    The clusterhead stage and the in-cluster stage are independent races
    against the same memoryless cycle clock, so the end-node probability
    factorises into their product.
    """
    require_valid(spec)
    shape = spec.shape
    if not isinstance(shape, Clustered):
        raise ValueError("clustered_freshness requires a Clustered shape")
    r = spec.rates
    p_ch = oracle_flat(shape.source_policy, r.lambda_s, 0.0, r.lambda_e, shape.m)
    p_node = oracle_flat(
        shape.cluster_policy, r.lambda_c, r.lambda_g, r.lambda_e, shape.k
    )
    p = p_ch * p_node
    return p, ClusteredBreakdown(p_ch=p_ch, p_node_given_ch=p_node, p=p)


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def optimal_cluster_size(
    n: int,
    rates: Rates,
    source_policy: GossipPolicy,
    cluster_policy: GossipPolicy,
) -> tuple[int, int, FreshnessValue, list[tuple[int, FreshnessValue]]]:
    """Best cluster size for ``n`` nodes under a policy pair.

    Evaluates the clustered freshness at every divisor k of n (each entry
    equal to :func:`clustered_freshness` of that shape) and returns
    ``(k_star, m_star, p_star, profile)`` where ``profile`` is the full
    ascending ``(k, p)`` scan.  Exact ties go to the smallest k.  Each
    tier is evaluated over all its sizes in one :func:`oracle_sizes` call.
    """
    require_valid(NetworkSpec.clustered(n, n, source_policy, cluster_policy, rates))
    ks = divisors(n)
    r = rates
    p_ch = oracle_sizes(source_policy, r.lambda_s, 0.0, r.lambda_e, [n // k for k in ks])
    p_node = oracle_sizes(cluster_policy, r.lambda_c, r.lambda_g, r.lambda_e, ks)
    # the product in clustered_freshness's order, so every entry equals it
    profile = list(zip(ks, (p_ch * p_node).tolist()))
    best_k, best_p = max(profile, key=lambda kp: kp[1])
    return best_k, n // best_k, best_p, profile
