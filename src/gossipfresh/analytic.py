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
update rate ``u(j)`` and therefore covers every policy, including the two
with no standalone formula.  The test suite holds the two routes to
within 1e-12 of each other everywhere both exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Clustered,
    FreshnessValue,
    GossipPolicy,
    NetworkSpec,
    Rates,
    per_stale_rate,
    require_rates,
    require_valid,
)

__all__ = [
    "RecursionTrace",
    "ClusteredBreakdown",
    "freshness_dc_norc",
    "freshness_dc_rc",
    "freshness_fc_allrc",
    "freshness_fc_norc",
    "renewal_freshness",
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

    q: tuple[float, ...]
    tau: tuple[float, ...]
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(lambda_e) or lambda_e <= 0:
        raise ValueError(f"lambda_e must be finite and > 0, got {lambda_e!r}")
    require_rates(**named)


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
    ``log1p`` once lambda_s is below an ulp of lambda_e.  The lambda_s = 0
    limit is 0 (no deliveries ever happen).
    """
    _check_rates(n, lambda_e, lambda_s=lambda_s)
    if lambda_s == 0:
        return 0.0
    return lambda_s / (n * lambda_e) * -math.expm1(-n * math.log1p(lambda_e / lambda_s))


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
    total = 0.0
    prod = 1.0
    for j in range(1, n + 1):
        rate = lambda_s + (j - 1) * lambda_g
        prod *= rate / (rate + lambda_e)
        total += prod
    return total / n


def freshness_fc_norc(
    lambda_s: float, lambda_g: float, lambda_e: float, n: int
) -> FreshnessValue:
    """Fully connected tier with fixed even splits (per-target rates
    ``lambda_s/n`` from the source and ``lambda_g/(n-1)`` from each fresh
    node, independent of how many nodes are already fresh).

    Sum-product over the position at which the tagged node is captured;
    for n = 1 the gossip term vanishes and this is the two-rate race.
    """
    _check_rates(n, lambda_e, lambda_s=lambda_s, lambda_g=lambda_g)
    gossip_split = lambda_g / (n - 1) if n > 1 else 0.0
    total = 0.0
    passed = 1.0
    for r in range(1, n + 1):
        w = lambda_s / n + (r - 1) * gossip_split
        denom = (n - r + 1) * w + lambda_e
        total += passed * (w / denom)
        passed *= (n - r) * w / denom
    return total


def renewal_freshness(
    u, n: int, lambda_e: float
) -> tuple[FreshnessValue, RecursionTrace]:
    """Within-cycle capture probability for an arbitrary rate rule ``u``.

    ``u(j)`` must return the update intensity delivered to each stale node
    while exactly ``j`` of the ``n`` nodes are fresh.  Conditional on the
    race reaching the step with ``j = k - 1`` fresh nodes, the next event
    is a capture of the tagged node, a capture of one of the other
    ``n - k`` stale nodes, or the cycle-ending self-refresh:

        q_k   = u(k-1) / ((n-k+1) u(k-1) + lambda_e)
        tau_k = (n-k) u(k-1) / ((n-k+1) u(k-1) + lambda_e)

    and ``p = sum_k q_k prod_{j<k} tau_j``.  This is the exact reference
    value for every policy; the closed forms are special cases of it.

    Returns the probability and the full (q, tau) trace.

    Raises:
        ValueError: for invalid ``n``/``lambda_e``, or if ``u`` returns a
            negative, NaN, or infinite rate (the offending ``j`` is named).
    """
    _check_rates(n, lambda_e)
    q: list[float] = []
    tau: list[float] = []
    p = 0.0
    passed = 1.0
    for step in range(1, n + 1):
        rate = u(step - 1)
        if not isinstance(rate, (int, float)) or not math.isfinite(rate) or rate < 0:
            raise ValueError(f"u({step - 1}) must be finite and >= 0, got {rate!r}")
        stale = n - step + 1
        denom = stale * rate + lambda_e
        qk = rate / denom
        q.append(qk)
        p += passed * qk
        tk = (stale - 1) * rate / denom
        if step < n:
            tau.append(tk)
        passed *= tk
    return p, RecursionTrace(tuple(q), tuple(tau), p)


def oracle_flat(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    n: int,
) -> FreshnessValue:
    """Freshness of a flat tier via the generic recursion (works for all
    five policies)."""
    table = per_stale_rate(policy, total_source, total_gossip, n)
    p, _ = renewal_freshness(table.__getitem__, n, lambda_e)
    return p


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

    Evaluates :func:`clustered_freshness` at every divisor k of n and
    returns ``(k_star, m_star, p_star, profile)`` where ``profile`` is the
    full ascending ``(k, p)`` scan.  Exact ties go to the smallest k.
    """
    best_k = None
    best_p = -1.0
    profile: list[tuple[int, FreshnessValue]] = []
    for k in divisors(n):
        spec = NetworkSpec.clustered(n, k, source_policy, cluster_policy, rates)
        p, _ = clustered_freshness(spec)
        profile.append((k, p))
        if p > best_p:
            best_k, best_p = k, p
    assert best_k is not None
    return best_k, n // best_k, best_p, profile
