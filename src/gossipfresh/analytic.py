"""Exact long-term freshness values.

Freshness renews whenever the source refreshes itself: the time between
two consecutive self-refreshes is an Exp(lambda_e) cycle, the network
state resets at each boundary, and a node's long-term average freshness
equals the probability ``p`` that it receives the current version within
one cycle.  Everything here computes that probability exactly.

Two independent routes are implemented on purpose, as twins with the
same arguments and the same boundary check.  :func:`closed_sizes` (one
size: :func:`closed_flat`; clustered products: :func:`closed_clustered`)
evaluates the explicit formulas, one branch per policy.  The generic
route, :func:`oracle_sizes` (one size: :func:`oracle_flat`; any table:
:func:`renewal_freshness`), walks the within-cycle race between
deliveries and the next self-refresh for an arbitrary per-stale update
table ``u(j)`` and therefore covers every policy, including ``FC_sRC``,
which has no standalone formula.  The test suite and selftest criterion 1
hold the two routes to within 1e-12 of each other everywhere both exist.
``FC_noRC``'s formula is itself a sum-product over its own ``u(j)`` table,
so its closed form runs the recursion's kernel and that comparison is an
identity; an independent exact route for it (the stationary fresh-count
chain, ROADMAP item 1) is still open.

Both routes run on float64 arrays.  Their running sums and products use
``np.add.accumulate`` and ``np.multiply.accumulate``, which add and
multiply strictly left to right, so every value is bit-identical to the
plain loop ``p += passed * q; passed *= tau``; ``np.sum``/``np.prod`` sum
pairwise and would not be.  ``DC_RC``'s formula calls ``math.log1p`` and
``math.expm1`` once per size, since NumPy's vectorised versions may round
differently.
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
    require_int,
    require_rates,
    require_valid,
    stale_rate_rows,
)

__all__ = [
    "RecursionTrace",
    "ClusteredBreakdown",
    "renewal_freshness",
    "oracle_sizes",
    "oracle_flat",
    "closed_sizes",
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
    """The one boundary check of the exact routes: ``n`` an integer >= 1,
    a finite ``lambda_e > 0``, finite rates >= 0, and no overflow inside
    (:func:`~gossipfresh.core.rate_sum_problem`)."""
    require_int("n", n, 1)
    if not math.isfinite(lambda_e) or lambda_e <= 0:
        raise ValueError(f"lambda_e must be finite and > 0, got {lambda_e!r}")
    require_rates(**named)
    problem = rate_sum_problem(n, lambda_e, named)
    if problem:
        raise ValueError(problem)


def _check_sizes(sizes, lambda_e: float, total_source: float, total_gossip: float) -> list[int]:
    """:func:`_check_rates` for a sequence of tier sizes, shared by both
    routes; returns the sizes as a list of Python ints."""
    array = np.asarray(sizes)
    if array.ndim != 1 or array.size == 0 or array.dtype.kind not in "iu":
        raise ValueError(f"sizes must be a nonempty sequence of integers, got {sizes!r}")
    listed = array.tolist()
    require_int("n", min(listed), 1)
    _check_rates(max(listed), lambda_e, lambda_s=total_source, lambda_g=total_gossip)
    return listed


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
    sizes = _check_sizes(sizes, lambda_e, total_source, total_gossip)
    return _oracle_checked(policy, total_source, total_gossip, lambda_e, sizes)


def _oracle_checked(policy, total_source, total_gossip, lambda_e, sizes: list[int]) -> np.ndarray:
    """:func:`oracle_sizes` on sizes that passed :func:`_check_sizes`."""
    order = np.argsort(sizes, kind="stable")
    ordered = np.array(sizes)[order].tolist()
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


def closed_sizes(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    sizes,
) -> np.ndarray | None:
    """Closed-form freshness of a flat tier at each of several sizes: the
    twin of :func:`oracle_sizes`, with the same arguments, check and
    result layout.  Writing ``ls, lg, le`` for ``total_source,
    total_gossip, lambda_e``:

    * ``DC_noRC``: each node independently races an Exp(ls / n) delivery
      against the Exp(le) refresh, ``ls / (ls + n le)``.
    * ``DC_RC``: ``(ls / (n le)) (1 - (ls / (ls + le))**n)``.  The bracket
      is evaluated as ``-expm1(-n log1p(le / ls))``: the power form
      cancels catastrophically when ls >> le, and ``log1p(-le / (ls +
      le))`` leaves the domain of ``log1p`` once ls is below an ulp of le.
      Once ``n le / ls < 2**-53`` the value is within an ulp of 1 and 1.0
      is returned, since the prefactor may overflow there.  The ls = 0
      limit is 0 (no deliveries ever happen).
    * ``FC_noRC``: with per-target rate ``w_r = ls/n + (r-1) lg/(n-1)``
      at the r-th capture, ``sum_r w_r / ((n-r+1) w_r + le) prod_{i<r}
      (n-i) w_i / ((n-i+1) w_i + le)``.  ``w_r`` is the ``FC_noRC`` table
      and this is the renewal recursion over it, so it runs the same kernel.
    * ``FC_allRC``: ``(1/n) sum_{k=1}^{n} prod_{j=1}^{k} (ls + (j-1) lg) /
      (ls + (j-1) lg + le)``; one running sum at the largest size serves
      every size.  With lg = 0 the product telescopes into the ``DC_RC``
      geometric sum.
    * ``FC_sRC`` mixes stale-targeting and even splits and has no
      standalone formula: None, once the arguments pass the check.
    """
    sizes = _check_sizes(sizes, lambda_e, total_source, total_gossip)
    if policy is GossipPolicy.DC_noRC:
        return total_source / (total_source + np.array(sizes, dtype=float) * lambda_e)
    if policy is GossipPolicy.DC_RC:
        if total_source == 0:
            return np.zeros(len(sizes))
        x = lambda_e / total_source
        log_a = math.log1p(x)
        return np.array([
            # p = 1 - (n + 1) x / 2 + O((n x)^2) is within an ulp of 1 here
            1.0 if n * x < 2.0**-53 else total_source / (n * lambda_e) * -math.expm1(-n * log_a)
            for n in sizes
        ])
    if policy is GossipPolicy.FC_noRC:
        return _oracle_checked(policy, total_source, total_gossip, lambda_e, sizes)
    if policy is GossipPolicy.FC_allRC:
        rate = total_source + np.arange(max(sizes), dtype=float) * total_gossip
        running = np.add.accumulate(np.multiply.accumulate(rate / (rate + lambda_e)))
        n = np.array(sizes)
        return running[n - 1] / n
    return None


def closed_flat(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    n: int,
) -> FreshnessValue | None:
    """Closed-form freshness of a flat tier, or None where no formula
    exists; the one-size case of :func:`closed_sizes`."""
    p = closed_sizes(policy, total_source, total_gossip, lambda_e, [n])
    return None if p is None else float(p[0])


def closed_clustered(
    source_policy: GossipPolicy,
    cluster_policy: GossipPolicy,
    m: int,
    k: int,
    rates: Rates,
) -> FreshnessValue | None:
    """Closed-form end-node freshness of a clustered network of m clusters
    of k nodes: the product of the clusterhead-tier formula (m receivers
    at total rate lambda_s) and the in-cluster formula (k receivers at
    total rate lambda_c, gossip lambda_g).  None when either tier lacks a
    closed form.  The shape is checked as :func:`clustered_freshness`
    checks it."""
    require_valid(NetworkSpec.clustered(m * k, k, source_policy, cluster_policy, rates, m=m))
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
    require_int("n", n, 1)
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
