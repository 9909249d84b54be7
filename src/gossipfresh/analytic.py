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
which has no standalone formula (the closed route returns None for it
alone, and every route rejects a policy that is no GossipPolicy).
``FC_noRC``'s closed form is the recursion over its own table.  A third
route, :func:`count_law_sizes`, sums the capture count's survival row
over capture rates written from the senders' definitions, not the
``u(j)`` table, so it checks table and recursion together for every
policy; selftest criterion 1 holds the closed forms and the count law to
the recursion at 1e-12.

The routes take many sizes per call, and each rate either as a number or
as a sequence of one rate per rate case, and have one path: one call
evaluates a tier at every size under every case as a ``(cases, sizes)``
array, and a call with numbers only is the one-case call, which returns
that array's row.
:func:`clustered_profiles` builds the clustered values at the cluster
sizes its caller names, from one call per tier policy: every divisor for
a scan (:func:`optimal_cluster_size` is its one-case, one-pair view) and
one k for a single point, a one-cell grid.  A cell's value does not
depend on the other cells of its call.

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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    Clustered,
    FreshnessValue,
    GossipPolicy,
    NetworkSpec,
    Rates,
    STALE_TARGETING,
    divides_problem,
    rate_sum_problem,
    real_problem,
    require,
    require_rates,
    require_valid,
    size_problem,
    stale_rate_rows,
)

__all__ = [
    "ClusteredBreakdown",
    "renewal_freshness",
    "oracle_sizes",
    "oracle_flat",
    "count_law_sizes",
    "closed_sizes",
    "closed_flat",
    "closed_clustered",
    "clustered_freshness",
    "clustered_profiles",
    "optimal_cluster_size",
    "divisors",
]


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
    """The one rate check of the exact routes, for a size ``n`` that passed
    :func:`~gossipfresh.core.size_problem`: :func:`~gossipfresh.core.real_problem`
    for ``lambda_e > 0`` and for every named rate, then
    :func:`~gossipfresh.core.rate_sum_problem`."""
    require(real_problem("lambda_e", lambda_e, positive=True))
    require_rates(**named)
    require(rate_sum_problem(n, lambda_e, named))


def _check_sizes(sizes, lambda_e, total_source, total_gossip):
    """The boundary check of every route: ``sizes`` a nonempty 1-D sequence
    (a list of one plain int, as :func:`oracle_flat` passes it, skips that
    test), then :func:`~gossipfresh.core.size_problem` under the name ``n``
    on each entry in order, so the first bad size is named as given, then
    :func:`_check_rates` at the largest size.  Each rate is a number or a
    sequence (list, tuple or array) of one rate per rate case; every
    sequence holds the same number of cases, and a number serves every
    case (or is the one case).  Each case is checked in order, as a call
    with its rates alone checks it.  Returns the sizes as a list of Python
    ints, the rates as three lists ``[total_source, total_gossip,
    lambda_e]`` of one Python value per case, and whether any rate came as
    a sequence (the result keeps its case axis)."""
    one = type(sizes) is list and len(sizes) == 1 and type(sizes[0]) is int
    if not one and (np.ndim(sizes) != 1 or len(sizes) == 0):
        raise ValueError(f"sizes must be a nonempty sequence, got {sizes!r}")
    for n in sizes:
        require(size_problem("n", n))
    listed = [int(n) for n in sizes]
    rates = (total_source, total_gossip, lambda_e)
    rates = [r.tolist() if isinstance(r, np.ndarray) and r.ndim else r for r in rates]
    counts = {len(r) for r in rates if isinstance(r, (list, tuple))}
    if len(counts) > 1 or 0 in counts:
        raise ValueError(f"rate sequences must share one length >= 1, got {sorted(counts)}")
    (count,) = counts or {1}
    rates = [list(r) if isinstance(r, (list, tuple)) else [r] * count for r in rates]
    largest = max(listed)
    for s, g, e in zip(*rates):
        _check_rates(largest, e, lambda_s=s, lambda_g=g)
    return listed, rates, bool(counts)


def _recursion(u: np.ndarray, stale: np.ndarray, lambda_e: float):
    """The renewal recursion over the last axis of a ``(..., width)`` block.

    ``u`` holds the per-stale rates and ``stale`` the number of stale nodes
    at each step.  Returns ``(p, q, tau)``: ``q[k-1]`` is the probability
    that the tagged node is the k-th node captured, and ``tau[k-1]`` that
    the k-th capture goes to some other stale node, given the race reached
    step k; ``p`` has the block's leading shape.  A cell with ``u = 0``
    and ``stale = 1`` has ``q = tau = 0`` and adds exactly ``+0.0`` to
    ``p``, so rows may be padded with such cells.  ``p`` is clamped at 1:
    the running sum of a row's n rounded terms may pass it by up to about
    ``n * 2**-52`` where the true value is closer to 1 than that.
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
    return np.minimum(p, 1.0), q, tau


def _survival(d: np.ndarray, lambda_e) -> np.ndarray:
    """The capture count's survival row over the last axis of ``d``, with
    ``d[..., j]`` the total capture rate while j nodes are fresh: entry
    ``k - 1`` is ``P(count >= k) = prod_{j<k} d_j / (d_j + lambda_e)``,
    taken as ``exp(cumsum(-log1p(lambda_e / d)))``.  Summed with
    ``math.fsum``, that row was within 2.3e-15 of 40-digit arithmetic at
    60 random points (n = 10^3 .. 5 * 10^4, rates 10^-3 .. 10^3), where the
    plain running product was off by up to 3.6e-13.  ``d = 0``, or a
    subnormal ``d`` whose ratio overflows, gives 0 from there on quietly.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratio = lambda_e / d
    return np.exp((-np.log1p(ratio)).cumsum(axis=-1))


def _capture_rates(policy, total_source, total_gossip, n: int) -> np.ndarray:
    """The ``(cases, n)`` block of total capture rates ``d_j`` with j of
    ``n`` nodes fresh, from rate columns: the source adds ``total_source *
    (n - j) / n``, or ``total_source`` under
    :data:`~gossipfresh.core.STALE_TARGETING`; under an FC policy each
    fresh node adds ``total_gossip * (n - j) / (n - 1)``, or
    ``total_gossip`` under ``FC_allRC``."""
    if not isinstance(policy, GossipPolicy):
        raise ValueError(f"unknown policy {policy!r}")  # the message of core.stale_rate_rows
    j = np.arange(n, dtype=float)
    stale = n - j
    d = total_source if policy in STALE_TARGETING else total_source * (stale / n)
    if policy is GossipPolicy.FC_allRC:
        d = d + j * total_gossip
    elif policy.gossips:
        d = d + j * (total_gossip * (stale / max(n - 1, 1)))
    return np.broadcast_to(d, (len(total_source), n))


def renewal_freshness(u, n: int, lambda_e: float) -> FreshnessValue:
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
    Returns ``p`` as a float.

    Raises:
        ValueError: for invalid ``n``/``lambda_e``, a table of the wrong
            length, a negative, NaN, or infinite rate (the first offending
            ``j`` is named), or rates so large the recursion would overflow.
    """
    require(size_problem("n", n))
    _check_rates(n, lambda_e)
    table = np.asarray(u, dtype=float)
    if table.shape != (n,):
        raise ValueError(f"u must hold n = {n} rates, got shape {table.shape}")
    j = int((~np.isfinite(table) | (table < 0)).argmax())  # the first bad u(j), else 0
    require(real_problem(f"u({j})", float(table[j])))
    _check_rates(n, lambda_e, max_u=float(table.max()))
    return float(_recursion(table, n - np.arange(n, dtype=float), lambda_e)[0])


#: Largest block (rows times width) :func:`oracle_sizes` evaluates at once.
BLOCK_CELLS = 1 << 14


def _block(policy, total_source, total_gossip, lambda_e, sizes, width) -> np.ndarray:
    """:func:`_recursion`'s ``p`` at each of the ``sizes``, in one block
    padded to ``width``; each rate is a column of one rate per row."""
    stale, u = stale_rate_rows(policy, total_source, total_gossip, sizes[:, None], width)
    return _recursion(u, stale, lambda_e)[0]


def _blocked(policy, total_source, total_gossip, lambda_e, sizes: list[int]):
    """:func:`_block` over every (case, size) cell of checked ``sizes`` and
    rate lists of one rate per case, as a ``(cases, sizes)`` array.  Cells
    that fit one block of at most :data:`BLOCK_CELLS` cells (or a single
    cell) are one block as they stand; otherwise they are sorted and cut
    into zero-padded blocks."""
    rates = np.array([total_source, total_gossip, lambda_e], dtype=float)
    rates = rates.repeat(len(sizes), axis=1)[..., None]
    sizes = sizes * len(lambda_e)
    array = np.array(sizes)
    width = max(sizes)
    if len(sizes) * width <= BLOCK_CELLS or len(sizes) == 1:
        p = _block(policy, *rates, array, width)
    else:
        order = array.argsort(kind="stable")
        ordered = array[order]
        bounds = ordered.tolist()
        p = np.empty(len(sizes))
        start = 0
        while start < len(order):  # bisect for each block's end: its padded cells only grow
            rest = range(start + 1, len(order))
            fit = bisect_right(rest, BLOCK_CELLS, key=lambda s: (s + 1 - start) * bounds[s])
            stop = start + 1 + fit
            index = order[start:stop]
            rows = rates[:, index]
            p[index] = _block(policy, *rows, ordered[start:stop], bounds[stop - 1])
            start = stop
    return p.reshape(len(lambda_e), -1)


def _allrc_running(ls, lg, le, width: int) -> np.ndarray:
    """``FC_allRC``'s running sum ``sum_{k<=n} prod_{j<=k} ...`` at every
    size n up to ``width``, for one rate case."""
    rate = ls + np.arange(width, dtype=float) * lg
    return np.add.accumulate(np.multiply.accumulate(rate / (rate + le)))


def oracle_sizes(
    policy: GossipPolicy,
    total_source,
    total_gossip,
    lambda_e,
    sizes,
) -> np.ndarray:
    """Freshness of a flat tier at each of several sizes, via the generic
    recursion.

    ``sizes`` is a sequence of tier sizes (any order, repeats allowed),
    and each rate is a number or a sequence (list, tuple or array) of one
    rate per rate case: every sequence holds the same number of cases, and
    a number serves every case.  The result is a ``(cases, sizes)`` array
    whose row ``c`` equals a call with case ``c``'s rates alone; a call
    with numbers only is the one-case call and returns its row, each entry
    bit-identical to :func:`oracle_flat` at that size.  The cells are
    evaluated in zero-padded blocks of at most :data:`BLOCK_CELLS` cells
    (sorted first when they do not fit one), so a whole sweep costs a few
    array passes instead of one per size.

    Raises:
        ValueError: if ``sizes`` is empty or holds a size that breaks
            :func:`~gossipfresh.core.size_problem`, if the rate sequences
            do not hold the same number of cases, for invalid rates (the
            first offending case, in order, is named as a call with it
            alone names it), or for a policy that is no GossipPolicy.
    """
    sizes, rates, cased = _check_sizes(sizes, lambda_e, total_source, total_gossip)
    p = _blocked(policy, *rates, sizes)
    return p if cased else p[0]


def count_law_sizes(
    policy: GossipPolicy,
    total_source,
    total_gossip,
    lambda_e,
    sizes,
) -> np.ndarray:
    """Freshness of a flat tier at each of several sizes, via the capture
    count's law: the twin of :func:`oracle_sizes`, with the same
    arguments, check, errors and ``(cases, sizes)`` layout.

    ``p = E[count] / n = (1/n) sum_k P(count >= k)``, the survival row of
    :func:`_survival` over :func:`_capture_rates` summed with
    :func:`math.fsum`, one size at a time under every case.  It reads no
    ``u(j)`` table, names no tagged node and splits no step into q and
    tau, so it checks the table and the recursion for every policy.
    """
    sizes, rates, cased = _check_sizes(sizes, lambda_e, total_source, total_gossip)
    ls, lg, le = np.array(rates, dtype=float)[..., None]
    laws = [(n, _survival(_capture_rates(policy, ls, lg, n), le).tolist()) for n in sizes]
    p = np.array([[math.fsum(row) / n for row in rows] for n, rows in laws]).T
    return p if cased else p[0]


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
    total_source,
    total_gossip,
    lambda_e,
    sizes,
) -> np.ndarray | None:
    """Closed-form freshness of a flat tier at each of several sizes: the
    twin of :func:`oracle_sizes`, with the same arguments (rate cases
    included), check and result layout.  Writing ``ls, lg, le`` for
    ``total_source, total_gossip, lambda_e``:

    * ``DC_noRC``: each node independently races an Exp(ls / n) delivery
      against the Exp(le) refresh, ``ls / (ls + n le)``.
    * ``DC_RC``: ``(ls / (n le)) (1 - (ls / (ls + le))**n)``.  The bracket
      is evaluated as ``-expm1(-n log1p(le / ls))``: the power form
      cancels catastrophically when ls >> le, and ``log1p(-le / (ls +
      le))`` leaves the domain of ``log1p`` once ls is below an ulp of le.
      Once ``n le / ls < 2**-53`` the value is within an ulp of 1 and 1.0
      is returned, since the prefactor may overflow there; just past that
      bound the rounded product may pass 1 by an ulp, and is clamped at 1.
      The ls = 0 limit is 0 (no deliveries ever happen).
    * ``FC_noRC``: with per-target rate ``w_r = ls/n + (r-1) lg/(n-1)``
      at the r-th capture, ``sum_r w_r / ((n-r+1) w_r + le) prod_{i<r}
      (n-i) w_i / ((n-i+1) w_i + le)``.  ``w_r`` is the ``FC_noRC`` table
      and this is the renewal recursion over it, so it runs the same kernel.
    * ``FC_allRC``: ``(1/n) sum_{k=1}^{n} prod_{j=1}^{k} (ls + (j-1) lg) /
      (ls + (j-1) lg + le)``; one running sum per rate case, at the
      largest size, serves every size.  With lg = 0 the product
      telescopes into the ``DC_RC`` geometric sum.
    * ``FC_sRC`` mixes stale-targeting and even splits and has no
      standalone formula: None, once the arguments pass the check.  A
      policy that is no GossipPolicy raises :func:`oracle_sizes`'s error.
    """
    sizes, rates, cased = _check_sizes(sizes, lambda_e, total_source, total_gossip)
    if policy is GossipPolicy.FC_sRC:
        return None
    if policy is GossipPolicy.FC_noRC:
        p = _blocked(policy, *rates, sizes)
    else:
        p = np.array([_closed_case(policy, *case, sizes) for case in zip(*rates)])
    return p if cased else p[0]


def _closed_case(policy, ls, lg, le, sizes: list[int]) -> np.ndarray:
    """The ``DC_noRC``, ``DC_RC`` or ``FC_allRC`` closed form (see
    :func:`closed_sizes`) at checked ``sizes``, for one rate case."""
    if policy is GossipPolicy.DC_noRC:
        return ls / (ls + np.array(sizes, dtype=float) * le)
    if policy is GossipPolicy.DC_RC:
        return np.minimum([_dc_rc(n, ls, le) for n in sizes], 1.0)
    if policy is GossipPolicy.FC_allRC:
        n = np.array(sizes)
        return _allrc_running(ls, lg, le, max(sizes))[n - 1] / n
    raise ValueError(f"unknown policy {policy!r}")  # the message of core.stale_rate_rows


def _dc_rc(n: int, ls: float, le: float) -> float:
    """``DC_RC``'s closed form at one size (see :func:`closed_sizes`)."""
    if ls == 0:
        return 0.0
    x = le / ls
    # p = 1 - (n + 1) x / 2 + O((n x)^2) is within an ulp of 1 here
    return 1.0 if n * x < 2.0**-53 else ls / (n * le) * -math.expm1(-n * math.log1p(x))


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
    of k nodes: the product of :func:`closed_flat` over the two tiers of
    :attr:`~gossipfresh.core.NetworkSpec.tiers` (m clusterheads at total
    rate lambda_s, then k nodes at total rate lambda_c, gossip lambda_g).
    None when either tier lacks a closed form.  ``m`` obeys
    :func:`~gossipfresh.core.size_problem`; the shape ``n = m * k`` is then
    checked as :func:`clustered_freshness` checks it."""
    require(size_problem("m", m))
    spec = NetworkSpec.clustered(m * k, k, source_policy, cluster_policy, rates)
    require_valid(spec)
    f_src, f_cl = [closed_flat(p, s, g, rates.lambda_e, size) for p, s, g, size in spec.tiers]
    if f_src is None or f_cl is None:
        return None
    return f_src * f_cl


def clustered_freshness(spec: NetworkSpec) -> tuple[FreshnessValue, ClusteredBreakdown]:
    """End-node freshness of a clustered spec via the generic recursion.

    The clusterhead stage and the in-cluster stage, the two tiers of
    :attr:`~gossipfresh.core.NetworkSpec.tiers`, are independent races
    against the same memoryless cycle clock, so the end-node probability
    factorises into their :func:`oracle_flat` values' product.
    """
    require_valid(spec)
    if not isinstance(spec.shape, Clustered):
        raise ValueError("clustered_freshness requires a Clustered shape")
    le = spec.rates.lambda_e
    p_ch, p_node = [oracle_flat(p, s, g, le, size) for p, s, g, size in spec.tiers]
    p = p_ch * p_node
    return p, ClusteredBreakdown(p_ch=p_ch, p_node_given_ch=p_node, p=p)


#: Trial division runs to here; a larger cofactor is split by Pollard-Brent rho.
_TRIAL_LIMIT = 1000
#: Miller-Rabin to these bases decides every n < 3.3 * 10**24 (Sorenson and Webster 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an ``n`` with no factor up to :data:`_TRIAL_LIMIT`."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite ``n``: Pollard's rho with Brent's
    cycle search and a gcd per batch of 128 steps (Brent 1980)."""
    c = 0
    while True:  # a walk that closes on n itself is retried with the next c
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch passed a factor: step through it one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """The prime factors of ``n`` > 1, with repeats, where ``n`` has none
    up to :data:`_TRIAL_LIMIT`."""
    if _is_prime(n):
        return [n]
    d = _rho_factor(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending; ``n`` obeys
    :func:`~gossipfresh.core.size_problem`.  Primes up to
    :data:`_TRIAL_LIMIT` are found by trial division, larger ones by
    :func:`_large_prime_factors`."""
    require(size_problem("n", n))
    found, rest, p = [1], n, 2  # the divisors of n // rest; rest has no factor below p
    while rest > 1:
        if p * p > rest:
            p = rest  # a prime
        elif p > _TRIAL_LIMIT:
            p = min(_large_prime_factors(rest))
        block = len(found)
        while rest % p == 0:  # each power of p times the divisors found before it
            rest //= p
            found += [d * p for d in found[-block:]]
        p += 1
    return sorted(found)


def clustered_profiles(route, n: int, ks, cases, pairs) -> list[list]:
    """Clustered freshness at each cluster size in ``ks``, for every rate
    case and policy pair at once.

    ``route`` is :func:`oracle_sizes` or :func:`closed_sizes`; ``ks`` holds
    divisors of ``n`` (all of them for a scan, one for a single point),
    ``cases`` :class:`~gossipfresh.core.Rates` and ``pairs``
    ``(source_policy, cluster_policy)``.  Each tier policy takes one
    ``route`` call over ``ks`` (or the matching cluster counts) under every
    case, with the case rates as lists.  Returns ``profiles[c][q]``, an
    array over ``ks`` for case ``c`` and pair ``q``, each entry the
    product in :func:`clustered_freshness`'s (or :func:`closed_clustered`'s)
    order and equal to it, or None where the closed route has no formula
    for the cluster tier (``FC_sRC``).  An ``n`` that breaks core's size
    rule, empty ``ks`` or ``cases`` raise ``ValueError``, and so does the
    first k that breaks core's size or cluster-shape rule, with that
    rule's message; then each (case, pair) is checked in order by
    :func:`~gossipfresh.core.require_valid` at ``k = min(ks)``, the shape
    with the most clusterheads (the cluster tier's bound is the same for
    every k), so an invalid one raises the message that a call per
    combination raises.
    """
    require(size_problem("n", n))
    if len(ks) == 0:
        raise ValueError(f"ks must hold at least one cluster size, got {ks!r}")
    for k in ks:
        require(size_problem("k", k) or divides_problem(n, k))
    if len(cases) == 0:
        raise ValueError(f"cases must hold at least one Rates, got {cases!r}")
    for rates in cases:
        for pair in pairs:
            require_valid(NetworkSpec.clustered(n, min(ks), *pair, rates))
    rows = [(r.lambda_e, r.lambda_s, r.lambda_c, r.lambda_g) for r in cases]
    le, ls, lc, lg = map(list, zip(*rows))
    heads = [n // k for k in ks]
    source = {p: route(p, ls, 0.0, le, heads) for p in dict.fromkeys(src for src, _ in pairs)}
    cluster = {p: route(p, lc, lg, le, ks) for p in dict.fromkeys(cl for _, cl in pairs)}
    products = [None if cluster[cl] is None else source[src] * cluster[cl] for src, cl in pairs]
    return [[None if p is None else p[c] for p in products] for c in range(len(rows))]


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
    ascending ``(k, p)`` scan.  Exact ties go to the smallest k.  This is
    the one-case, one-pair view of :func:`clustered_profiles` over
    ``divisors(n)``.
    """
    ks = divisors(n)
    ((p,),) = clustered_profiles(oracle_sizes, n, ks, [rates], [(source_policy, cluster_policy)])
    profile = list(zip(ks, p.tolist()))
    best_k, best_p = max(profile, key=lambda kp: kp[1])
    return best_k, n // best_k, best_p, profile
