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
``FC_noRC``'s closed form is the recursion over its own table.  The
capture count's law, :func:`_law_block`, sums the count's survival row
over capture rates written from the senders' definitions, not the
``u(j)`` table, so it checks table and recursion together for every
policy; selftest criterion 1 evaluates it in blocks as the recursion is
evaluated, through :func:`_blocked`, and holds the closed forms and the
count law to the recursion at 1e-12.

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

A row of the recursion or of the count law, and ``FC_allRC``'s closed
running sum, stops at its cut width (:func:`_cut_width`), counted from the
rates alone, past which every term is below half an ulp of the running sum
and leaves it unchanged: the value is bit-identical to the whole row's, and
a row that decays costs its cut width, not its size, in time and memory.
:func:`renewal_freshness` and the Monte Carlo engines run every row whole.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    DC_POLICIES,
    Clustered,
    FreshnessValue,
    GossipPolicy,
    NetworkSpec,
    Rates,
    SIZE_LIMIT,
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
    whose entries pass :func:`~gossipfresh.core.size_problem` under the
    name ``n``, then :func:`_check_rates` at the largest size.  A list or
    tuple of in-range plain ints passes in one pass; any other ``sizes``
    is checked entry by entry in order, so the first bad size is named as
    given.  Each rate is a number or a sequence (list, tuple or array) of
    one rate per rate case, told apart once; every sequence holds the same
    number of cases, and a number serves every case (or is the one case).
    Each case is checked in order, as a call with its rates alone checks
    it.  Returns the sizes as a list of Python ints, the rates as three
    lists ``[total_source, total_gossip, lambda_e]`` of one Python value
    per case, and whether any rate came as a sequence (the result keeps
    its case axis)."""
    plain = type(sizes) in (list, tuple) and {*map(type, sizes)} == {int}
    if plain and 0 < min(sizes) and max(sizes) <= SIZE_LIMIT:
        listed = list(sizes)
    else:
        if np.ndim(sizes) != 1 or len(sizes) == 0:
            raise ValueError(f"sizes must be a nonempty sequence, got {sizes!r}")
        for n in sizes:
            require(size_problem("n", n))
        listed = [int(n) for n in sizes]
    rates, counts = [total_source, total_gossip, lambda_e], set()
    for i, r in enumerate(rates):  # a sequence becomes a list of Python values, a number [r]
        if isinstance(r, (list, tuple, np.ndarray)) and getattr(r, "ndim", 1):
            rates[i] = r = r.tolist() if isinstance(r, np.ndarray) else list(r)
            counts.add(len(r))
        else:
            rates[i] = [r]
    if len(counts) > 1 or 0 in counts:
        raise ValueError(f"rate sequences must share one length >= 1, got {sorted(counts)}")
    (count,) = counts or {1}
    if count > 1:
        rates = [r if len(r) == count else r * count for r in rates]
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
    ``p``, so :func:`_block` pads with such cells.  A block may hold only
    a row's first cells, up to its cut width (:func:`_cut_width`).  ``p``
    is clamped at 1: the running sum of a row's rounded terms (as many as
    its evaluated width, at most n) may pass it by up to about that width
    times ``2**-52`` where the true value is closer to 1 than that.
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
    taken as ``exp(cumsum(-log1p(lambda_e / d)))``.  That row was within
    2.3e-15 of 40-digit arithmetic at 60 random points (n = 10^3 .. 5 *
    10^4, rates 10^-3 .. 10^3) when summed exactly, where the plain running
    product was off by up to 3.6e-13.  ``d = 0``, or a subnormal ``d``
    whose ratio overflows, gives 0 from there on quietly.  So does ``d =
    -0.0`` (from a rate of -0.0): its ratio, -inf, is taken as +inf, where
    ``log1p`` would give NaN; a ratio over ``d >= +0`` is never negative,
    so no other value changes.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratio = lambda_e / d
    np.abs(ratio, out=ratio)
    return np.exp((-np.log1p(ratio)).cumsum(axis=-1))


def _capture_rates(policy, total_source, total_gossip, n, j) -> np.ndarray:
    """The total capture rates ``d_j`` with j of n nodes fresh, at the
    cells the caller names as :func:`~gossipfresh.core.stale_rate_rows`
    names them: the source adds ``total_source * (n - j) / n``, or
    ``total_source`` under :data:`~gossipfresh.core.STALE_TARGETING`; under
    an FC policy each fresh node adds ``total_gossip * (n - j) / (n - 1)``,
    or ``total_gossip`` under ``FC_allRC``.  The result broadcasts to the
    cells' shape; under ``DC_RC`` it is ``total_source`` itself."""
    stale = n - j
    d = total_source if policy in STALE_TARGETING else total_source * (stale / n)
    if policy is GossipPolicy.FC_allRC:
        d = d + j * total_gossip
    elif policy.gossips:
        d = d + j * (total_gossip * (stale / np.maximum(n - 1, 1)))
    return d


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
#: A block's ~9 float temporaries are then at most 64 KiB each, below
#: glibc's default 128 KiB mmap and trim thresholds, so the blocks of a call
#: reuse the heap instead of faulting it in again.  No value depends on it.
BLOCK_CELLS = 1 << 13


def _block(policy, total_source, total_gossip, lambda_e, sizes, width) -> np.ndarray:
    """:func:`_recursion`'s ``p`` at each of the ``sizes`` in one block
    ``width`` wide; each rate is a float for every row or a column of one
    rate per row.  One row with float rates is a 1-D row with a float size,
    never wider than the row.  A row at least ``width`` wide is evaluated at
    its first ``width`` cells, which :func:`_blocked` chooses so that its
    later cells cannot move its sum.  A cell past its row's size is
    evaluated at ``j = size - 1`` and gets ``u = 0``: one stale node,
    adding exactly ``+0.0``."""
    one = len(sizes) == 1 and isinstance(lambda_e, float)
    n = float(sizes[0]) if one else sizes[:, None].astype(float)
    j = np.arange(width, dtype=float)
    if one or sizes.min() >= width:
        stale, u = stale_rate_rows(policy, total_source, total_gossip, n, j)
    else:
        stale, u = stale_rate_rows(policy, total_source, total_gossip, n, np.minimum(j, n - 1))
        u[j >= n] = 0.0
    del j  # a row-sized array: free it for the recursion's temporaries
    return _recursion(u, stale, lambda_e)[0]


def _law_block(policy, total_source, total_gossip, lambda_e, sizes, width) -> np.ndarray:
    """:func:`_block`'s twin through the capture count's law, on the same
    rates: ``p = E[count] / n = (1/n) sum_k P(count >= k)`` at each of the
    ``sizes`` in one block ``width`` wide, the survival row of
    :func:`_survival` over :func:`_capture_rates` summed left to right as
    :func:`_recursion` sums.  It reads no ``u(j)`` table, names no tagged
    node and splits no step into q and tau, so it checks the table and the
    recursion for every policy.  A cell past its row's size gets ``d =
    0``, whose survival is 0, adding exactly ``+0.0``.  A row stops at its
    cut width with no bit changed: each term ``P(count >= k)`` is at most
    ``(d / (d + lambda_e))**k`` for the ``d`` of :func:`_cut_width`, which
    bounds every :func:`_capture_rates` rate, and the sum is at least its
    first term, ``total_source / (total_source + lambda_e) = n q[0]``, so
    past the cut every term is below a quarter ulp of the sum."""
    n = sizes[:, None].astype(float)
    j = np.arange(width, dtype=float)
    d = np.where(j < n, _capture_rates(policy, total_source, total_gossip, n, j), 0.0)
    survival = _survival(d, lambda_e)
    return np.add.accumulate(survival, axis=1, out=survival)[:, -1] / sizes


def _blocked(policy, total_source, total_gossip, lambda_e, sizes: list[int], block=_block):
    """``block`` (:func:`_block` or :func:`_law_block`) over every (case,
    size) cell of checked ``sizes`` and rate lists of one rate per case, as
    a ``(cases, sizes)`` array, each cell evaluated at its cut width
    (:func:`_cut_width`), which changes no bit of its value.  One rate case
    passes ``block`` its rates as floats, more cases a column of one rate
    per row.  Cells that fit one block of at most :data:`BLOCK_CELLS` cells
    (or a single cell) are one block as they stand; otherwise they are
    sorted by width and cut into blocks."""
    cased = len(lambda_e) > 1
    if cased:
        rates = np.array([total_source, total_gossip, lambda_e], dtype=float)
        rates = rates.repeat(len(sizes), axis=1)[..., None]
    else:
        rates = [float(total_source[0]), float(total_gossip[0]), float(lambda_e[0])]
    cells = sizes * len(lambda_e)
    widths = cells
    if max(sizes) >= CUT_MIN_WIDTH:
        cases = zip(total_source, total_gossip, lambda_e)
        widths = [_cut_width(policy, *case, n) for case in cases for n in sizes]
    array = np.array(cells)
    width = max(widths)
    if len(cells) == 1 or len(cells) * width <= BLOCK_CELLS:
        p = block(policy, *rates, array, width)
    else:
        order = np.argsort(widths, kind="stable")
        ordered, bounds = array[order], np.take(widths, order).tolist()
        p = np.empty(len(cells))
        start = 0
        while start < len(order):  # bisect for each block's end: its padded cells only grow
            rest = range(start + 1, len(order))
            fit = bisect_right(rest, BLOCK_CELLS, key=lambda s: (s + 1 - start) * bounds[s])
            stop = start + 1 + fit
            index = order[start:stop]
            rows = rates[:, index] if cased else rates
            p[index] = block(policy, *rows, ordered[start:stop], bounds[stop - 1])
            start = stop
    return p.reshape(len(lambda_e), -1)


#: Rows narrower than this are evaluated whole.  A one-size call spends
#: about 1.7 us on its cut width, as much as about 170 cells of a row cost
#: (about 10 ns a cell past the call's fixed 20 us; timeit on a 2-core
#: Xeon), and a cut keeps at least nine cells (about 70 at lambda_s =
#: lambda_e), so a cut pays only past about 200 cells; the sweeps' rows
#: (n <= 120) never compute one.
CUT_MIN_WIDTH = 256

#: The smallest normal float.
_NORMAL = sys.float_info.min


def _cut_width(policy, total_source, total_gossip, lambda_e, n: int) -> int:
    """How many leading cells of a :func:`_recursion` or :func:`_law_block`
    row for size ``n`` fix its sum, from the rates alone: ``n`` where the
    bound below finds no fewer, and below :data:`CUT_MIN_WIDTH`.

    Every policy's total capture rate is at most ``d = total_source + (n -
    1) * total_gossip`` (``total_source`` for a DC policy), so each step's
    ``tau <= d / (d + lambda_e)`` and the running product after k steps is
    at most ``(d / (d + lambda_e))**k``.  Every later term is at most that
    product (``q <= 1``), and the running sum is at least its first term,
    ``q[0]``, the same for all five policies.  Once the bound is below a
    quarter of ``q[0]``'s spacing, every later term is below half an ulp
    of the sum and leaves it unchanged.  The factor of two covers the
    rounding of the computed taus and their product for any width below
    10**14, as long as each rounding is relative: so the bound, the first
    term, ``lambda_e`` and the per-node rates ``total_source / n`` and
    ``total_gossip / n`` (unless 0) must be normal floats, or the row gets
    no cut.  A product that falls below the normal range first is below
    the bound already.  A zero first term (a total source rate of 0 or
    -0.0) gets no cut either."""
    if n < CUT_MIN_WIDTH:
        return n
    ls, lg, le = float(total_source), float(total_gossip), float(lambda_e)
    u = ls / n
    floor = math.ulp(u / (n * u + le)) / 4  # q[0] as _recursion computes it
    if not min(floor, u, le) >= _NORMAL or 0 < lg / n < _NORMAL:
        return n
    d = ls if policy in DC_POLICIES else ls + (n - 1) * lg
    steps, rate = -math.log(floor), math.log1p(le / d)  # the bound is exp(-k * rate)
    return n if steps >= (n - 2) * rate else int(steps / rate) + 2


def _allrc_running(ls, lg, le, width: int) -> np.ndarray:
    """``FC_allRC``'s running sum ``sum_{k<=n} prod_{j<=k} ...`` at every
    size n up to ``width``, for one rate case.  Its first term, ``ls / (ls
    + le)``, is at least the recursion's at any size, and its factors obey
    the recursion's bound, so past the recursion's cut width at the
    largest size (:func:`_cut_width`) the sum no longer moves."""
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
    bit-identical to :func:`oracle_flat` at that size.  The cells go in
    blocks of at most :data:`BLOCK_CELLS` cells, or one row where it alone
    is wider, so a sweep costs a few array passes instead of one per size;
    each row is evaluated up to its cut width (:func:`_cut_width`), past
    which its sum cannot move.

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


def oracle_flat(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    lambda_e: float,
    n: int,
) -> FreshnessValue:
    """Freshness of a flat tier via the generic recursion (works for all
    five policies); the one-size case of :func:`oracle_sizes`, whose rates
    reach the kernel as floats and whose one cell is a 1-D row."""
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
      largest size up to its cut width, serves every size.  With lg = 0
      the product telescopes into the ``DC_RC`` geometric sum.
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
        p = [_closed_case(policy, *case, sizes) for case in zip(*rates)]
    return np.asarray(p) if cased else p[0]


def _closed_case(policy, ls, lg, le, sizes: list[int]) -> np.ndarray:
    """The ``DC_noRC``, ``DC_RC`` or ``FC_allRC`` closed form (see
    :func:`closed_sizes`) at checked ``sizes``, for one rate case."""
    if policy is GossipPolicy.DC_noRC:
        return ls / (ls + np.array(sizes, dtype=float) * le)
    if policy is GossipPolicy.DC_RC:
        return np.minimum([_dc_rc(n, ls, le) for n in sizes], 1.0)
    if policy is GossipPolicy.FC_allRC:
        n = np.array(sizes)
        width = _cut_width(policy, ls, lg, le, max(sizes))
        return _allrc_running(ls, lg, le, width)[np.minimum(n, width) - 1] / n
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
    exists; the one-size case of :func:`closed_sizes`, whose one case is
    evaluated on its rates as given, with no case axis."""
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
    found, rest, p = [1], int(n), 2  # the divisors of n // rest; rest has no factor below p
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
    return best_k, int(n) // best_k, best_p, profile  # n checked by divisors
