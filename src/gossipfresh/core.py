"""Domain model for binary freshness of gossip networks.

A source refreshes its own information as a Poisson process of rate
``lambda_e``.  Receivers try to keep a copy of the current information,
obtaining it from the source (directly, or via clusterheads) and, in fully
connected topologies, from each other through gossip.  A node is *fresh*
while its copy matches the source's current version.

Every dissemination policy supported here reduces to one table: the
update intensity ``u(j)`` delivered to each stale node when exactly ``j``
nodes are currently fresh, for ``j = 0 .. n-1``.  That table,
:func:`per_stale_rate`, is shared by the exact calculations in
:mod:`gossipfresh.analytic` and the event-driven engines in
:mod:`gossipfresh.simulator`; both build one per tier of
:attr:`NetworkSpec.tiers`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np


class GossipPolicy(Enum):
    """Dissemination policy for one tier of receivers.

    ``DC_*`` tiers are disconnected: nodes receive only from their sender
    (source or clusterhead).  ``FC_*`` tiers are fully connected: fresh
    nodes also gossip to the others with total rate ``lambda_g`` each.
    ``RC`` variants concentrate the sender's total budget on currently
    stale targets, so the per-target rate grows as fewer targets remain;
    the ``noRC`` variants split the budget evenly regardless of state.
    ``FC_sRC`` applies the stale-targeting rule at the source only,
    ``FC_allRC`` at the source and at every gossiping node.
    """

    DC_noRC = "DC_noRC"
    DC_RC = "DC_RC"
    FC_noRC = "FC_noRC"
    FC_sRC = "FC_sRC"
    FC_allRC = "FC_allRC"

    @property
    def gossips(self) -> bool:
        return self.value.startswith("FC")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Policies allowed on the source-to-clusterhead tier (clusterheads never
#: gossip among themselves).
DC_POLICIES = (GossipPolicy.DC_noRC, GossipPolicy.DC_RC)

#: Long-term average binary freshness of a node, a probability in [0, 1].
FreshnessValue = float


def is_finite(value) -> bool:
    """``math.isfinite``, with an integer too large for a float counted as
    not finite rather than raising ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_rates(**named: float) -> None:
    """Raise ``ValueError`` unless every named value is a finite real >= 0.

    This is the one check every rate passes, whether it arrives in a
    :class:`Rates` or as a raw float at a formula's boundary.
    """
    for name, v in named.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"{name} must be a real number, got {v!r}")
        if not is_finite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def int_problem(name: str, value, minimum: int) -> str | None:
    """The one integer rule: a message unless ``value`` is an integer (not
    a bool) of at least ``minimum``, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        return f"{name} must be an integer and {name} >= {minimum}, got {value!r}"
    return None


def require_int(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` where :func:`int_problem` finds one."""
    problem = int_problem(name, value, minimum)
    if problem:
        raise ValueError(problem)


#: Bound on ``size * (lambda_e + rates)`` for each tier of a network.  Every
#: intermediate of the exact routes and of the simulator (``n * lambda_e``,
#: ``stale * u(j) + lambda_e``, the sum of all event intensities) is below
#: it, so the headroom keeps them all finite.
RATE_SUM_LIMIT = sys.float_info.max / 4


def rate_sum_problem(size: int, lambda_e: float, rates: dict[str, float]) -> str | None:
    """The one overflow check: a message if ``size * (lambda_e + rates)``
    exceeds :data:`RATE_SUM_LIMIT`, else None.  ``rates`` maps names to
    values that passed :func:`require_rates`."""
    total = size * (lambda_e + sum(rates.values()))
    if total <= RATE_SUM_LIMIT:
        return None
    names = " + ".join(["lambda_e", *rates])
    return (
        f"rates too large: {size} * ({names}) = {total!r} exceeds "
        f"{RATE_SUM_LIMIT:.3g}; only rate ratios matter, so scale all rates down"
    )


@dataclass(frozen=True)
class Rates:
    """The four Poisson intensities driving a network, in arbitrary units.

    All freshness values are invariant under a common rescaling of the
    four rates (only ratios matter).

    Attributes:
        lambda_e: source self-refresh rate.  Must be positive for any
            freshness computation; zero is representable but rejected by
            :func:`validate`.
        lambda_s: total source-to-receiver delivery rate.
        lambda_c: total clusterhead-to-node delivery rate (clustered mode).
        lambda_g: total gossip rate of each fresh node (FC policies).
    """

    lambda_e: float
    lambda_s: float
    lambda_c: float = 0.0
    lambda_g: float = 0.0

    def __post_init__(self):
        require_rates(**vars(self))


@dataclass(frozen=True)
class Flat:
    """A single tier of ``n`` symmetric nodes fed by the source at total
    rate ``lambda_s``, gossiping at ``lambda_g`` under FC policies."""

    n: int
    policy: GossipPolicy


@dataclass(frozen=True)
class Clustered:
    """``m`` clusters of ``k`` nodes each, fed through clusterheads.

    The source updates the m clusterheads (total rate ``lambda_s``,
    ``source_policy``); each clusterhead relays to its k nodes (total rate
    ``lambda_c``, ``cluster_policy``, gossip rate ``lambda_g`` for FC
    cluster policies).  Requires ``m * k == n``.
    """

    n: int
    k: int
    m: int
    source_policy: GossipPolicy
    cluster_policy: GossipPolicy


Shape = Union[Flat, Clustered]


@dataclass(frozen=True)
class NetworkSpec:
    """A network shape plus the rates that drive it."""

    shape: Shape
    rates: Rates

    @staticmethod
    def flat(n: int, policy: GossipPolicy, rates: Rates) -> "NetworkSpec":
        return NetworkSpec(Flat(n, policy), rates)

    @staticmethod
    def clustered(
        n: int,
        k: int,
        source_policy: GossipPolicy,
        cluster_policy: GossipPolicy,
        rates: Rates,
        m: int | None = None,
    ) -> "NetworkSpec":
        if m is None:
            m = 0 if int_problem("k", k, 1) else n // k
        return NetworkSpec(Clustered(n, k, m, source_policy, cluster_policy), rates)

    @property
    def tiers(self) -> tuple[tuple[GossipPolicy, float, float, int], ...]:
        """The network's flat tiers, each ``(policy, total_source,
        total_gossip, size)`` as :func:`per_stale_rate` takes them: ``(policy,
        lambda_s, lambda_g, n)`` for a flat network; for a clustered one the
        source's race to the m clusterheads, which never gossip,
        ``(source_policy, lambda_s, 0.0, m)``, then a clusterhead's race to
        its k nodes, ``(cluster_policy, lambda_c, lambda_g, k)``."""
        shape, r = self.shape, self.rates
        if isinstance(shape, Flat):
            return ((shape.policy, r.lambda_s, r.lambda_g, shape.n),)
        return (
            (shape.source_policy, r.lambda_s, 0.0, shape.m),
            (shape.cluster_policy, r.lambda_c, r.lambda_g, shape.k),
        )


def per_stale_rate(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    n: int,
) -> np.ndarray:
    """The table ``u`` with ``u[j]`` the update intensity seen by each
    stale node when ``j`` of the ``n`` nodes are fresh, ``j = 0 .. n-1``,
    as a float64 array.

    ``total_source`` is the sender's total delivery budget and
    ``total_gossip`` the total gossip budget of each fresh node:

    * ``DC_noRC``:  ``total_source / n``
    * ``DC_RC``:    ``total_source / (n - j)``
    * ``FC_noRC``:  ``total_source / n + j * total_gossip / (n - 1)``
    * ``FC_sRC``:   ``total_source / (n - j) + j * total_gossip / (n - 1)``
    * ``FC_allRC``: ``total_source / (n - j) + j * total_gossip / (n - j)``

    ``FC_allRC`` is evaluated term by term as written, not as
    ``(total_source + j * total_gossip) / (n - j)``: sharing the source
    term with ``FC_sRC`` keeps ``FC_allRC >= FC_sRC`` and the zero-gossip
    collapse onto ``DC_RC`` exact in floating point.  For ``n == 1`` there
    are no gossip neighbours and every policy gives ``[total_source]``.

    Raises:
        ValueError: if ``n`` is not an integer >= 1 or a rate is negative
            or not finite.
    """
    require_int("n", n, 1)
    require_rates(total_source=total_source, total_gossip=total_gossip)
    return stale_rate_rows(policy, total_source, total_gossip, np.array([[n]]), n)[1][0]


def stale_rate_rows(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    sizes: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`per_stale_rate` tables of several tier sizes at once.

    ``sizes`` is a column (shape ``(rows, 1)``) of tier sizes, each at most
    ``width``.  Returns ``(stale, u)``, two ``(rows, width)`` blocks:
    ``stale[i, j] = sizes[i] - j`` stale nodes and ``u[i, j]`` the rate each
    of them sees.  Cells past a row's size are padding, with ``stale = 1``
    and ``u = 0``.  This is where each policy's formula is written; it
    broadcasts over ``j`` and over the column, and every entry is computed
    with the same IEEE operations, in the same order, as the scalar
    formula.  The arguments are not checked here.
    """
    n = sizes.astype(float)
    j_all = np.arange(width, dtype=float)
    # Padding cells (j >= n) are evaluated at j = n - 1, then u is zeroed.
    j = np.minimum(j_all, n - 1)
    stale = n - j
    if policy is GossipPolicy.DC_noRC:
        u = total_source / n
    elif policy is GossipPolicy.DC_RC:
        u = total_source / stale
    elif policy is GossipPolicy.FC_noRC:
        u = total_source / n + j * (total_gossip / np.maximum(n - 1, 1))
    elif policy is GossipPolicy.FC_sRC:
        u = total_source / stale + j * (total_gossip / np.maximum(n - 1, 1))
    elif policy is GossipPolicy.FC_allRC:
        u = total_source / stale + j * total_gossip / stale
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return stale, np.where(j_all < n, u, 0.0)


def validate(spec: NetworkSpec) -> list[str]:
    """Check every structural invariant of ``spec``.

    Each rate was already checked when its :class:`Rates` was built; this
    adds ``lambda_e > 0``, :func:`int_problem` for every size, and the
    :func:`rate_sum_problem` bound per tier:
    ``n * (lambda_e + lambda_s + lambda_g)`` for a flat network, and
    ``m * (lambda_e + lambda_s)`` and ``n * (lambda_e + lambda_c +
    lambda_g)`` for a clustered one, whose m clusters together deliver up
    to ``m * lambda_c + n * lambda_g``.  Returns a list of human-readable
    violation messages; the spec is usable iff the list is empty.  Nothing
    is raised: callers that need hard failure join the messages into an
    exception themselves.
    """
    problems: list[str | None] = []
    r = spec.rates
    if r.lambda_e <= 0:
        problems.append(f"lambda_e must be > 0 so refresh cycles terminate, got {r.lambda_e!r}")

    shape = spec.shape
    if isinstance(shape, Flat):
        size_problem = int_problem("n", shape.n, 1)
        problems.append(size_problem)
        if not size_problem:
            rates = {"lambda_s": r.lambda_s, "lambda_g": r.lambda_g}
            problems.append(rate_sum_problem(shape.n, r.lambda_e, rates))
    elif isinstance(shape, Clustered):
        size_problems = [
            int_problem("n", shape.n, 1),
            int_problem("k", shape.k, 1),
            int_problem("m", shape.m, 1),
        ]
        problems.extend(size_problems)
        sized = not any(size_problems)
        if sized and shape.m * shape.k != shape.n:
            problems.append(
                f"m*k != n: {shape.m}*{shape.k} = {shape.m * shape.k} != {shape.n}"
            )
        if shape.source_policy not in DC_POLICIES:
            problems.append(
                "clusterheads form a disconnected tier: source_policy must be "
                f"DC_noRC or DC_RC, got {shape.source_policy.value}"
            )
        if sized:
            problems.append(rate_sum_problem(shape.m, r.lambda_e, {"lambda_s": r.lambda_s}))
            rates = {"lambda_c": r.lambda_c, "lambda_g": r.lambda_g}
            problems.append(rate_sum_problem(shape.n, r.lambda_e, rates))
    else:  # pragma: no cover - defensive
        problems.append(f"unknown shape {type(shape).__name__}")
    return [p for p in problems if p]


def require_valid(spec: NetworkSpec) -> None:
    """Raise ``ValueError`` listing all violations if ``spec`` is invalid."""
    problems = validate(spec)
    if problems:
        raise ValueError("invalid network spec: " + "; ".join(problems))
