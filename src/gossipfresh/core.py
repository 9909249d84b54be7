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
:mod:`gossipfresh.simulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union


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


def require_rates(**named: float) -> None:
    """Raise ``ValueError`` unless every named value is a finite real >= 0.

    This is the one check every rate passes, whether it arrives in a
    :class:`Rates` or as a raw float at a formula's boundary.
    """
    for name, v in named.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"{name} must be a real number, got {v!r}")
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


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

    def scaled(self, factor: float) -> "Rates":
        """All four intensities multiplied by ``factor`` (time rescaling)."""
        return Rates(
            lambda_e=self.lambda_e * factor,
            lambda_s=self.lambda_s * factor,
            lambda_c=self.lambda_c * factor,
            lambda_g=self.lambda_g * factor,
        )


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
            m = n // k if k >= 1 else 0
        return NetworkSpec(Clustered(n, k, m, source_policy, cluster_policy), rates)


def per_stale_rate(
    policy: GossipPolicy,
    total_source: float,
    total_gossip: float,
    n: int,
) -> list[float]:
    """The table ``u`` with ``u[j]`` the update intensity seen by each
    stale node when ``j`` of the ``n`` nodes are fresh, ``j = 0 .. n-1``.

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
        ValueError: if ``n < 1`` or a rate is negative or not finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_rates(total_source=total_source, total_gossip=total_gossip)
    gossip_split = total_gossip / (n - 1) if n > 1 else 0.0
    if policy is GossipPolicy.DC_noRC:
        return [total_source / n] * n
    if policy is GossipPolicy.DC_RC:
        return [total_source / (n - j) for j in range(n)]
    if policy is GossipPolicy.FC_noRC:
        return [total_source / n + j * gossip_split for j in range(n)]
    if policy is GossipPolicy.FC_sRC:
        return [total_source / (n - j) + j * gossip_split for j in range(n)]
    if policy is GossipPolicy.FC_allRC:
        return [total_source / (n - j) + j * total_gossip / (n - j) for j in range(n)]
    raise ValueError(f"unknown policy {policy!r}")


def validate(spec: NetworkSpec) -> list[str]:
    """Check every structural invariant of ``spec``.

    Each rate was already checked when its :class:`Rates` was built; this
    adds only ``lambda_e > 0``.  Returns a list of human-readable violation messages; the spec is
    usable iff the list is empty.  Nothing is raised: callers that need
    hard failure join the messages into an exception themselves.
    """
    problems: list[str] = []
    if spec.rates.lambda_e <= 0:
        problems.append(
            f"lambda_e must be > 0 so refresh cycles terminate, got {spec.rates.lambda_e!r}"
        )

    shape = spec.shape
    if isinstance(shape, Flat):
        if shape.n < 1:
            problems.append(f"flat network needs n >= 1, got n={shape.n}")
    elif isinstance(shape, Clustered):
        if shape.n < 1:
            problems.append(f"clustered network needs n >= 1, got n={shape.n}")
        if shape.k < 1:
            problems.append(f"cluster size k must be >= 1, got k={shape.k}")
        if shape.m < 1:
            problems.append(f"cluster count m must be >= 1, got m={shape.m}")
        if shape.m >= 1 and shape.k >= 1 and shape.m * shape.k != shape.n:
            problems.append(
                f"m*k != n: {shape.m}*{shape.k} = {shape.m * shape.k} != {shape.n}"
            )
        if shape.source_policy not in DC_POLICIES:
            problems.append(
                "clusterheads form a disconnected tier: source_policy must be "
                f"DC_noRC or DC_RC, got {shape.source_policy.value}"
            )
    else:  # pragma: no cover - defensive
        problems.append(f"unknown shape {type(shape).__name__}")
    return problems


def require_valid(spec: NetworkSpec) -> None:
    """Raise ``ValueError`` listing all violations if ``spec`` is invalid."""
    problems = validate(spec)
    if problems:
        raise ValueError("invalid network spec: " + "; ".join(problems))
