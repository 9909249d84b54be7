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
:attr:`NetworkSpec.tiers` through :func:`stale_rate_rows`, after their
one validation of the spec.
"""

from __future__ import annotations

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

#: Policies whose source or clusterhead targets a uniform stale node, not a
#: uniform node of the tier; only ``FC_allRC``'s gossip targets stale ones too.
STALE_TARGETING = (GossipPolicy.DC_RC, GossipPolicy.FC_sRC, GossipPolicy.FC_allRC)

#: Long-term average binary freshness of a node, a probability in [0, 1].
FreshnessValue = float


#: Largest float: a real is finite iff at most this, an int too big for a float not.
_FLOAT_MAX = sys.float_info.max


def real_problem(name: str, value, positive: bool = False) -> str | None:
    """The one real-number rule: a message unless ``value`` is an int or a
    float (not a bool), finite and >= 0 (> 0 if ``positive``), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{name} must be a real number, got {value!r}"
    if (0 < value <= _FLOAT_MAX) if positive else (0 <= value <= _FLOAT_MAX):
        return None
    return f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value!r}"


def require(problem: str | None) -> None:
    """Raise ``ValueError(problem)`` for the message of a ``*_problem``
    rule; return for its None.  Each boundary raises a rule this way."""
    if problem:
        raise ValueError(problem)


def require_rates(**named: float) -> None:
    """Raise ``ValueError`` at the first named value :func:`real_problem`
    rejects.

    This is the one check every rate passes, whether it arrives in a
    :class:`Rates` or as a raw float at a formula's boundary.
    """
    for name, v in named.items():
        require(real_problem(name, v))


def alpha_problem(alpha, lambda_s, names: tuple[str, str]) -> str | None:
    """The one rule of ``lambda_e = alpha * lambda_s``: a message unless
    ``lambda_s``, ``alpha`` and their product are each a finite real > 0,
    else None.  ``names`` are the caller's names of alpha and lambda_s."""
    a, s = names
    return (
        real_problem(s, lambda_s, positive=True)
        or real_problem(a, alpha, positive=True)
        or real_problem(f"{a} * {s}", alpha * lambda_s, positive=True)
    )


def int_problem(name: str, value, minimum: int) -> str | None:
    """The one integer rule: a message unless ``value`` is an integer (not
    a bool) of at least ``minimum``, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        return f"{name} must be an integer and {name} >= {minimum}, got {value!r}"
    return None


#: Largest size of a network, a tier or a cluster: float64 holds every
#: integer up to 2**53 exactly, and :func:`stale_rate_rows` computes
#: ``stale = n - j`` in float64.
SIZE_LIMIT = 2**53


def size_problem(name: str, value) -> str | None:
    """The one size rule: a message unless ``value`` passes
    :func:`int_problem` with minimum 1 and is at most :data:`SIZE_LIMIT`,
    else None."""
    if problem := int_problem(name, value, 1):
        return problem
    return f"{name} must be at most 2**53, got {value!r}" if value > SIZE_LIMIT else None


def path_problem(name: str, value) -> str | None:
    """The one path rule, for a file or directory the program writes: a
    message unless ``value`` is a nonempty string with no NUL, which no
    path holds, else None."""
    if not isinstance(value, str):
        return f"{name} must be a string path, got {value!r}"
    if not value:
        return f"{name} must not be empty, got ''"
    if "\0" in value:
        return f"{name} must not contain a NUL character, got {value!r}"
    return None


def name_problem(name: str, value) -> str | None:
    """The one name rule, for a name that files are named after: a message
    unless ``value`` is a nonempty string with no path separator (``/`` or
    ``\\``), so that those files stay in their directory, that passes
    :func:`path_problem`, else None."""
    if not isinstance(value, str) or not value:
        return f"{name} must be a nonempty string, got {value!r}"
    if "/" in value or "\\" in value:
        return f"{name} must not contain / or \\, got {value!r}"
    return path_problem(name, value)


def horizon_problem(horizon, windows: int) -> str | None:
    """The one horizon rule: a message unless ``horizon`` passes
    :func:`real_problem` as > 0 and each of its ``windows`` equal windows
    is a normal float wide, so no width rounds to 0, else None."""
    if problem := real_problem("horizon", horizon, positive=True):
        return problem
    if horizon / windows >= sys.float_info.min:
        return None
    return f"horizon / {windows} must be at least {sys.float_info.min!r}, got {horizon!r}"


#: Largest ``num_cycles * n`` a cycle estimator takes: it sums the capture
#: counts of all its cycles, at most one per (cycle, node) pair, in int64.
CAPTURE_LIMIT = 2**63 - 1


def cycles_problem(name: str, num_cycles: int, n: int) -> str | None:
    """The one cycle-count bound, for a ``num_cycles`` that passed
    :func:`int_problem` and a checked network size ``n``: a message if
    ``num_cycles * n`` exceeds :data:`CAPTURE_LIMIT`, else None."""
    if int(num_cycles) * int(n) <= CAPTURE_LIMIT:
        return None
    return f"{name} * n must be at most 2**63 - 1, got {num_cycles} * {n}"


def divides_problem(n: int, k: int) -> str | None:
    """The one cluster-shape rule, for integers ``n`` and ``k >= 1``: a
    message unless ``k`` divides ``n`` into ``n // k`` clusters, else None."""
    return f"k must divide n, got n={n} k={k}" if n % k else None


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
    """``n`` nodes in ``m = n // k`` clusters of ``k`` nodes each, fed
    through clusterheads.

    The source updates the m clusterheads (total rate ``lambda_s``,
    ``source_policy``); each clusterhead relays to its k nodes (total rate
    ``lambda_c``, ``cluster_policy``, gossip rate ``lambda_g`` for FC
    cluster policies).  :func:`validate` checks the shape.
    """

    n: int
    k: int
    source_policy: GossipPolicy
    cluster_policy: GossipPolicy

    @property
    def m(self) -> int:
        return self.n // self.k


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
        n: int, k: int, source_policy: GossipPolicy, cluster_policy: GossipPolicy, rates: Rates
    ) -> "NetworkSpec":
        return NetworkSpec(Clustered(n, k, source_policy, cluster_policy), rates)

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
        ValueError: if ``n`` breaks :func:`size_problem` or a rate is
            negative or not finite.
    """
    require(size_problem("n", n))
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
    # Padding cells (j >= n) are evaluated at j = n - 1, then u is zeroed;
    # one row as wide as its size, per_stale_rate's block, has none.
    padded = len(sizes) > 1 or sizes[0, 0] < width
    j = np.minimum(j_all, n - 1) if padded else j_all
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
    if padded:
        return stale, np.where(j_all < n, u, 0.0)
    return stale, u if u.shape == stale.shape else u.repeat(width, axis=-1)  # DC_noRC's column


def validate(spec: NetworkSpec) -> list[str]:
    """Check every structural invariant of ``spec``.

    Each rate was already checked when its :class:`Rates` was built; this
    adds :func:`real_problem` for ``lambda_e > 0``, :func:`size_problem` for
    every size, :func:`divides_problem` for a clustered shape, and the
    :func:`rate_sum_problem` bound per tier:
    ``n * (lambda_e + lambda_s + lambda_g)`` for a flat network, and
    ``m * (lambda_e + lambda_s)`` and ``n * (lambda_e + lambda_c +
    lambda_g)`` for a clustered one, whose m clusters together deliver up
    to ``m * lambda_c + n * lambda_g``, and that a clustered source policy
    is ``DC_noRC`` or ``DC_RC``.  Returns a list of human-readable violation
    messages, empty iff the shape, the sizes and the rates are usable.  A
    tier's policy is judged where the tier is evaluated: a spec whose flat
    or cluster policy is no :class:`GossipPolicy` passes here, and every
    route and engine raises ``unknown policy ...`` for it.  Nothing is
    raised here: callers that need hard failure join the messages into an
    exception themselves.
    """
    r = spec.rates
    problems: list[str | None] = [real_problem("lambda_e", r.lambda_e, positive=True)]

    shape = spec.shape
    if isinstance(shape, Flat):
        n_problem = size_problem("n", shape.n)
        problems.append(n_problem)
        if not n_problem:
            rates = {"lambda_s": r.lambda_s, "lambda_g": r.lambda_g}
            problems.append(rate_sum_problem(shape.n, r.lambda_e, rates))
    elif isinstance(shape, Clustered):
        size_problems = [size_problem("n", shape.n), size_problem("k", shape.k)]
        problems.extend(size_problems)
        sized = not any(size_problems)
        if sized:
            problems.append(divides_problem(shape.n, shape.k))
        source = shape.source_policy
        if source not in DC_POLICIES:
            shown = source.value if isinstance(source, GossipPolicy) else repr(source)
            problems.append(
                "clusterheads form a disconnected tier: source_policy must be "
                f"DC_noRC or DC_RC, got {shown}"
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
