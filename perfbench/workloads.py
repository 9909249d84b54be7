"""The four benchmark workloads: their op lists and per-op checks.

An op is one timed call into gossipfresh.  A workload is an endless,
seed-determined sequence of *rounds*.  The seed draws one list of op inputs
(stratified where sizes vary, so that every seed's round costs about the
same) in a seeded order, and every round runs that list again: the same op
in each *slot*, with fresh Monte Carlo seeds and, for the exact ops, all
rates rescaled by a power of two, which leaves every result the same bit
for bit.  So no round repeats an input, yet each slot costs the same in
every round, and the best of a slot's rounds is its undisturbed cost.

Each op's output is checked outside the timed region.  A check returns the
failures it found; a failure is *explained* when it is the signature of a
defect listed in ROADMAP.md or a Monte Carlo deviation that chance allows,
and every failure counts against the run's ``failed`` total either way.

Why these four workloads:

* ``sweep_exact``: the paper's own traffic, the CLI on the shipped configs;
  n <= 120, so per-call overhead dominates.
* ``exact_large_n``: both exact routes at n = 10^3..10^4 and the n = 5040
  divisor scan; per-element cost dominates.
* ``mc_flat``: the flat cycle engine on the criterion-4 grid plus n = 50,
  and the trajectory engine on flat specs.
* ``mc_clustered``: the two-level engine on the criterion-5 grid plus the
  n = 120 shapes of the clustered_fc config, and clustered trajectories.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from gossipfresh import analytic, cli, simulator
from gossipfresh.core import DC_POLICIES, Flat, GossipPolicy, NetworkSpec, Rates
from gossipfresh.experiments import ExperimentConfig

TOL = 1e-12
Z_GATE = 4.0
#: |z| above this is no longer a chance deviation at the number of Monte
#: Carlo ops a run makes (the one-sided tail beyond 6 sigma is 1e-9).
Z_CHANCE = 6.0
#: Largest |closed - oracle| that the DC_RC cancellation of ROADMAP item 4
#: explains over the rate ratios drawn here (it is about 5e-11 at 10^6).
DC_RC_CANCELLATION = 1e-6
#: Largest relative gap of an FC ordering violation that the FC_allRC
#: rounding of the ROADMAP blocker explains (a few ulps).
ORDER_ULPS = 8 * 2.0**-52

CONFIG_NAMES = ("flat_policies", "clustered_dc", "clustered_fc")

# The criterion-4 and criterion-5 grids, copied so that the workloads stay
# fixed when the acceptance module changes.
MC_RATE_POINTS = ((1.0, 1.0, 1.0), (0.1, 1.0, 0.5), (2.0, 1.0, 4.0))  # (le, ls, lg)
MC_NS = (1, 2, 3, 5, 8)
DECOMP_SHAPES = ((2, 2), (3, 4), (4, 3))
DECOMP_RATES = Rates(lambda_e=1.0, lambda_s=2.0, lambda_c=3.0, lambda_g=1.5)
#: n = 120 shapes from ``simulate --config configs/clustered_fc.json``: many
#: small clusters, the middle divisor, few large clusters.
LARGE_CLUSTER_KS = (3, 12, 40)

#: Cycles per Monte Carlo op: enough that the engine's per-cycle work
#: dominates each op, few enough that a run has a dozen rounds or more, since
#: each slot's best round is what a run reports.
FLAT_CYCLES = 2_500
DECOMP_CYCLES = 1_250
LARGE_DECOMP_CYCLES = 250
TIME_HORIZON = 2_000.0
#: Runs per round of each n = 50 flat spec; two put those slow ops at about
#: a fifth of the round, so that the 90th latency percentile lies inside
#: their band rather than on its edge.
N50_REPEATS = 2
#: Runs per round of each n = 120 clustered spec, for the same reason: the
#: 90th percentile then lies inside the band of the k = 3 shapes.
LARGE_REPEATS = 2


@dataclass(frozen=True)
class Failure:
    """One failed check.  ``kind`` names the check, or the known defect
    when ``explained``."""

    kind: str
    detail: str
    explained: bool = False


@dataclass
class Accuracy:
    """Agreement figures gathered by the checks of one pass."""

    max_closed_oracle_diff: float = 0.0
    max_abs_z: float = 0.0
    #: spec key -> [(p_hat, stderr)] over the seeds the spec ran under
    samples: dict = field(default_factory=dict)

    def diff(self, value: float) -> None:
        self.max_closed_oracle_diff = max(self.max_closed_oracle_diff, value)

    def z(self, value: float) -> None:
        self.max_abs_z = max(self.max_abs_z, abs(value))

    def sample(self, key, p_hat: float, stderr: float) -> None:
        self.samples.setdefault(key, []).append((p_hat, stderr))

    def stderr_to_spread(self) -> float:
        """RMS reported stderr over the pooled spread of ``p_hat`` across
        seeds of the same spec; 1.0 is an honest error bar, 0.0 means no
        spec ran under two seeds."""
        sq_err = n_err = sq_dev = dof = 0.0
        for runs in self.samples.values():
            if len(runs) < 2:
                continue
            mean = sum(p for p, _ in runs) / len(runs)
            sq_dev += sum((p - mean) ** 2 for p, _ in runs)
            dof += len(runs) - 1
            sq_err += sum(s * s for _, s in runs)
            n_err += len(runs)
        if dof == 0 or sq_dev == 0:
            return 0.0
        return math.sqrt(sq_err / n_err) / math.sqrt(sq_dev / dof)


def _z_failure(label: str, z: float) -> list[Failure]:
    if abs(z) <= Z_GATE:
        return []
    chance = abs(z) <= Z_CHANCE
    return [Failure("mc_chance" if chance else "mc_z", f"{label}: |z| = {abs(z):.2f} > {Z_GATE}", chance)]


def _z(p_hat: float, target: float, stderr: float) -> float:
    if stderr > 0:
        return (p_hat - target) / stderr
    return 0.0 if p_hat == target else math.inf


@dataclass
class Context:
    """Paths and parsed configs shared by the ops of one run."""

    root: Path
    scratch: Path
    configs: dict[str, ExperimentConfig]

    @staticmethod
    def load(root: Path, scratch: Path) -> "Context":
        configs = {
            name: ExperimentConfig.from_json(root / "configs" / f"{name}.json")
            for name in CONFIG_NAMES
        }
        return Context(root, scratch, configs)


# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class CliOp:
    """``gossipfresh sweep --plot-dir`` or ``optimal-k`` on a shipped config,
    through ``cli.main`` with stdout captured and output in the scratch dir."""

    key: str
    kind: str
    argv: tuple[str, ...]
    csv_path: Path | None

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def check(self, result, acc: Accuracy) -> list[Failure]:
        code, text = result
        if code != 0:
            return [Failure("exit_code", f"exit code {code}")]
        if self.csv_path is None:
            if "UNEXPECTEDLY" in text:
                return [Failure("optimal_k_note", text)]
            return []
        with open(self.csv_path, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        if not rows or f"wrote {len(rows)} rows" not in text:
            return [Failure("csv_rows", f"CSV holds {len(rows)} rows, stdout says {text!r}")]
        failures = []
        for row in rows:
            if row["p_analytic"] == "":
                continue
            diff = abs(float(row["p_analytic"]) - float(row["p_oracle"]))
            acc.diff(diff)
            if diff > TOL:
                where = f"{row['policy_source']} n={row['n']}"
                failures.append(Failure("closed_vs_oracle", f"{where}: {diff:.3e}"))
        return failures


@dataclass(frozen=True)
class ExactPointOp:
    """All five flat policies by both exact routes at one (n, rates) point."""

    key: str
    n: int
    rates: Rates
    kind: str = "op.exact.flat_point"

    def run(self):
        r = self.rates
        return {
            p: (
                analytic.closed_flat(p, r.lambda_s, r.lambda_g, r.lambda_e, self.n),
                analytic.oracle_flat(p, r.lambda_s, r.lambda_g, r.lambda_e, self.n),
            )
            for p in GossipPolicy
        }

    def check(self, result, acc: Accuracy) -> list[Failure]:
        failures = []
        for policy, (closed, oracle) in result.items():
            if not 0.0 <= oracle <= 1.0:
                failures.append(Failure("not_probability", f"{policy.value}: {oracle!r}"))
            if closed is None:
                continue
            diff = abs(closed - oracle)
            acc.diff(diff)
            if diff > TOL:
                known = policy is GossipPolicy.DC_RC and diff <= DC_RC_CANCELLATION
                kind = "dc_rc_cancellation" if known else "closed_vs_oracle"
                failures.append(Failure(kind, f"{policy.value} n={self.n}: {diff:.3e}", known))
        o = {p: oracle for p, (_, oracle) in result.items()}
        P = GossipPolicy
        for hi, lo in ((P.FC_allRC, P.FC_sRC), (P.FC_sRC, P.FC_noRC), (P.DC_RC, P.DC_noRC)):
            if o[hi] < o[lo]:
                known = hi is P.FC_allRC and o[lo] - o[hi] <= ORDER_ULPS * o[lo]
                kind = "fc_rounding" if known else "ordering"
                failures.append(Failure(kind, f"{hi.value} < {lo.value} at n={self.n}", known))
        if self.rates.lambda_g == 0.0 and not (
            o[P.FC_allRC] == o[P.FC_sRC] == o[P.DC_RC] and o[P.FC_noRC] == o[P.DC_noRC]
        ):
            failures.append(Failure("collapse", f"zero-gossip collapse is not exact at n={self.n}"))
        return failures


@dataclass(frozen=True)
class OptimalKOp:
    """The divisor scan of ``optimal_cluster_size`` at one policy pair."""

    key: str
    n: int
    rates: Rates
    pair: tuple[GossipPolicy, GossipPolicy]
    kind: str = "op.exact.optimal_k"

    def run(self):
        return analytic.optimal_cluster_size(self.n, self.rates, *self.pair)

    def check(self, result, acc: Accuracy) -> list[Failure]:
        k_star, m_star, p_star, profile = result
        failures = []
        ks = [k for k, _ in profile]
        if ks != [k for k in range(1, self.n + 1) if self.n % k == 0]:
            failures.append(Failure("optimal_k_scan", "profile does not scan every divisor once"))
        best = max(p for _, p in profile)
        first_best = next(k for k, p in profile if p == best)
        if (k_star, m_star, p_star) != (first_best, self.n // first_best, best):
            detail = f"optimum ({k_star}, {p_star!r}) is not the first maximum"
            failures.append(Failure("optimal_k_scan", detail))
        src, cl = self.pair
        for k, p in profile:
            closed = analytic.closed_clustered(src, cl, self.n // k, k, self.rates)
            diff = abs(closed - p)
            acc.diff(diff)
            if diff > TOL:
                failures.append(Failure("closed_vs_oracle", f"{src.value}+{cl.value} k={k}: {diff:.3e}"))
        return failures


def _exact_target(spec: NetworkSpec) -> float:
    shape, r = spec.shape, spec.rates
    if isinstance(shape, Flat):
        return analytic.oracle_flat(shape.policy, r.lambda_s, r.lambda_g, r.lambda_e, shape.n)
    return analytic.clustered_freshness(spec)[0]


@dataclass(frozen=True)
class CyclesOp:
    """``estimate_freshness_cycles`` on a flat spec."""

    key: str
    spec_key: str
    spec: NetworkSpec
    cycles: int
    seed: int
    kind: str = "op.sim.cycles"

    def run(self):
        return simulator.estimate_freshness_cycles(self.spec, self.cycles, self.seed)

    def check(self, est, acc: Accuracy) -> list[Failure]:
        z = _z(est.p_hat, _exact_target(self.spec), est.stderr)
        acc.z(z)
        acc.sample(self.spec_key, est.p_hat, est.stderr)
        return _z_failure(self.spec_key, z)


@dataclass(frozen=True)
class DecompositionOp:
    """``decomposition_check`` on a clustered spec; the z is recomputed here
    against the recursion, not taken from the report."""

    key: str
    spec_key: str
    spec: NetworkSpec
    cycles: int
    seed: int
    kind: str = "op.sim.decomposition"

    def run(self):
        return simulator.decomposition_check(self.spec, self.cycles, self.seed)

    def check(self, rep, acc: Accuracy) -> list[Failure]:
        target = _exact_target(self.spec)
        est = rep.estimate
        z = _z(est.p_hat, target, est.stderr)
        acc.z(z)
        acc.sample(self.spec_key, est.p_hat, est.stderr)
        failures = _z_failure(self.spec_key, z)
        if rep.p_analytic != target:
            failures.append(Failure("reported_product", f"{self.spec_key}: {rep.p_analytic!r} != {target!r}"))
        return failures


@dataclass(frozen=True)
class TrajectoryOp:
    """``estimate_freshness_time`` (the trajectory engine) on one spec."""

    key: str
    spec_key: str
    spec: NetworkSpec
    horizon: float
    seed: int
    kind: str = "op.sim.trajectory"

    def run(self):
        return simulator.estimate_freshness_time(self.spec, self.horizon, self.seed)

    def check(self, est, acc: Accuracy) -> list[Failure]:
        z = _z(est.p_hat, _exact_target(self.spec), est.stderr)
        acc.z(z)
        return _z_failure(self.spec_key, z)


# ---------------------------------------------------------------------------
# round generators


def _keyed(round_index: int, ops: list) -> list:
    """Give each op of a round a key that is unique in the whole op list;
    the op's position in the round is its slot."""
    return [replace(op, key=f"{round_index}.{i}:{op.key}") for i, op in enumerate(ops)]


def _fixed_order(rng: random.Random, items: list) -> list:
    """``items`` in a seeded order that every round of the run keeps, so
    that an op's slot in the round names the same input in each round."""
    items = list(items)
    rng.shuffle(items)
    return items


def _sweep_exact(rng: random.Random, ctx: Context, scale: float):
    cfg_dir = ctx.root / "configs"
    plots = ctx.scratch / "plots"
    base = []
    for name in CONFIG_NAMES:
        csv_path = ctx.scratch / f"{name}.csv"
        argv = ("sweep", "--config", str(cfg_dir / f"{name}.json"))
        argv += ("--output", str(csv_path), "--plot-dir", str(plots))
        base.append(CliOp(f"sweep:{name}", "op.cli.sweep", argv, csv_path))
    for name in CONFIG_NAMES[1:]:
        argv = ("optimal-k", "--config", str(cfg_dir / f"{name}.json"))
        base.append(CliOp(f"optimal-k:{name}", "op.cli.optimal_k", argv, None))
    base = _fixed_order(rng, base)
    while True:
        yield list(base)


#: log10(lambda_s / lambda_e) of the exact points: every decade of [0.1, 10^6].
RATIO_DECADES = tuple(range(-1, 7))
#: log10 n of the exact points: [3, 4] cut into N_STRATA strata, each cut
#: into one slice per decade, with one point drawn in every slice.  The
#: seed pairs slices with decades; the sum of n, and so the cost of a
#: round, is nearly the same for every seed.
N_STRATA = 4
#: Each round multiplies all rates of an exact op by 2^e, e drawn from
#: [-RESCALE_EXP, RESCALE_EXP], so that rounds do not repeat their inputs.
#: Freshness depends on rate ratios only, and a power of two leaves every
#: floating-point ratio, and so every result, bit for bit the same.  That
#: keeps the failed-op count fixed: the DC_RC cancellation error depends on
#: the ratio alone, and fails the points at 10^5 and 10^6 for every n drawn
#: here and the other decades for none.
RESCALE_EXP = 8
OPTIMAL_K_N = 5040


def _rescaled(rates: Rates, rng: random.Random) -> Rates:
    c = 2.0 ** rng.randint(-RESCALE_EXP, RESCALE_EXP)
    return Rates(c * rates.lambda_e, c * rates.lambda_s, c * rates.lambda_c, c * rates.lambda_g)


def _exact_large_n(rng: random.Random, ctx: Context, scale: float):
    n_k = OPTIMAL_K_N if scale >= 1 else 120
    slices = N_STRATA * len(RATIO_DECADES)
    points = []
    for stratum in range(N_STRATA):
        decades = _fixed_order(rng, range(len(RATIO_DECADES)))
        for i, j in enumerate(decades):
            lo = stratum * len(RATIO_DECADES) + i
            n = max(2, round(scale * 10 ** (3 + rng.uniform(lo, lo + 1) / slices)))
            # Gossip on and off in a checkerboard over (stratum, decade).
            points.append(("point", n, RATIO_DECADES[j], float((stratum + j) % 2)))
    for name in ("clustered_dc", "clustered_fc"):
        # The same pair for every seed and a seeded rate case: the scan's
        # cost hardly depends on the case.
        cfg = ctx.configs[name]
        points.append(("optimal-k", n_k, cfg.policies[-1], rng.choice(cfg.cases)))
    points = _fixed_order(rng, points)
    while True:
        ops = []
        for kind, n, a, b in points:
            if kind == "point":
                rates = _rescaled(Rates(1.0, 10.0**a, 0.0, b), rng)
                ops.append(ExactPointOp(f"point:n={n}:d={a}", n, rates))
            else:
                key = f"optimal-k:{a[0].value}+{a[1].value}:{b.label}"
                ops.append(OptimalKOp(key, n, _rescaled(b.rates, rng), a))
        yield ops


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _mc_flat(rng: random.Random, ctx: Context, scale: float):
    specs = []
    for policy in GossipPolicy:
        for n in MC_NS:
            for le, ls, lg in MC_RATE_POINTS:
                key = f"{policy.value}:n={n}:le={le}:ls={ls}:lg={lg}"
                specs.append((key, NetworkSpec.flat(n, policy, Rates(le, ls, 0.0, lg))))
    unit_rates = Rates(1.0, 1.0, 0.0, 1.0)
    traj = [(key, spec) for key, spec in specs if spec.rates == unit_rates and spec.shape.n in (3, 8)]
    fp = ctx.configs["flat_policies"]
    n50 = fp.n_range[1]
    for case in fp.cases:
        for policy in fp.policies:
            spec = NetworkSpec.flat(n50, policy, case.rates)
            specs += [(f"{policy.value}:n={n50}:{case.label}", spec)] * N50_REPEATS
    cycles = max(1, int(FLAT_CYCLES * scale))
    horizon = TIME_HORIZON * max(scale, 0.05)
    slots = _fixed_order(rng, [("cycles", *s) for s in specs] + [("time", *s) for s in traj])
    while True:
        yield [
            CyclesOp(key, key, spec, cycles, _seed(rng))
            if kind == "cycles"
            else TrajectoryOp(f"time:{key}", key, spec, horizon, _seed(rng))
            for kind, key, spec in slots
        ]


def _mc_clustered(rng: random.Random, ctx: Context, scale: float):
    small_cycles = max(1, int(DECOMP_CYCLES * scale))
    large_cycles = max(1, int(LARGE_DECOMP_CYCLES * scale))
    horizon = TIME_HORIZON * max(scale, 0.05)
    small = []
    for src in DC_POLICIES:
        for cl in GossipPolicy:
            for m, k in DECOMP_SHAPES:
                key = f"{src.value}+{cl.value}:m={m}:k={k}"
                small.append((key, NetworkSpec.clustered(m * k, k, src, cl, DECOMP_RATES)))
    fc = ctx.configs["clustered_fc"]
    case = fc.cases[0]
    large = []
    for src, cl in fc.policies:
        for k in LARGE_CLUSTER_KS:
            key = f"{src.value}+{cl.value}:n={fc.n}:k={k}:{case.label}"
            large.append((key, NetworkSpec.clustered(fc.n, k, src, cl, case.rates)))
    traj = [
        (key, spec)
        for key, spec in small
        if spec.shape.cluster_policy is GossipPolicy.FC_allRC and spec.shape.k != 2
    ]
    slots = [("decomp", key, spec, small_cycles) for key, spec in small]
    slots += [("decomp", key, spec, large_cycles) for key, spec in large] * LARGE_REPEATS
    slots += [("time", key, spec, 0) for key, spec in traj]
    slots = _fixed_order(rng, slots)
    while True:
        yield [
            DecompositionOp(key, key, spec, cycles, _seed(rng))
            if kind == "decomp"
            else TrajectoryOp(f"time:{key}", key, spec, horizon, _seed(rng))
            for kind, key, spec, cycles in slots
        ]


#: Op time of one round at the machine's usual speed (Intel Xeon, 2 vCPUs,
#: Python 3.11): a run of ``--seconds s`` makes ``s / ROUND_SECONDS`` rounds.
ROUND_SECONDS = {
    "sweep_exact": 0.12,
    "exact_large_n": 1.2,
    "mc_flat": 0.8,
    "mc_clustered": 1.3,
}

_GENERATORS = {
    "sweep_exact": _sweep_exact,
    "exact_large_n": _exact_large_n,
    "mc_flat": _mc_flat,
    "mc_clustered": _mc_clustered,
}


def rounds(workload: str, seed: int, ctx: Context, scale: float = 1.0):
    """Endless rounds of ``workload`` for ``seed``; ``scale`` < 1 shrinks
    every op for smoke runs.  The same arguments give the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    for index, ops in enumerate(_GENERATORS[workload](rng, ctx, scale)):
        yield _keyed(index, ops)
