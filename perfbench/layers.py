"""Where the benchmark cuts gossipfresh into layers, and what it reads there.

:func:`instrument` patches the names each layer imports from the layer
below (cli -> experiments -> analytic / simulator -> core).  :func:`metrics`
turns one traced pass into the per-layer figures listed in
``BENCHMARK.json``.  Counts and times are given per round of the op list,
so that they do not depend on the run's length; throughputs are ratios of
totals.
"""

from __future__ import annotations

from gossipfresh import analytic, cli, core, experiments, simulator
from gossipfresh.core import Flat

from spans import Tracer, total

CLOSED = ("analytic.closed_flat", "analytic.closed_clustered")
CYCLES_FLAT = "simulator.estimate_freshness_cycles.flat"
CYCLES_CLUSTERED = "simulator.estimate_freshness_cycles.clustered"
U_COUNTER = "core.per_stale_rate"
VALIDATE_COUNTER = "core.validate"
STEP_COUNTER = "simulator.TrajectorySim.step"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fixed(name):
    return lambda args, kwargs: (name, 0.0)


def _renewal(args, kwargs):
    return "analytic.renewal_freshness", float(_arg(args, kwargs, 1, "n"))


def _write_csv(args, kwargs):
    return "experiments.write_csv", float(len(_arg(args, kwargs, 0, "rows")))


def _cycles(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    name = CYCLES_FLAT if isinstance(spec.shape, Flat) else CYCLES_CLUSTERED
    return name, float(_arg(args, kwargs, 1, "num_cycles"))


#: (owner, attribute, span name or describe function).  Each owner is the
#: module whose globals the caller resolves the name in.
SPANS = (
    (cli, "run_experiment", "experiments.run_experiment"),
    (cli, "emit_plot_data", "experiments.emit_plot_data"),
    (cli, "report_optimal_k", "experiments.report_optimal_k"),
    (cli, "write_csv", _write_csv),
    (experiments, "write_csv", _write_csv),
    (experiments, "oracle_flat", "analytic.oracle_flat"),
    (experiments, "closed_flat", "analytic.closed_flat"),
    (experiments, "closed_clustered", "analytic.closed_clustered"),
    (experiments, "clustered_freshness", "analytic.clustered_freshness"),
    (experiments, "optimal_cluster_size", "analytic.optimal_cluster_size"),
    (experiments, "estimate_freshness_cycles", _cycles),
    (analytic, "oracle_flat", "analytic.oracle_flat"),
    (analytic, "closed_flat", "analytic.closed_flat"),
    (analytic, "clustered_freshness", "analytic.clustered_freshness"),
    (analytic, "optimal_cluster_size", "analytic.optimal_cluster_size"),
    (analytic, "renewal_freshness", _renewal),
    (simulator, "clustered_freshness", "analytic.clustered_freshness"),
    (simulator, "estimate_freshness_cycles", _cycles),
)

#: (owner, attribute, counter name) for the hot boundaries.
COUNTERS = (
    (core, "per_stale_rate", U_COUNTER),
    (simulator, "per_stale_rate", U_COUNTER),
    (analytic, "require_valid", VALIDATE_COUNTER),
    (simulator, "require_valid", VALIDATE_COUNTER),
    (cli, "validate", VALIDATE_COUNTER),
    (simulator.TrajectorySim, "step", STEP_COUNTER),
)


def instrument(tracer: Tracer) -> None:
    """Patch every boundary in :data:`SPANS` and :data:`COUNTERS`."""
    for owner, attr, how in SPANS:
        describe = _fixed(how) if isinstance(how, str) else how
        tracer.patch(owner, attr, lambda fn, d=describe: tracer.span_wrapper(fn, d))
    for owner, attr, name in COUNTERS:
        tracer.patch(owner, attr, lambda fn, n=name: tracer.counter_wrapper(fn, n))


def _rate(units: float, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


def metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures of one traced pass of ``rounds`` complete rounds."""
    per_round = 1.0 / rounds
    u = tracer.counter(U_COUNTER)
    val = tracer.counter(VALIDATE_COUNTER)
    step = tracer.counter(STEP_COUNTER)
    renewal = tracer.named("analytic.renewal_freshness")
    renewal_self = total(renewal, "self_s")
    renewal_steps = total(renewal, "units")
    csv_spans = tracer.named("experiments.write_csv")
    flat = tracer.named(CYCLES_FLAT)
    clustered = tracer.named(CYCLES_CLUSTERED)
    return {
        "core.u_calls": u.calls * per_round,
        "core.u_s": u.busy_s * per_round,
        "core.validate_calls": val.calls * per_round,
        "core.validate_s": val.busy_s * per_round,
        "analytic.renewal_calls": len(renewal) * per_round,
        "analytic.renewal_self_s": renewal_self * per_round,
        "analytic.renewal_ns_per_step": 1e9 * _rate(renewal_self, renewal_steps),
        "analytic.closed_s": total(tracer.outermost(*CLOSED)) * per_round,
        "analytic.optimal_k_s": total(tracer.outermost("analytic.optimal_cluster_size")) * per_round,
        "experiments.run_self_s": total(tracer.named("experiments.run_experiment"), "self_s") * per_round,
        "experiments.csv_rows_per_s": _rate(total(csv_spans, "units"), total(csv_spans)),
        "experiments.plot_s": total(tracer.named("experiments.emit_plot_data")) * per_round,
        "experiments.optimal_k_report_s": total(tracer.named("experiments.report_optimal_k")) * per_round,
        "cli.sweep_s": total(tracer.named("op.cli.sweep")) * per_round,
        "cli.optimal_k_s": total(tracer.named("op.cli.optimal_k")) * per_round,
        "simulator.flat_cycles_per_s": _rate(total(flat, "units"), total(flat)),
        "simulator.clustered_cycles_per_s": _rate(total(clustered, "units"), total(clustered)),
        "simulator.trajectory_events_per_s": _rate(step.calls, step.busy_s),
    }
