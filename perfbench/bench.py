"""One benchmark run: set-up timing, the timed ops, checks and metrics.

A run is a closed loop with one client: each op starts when the previous
one and its check have finished, in one process and one thread.

A run executes a fixed number of whole rounds: ``seconds`` over the
workload's reference round time (:data:`workloads.ROUND_SECONDS`), and
enough for ``min_ops`` ops.  So ``attempted`` and ``failed`` depend on the
seed and ``seconds`` only, never on how fast the machine ran.

* ``trace=0``: the rounds run with each op timed alone.  The end-to-end
  timings are taken from each op slot's best round
  (:meth:`Pass.best_latencies`) and scaled to the reference host speed
  (:data:`GAUGE_REF_S`).
* ``trace=1``: half the rounds run untraced, then the same ops run again
  with the tracer installed.  The per-layer metrics come from the traced
  pass, and the ratio of the two passes' best op times is the tracing
  overhead.

Either way one untimed warm-up op runs first, and every op's output is
checked right after the op, outside its timing.  Set-up time is measured
in fresh interpreters (:mod:`setup_probe`) spread between the rounds, so
that its median samples the machine over the whole run.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from run import ROOT, SRC
from spans import Tracer

MIN_OPS = 100
#: Best time of :func:`gauge_s` on this machine (Intel Xeon, 2 vCPUs,
#: Python 3.11) while its shared host is quiet.  The host's speed drifts by
#: up to 40 % over minutes, slowing program and gauge alike, so each run's
#: timings are scaled by GAUGE_REF_S over the run's best gauge time: they
#: read as if the host had run at the reference speed, and the run record
#: keeps them unscaled too.
GAUGE_REF_S = 2.7e-3
#: Wall time between gauge samples.  They are taken between ops, so that
#: the gauge sees the same fast and slow stretches of the host as the ops.
GAUGE_EVERY_S = 0.2
#: Wall time after which a run's rounds stop early, at a round's end (half
#: of it for the untraced pass of a traced run), so that a run on a far
#: slower machine still ends within three minutes, with fewer ops than the
#: same seed gives elsewhere.
WALL_CAP_S = 120.0
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.u_calls": "count/round",
    "core.u_s": "s/round",
    "core.validate_calls": "count/round",
    "core.validate_s": "s/round",
    "analytic.renewal_calls": "count/round",
    "analytic.renewal_self_s": "s/round",
    "analytic.renewal_ns_per_step": "ns",
    "analytic.closed_s": "s/round",
    "analytic.optimal_k_s": "s/round",
    "experiments.parse_s": "s",
    "cli.import_s": "s",
    "experiments.run_self_s": "s/round",
    "experiments.csv_rows_per_s": "1/s",
    "experiments.plot_s": "s/round",
    "experiments.optimal_k_report_s": "s/round",
    "cli.sweep_s": "s/round",
    "cli.optimal_k_s": "s/round",
    "simulator.flat_cycles_per_s": "1/s",
    "simulator.clustered_cycles_per_s": "1/s",
    "simulator.trajectory_events_per_s": "1/s",
    "analytic.max_closed_oracle_diff": "prob",
    "simulator.max_abs_z": "sigma",
    "simulator.stderr_to_spread": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


@dataclass
class Pass:
    """Ops executed by one pass, with their timings and check outcomes."""

    rounds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: int = 0
    gauge: list = field(default_factory=list)
    accuracy: workloads.Accuracy = field(default_factory=workloads.Accuracy)

    @property
    def keys(self) -> list[str]:
        return [op.key for ops in self.rounds for op in ops]

    def best_latencies(self) -> list[float]:
        """Each slot's lowest latency over the pass's rounds.  Every round
        runs the same ops in the same order (with fresh Monte Carlo seeds
        and rescaled rates), and the shared host only ever slows an op
        down, so the best of the rounds is the op's cost on an undisturbed
        machine."""
        size = len(self.rounds[0])
        by_round = [self.latencies[i : i + size] for i in range(0, len(self.latencies), size)]
        return [min(slot) for slot in zip(*by_round)]


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    unexplained: list
    record: dict
    passes: list

    @property
    def correct(self) -> bool:
        return not self.unexplained

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def run_pass(
    source,
    p: Pass,
    rounds: int,
    tracer: Tracer | None = None,
    wall_cap_s: float = math.inf,
    after_round=None,
) -> Pass:
    """Execute ``rounds`` whole rounds from ``source`` (fewer if it ends,
    or if the pass has run for ``wall_cap_s`` seconds of wall time).
    ``after_round(index)`` runs after each round, outside all timing."""
    start = last_gauge = time.perf_counter()
    p.gauge.append(gauge_s())
    for index, ops in enumerate(itertools.islice(source, rounds)):
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.op(op.kind):
                        out = op.run()
            except Exception:
                p.latencies.append(time.perf_counter() - t0)
                found = [workloads.Failure("raised", f"{op.key}: {traceback.format_exc()}")]
            else:
                p.latencies.append(time.perf_counter() - t0)
                if tracer is None:
                    found = op.check(out, p.accuracy)
                else:
                    with tracer.suspended():
                        found = op.check(out, p.accuracy)
            p.failures += found
            p.failed_ops += bool(found)
            if time.perf_counter() - last_gauge >= GAUGE_EVERY_S:
                p.gauge.append(gauge_s())
                last_gauge = time.perf_counter()
        p.rounds.append(ops)
        if after_round is not None:
            after_round(index)
        if time.perf_counter() - start >= wall_cap_s:
            break
    return p


class SetupProbes:
    """Set-up phases reported by :mod:`setup_probe`, each sample from a
    fresh interpreter.  The first sample, which warms the file cache, is
    dropped; the others are spread evenly over the run's rounds."""

    def __init__(self, workload: str, seed: int, scratch: Path, repeats: int, rounds: int):
        probe = Path(__file__).with_name("setup_probe.py")
        self.argv = [sys.executable, str(probe), workload, str(seed), str(scratch)]
        self.repeats = repeats
        self.rounds = rounds
        self.samples = []
        self._take()
        self.samples.clear()

    def _take(self) -> None:
        done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def after_round(self, index: int) -> None:
        while len(self.samples) < (index + 1) * self.repeats // self.rounds:
            self._take()

    def medians(self) -> dict:
        while len(self.samples) < self.repeats:
            self._take()
        return {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}


def _machine() -> dict:
    import numpy
    import platform

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def gauge_s() -> float:
    """Time of a fixed pure-Python loop of a few milliseconds.  Run between
    ops, outside their timing, it tracks how fast the host let this process
    run; no code of gossipfresh runs in it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0


def _commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    min_ops: int = MIN_OPS,
    setup_repeats: int = SETUP_REPEATS,
) -> Result:
    """One run of ``workload``; see the module docstring."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        ctx = workloads.Context.load(ROOT, scratch)
        source = workloads.rounds(workload, seed, ctx, scale)
        first = next(source)
        n_rounds = max(math.ceil(min_ops / len(first)), round(seconds / workloads.ROUND_SECONDS[workload]))
        if trace:
            n_rounds = max(1, n_rounds // 2)
        probes = SetupProbes(workload, seed, scratch, setup_repeats, n_rounds)
        try:
            first[0].run()  # warm-up, untimed; the timed pass runs and checks it again
        except Exception:
            pass

        def all_rounds():
            yield first
            yield from source

        if not trace:
            timed = run_pass(all_rounds(), Pass(), n_rounds, wall_cap_s=WALL_CAP_S, after_round=probes.after_round)
            passes = [timed]
            setup = probes.medians()
            best = timed.best_latencies()
            unscaled = {
                "ops_per_s": len(best) / sum(best),
                "op_ms_p50": 1e3 * statistics.median(best),
                "op_ms_p90": 1e3 * statistics.quantiles(best, n=10)[8],
            }
            to_ref = GAUGE_REF_S / min(timed.gauge)
            metrics = {
                "setup_s": setup["setup_s"],
                "ops_per_s": unscaled["ops_per_s"] / to_ref,
                "op_ms_p50": unscaled["op_ms_p50"] * to_ref,
                "op_ms_p90": unscaled["op_ms_p90"] * to_ref,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            scaling = {"unscaled": unscaled, "to_reference_speed": to_ref}
            units = END_TO_END_UNITS
        else:
            plain = run_pass(all_rounds(), Pass(), n_rounds, wall_cap_s=WALL_CAP_S / 2, after_round=probes.after_round)
            setup = probes.medians()
            scaling = {}
            tracer = Tracer()
            layers.instrument(tracer)
            try:
                timed = run_pass(iter(plain.rounds), Pass(), len(plain.rounds), tracer)
            finally:
                tracer.uninstall()
            passes = [plain, timed]
            acc = timed.accuracy
            metrics = layers.metrics(tracer, len(timed.rounds))
            metrics.update(
                {
                    "experiments.parse_s": setup["parse_s"],
                    "cli.import_s": setup["import_s"],
                    "analytic.max_closed_oracle_diff": acc.max_closed_oracle_diff,
                    "simulator.max_abs_z": acc.max_abs_z,
                    "simulator.stderr_to_spread": acc.stderr_to_spread(),
                    "bench.trace_overhead_frac": sum(timed.best_latencies()) / sum(plain.best_latencies()) - 1.0,
                }
            )
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    failures = timed.failures
    attempted = len(timed.latencies)
    failed = timed.failed_ops
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(timed.rounds),
        "rounds_planned": n_rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": dict(Counter(f.kind for f in failures)),
        "unexplained": [f.detail for f in failures if not f.explained][:5],
        "setup": setup,
        "gauge_ms": 1e3 * statistics.median(timed.gauge),
        "gauge_ms_best": 1e3 * min(timed.gauge),
        **scaling,
        "commit": _commit(),
        "src_lines": _src_lines(),
        "machine": _machine(),
    }
    return Result(
        metrics={name: (metrics[name], unit) for name, unit in units.items()},
        attempted=attempted,
        failed=failed,
        unexplained=[f.detail for f in failures if not f.explained],
        record=record,
        passes=passes,
    )
