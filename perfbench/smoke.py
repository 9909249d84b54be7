"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks that each metric named in BENCHMARK.json is emitted with its unit,
that two runs of one seed make the same ops and the same attempted and
failed counts, that a traced run replays exactly the ops of its untraced
pass and that both follow the op list an untraced run of the same seed
makes, that no
run leaves a file behind in the repository tree, that the command prints
its result as the last line of stdout, and that it exits non-zero without
a result where there is no source tree.  Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, use_source_tree

use_source_tree()
import bench  # noqa: E402

TINY = {"scale": 0.1, "min_ops": 1, "setup_repeats": 1}
SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
SEED = 7


def _tree() -> list[str]:
    return sorted(
        str(p.relative_to(ROOT))
        for p in ROOT.rglob("*")
        if not SKIP.intersection(p.relative_to(ROOT).parts)
    )


def _fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def _check_metrics(label: str, result, wanted: dict) -> None:
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    if got != wanted:
        _fail(f"{label}: metrics {got} != BENCHMARK.json {wanted}")
    for name, (value, _) in result.metrics.items():
        if not isinstance(value, float) or not math.isfinite(value):
            _fail(f"{label}: {name} = {value!r} is not a finite float")
    if not result.correct:
        _fail(f"{label}: unexplained failures {result.unexplained[:3]}")


def _run_command(cwd: Path, seconds: int = 1):
    argv = [sys.executable, "perfbench/run.py", "--workload", "sweep_exact", "--seed", "3"]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    before = _tree()

    for workload in (w["name"] for w in spec["workloads"]):
        plain = bench.measure(workload, SEED, 0.2, False, **TINY)
        traced = bench.measure(workload, SEED, 0.4, True, **TINY)
        _check_metrics(f"{workload} trace=0", plain, end_to_end)
        _check_metrics(f"{workload} trace=1", traced, per_layer)
        untraced_pass, traced_pass = traced.passes
        if untraced_pass.keys != traced_pass.keys:
            _fail(f"{workload}: the traced pass did not replay the untraced ops")
        again = bench.measure(workload, SEED, 0.2, False, **TINY)
        if (again.attempted, again.failed, again.passes[0].keys) != (plain.attempted, plain.failed, plain.passes[0].keys):
            _fail(f"{workload}: two runs of seed {SEED} made different ops or op counts")
        plain_keys = plain.passes[0].keys
        n = min(len(plain_keys), len(untraced_pass.keys))
        if n == 0 or plain_keys[:n] != untraced_pass.keys[:n]:
            _fail(f"{workload}: traced and untraced runs of seed {SEED} made different op lists")
        print(f"ok {workload}: {len(plain_keys)} ops untraced, {len(traced_pass.keys)} traced")

    done = _run_command(ROOT)
    if done.returncode != 0:
        _fail(f"command exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < bench.MIN_OPS:
        _fail(f"command printed {result}")
    print(f"ok command: {result['attempted']} ops, correct={result['correct']}")

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_command(bare)
    finally:
        shutil.rmtree(bare)
        (ROOT / ".perfbench_tmp").rmdir()
    if done.returncode == 0 or done.stdout.strip():
        _fail(f"without src/ the command exited {done.returncode} and printed {done.stdout!r}")
    print(f"ok without src/: exit {done.returncode}")

    if _tree() != before:
        _fail(f"files left behind: {sorted(set(_tree()) ^ set(before))}")
    print("ok tree unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
