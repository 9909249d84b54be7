"""Set-up cost in a fresh interpreter, as every CLI invocation pays it.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>

Times ``import gossipfresh.cli``, parsing the shipped configs and building
the first round of the workload's ops, and prints the three phases and
their sum as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

from run import ROOT, use_source_tree

use_source_tree()
t0 = time.perf_counter()
import gossipfresh.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
import workloads  # noqa: E402  (benchmark code, not timed)

t1 = time.perf_counter()
ctx = workloads.Context.load(ROOT, Path(sys.argv[3]))
t2 = time.perf_counter()
next(workloads.rounds(sys.argv[1], int(sys.argv[2]), ctx))
t3 = time.perf_counter()
parse_s, build_s = t2 - t1, t3 - t2
setup_s = import_s + parse_s + build_s
print(json.dumps({"import_s": import_s, "parse_s": parse_s, "build_s": build_s, "setup_s": setup_s}))
