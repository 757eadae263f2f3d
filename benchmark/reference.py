"""Reference figures for README.md, each from fresh interpreters:

  python3 benchmark/reference.py

* derivative(resnet, 18, 0): seconds, terms, peak RSS of the process;
* import recur.cli, and the part of it that is numpy.

Times are printed raw and at reference speed (see clock.py), each the
median of five fresh processes pinned to one CPU.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CHILD = r"""
import json, resource, sys, time
sys.path[:0] = [{bench!r}, {src!r}]
from clock import SpeedClock
clock = SpeedClock().start()
t0, r0 = clock.now(), clock.raw()
import numpy
t1, r1 = clock.now(), clock.raw()
import recur.cli
t2, r2 = clock.now(), clock.raw()
from recur.builtins import builtin_spec
from recur.expansion import derivative
spec = builtin_spec("resnet")
t3, r3 = clock.now(), clock.raw()
poly = derivative(spec, 18, 0)
t4, r4 = clock.now(), clock.raw()
clock.stop()
print(json.dumps({{
    "numpy_ms": [(r1 - r0) * 1e3, (t1 - t0) * 1e3],
    "import_ms": [(r2 - r0) * 1e3, (t2 - t0) * 1e3],
    "derivative_s": [r4 - r3, t4 - t3],
    "terms": len(poly),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code = CHILD.format(bench=str(BENCH), src=str(SRC))
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True).stdout)
        for _ in range(5)
    ]
    for key in ("numpy_ms", "import_ms", "derivative_s"):
        raw = statistics.median(r[key][0] for r in runs)
        ref = statistics.median(r[key][1] for r in runs)
        print(f"{key:14s} raw {raw:9.3f}   at reference speed {ref:9.3f}")
    print(f"{'terms':14s} {runs[0]['terms']}")
    print(f"{'peak_rss_mb':14s} {statistics.median(r['peak_rss_mb'] for r in runs):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
