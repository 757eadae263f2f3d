"""Benchmark of recur: one workload per run, metrics as one JSON line.

  python3 benchmark/run.py --workload paths|verify|graphs|cli \
      --seed N --seconds S --trace 0|1
  python3 benchmark/run.py --self-test
  python3 benchmark/run.py --regenerate-golden

Run from the root of a checkout; ``src`` is put on the path, nothing needs
installing.  With ``--trace 0`` the last line holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("paths", "verify", "graphs", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--regenerate-golden", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "recur" / "__init__.py").is_file():
        print(f"error: no recur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.regenerate_golden:
        from workloads import GOLDEN, regenerate_golden

        GOLDEN.write_text(json.dumps(regenerate_golden(), indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness
    from clock import SpeedClock
    from workloads import WORKLOADS

    work = harness.WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](seed, work)

    # The two vCPUs change speed independently of each other, so the speed
    # probes only describe work on the CPU they ran on: keep this process
    # and every child it starts on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = SpeedClock(wl.probe).start()
    try:
        setup_s, import_ms = harness.measure_setup(wl, clock, trace)
        tracer = None
        if not wl.fresh_process:
            import recur.cli  # noqa: F401

            if wl.prepare:
                wl.prepare()
        if trace:
            from tracer import Tracer

            tracer = Tracer(clock)
            if not wl.fresh_process:
                tracer.install()
        tally = harness.run(wl, seconds, clock, tracer)
    finally:
        clock.stop()

    attempted = len(tally["records"])
    failed = sum(1 for rec in tally["records"] if not rec[4])
    failures = sorted({rec[1].label for rec in tally["records"] if not rec[4]})
    figures = harness.summarize(tally)
    summary = {
        "workload": name,
        "seed": seed,
        "rounds": tally["rounds"],
        "failed_ops": failures,
        "problems": tally["problems"],
        "raw_ops_per_s": round(figures["raw_ops_per_s"], 4),
        "raw_op_ms.p50": round(figures["raw_op_ms.p50"], 4),
        "speed_corrected_ops_per_s": round(figures["ops_per_s"], 4),
        "speed_corrected_op_ms.p50": round(figures["op_ms.p50"], 4),
        "op_ms_by_label": figures["by_label"],
    }
    print(json.dumps(summary), file=sys.stderr)

    if trace:
        metrics = tracer.per_round(tally["rounds"])
        metrics["cli.import_ms"]["value"] = round(import_ms, 6)
        metrics["cli.stdout_bytes"]["value"] = tally["stdout_bytes"] / tally["rounds"]
    else:
        metrics = {
            "ops_per_s": {"value": figures["ops_per_s"], "unit": "1/s"},
            "op_ms.p50": {"value": figures["op_ms.p50"], "unit": "ms"},
            "peak_rss_mb": {"value": figures["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not tally["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (harness.WORK_ROOT / f"result-{name}{'-trace' if trace else ''}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
