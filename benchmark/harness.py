"""Closed-loop runner: whole rounds of operations, one at a time.

A run repeats its workload's round of operations until ``seconds`` of wall
time have passed, always finishing the round it is in, so every run
attempts whole rounds and the share of failed operations is the same in
every run.  Outputs are checked after the timed part, so the checks'
memory does not count toward the peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import CheckError, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_STARTS = 5


@dataclass
class Outcome:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """One operation.  ``argv(r)`` gives the CLI arguments for round r;
    ``call(r)`` instead runs a library call and returns its result as text.
    ``check(outcome, r, ctx)`` raises CheckError on a wrong answer; ops whose
    input changes per round (``varies``) are checked every round, the others
    on round 0 and compared byte for byte afterwards."""

    label: str
    check: Callable
    argv: Callable[[int], list[str]] | None = None
    call: Callable[[int], str] | None = None
    expect: int = 0
    varies: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[Path]
    fresh_process: bool = False
    probe: str = "python"  # the clock's probe kernel, see clock.PROBES
    prepare: Callable[[], None] | None = None
    env: dict[str, str] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env, on_first_line=None) -> tuple[Outcome, int]:
    """Run a child to its end; returns its outcome and peak RSS in KiB.
    ``on_first_line`` is called as soon as the child's first line arrives."""
    with open(WORK_ROOT / "child.err", "w+b") as err_file:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err_file
        )
        first = proc.stdout.readline()
        if on_first_line is not None:
            on_first_line()
        out = first + proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return Outcome(proc.returncode, out.decode(), err.decode()), usage.ru_maxrss


def call_main(argv: list[str]) -> Outcome:
    """recur.cli.main in this process, with stdout and stderr captured."""
    import recur.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = recur.cli.main(argv)
        except Exception:  # an uncaught error is what a user would see
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue())


def call_direct(fn, r: int) -> Outcome:
    try:
        return Outcome(0, fn(r), "")
    except Exception:
        return Outcome(1, "", traceback.format_exc())


def measure_setup(wl: Workload, clock, trace: bool) -> tuple[float, float]:
    """Median seconds from a fresh interpreter to ready (recur imported,
    inputs read), and the median in-child import time in ms (traced only)."""
    manifest = WORK_ROOT / wl.name / "manifest.json"
    manifest.write_text(json.dumps([str(p) for p in wl.inputs]))
    cmd = [sys.executable, str(BENCH / "child.py"), "setup", str(manifest)]
    if trace:
        cmd.append("--trace")
    env = child_env()
    run_child(cmd, env)  # writes the bytecode caches a user's first run would
    times, imports = [], []
    for _ in range(SETUP_STARTS):
        clock.resample()
        start = clock.now()
        ready: list[float] = []
        outcome, _ = run_child(cmd, env, lambda: ready.append(clock.now()))
        if outcome.code != 0:
            raise RuntimeError(f"setup child failed:\n{outcome.err}")
        times.append(ready[0] - start)
        imports.append(float(outcome.out.split()[1]))
    return statistics.median(times), statistics.median(imports)


def peak_rss_self_kib() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(wl: Workload, seconds: float, clock, tracer=None) -> dict:
    """Timed rounds, then checks; returns the raw tallies."""
    env = child_env()
    os.environ.update(wl.env)
    records: list[tuple[int, Op, float, float, bool]] = []
    first: dict[str, Outcome] = {}
    seen: dict[str, str] = {}
    later: list[tuple[int, Op, Outcome]] = []
    problems: list[str] = []
    child_rss = 0
    stdout_bytes = 0
    start_raw = clock.raw()
    rounds = 0
    while rounds == 0 or clock.raw() - start_raw < seconds:
        r = rounds
        for op in wl.ops:
            clock.resample()
            t0, w0 = clock.now(), clock.raw()
            if wl.fresh_process:
                outcome, rss = run_fresh(op.argv(r), env, tracer)
                child_rss = max(child_rss, rss)
            else:
                if tracer:
                    tracer.active = True
                outcome = call_direct(op.call, r) if op.call else call_main(op.argv(r))
                if tracer:
                    tracer.active = False
            dt, dw = clock.now() - t0, clock.raw() - w0
            ok = outcome.code == op.expect
            records.append((r, op, dt, dw, ok))
            if op.call is None:
                stdout_bytes += len(outcome.out.encode())
            if not ok:
                continue
            if r == 0 or op.label not in first:
                first[op.label] = outcome
                seen[op.label] = digest(outcome.out)
            elif op.varies:
                later.append((r, op, outcome))
            elif digest(outcome.out) != seen[op.label]:
                problems.append(f"{op.label}: output differs between rounds")
        rounds += 1
    peak_kib = child_rss if wl.fresh_process else peak_rss_self_kib()

    # Checks get the round-0 outcomes of every operation as ``ctx``, so one
    # output can be checked against another.
    for op in wl.ops:
        if op.label in first:
            problems += _check(op, first[op.label], 0, first)
    for r, op, outcome in later:
        problems += _check(op, outcome, r, first)
    return {
        "records": records,
        "rounds": rounds,
        "peak_kib": peak_kib,
        "problems": problems,
        "stdout_bytes": stdout_bytes,
    }


def _check(op: Op, outcome: Outcome, r: int, ctx: dict) -> list[str]:
    try:
        op.check(outcome, r, ctx)
    except CheckError as exc:
        return [f"{op.label} (round {r}): {exc}"]
    except Exception:
        return [f"{op.label} (round {r}): check crashed\n{traceback.format_exc()}"]
    return []


def run_fresh(argv: list[str], env, tracer) -> tuple[Outcome, int]:
    """``python -m recur.cli ...`` in a fresh interpreter; traced runs go
    through child.py, which wraps the same main() and reports its totals."""
    if tracer is None:
        return run_child([sys.executable, "-m", "recur.cli", *argv], env)
    totals = WORK_ROOT / "child_trace.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "op", str(totals), "--", *argv]
    result = run_child(cmd, env)
    tracer.merge(json.loads(totals.read_text()))
    return result


def summarize(tally: dict) -> dict:
    """End-to-end figures from the records of operations that did not fail."""
    ok = [rec for rec in tally["records"] if rec[4]]
    per_round: dict[int, list[float]] = {}
    per_round_raw: dict[int, list[float]] = {}
    for r, _, dt, dw, _ in ok:
        per_round.setdefault(r, []).append(dt)
        per_round_raw.setdefault(r, []).append(dw)
    by_label: dict[str, list[float]] = {}
    for _, op, dt, _, _ in ok:
        by_label.setdefault(op.label, []).append(dt)
    ops_per_round = len(ok) / tally["rounds"]
    return {
        "ops_per_s": ops_per_round / statistics.median(sum(v) for v in per_round.values()),
        "op_ms.p50": statistics.median(rec[2] for rec in ok) * 1e3,
        "raw_ops_per_s": ops_per_round
        / statistics.median(sum(v) for v in per_round_raw.values()),
        "raw_op_ms.p50": statistics.median(rec[3] for rec in ok) * 1e3,
        "peak_rss_mb": tally["peak_kib"] / 1024,
        "by_label": {
            label: round(statistics.median(ts) * 1e3, 3)
            for label, ts in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1]))
        },
    }
