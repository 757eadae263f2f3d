"""Fresh-interpreter helper for the benchmark.

  child.py setup MANIFEST [--trace]
      Import recur.cli and read the workload's .rf/.csv inputs, then print
      "ready <import ms>".  The parent times this from process start to the
      line; it is the workload's set-up time.
  child.py op TOTALS -- ARGV...
      Run recur.cli.main(ARGV) traced, as ``python -m recur.cli ARGV``
      would, and write the per-layer totals to TOTALS.

``src`` must be on PYTHONPATH.
"""

import sys
import time

_t0 = time.perf_counter()


def setup(manifest: str, trace: bool) -> int:
    import json

    clock = None
    if trace:
        from clock import SpeedClock

        clock = SpeedClock().start()
        start = clock.now()
    import recur.cli  # noqa: F401
    from recur.parser import parse_file
    from recur.stats import load_table

    if clock:
        import_ms = (clock.now() - start) * 1e3
        clock.stop()
    else:
        import_ms = (time.perf_counter() - _t0) * 1e3
    with open(manifest, encoding="utf-8") as fh:
        for path in json.load(fh):
            (load_table if path.endswith(".csv") else parse_file)(path)
    print(f"ready {import_ms:.3f}", flush=True)
    return 0


def traced_op(totals_path: str, argv: list[str]) -> int:
    import contextlib
    import io
    import json

    from clock import SpeedClock
    from tracer import Tracer

    clock = SpeedClock().start()
    import recur.cli

    tracer = Tracer(clock)
    tracer.install()
    out = io.StringIO()
    tracer.active = True
    with contextlib.redirect_stdout(out):
        code = recur.cli.main(argv)
    tracer.active = False
    clock.stop()
    sys.stdout.write(out.getvalue())
    with open(totals_path, "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.totals), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2], "--trace" in sys.argv[3:]))
    sys.exit(traced_op(sys.argv[2], sys.argv[sys.argv.index("--") + 1 :]))
