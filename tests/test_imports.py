"""Only `verify` loads numpy; every other command runs without it."""

import json

from conftest import run_fresh

NUMPY_FREE = (
    ["parse", "--builtin", "newarch"],
    ["expand", "--builtin", "resnet", "-L", "4"],
    ["census", "--builtin", "resnet", "-L", "5", "--check", "binomial"],
    ["chain-identity", "--builtin", "newarch", "-L", "6"],
    ["graph", "--builtin", "resnet", "-L", "4"],
    ["equiv", "resnet", "newarch", "-L", "4", "--structural"],
    ["stats", "table1"],
)

# Prints one JSON object: after each step, whether numpy was loaded.
PROBE = """
import contextlib, io, json, sys
loaded = {}
import recur
loaded["import recur"] = "numpy" in sys.modules
import recur.cli
loaded["import recur.cli"] = "numpy" in sys.modules
for argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        recur.cli.main(argv)
    loaded[" ".join(argv)] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_symbolic_commands_never_load_numpy():
    loaded = json.loads(run_fresh(PROBE.replace("COMMANDS", repr(NUMPY_FREE))))
    assert len(loaded) == len(NUMPY_FREE) + 2
    assert not any(loaded.values()), loaded


def test_verify_loads_numpy_and_passes():
    code = (
        "import contextlib, io, sys\n"
        "from recur.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', '--builtin', 'newarch', '-L', '4'])\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(code).split() == ["0", "True"]


def test_every_export_resolves():
    import recur

    assert len(set(recur.__all__)) == len(recur.__all__)
    missing = [name for name in recur.__all__ if not hasattr(recur, name)]
    assert not missing, missing


def test_star_import_binds_exactly_all():
    code = (
        "from recur import *\n"
        "import recur\n"
        "names = {n for n in globals() if not n.startswith('__')} - {'recur'}\n"
        "print(sorted(names) == sorted(recur.__all__))\n"
    )
    assert run_fresh(code).split() == ["True"]
