"""The package surface, and which modules each step loads.

`import recur` loads no submodule; a public name loads its home module on
first use.  `import recur.cli` runs only `errors`: it registers every other
module in `sys.modules` and on the package, and each runs on its first
attribute read, so a fresh process runs only the modules its command reads.
Only `verify` runs `numeric` and loads numpy; only `graph` and `equiv
--structural` run `archgraph`; only `stats` runs `stats`.  No step loads
`dataclasses` or `inspect`: recur's records are NamedTuples and small
classes, which generate no code at import.
"""

import json

import pytest

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

# Prints one JSON object: after each step, whether numpy was loaded and
# which recur modules have run.  A registered module that has not run is
# still a lazy subclass of ModuleType; the type check reads none of
# its attributes, so it runs none.
PROBE = """
import contextlib, io, json, sys, types
loaded = {}
def record(step):
    ran = sorted(
        name for name, m in sys.modules.items()
        if name.startswith("recur.") and type(m) is types.ModuleType
    )
    loaded[step] = ["numpy" in sys.modules, ran]
import recur
record("import recur")
import recur.cli
record("import recur.cli")
for argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        recur.cli.main(argv)
    record(" ".join(argv))
print(json.dumps(loaded))
"""


def _probe(commands):
    return json.loads(run_fresh(PROBE.replace("COMMANDS", repr(commands))))


def test_symbolic_commands_never_load_numpy():
    loaded = _probe(NUMPY_FREE)
    assert len(loaded) == len(NUMPY_FREE) + 2
    assert not any(numpy for numpy, _ in loaded.values()), loaded


SYMBOLIC = {"algebra", "builtins", "errors", "expansion", "parser"}

# Each command, in a fresh process: every recur module it runs, cli aside.
RUNS = (
    (["parse", "--builtin", "newarch"], SYMBOLIC - {"expansion"}),
    (["stats", "table1"], {"builtins", "data", "errors", "stats"}),
    (["stats", "table2", "--format", "json"],
     {"algebra", "builtins", "data", "errors", "stats"}),
    (["expand", "--builtin", "resnet", "-L", "4"], SYMBOLIC),
    (["census", "--builtin", "resnet", "-L", "5", "--check", "binomial"], SYMBOLIC),
    (["chain-identity", "--builtin", "newarch", "-L", "6"], SYMBOLIC),
    (["equiv", "resnet", "newarch", "-L", "4"], SYMBOLIC),
    (["graph", "--builtin", "resnet", "-L", "4"],
     SYMBOLIC - {"expansion"} | {"archgraph"}),
    (["equiv", "resnet", "newarch", "-L", "4", "--structural"],
     SYMBOLIC | {"archgraph"}),
    (["verify", "--builtin", "newarch", "-L", "4"], SYMBOLIC | {"numeric"}),
)


def test_import_cli_runs_errors_alone():
    loaded = _probe([])
    assert loaded == {"import recur": [False, []],
                      "import recur.cli": [False, ["recur.cli", "recur.errors"]]}


@pytest.mark.parametrize("argv, ran", RUNS, ids=[" ".join(a) for a, _ in RUNS])
def test_each_command_runs_only_the_modules_it_reads(argv, ran):
    loaded = _probe([argv])
    expected = sorted(f"recur.{name}" for name in ran | {"cli"})
    assert loaded[" ".join(argv)] == [argv[0] == "verify", expected]


def test_parser_is_built_once_on_the_first_main_call():
    # Counts every ArgumentParser made: the top-level one has prog "recur",
    # each subcommand's "recur <name>".
    code = (
        "import argparse, contextlib, io, json\n"
        "progs = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    progs.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import recur.cli\n"
        "made = [len(progs)]\n"
        "for argv in (['parse', '--builtin', 'newarch'], ['--version']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        recur.cli.main(argv)\n"
        "    made.append(len(progs))\n"
        "print(json.dumps([made, progs.count('recur')]))\n"
    )
    (at_import, first, second), tops = json.loads(run_fresh(code))
    assert at_import == 0
    assert first > 1 and second == first
    assert tops == 1


# Four threads read a registered module's attribute at once; a thread that
# reads while another runs the module must wait for it, not find it half run.
CONCURRENT_FIRST_READ = """
import json, sys, threading, recur.cli
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
errors = []
def read():
    barrier.wait()
    try:
        recur.cli.numeric.instantiate
    except AttributeError as e:
        errors.append(str(e))
threads = [threading.Thread(target=read) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps([errors, sum(t.is_alive() for t in threads)]))
"""


@pytest.mark.parametrize("run", range(3))
def test_concurrent_first_reads_wait_for_the_module(run):
    assert json.loads(run_fresh(CONCURRENT_FIRST_READ)) == [[], 0]


def test_import_cli_loads_no_code_generating_modules():
    code = (
        "import json, sys, recur.cli\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    assert json.loads(run_fresh(code)) == []


def test_shared_specs_cannot_be_changed():
    from recur.builtins import builtin_spec
    from recur.parser import render

    spec = builtin_spec("newarch")
    text = render(spec)
    rule, term, base = spec.rule, spec.rule.terms[0], spec.base_cases[1]
    for record, field in (
        (spec, "name"), (spec, "rule"), (spec, "base_cases"),
        (rule, "index_var"), (rule, "terms"),
        (term, "coeff"), (term, "lag"), (term, "source"),
        (base, "index"), (base, "terms"), (base, "is_input"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record in (spec, rule, term, base):
        with pytest.raises(AttributeError):
            record.extra = None  # no instance __dict__ either
    assert builtin_spec("newarch") is spec
    assert render(spec) == text


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


def test_import_recur_loads_no_submodule():
    code = (
        "import json, sys, recur\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('recur.'))))\n"
    )
    assert json.loads(run_fresh(code)) == []


def test_each_name_is_its_home_module_attribute():
    # Reads every name first, so a home module loads through recur itself.
    code = (
        "import json, sys, recur\n"
        "wrong = []\n"
        "for name in recur.__all__:\n"
        "    value = getattr(recur, name)\n"
        "    home = 'recur.' + recur._HOMES[name]\n"
        "    if value is not getattr(sys.modules[home], name):\n"
        "        wrong.append(name)\n"
        "    elif getattr(value, '__module__', home) != home:\n"
        "        wrong.append(name)\n"
        "print(json.dumps([len(recur.__all__), wrong]))\n"
    )
    assert json.loads(run_fresh(code)) == [60, []]


def test_unknown_name_raises_attribute_error():
    import recur

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        recur.no_such_name
    assert not hasattr(recur, "cli_main")
    with pytest.raises(ImportError):
        from recur import no_such_name  # noqa: F401
