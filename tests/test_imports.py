"""The package surface, and which modules each step loads.

`import recur` loads no submodule; a public name loads its home module on
first use.  Only `verify` loads numpy; every other command runs without it.
No step loads `dataclasses` or `inspect`: recur's records are NamedTuples
and small classes, which generate no code at import.
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
    assert json.loads(run_fresh(code)) == [61, []]


def test_unknown_name_raises_attribute_error():
    import recur

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        recur.no_such_name
    assert not hasattr(recur, "cli_main")
    with pytest.raises(ImportError):
        from recur import no_such_name  # noqa: F401
