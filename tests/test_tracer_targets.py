"""The traced benchmark run wraps recur's functions by name; keep them there."""

import importlib
import importlib.util
import json
from collections.abc import Mapping
from pathlib import Path

from conftest import run_fresh
from recur.builtins import builtin_spec
from recur.expansion import unroll

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    for module_name, attr, cls_name, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), (module_name, cls_name, attr)


def test_import_cli_alone_loads_every_target_module():
    # Tracer.install looks each target's module up in sys.modules right
    # after `import recur.cli`; importing it on demand here would hide a
    # module that only loads lazily.
    loaded = json.loads(
        run_fresh("import json, sys, recur.cli; print(json.dumps(list(sys.modules)))")
    )
    missing = {t[0] for t in _load_tracer().TARGETS} - set(loaded)
    assert not missing


def test_unroll_components_is_a_mapping():
    # The tracer's unroll_terms counter reads result.components.
    components = unroll(builtin_spec("resnet"), 3).components
    assert isinstance(components, Mapping)
    assert sum(len(p) for p in components.values()) == 8
