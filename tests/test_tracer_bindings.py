"""The benchmark tracer (`perfbench/tracer.py`) wraps geomcover functions by
module and attribute name. A rename in `src` would otherwise surface only in
a traced benchmark run, so the tracer's tables are checked here: the file is
loaded on its own, without installing anything."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    bindings = [(mod, attr) for mod, attr, _, _ in tracer.SPANNED]
    bindings += [(mod, attr) for mod, attr, _ in tracer.COUNTED]
    assert bindings
    missing = [(mod, attr) for mod, attr in bindings
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, missing
    inclusion_exclusion = importlib.import_module("geomcover.inclusion_exclusion")
    assert callable(inclusion_exclusion.CoverableCounter.__init__)
