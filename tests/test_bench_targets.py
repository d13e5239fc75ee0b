"""The benchmark's tracer finds every callable it wraps.

`bench/tracing.py` wraps package callables by name, so a renamed or
removed one fails only a traced benchmark round.  These tests load the
tracer as it is, without installing it, and look each target up the way
`tracing.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("icsheaf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # a module attribute, or an entry of a class's own __dict__
    tracing = _load_tracing()
    missing = []
    for modname, attr, _ in tracing.TARGETS:
        home = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(home, cls_name, type))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append((modname, attr))
    assert not missing, missing


def test_up_set_keeps_cache_statistics():
    tracing = _load_tracing()
    importlib.import_module("icsheaf.simplicial")
    info = tracing._up_set().cache_info()
    assert info.misses >= 0 and info.currsize >= 0
