"""The benchmark's tracer finds every callable it wraps.

`bench/tracing.py` wraps package callables by name, so a renamed or
removed one fails only a traced benchmark round.  These tests load the
tracer as it is, without installing it, and look each target up the way
`tracing.install` does; one installs it in a separate interpreter, so the
wrappers stay out of this one, and checks that every command reaches the
layers the tracer requires of it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# Installs the tracer in a fresh interpreter, runs each command once and
# prints, per command, the layers it must reach and did not.
_REACHED = r"""
import json, sys
from collections import Counter
import tracing
from icsheaf import cli
tracer = tracing.Tracer()
tracing.install(tracer)
missing = {}
for command in sorted(tracing.REACHES):
    argv = [command, "demo:wedge"]
    before = Counter(tracer.calls)
    cli.run(argv + ["--out", sys.argv[1]])
    reached = {name for name, n in tracer.calls.items() if n > before[name]}
    missing[command] = sorted(tracing.required_layers([argv]) - reached)
print(json.dumps(missing))
"""


def test_every_command_reaches_its_traced_layers(tmp_path):
    # a traced benchmark round is correct only if its jobs reach every layer
    # `required_layers` names; each report-writing command must do so alone
    root = TRACING.parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "bench"),
                            os.environ.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, "-c", _REACHED, str(tmp_path / "o")],
                       env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    missing = json.loads(r.stdout.splitlines()[-1])
    assert len(missing) == 11
    assert not {c: m for c, m in missing.items() if m}, missing
