"""Traced memory of one `build_ic`, phase by phase.

    PYTHONPATH=src python tests/build_phases.py demo:susp-s1xs2 --field fp:32003
    PYTHONPATH=src python tests/build_phases.py path/to/space --field q

The space is `demo:<name>` or a directory holding `complex.json` and
`stratification.json`, as for the CLI.  The build runs canonically under
`tracemalloc`, and a line is printed at each mark: in every pushforward
step, before its nerve complex, once the nerve complex and its family
columns are assembled, after the same-support cleanup and after the
pushforward returns; then before and after verification.  Each line gives
the MiB live at the mark and the peak since the previous mark.  The last
lines give each phase's highest peak over the steps and the build's peak.
A script, not a test: it prints and checks nothing.
"""

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

from icsheaf import deligne, demos, sections
from icsheaf.fields import field_by_name
from icsheaf.reduction import SparseComplex
from icsheaf.simplicial import load_complex
from icsheaf.stratify import validate_stratification

# the phase that ends at each mark
PHASES = {"before nerve complex": "truncation and sum",
          "assembled": "nerve assembly",
          "after cleanup": "cleanup",
          "after pushforward": "materialization",
          "before verification": "truncation and sum",
          "after verification": "verification"}


def load(space):
    if space.startswith("demo:"):
        K, doc = demos.demo_space(space[5:])
    else:
        base = Path(space)
        K = load_complex(json.loads((base / "complex.json").read_text()))
        doc = json.loads((base / "stratification.json").read_text())
    return validate_stratification(K, doc["levels"])


def mib(n):
    return n / 2 ** 20


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("space", help="demo:<name> or a directory with the space's files")
    p.add_argument("--field", default="q", help="q or fp:<p>")
    args = p.parse_args()
    strat, F = load(args.space), field_by_name(args.field)

    marks = []  # (step, mark, live, peak since the previous mark)
    state = {"step": 0, "nerve": False}

    def mark(name):
        live, peak = tracemalloc.get_traced_memory()
        marks.append((state["step"], name, live, peak))
        tracemalloc.reset_peak()

    real_nerve, real_reduce = sections._nerve_complex, SparseComplex.reduce
    real_push, real_verify = sections.pushforward_open, deligne._verify_bundle

    def nerve(S, chains):
        mark("before nerve complex")
        state["nerve"] = True
        return real_nerve(S, chains)

    def reduce(G, same_support=False):
        cleanup = same_support and state["nerve"]
        if cleanup:
            state["nerve"] = False
            mark("assembled")
        real_reduce(G, same_support)
        if cleanup:
            mark("after cleanup")

    def push(S, V, cleanup=True):
        state["step"] += 1
        out = real_push(S, V, cleanup)
        mark("after pushforward")
        return out

    def verify(bundle):
        mark("before verification")
        real_verify(bundle)
        mark("after verification")

    sections._nerve_complex, SparseComplex.reduce = nerve, reduce
    sections.pushforward_open, deligne._verify_bundle = push, verify
    gc.collect()
    tracemalloc.start()
    try:
        deligne.build_ic(strat, field=F)
    finally:
        tracemalloc.stop()

    print("build_ic %s over %s, Python %s, traced MiB"
          % (args.space, F.name, sys.version.split()[0]))
    print("%-4s  %-20s  %7s  %7s" % ("step", "mark", "live", "peak"))
    phase = {}
    for step, name, live, peak in marks:
        print("%-4s  %-20s  %7.2f  %7.2f" % (step, name, mib(live), mib(peak)))
        what = PHASES[name]
        phase[what] = max(phase.get(what, 0), peak)
    for what, peak in phase.items():
        print("phase peak  %-18s  %7.2f" % (what, mib(peak)))
    print("build_ic peak  %.2f" % mib(max(peak for *_, peak in marks)))


if __name__ == "__main__":
    main()
