"""Traced memory of one `build_ic`, phase by phase.

    PYTHONPATH=src python tests/build_phases.py demo:susp-s1xs2 --field fp:32003
    PYTHONPATH=src python tests/build_phases.py path/to/space --field q

The space is `demo:<name>` or a directory holding `complex.json` and
`stratification.json`, read by `cli.load_space` (a demo's files are
written to a temporary directory first), so an input the CLI refuses
exits 1 with one `error:` line here too.  The build runs canonically under
`tracemalloc`, and a line is printed at each mark: in every pushforward
step, before its nerve complex, once the nerve complex and its unit
columns are assembled, after the same-support cleanup and after the
pushforward returns; then before and after verification.  Each line gives
the MiB live at the mark and the peak since the previous mark.  The last
lines give each phase's highest peak over the steps and the build's peak.
Then, with the bundle held, the build's report is written to a temporary
directory as `test_build_report_stays_below_the_build_peak` writes it,
after a collection, and the report's peak and the report/build ratio are
printed: that test asserts the ratio is below 1 for its five cases.
A script, not a test: it prints and asserts nothing, and exits nonzero
only on a refused input or a crash.
"""

import argparse
import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path

from icsheaf import cli, deligne, reports, sections
from icsheaf.fields import field_by_name
from icsheaf.reduction import SparseComplex

# the phase that ends at each mark
PHASES = {"before nerve complex": "truncation and sum",
          "assembled": "nerve assembly",
          "after cleanup": "cleanup",
          "after pushforward": "materialization",
          "before verification": "truncation and sum",
          "after verification": "verification"}


def mib(n):
    return n / 2 ** 20


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("space", help="demo:<name> or a directory with the space's files")
    p.add_argument("--field", default="q", help="q or fp:<p>")
    args = p.parse_args()
    # read as the CLI reads it, so a bad input ends in one error line
    try:
        F = field_by_name(args.field)
        with tempfile.TemporaryDirectory() as tmp:
            strat = cli.load_space(argparse.Namespace(space=args.space, out=tmp))[1]
    except (cli.InputError, ValueError, OSError) as e:
        sys.exit("error: %s" % e)

    marks = []  # (step, mark, live, peak since the previous mark)
    state = {"step": 0, "nerve": False}

    def mark(name):
        live, peak = tracemalloc.get_traced_memory()
        marks.append((state["step"], name, live, peak))
        tracemalloc.reset_peak()

    real_nerve, real_reduce = sections._nerve_complex, SparseComplex.reduce
    real_push, real_verify = sections.pushforward_open, deligne._verify_bundle

    def nerve(*args):
        mark("before nerve complex")
        state["nerve"] = True
        return real_nerve(*args)

    def reduce(G, same_support=False):
        cleanup = same_support and state["nerve"]
        if cleanup:
            state["nerve"] = False
            mark("assembled")
        real_reduce(G, same_support)
        if cleanup:
            mark("after cleanup")

    def push(S, V):
        state["step"] += 1
        out = real_push(S, V)
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
        bundle = deligne.build_ic(strat, field=F)
        gc.collect()
        tracemalloc.reset_peak()
        with tempfile.TemporaryDirectory() as tmp:
            reports.write_report(Path(tmp) / "ic-bundle.json", {}, reports.bundle_doc(bundle))
            report_peak = tracemalloc.get_traced_memory()[1]
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
    build_peak = max(peak for *_, peak in marks)
    print("build_ic peak  %.2f" % mib(build_peak))
    print("report peak  %.2f" % mib(report_peak))
    print("report/build  %.3f" % (report_peak / build_peak))


if __name__ == "__main__":
    main()
