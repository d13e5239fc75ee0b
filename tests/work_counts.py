"""Work counts as a ratchet: the same jobs must do the same work.

Runs a fixed job list through `cli.run` in one process: each demo's
canonical `build` over QQ and GF(32003), one `check-ax2`, one `costalks`
and one `compare` (13 jobs).  `SparseComplex.reduce`,
`SparseComplex.minimize_dims` and `matrices.rref` are wrapped from
outside, as `tests/build_phases.py` wraps `reduce`, and each job's counts
are summed as `bench/tracing.py` counts them:

- cleanup_gens_in, cleanup_gens_out: live generators into and out of every
  same-support reduction (the pushforward's cleanup, and the one in each
  `cell_costalk` and `hypercohomology` call);
- eliminations: eliminated pairs over every reduction, same-support and
  free;
- minimize_gens_in: live generators handed to `minimize_dims`;
- rref_cells: rows × columns of every matrix handed to `rref`.

Each job's exit code and counts are compared with the table recorded in
work_counts.json; the script names each job and count that differs and
exits 1 if any does.  `test_work_counts_match_the_table` runs the
comparison in Tier-1.

    PYTHONPATH=src python tests/work_counts.py            # compare
    PYTHONPATH=src python tests/work_counts.py --record   # rewrite the table

A rise fails.  A fall, or a deliberate trade, is re-recorded in the change
that makes it, with the changed counts named beside it.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from icsheaf import cli, demos, matrices
from icsheaf.reduction import SparseComplex

TABLE = Path(__file__).with_name("work_counts.json")
COUNTS = ("cleanup_gens_in", "cleanup_gens_out", "eliminations",
          "minimize_gens_in", "rref_cells")


def jobs():
    for name in demos.DEMO_NAMES:
        for field in ("q", "fp:32003"):
            yield ["build", "demo:" + name, "--field", field]
    yield ["check-ax2", "demo:wedge", "--field", "q"]
    yield ["costalks", "demo:pinched-torus", "--field", "q"]
    yield ["compare", "demo:fake-surface", "--field", "q"]


@contextlib.contextmanager
def counted(counts):
    """Add the work of every reduction and rref inside the block to counts."""
    real_reduce, real_minimize = SparseComplex.reduce, SparseComplex.minimize_dims
    real_rref = matrices.rref

    def reduce(G, same_support=False):
        n0 = len(G.degree)
        real_reduce(G, same_support)
        n1 = len(G.degree)
        counts["eliminations"] += (n0 - n1) // 2
        if same_support:
            counts["cleanup_gens_in"] += n0
            counts["cleanup_gens_out"] += n1

    def minimize_dims(G):
        counts["minimize_gens_in"] += len(G.degree)
        return real_minimize(G)

    def rref(F, A):
        counts["rref_cells"] += len(A) * (len(A[0]) if A else 0)
        return real_rref(F, A)

    SparseComplex.reduce, SparseComplex.minimize_dims = reduce, minimize_dims
    matrices.rref = rref
    try:
        yield counts
    finally:
        SparseComplex.reduce, SparseComplex.minimize_dims = real_reduce, real_minimize
        matrices.rref = real_rref


def run_job(argv, out):
    """One job's row: its argv, exit code and counts."""
    counts = dict.fromkeys(COUNTS, 0)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), counted(counts):
        code = cli.run(argv + ["--out", out])
    return {"argv": argv, "exit": code, **counts}


def measure():
    """Every job's row, run in a temporary working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return [run_job(argv, "out") for argv in jobs()]
        finally:
            os.chdir(here)


def differences(rows):
    """One line per job or count of rows that differs from the table."""
    want = {" ".join(r["argv"]): r for r in json.loads(TABLE.read_text())}
    got = {" ".join(r["argv"]): r for r in rows}
    out = ["%s: %s" % ("missing" if key in want else "unrecorded", key)
           for key in sorted(set(want) ^ set(got))]
    for key in sorted(set(want) & set(got)):
        for f in ("exit",) + COUNTS:
            if want[key][f] != got[key][f]:
                out.append("%s: %s %s -> %s" % (key, f, want[key][f], got[key][f]))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", action="store_true",
                   help="write the table instead of comparing against it")
    args = p.parse_args()
    rows = measure()
    if args.record:
        TABLE.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in rows))
        print("recorded %d jobs in %s" % (len(rows), TABLE.name))
        return 0
    bad = differences(rows)
    for line in bad:
        print(line)
    print("%d jobs, %d differences" % (len(rows), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
