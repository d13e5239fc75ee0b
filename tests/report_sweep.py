"""Byte-identity gate for the CLI: every command on every bundled demo.

Runs the 11 report-writing commands on the 5 bundled demos, over QQ and
GF(32003), canonical and --naive (220 jobs), `build`, `check-ax2` and
`compare` on the wedge and the pinched torus with two --local-system files
each (24 jobs), and the point queries `stalks --at 0`, `costalks --at 0` and
`costalks --sample 4` on the 5 demos over both fields (30 jobs), and
`build`, `hyperco`, `costalks` and `check-ax2` on the 5 demos over GF(2),
where every sign wraps (20 jobs), `validate --check-links` on the 5
demos (5 jobs), and `compare` with the benchmark's refinement recipes
`--refine random:7` and `--refine extra-surface` on the 5 demos over both
fields (20 jobs; the pinched torus has no fake surface, so `extra-surface`
exits 1 there): 319 jobs, through `cli.run` in one process.  The jobs
run in a temporary working directory with a relative --out, so the paths
recorded in each manifest do not depend on where the sweep runs.  Each
job's exit code, the sha256 of its stdout and of its stderr, and the
sha256 of every report it writes are compared with the table in
report_sweep.json; the script names each job that differs and exits 1 if
any does.  The summary line also gives the process's peak RSS and the
job after which it last rose: the sweep is one long-lived `cli.run`
process, so memory that outlives a job shows there, and the named job is
the one that sets the peak.

    PYTHONPATH=src python tests/report_sweep.py            # compare
    PYTHONPATH=src python tests/report_sweep.py --record   # rewrite the table

Re-record the table only in a change that means to alter reports.  pytest
does not collect this file: the sweep takes about 75 s.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

from icsheaf import cli, demos, reports
from icsheaf.stratify import compute_open_filtration, validate_stratification

COMMANDS = ("validate", "filtration", "build", "check-ax1", "check-ax2",
            "check-classic-ax2", "hyperco", "stalks", "costalks", "compare",
            "coarsen")
FIELDS = ("q", "fp:32003")
SYSTEM_DEMOS = ("wedge", "pinched-torus")
# over p = 32003 no sign wraps; p = 2 makes -1 = 1 and every entry 0 or 1
SMALL_PRIME_COMMANDS = ("build", "hyperco", "costalks", "check-ax2")
TABLE = Path(__file__).with_name("report_sweep.json")


def jobs():
    for name in demos.DEMO_NAMES:
        for field in FIELDS:
            for naive in ([], ["--naive"]):
                for command in COMMANDS:
                    yield [command, "demo:" + name, "--field", field] + naive
    for name in SYSTEM_DEMOS:
        for field in FIELDS:
            for command in ("build", "check-ax2", "compare"):
                for system in ("rank2.json", "diag21-%s.json" % name):
                    yield [command, "demo:" + name, "--field", field,
                           "--local-system", system]
    for name in demos.DEMO_NAMES:
        for field in FIELDS:
            for query in (["stalks", "--at", "0"], ["costalks", "--at", "0"],
                          ["costalks", "--sample", "4"]):
                yield [query[0], "demo:" + name, "--field", field] + query[1:]
    for name in demos.DEMO_NAMES:
        for command in SMALL_PRIME_COMMANDS:
            yield [command, "demo:" + name, "--field", "fp:2"]
    for name in demos.DEMO_NAMES:
        yield ["validate", "demo:" + name, "--check-links"]
    for name in demos.DEMO_NAMES:
        for field in FIELDS:
            for recipe in ("random:7", "extra-surface"):
                yield ["compare", "demo:" + name, "--field", field, "--refine", recipe]


def write_local_systems():
    """Write the --local-system files of `jobs` into the working directory.

    rank2.json is the constant rank-2 system; diag21-<demo>.json is the
    explicit rank-2 system with diag(2, 1) on every cover pair of U_1.
    """
    Path("rank2.json").write_text(json.dumps({"rank": 2}))
    for name in SYSTEM_DEMOS:
        K, doc = demos.demo_space(name)
        U = compute_open_filtration(validate_stratification(K, doc["levels"])).U[1]
        key = lambda sid: reports.simplex_key(K, sid)
        Path("diag21-%s.json" % name).write_text(json.dumps({
            "stalk_dims": {key(s): 2 for s in sorted(U)},
            "matrices": {"%s|%s" % (key(s), key(t)): [[2, 0], [0, 1]]
                         for s, t in sorted(K.cover_pairs(U))}}))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_job(argv, out):
    """Run one job with --out set to the relative directory `out`."""
    for old in Path(out).glob("*.json"):
        old.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv + ["--out", out])
    return {"argv": argv, "exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "reports": {p.name: _sha(p.read_bytes())
                        for p in sorted(Path(out).glob("*.json"))}}


def _maxrss():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sweep():
    """Run every job; returns (rows, argv of the job after which the peak RSS last rose)."""
    here = os.getcwd()
    rows, peak, peak_argv = [], _maxrss(), None
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_local_systems()
            for argv in jobs():
                rows.append(run_job(argv, "out"))
                if _maxrss() > peak:
                    peak, peak_argv = _maxrss(), argv
            return rows, peak_argv
        finally:
            os.chdir(here)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", action="store_true",
                   help="write the table instead of comparing against it")
    args = p.parse_args()
    rows, peak_argv = sweep()
    if args.record:
        TABLE.write_text("[\n%s\n]\n" % ",\n".join(
            json.dumps(r, sort_keys=True) for r in rows))
        print("recorded %d jobs in %s" % (len(rows), TABLE.name))
        return 0
    want = {" ".join(r["argv"]): r for r in json.loads(TABLE.read_text())}
    got = {" ".join(r["argv"]): r for r in rows}
    bad = sorted(set(want) ^ set(got))
    for key in bad:
        print("%s: %s" % ("missing" if key in want else "unrecorded", key))
    for key in sorted(set(want) & set(got)):
        diff = [f for f in ("exit", "stdout", "stderr", "reports")
                if want[key][f] != got[key][f]]
        if diff:
            bad.append(key)
            print("differs in %s: %s" % (", ".join(diff), key))
    print("%d jobs, %d differ, peak RSS %d KiB, last raised by %s"
          % (len(got), len(bad), _maxrss(),
             " ".join(peak_argv) if peak_argv else "no job"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
