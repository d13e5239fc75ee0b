"""icsheaf benchmark: time to verdict of seeded CLI job lists.

    python3 bench/run.py --workload build-qq --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload build-qq --seed 1 --seconds 24 --trace 1

Run from anywhere; it works in the checkout holding this file.  One client
runs one job at a time through `icsheaf.cli.run(argv)` in this process (a
closed loop), checks every verdict and report, and prints one row per job,
one row per metric and, as the last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run makes one untraced round, then one
round with every module's public callables wrapped, and prints per-layer
self times and exact counts.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spaces
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
SETUP_REPEATS = 7
CLASSES = ("build", "check", "costalks", "compare")
# The machine's speed drifts by up to a factor of two over tens of seconds
# to minutes (see README.md), so a probe runs after every job of at least
# PROBE_AFTER_S, and ref_wall_s rescales each job to the speed at which the
# probe takes REF_PROBE_S (a typical value on the baseline machine).
PROBE_AFTER_S = 0.25
REF_PROBE_S = 0.012

# A fresh interpreter's set-up: import the package and stage every input.
SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import icsheaf.cli, spaces
spaces.stage(Path(sys.argv[3]), int(sys.argv[4]))
"""


def calibrate():
    """The machine's current speed: a fixed loop over tuples, dicts and Fractions.

    The best of three 5,000-step runs (about 12 ms each), with the garbage
    collector off so that the program's heap does not change the result.
    The loop allocates and hashes like the engine does, so its time follows
    how fast this machine runs at the moment, cache contention included.
    """
    best = None
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            table = {}
            acc = Fraction(0)
            for i in range(5_000):
                table[(i % 997, i)] = [i, i + 1]
                acc += Fraction(i % 13, 7)
            sum(len(v) for v in table.values())
            t = perf_counter() - t0
            best = t if best is None else min(best, t)
    finally:
        gc.enable()
    return best


def ref_walls(records, probes):
    """Each job's wall time at the reference speed.

    A job's speed is the mean of the probes taken just before and just after
    it; probes are keyed by the number of jobs run when they were taken.
    """
    keys = sorted(probes)
    out = []
    for i, rec in enumerate(records):
        before = probes[max(k for k in keys if k <= i)]
        after = probes[min(k for k in keys if k > i)]
        out.append(rec["wall"] * REF_PROBE_S * 2 / (before + after))
    return out


def time_setup(dest, circle_len):
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would round every sample up to the next poll.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH),
                    str(dest), str(circle_len)], check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def run_job(cli, argv):
    """Run one CLI job in this process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as e:  # a traceback is a failed job, not a dead run
            rc = "%s: %s" % (type(e).__name__, e)
        wall = perf_counter() - t0
    return rc, wall


def inspect_report(job, out_dir, levels):
    """(sha256 of the job's report, problem or None)."""
    found = list(out_dir.glob("*.json"))
    if len(found) != 1:
        return None, "expected one report, found %d" % len(found)
    data = found[0].read_bytes()
    try:
        problem = workloads.check_report(job, json.loads(data), levels)
    except (ValueError, KeyError, TypeError) as e:
        problem = "unreadable report: %s: %s" % (type(e).__name__, e)
    return hashlib.sha256(data).hexdigest(), problem


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_start = os.getloadavg()
    os.chdir(ROOT)
    if not (SRC / "icsheaf" / "__init__.py").is_file():
        print("error: no icsheaf package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import icsheaf
    import icsheaf.cli as cli
    if Path(icsheaf.__file__).resolve().parent != (SRC / "icsheaf").resolve():
        print("error: icsheaf imported from %s, not from this checkout"
              % icsheaf.__file__, file=sys.stderr)
        return 2

    # Inputs are staged under relative paths, so reports do not depend on
    # where the checkout lives.
    work = Path("bench") / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    circle_len = workloads.circle_length(args.seed)
    staged = spaces.stage(work / "spaces", circle_len)
    space_dirs = {name: str(d) for name, (d, _) in staged.items()}
    levels = {name: lv for name, (_, lv) in staged.items()}
    jobs = workloads.job_list(args.workload, args.seed, space_dirs)

    if args.trace:
        rounds = 2
    else:
        rounds = max(1, int(args.seconds // workloads.NOMINAL_ROUND_S[args.workload]))
    print("icsheaf benchmark: workload=%s seed=%d seconds=%s trace=%d rounds=%d "
          "jobs_per_round=%d circle_len=%d"
          % (args.workload, args.seed, args.seconds, args.trace, rounds, len(jobs),
             circle_len))

    # Set-up is sampled at evenly spaced points of the run, so its median
    # does not rest on the state of the machine in one instant.
    setup_at = {k * rounds * len(jobs) // SETUP_REPEATS for k in range(SETUP_REPEATS)}
    setup = []
    tracer = None
    records = []
    first_sha = {}
    calibrate()  # the first call pays for fresh memory; it is not a sample
    probes = {0: calibrate()}
    for rnd in range(rounds):
        if args.trace and rnd == 1:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        for job in jobs:
            seq = len(records)
            if seq in setup_at:
                setup.append(time_setup(work / "setup" / str(seq), circle_len))
            out_dir = work / "jobs" / ("%04d" % seq)
            if tracer is not None:
                tracer.job = seq
            rc, wall = run_job(cli, job["argv"] + ["--out", str(out_dir)])
            sha, problem = inspect_report(job, out_dir, levels)
            if rc != job["expect_rc"]:
                problem = "exit code %r, expected %d" % (rc, job["expect_rc"])
            key = tuple(job["argv"])
            if problem is None and first_sha.setdefault(key, (sha, seq))[0] != sha:
                problem = "report differs from job %d" % first_sha[key][1]
            records.append({"round": rnd, "cls": job["cls"], "wall": wall,
                            "problem": problem})
            print("job %d round=%d class=%s rc=%s wall_s=%r sha256=%s status=%s argv=%s"
                  % (seq, rnd, job["cls"], rc, wall, sha,
                     "ok" if problem is None else "FAIL(%s)" % problem,
                     " ".join(job["argv"])))
            gc.collect()
            if wall >= PROBE_AFTER_S:
                probes[len(records)] = calibrate()
    if len(records) not in probes:
        probes[len(records)] = calibrate()

    failed = sum(1 for r in records if r["problem"] is not None)
    walls = [sum(r["wall"] for r in records if r["round"] == rnd) for rnd in range(rounds)]
    refs = ref_walls(records, probes)
    ref_rounds = [sum(w for w, r in zip(refs, records) if r["round"] == rnd)
                  for rnd in range(rounds)]
    print("jobs attempted=%d failed=%d" % (len(records), failed))
    correct = failed == 0

    if args.trace:
        metrics = tracer.metrics(walls, ref_rounds)
        missing = sorted(tracing.required_layers(j["argv"] for j in jobs)
                         - set(tracer.calls))
        if missing:
            correct = False
            print("error: traced layers never reached: %s" % ", ".join(missing))
        tracing.write_spans(tracer, work / "spans.csv")
    else:
        print("metric wall_s %r s" % statistics.median(walls))
        metrics = {
            "ref_wall_s": (statistics.median(ref_rounds), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
        # Raw wall time and class sums are printed (the sums for the classes
        # the workload has); the JSON line holds the bounded metrics only.
        for c in CLASSES:
            if any(r["cls"] == c for r in records):
                print("metric %s_s %r s" % (c, statistics.median(
                    sum(r["wall"] for r in records if r["round"] == rnd and r["cls"] == c)
                    for rnd in range(rounds))))
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    print("metric fail_ratio %r 1" % (failed / len(records)))
    values = [probes[k] for k in sorted(probes)]
    print("noise %s" % json.dumps({
        "seed": args.seed, "probe_start_s": values[0], "probe_end_s": values[-1],
        "probe_min_s": min(values), "probe_median_s": statistics.median(values),
        "probe_max_s": max(values), "probes": len(values),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup_samples_s": setup}))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
