"""Seeded job lists and the expected result of every job.

A workload is one round of CLI jobs; the seed picks `--refine random:<n>`
recipes, `--at` simplices, `--sample` budgets, the circle length of the
generated suspension and the job order.  Each job carries its expected
exit code and a check of its report against values derived here from the
topology of the space, independently of the package.
"""

import random

FP = ["--field", "fp:32003"]

# Benchmark class of each command; validate and filtration count in wall_s only.
CLASS = {"build": "build", "stalks": "build", "hyperco": "build", "coarsen": "build",
         "check-ax1": "check", "check-ax2": "check", "check-classic-ax2": "check",
         "costalks": "costalks", "compare": "compare",
         "validate": "other", "filtration": "other"}

# Typical wall seconds of one round at the seed commit (2-CPU 2.1 GHz virtual
# machine, Python 3.11); a run repeats the round floor(--seconds / nominal)
# times, at least once, so the work of a run does not depend on its speed.
NOMINAL_ROUND_S = {"build-qq": 32.0, "axioms-qq": 36.0, "small-fp": 15.0}

# `random:<n>` recipes that, at the seed commit, refine the space by exactly
# one fake point stratum (the largest such class for the space).  A fixed
# refinement shape keeps the cost of a compare job steady from seed to seed.
ONE_POINT_RECIPES = {
    "wedge": [18, 20, 33, 37, 42, 43, 58, 59, 62, 67, 69, 70,
              87, 91, 94, 104, 108, 120, 122, 125, 139, 146, 158, 164],
    "fake-surface": [6, 8, 18, 21, 33, 37, 42, 56, 58, 59, 62, 67,
                     69, 72, 82, 86, 87, 91, 94, 97, 104, 108, 120, 125],
    "pinched-torus": [1, 2, 3, 4, 6, 8, 10, 14, 15, 18, 19, 20,
                      21, 22, 26, 28, 29, 31, 32, 33, 37, 39, 42, 43],
    "nonpure-wedge": [1, 6, 8, 14, 18, 20, 21, 42, 43, 56, 58, 59,
                      62, 67, 69, 70, 85, 86, 94, 97, 102, 108, 113, 120],
}

# Exit code of check-classic-ax2: the classical axioms fail wherever strata of
# different dimensions meet a singular point (wedges), and hold on pure spaces.
CLASSIC_AX2_RC = {"wedge": 2, "fake-surface": 2, "nonpure-wedge": 2,
                  "pinched-torus": 0}

SUSPENSION_CIRCLE = {"susp-s1xs2": 3, "susp-l4": 4}


def suspension_ic_hyperco(h_m, n=2):
    """Mayer-Vietoris over the two cone charts of a suspension of M.

    h_m: cohomology dims of the (2n-1)-manifold M.  Copied from the test
    oracles so that the benchmark does not depend on the test tree.
    """
    hm = {d: h_m.get(d, 0) for d in range(2 * n)}
    t = {q: (hm.get(q + n, 0) if q <= -1 else 0) for q in range(-n, n + 1)}
    r = dict(t)
    out = {}
    for q in range(-n, n + 1):
        v = 2 * t.get(q, 0) - r.get(q, 0) + hm.get(q - 1 + n, 0) - r.get(q - 1, 0)
        if v:
            out[q] = v
    return out


# S^1 x S^2 by Kuenneth; the suspension's IC hypercohomology from it.
SUSPENSION_HYPERCO = suspension_ic_hyperco({0: 1, 1: 1, 2: 1, 3: 1})
SPHERE_SUM_HYPERCO = {-2: 1, -1: 1, 1: 1, 2: 1}   # S^4[2] + S^2[1]
HYPERCO = {
    "susp-s1xs2": SUSPENSION_HYPERCO, "susp-l4": SUSPENSION_HYPERCO,
    "gen-susp": SUSPENSION_HYPERCO,
    "pinched-torus": {-1: 1, 1: 1},                # normalization is S^2, shifted [1]
    "wedge": SPHERE_SUM_HYPERCO, "fake-surface": SPHERE_SUM_HYPERCO,
    "nonpure-wedge": {-2: 1, -1: 2, 1: 2, 2: 1},   # suspension + S^2[1]
}

CONE = ({-2: 1, -1: 1}, {1: 1, 2: 1})     # cone on S^1 x S^2, or the wedge point
MANIFOLD = {2: ({-2: 1}, {2: 1}), 1: ({-1: 1}, {1: 1})}


def local_values(space, simplex):
    """(stalk, costalk) dims at a simplex where topology fixes them, else None.

    On an open stratum of complex dimension m the complex is the constant
    sheaf shifted by m: stalk in degree -m, costalk in degree m.  At a cone
    point over S^1 x S^2 and at the wedge point of S^4 and S^2 the stalk is
    the truncated link cohomology {-2:1, -1:1}, and the costalk its dual.
    """
    s = set(simplex)
    if space in ("wedge", "fake-surface"):
        if s == {0}:
            return CONE
        if s <= {0, 1, 2, 3, 4, 5}:
            return MANIFOLD[2]
        return MANIFOLD[1]
    if space == "pinched-torus":
        return None if s == {0} else MANIFOLD[1]
    if space == "nonpure-wedge":
        if s == {13}:
            return CONE
        if s == {12}:
            return ({-2: 1, -1: 2}, {1: 2, 2: 1})
        if s <= {12, 14, 15, 16}:
            return MANIFOLD[1]
        return MANIFOLD[2]
    apexes = {4 * SUSPENSION_CIRCLE[space], 4 * SUSPENSION_CIRCLE[space] + 1}
    return CONE if len(s) == 1 and s <= apexes else MANIFOLD[2]


def _dims(doc):
    return {int(q): d for q, d in doc.items()}


def _table_errors(space, table, which):
    """Compare a {simplex key: {degree: dim}} table with local_values."""
    for key, row in table.items():
        want = local_values(space, [int(v) for v in key.split()])
        if want is not None and _dims(row) != want[which]:
            return "%s at %s is %s, expected %s" % (
                ("stalk", "costalk")[which], key, row, want[which])
    return None


def _levels_closure(levels):
    """Down-closure of each level's generating simplices, as sets of tuples."""
    out = {}
    for k, gens in levels.items():
        faces = set()
        for g in gens:
            g = sorted(g)
            for mask in range(1, 1 << len(g)):
                faces.add(tuple(v for i, v in enumerate(g) if mask >> i & 1))
        out[str(k)] = faces
    return out


def check_report(job, doc, levels):
    """Problems with a job's report payload, or None when it is as expected."""
    cmd, space = job["argv"][0], job["space"]
    rep = doc["report"]
    if cmd == "validate":
        if rep.get("valid") is not True:
            return "stratification not reported valid"
        return None
    if cmd in ("build", "stalks"):
        table = rep["stalk_table"] if cmd == "build" else rep["stalks"]
        if not table:
            return "empty stalk table"
        return _table_errors(space, table, 0)
    if cmd == "costalks":
        if not rep["costalks"]:
            return "empty costalk table"
        return _table_errors(space, rep["costalks"], 1)
    if cmd == "hyperco":
        if _dims(rep["hypercohomology"]) != HYPERCO[space]:
            return "hypercohomology %s, expected %s" % (rep["hypercohomology"],
                                                        HYPERCO[space])
        return None
    if cmd == "compare":
        for c in rep["comparisons"]:
            if not c["passed"] or _dims(c["hypercohomology"]) != HYPERCO[space]:
                return "comparison %s: %s" % (c["refine"], c)
        return None
    if cmd == "coarsen":
        # Minimal stratifications stay as they are; the fake stratum merges away.
        want = levels["wedge" if space == "fake-surface" else space]
        if _levels_closure(rep["levels"]) != _levels_closure(want):
            return "coarsened levels differ from the minimal stratification"
        return None
    return None


def expected_rc(argv, space):
    cmd = argv[0]
    if cmd == "check-classic-ax2":
        return CLASSIC_AX2_RC[space]
    if cmd == "check-ax2" and "--naive" in argv:
        return 2 if space in ("fake-surface", "nonpure-wedge") else 0
    return 0


def _job(space_dirs, space, cmd, *opts):
    argv = [cmd, space_dirs[space]] + list(opts)
    return {"argv": argv, "space": space, "cls": CLASS[cmd],
            "expect_rc": expected_rc(argv, space)}


def _at(rng, space):
    """A simplex whose stalk is fixed by local_values, as an --at argument."""
    if space in ("wedge", "fake-surface"):
        pool = [[0], [1], [3, 5], [0, 2, 4], [6], [7, 8], [1, 2, 3, 4]]
    elif space == "pinched-torus":
        pool = [[1], [2, 6], [3, 4], [0, 1, 2], [5, 9, 10]]
    elif space == "nonpure-wedge":
        pool = [[13], [12], [14], [12, 15], [0, 5], [1, 13], [14, 15, 16]]
    else:
        a = 4 * SUSPENSION_CIRCLE[space]
        pool = [[a], [a + 1], [0], [0, 5], [2, a], [0, 1, a + 1]]
    return ",".join(str(v) for v in rng.choice(pool))


def build_qq(rng, d):
    """QQ builds: pushforward, cleanup, truncation and verification dominate."""
    stalks = _job(d, "susp-s1xs2", "stalks", "--at", _at(rng, "susp-s1xs2"))
    return [
        _job(d, "susp-s1xs2", "build"),
        _job(d, "nonpure-wedge", "build"),
        _job(d, "susp-l4", "hyperco"),
        _job(d, "nonpure-wedge", "hyperco"),
        _job(d, "nonpure-wedge", "coarsen"),
        stalks, dict(stalks),
        _job(d, "nonpure-wedge", "compare", "--refine",
             "random:%d" % rng.choice(ONE_POINT_RECIPES["nonpure-wedge"])),
    ]


def axioms_qq(rng, d):
    """QQ axiom checks: one costalk per simplex dominates every job."""
    classic = _job(d, "wedge", "check-classic-ax2")
    return [
        _job(d, "nonpure-wedge", "costalks"),
        _job(d, "susp-s1xs2", "check-ax1"),
        _job(d, "nonpure-wedge", "check-ax2"),
        _job(d, "nonpure-wedge", "check-classic-ax2"),
        _job(d, "fake-surface", "check-ax2", "--naive"),
        _job(d, "wedge", "check-ax2"),
        classic, dict(classic),
    ]


def small_fp(rng, d):
    """Prime-field jobs, most of them short: the fixed per-job path shows."""
    jobs = []
    for space in ("wedge", "pinched-torus", "fake-surface"):
        jobs += [
            _job(d, space, "validate", "--check-links", *FP),
            _job(d, space, "filtration", *FP),
            _job(d, space, "stalks", "--at", _at(rng, space), *FP),
            _job(d, space, "costalks", "--sample", str(rng.randint(6, 10)), *FP),
            _job(d, space, "check-ax1", *FP),
            _job(d, space, "check-ax2", *FP),
            _job(d, space, "check-classic-ax2", *FP),
            _job(d, space, "check-ax2", "--naive", *FP),
            _job(d, space, "coarsen", *FP),
            _job(d, space, "compare", "--refine",
                 "random:%d" % rng.choice(ONE_POINT_RECIPES[space]), *FP),
        ]
    costalk = _job(d, "wedge", "costalks", "--at", "0", *FP)
    jobs += [_job(d, "wedge", "stalks", "--at", "0", *FP), costalk, dict(costalk)]
    for space in ("susp-s1xs2", "nonpure-wedge", "susp-l4"):
        jobs += [
            _job(d, space, "validate", *FP),
            _job(d, space, "filtration", *FP),
            _job(d, space, "build", *FP),
            _job(d, space, "stalks", "--at", _at(rng, space), *FP),
            _job(d, space, "hyperco", *FP),
        ]
    jobs += [_job(d, "gen-susp", "validate", "--check-links", *FP),
             _job(d, "gen-susp", "filtration", *FP)]
    return jobs


WORKLOADS = {"build-qq": build_qq, "axioms-qq": axioms_qq, "small-fp": small_fp}


def circle_length(seed):
    """Circle length of the generated suspension: 3 (506 simplices) or 4 (674)."""
    return random.Random(seed).choice((3, 4))


def job_list(workload, seed, space_dirs):
    """The seeded, shuffled round of jobs for a workload."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = WORKLOADS[workload](rng, space_dirs)
    rng.shuffle(jobs)
    return jobs
