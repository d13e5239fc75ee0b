"""Batch command-line front end.

Exit codes: 0 = PASS / success, 1 = input or usage error, 2 = an axiom or
comparison check FAILED (with witnesses in the report), 3 = internal error:
the engine's own check of a complex it computed failed.  Every command
writes a canonical JSON report under --out; a bundled demonstration space
is written to plain files under --out on every use and loaded from them.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import demos, reports
from . import axioms as ax
from . import sections as sec
from .deligne import (build_ic, clc_coarsen, compare_stratifications,
                      default_costalk_sample)
from .fields import QQ, field_by_name
from .sheaves import SheafError, constant_complex, make_local_system
from .simplicial import ComplexError, SimplicialComplex, complex_to_doc, load_complex
from .stratify import (TRUST_NOTE, StratificationError, compute_open_filtration,
                       naive_filtration, validate_stratification)


class InputError(Exception):
    pass


# The commands that build the intersection complex.
BUILDS = ("build", "check-ax1", "check-ax2", "check-classic-ax2", "hyperco",
          "stalks", "costalks", "compare", "coarsen")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are InputErrors, with no usage block."""

    def error(self, message):
        raise InputError(message)


def _parser():
    p = _Parser(prog="icsheaf", description=__doc__)
    p.add_argument("command", choices=["validate", "filtration", *BUILDS, "demo"])
    p.add_argument("space", help="demo:<name>, a demo name (for the demo command), "
                                 "or a directory with complex.json/stratification.json")
    p.add_argument("--local-system", dest="local_system", help="local system JSON file")
    p.add_argument("--field", default="q", help="coefficients: q or fp:<p>")
    p.add_argument("--check-links", action="store_true",
                   help="validate: warn where a stratum's link is no rational "
                        "homology sphere (genuine singular strata warn too)")
    p.add_argument("--out", default="icsheaf-out", help="report/output directory")
    p.add_argument("--refine", action="append", default=[],
                   help="refinement recipe for compare (repeatable)")
    p.add_argument("--naive", action="store_true",
                   help="use the stepwise-simultaneous (non-canonical) filtration")
    p.add_argument("--sample", default=None,
                   help="costalk sample: an integer budget (default: every simplex)")
    p.add_argument("--at", default=None, help="single simplex (comma-separated vertices)")
    return p


def demo_files(name, out):
    """Write a bundled space to plain files under out, on every use; return their paths."""
    if name not in demos.DEMO_NAMES:
        raise InputError("unknown demo %r (available: %s)"
                         % (name, ", ".join(demos.DEMO_NAMES)))
    d = Path(out) / "demos" / name
    cpath, spath = d / "complex.json", d / "stratification.json"
    K, doc = demos.demo_space(name)
    reports.write_json(cpath, complex_to_doc(K))
    reports.write_json(spath, doc)
    return cpath, spath


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that appears twice in it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError("key %r appears twice in one object" % key)
        out[key] = value
    return out


def _read_json(path, what):
    """The JSON document at path and the sha256 of the bytes it was parsed from.

    The file is read once.  One that cannot be read or parsed is an
    InputError: ValueError covers invalid JSON, bytes that are not UTF-8
    and a key repeated in one object, whose last value would otherwise
    hide the others, and a document nested too deeply for the parser
    raises RecursionError.
    """
    try:
        data = Path(path).read_bytes()
        return (json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys),
                hashlib.sha256(data).hexdigest())
    except (OSError, ValueError, RecursionError) as e:
        raise InputError("cannot read %s: %s" % (what, e))


def load_space(args):
    """Resolve the space argument to (complex, stratification, input record)."""
    inputs = {}
    if args.space.startswith("demo:"):
        cpath, spath = demo_files(args.space[5:], args.out)
        inputs["space"] = args.space
    else:
        base = Path(args.space)
        cpath, spath = base / "complex.json", base / "stratification.json"
        inputs["space"] = str(base)
    inputs["complex"] = str(cpath)
    inputs["stratification"] = str(spath)
    K = load_complex(_read_json(cpath, "complex")[0])
    sdoc = _read_json(spath, "stratification")[0]
    if not isinstance(sdoc, dict) or "levels" not in sdoc:
        raise InputError("stratification document must have 'levels'")
    extra = [k for k in sdoc if k != "levels"]
    if extra:
        raise InputError("unexpected key %r in stratification" % extra[0])
    return K, validate_stratification(K, sdoc["levels"]), inputs


def load_system(args, F, strat):
    """The --local-system file as a SheafComplex on U_1 and the sha256 of its bytes.

    (None, None) without one.  The file's keys are {"rank"}, {"stalk_dims"}
    or {"stalk_dims", "matrices"}; any other key is an InputError.  U_1 is
    ∪ U^m, canonical or naive: the frontier condition gives X^m − U^m ⊆ X_{m−1}.
    """
    if not args.local_system:
        return None, None
    doc, digest = _read_json(args.local_system, "local system")
    U1 = frozenset().union(*strat.U_m.values())
    K = strat.complex
    if not isinstance(doc, dict):
        raise InputError("local system must be a JSON object")
    extra = sorted(set(doc) - ({"rank"} if "rank" in doc else {"stalk_dims", "matrices"}))
    if extra:
        raise InputError("unexpected key %r in local system" % extra[0])
    if "rank" in doc:
        return constant_complex(F, K, U1, doc["rank"]), digest
    simplex = _simplex_reader(K)
    try:
        dims = {simplex(k): d for k, d in doc["stalk_dims"].items()}
        matrices = {}
        for key, m in doc.get("matrices", {}).items():
            a, b = key.split("|")
            # entries are exact: a JSON float or boolean is not read as a number
            if type(m) is not list or not all(
                    type(row) is list and all(type(x) in (int, str) for x in row)
                    for row in m):
                raise InputError("matrix %r must be a list of rows, each a list of "
                                 "integers or strings" % key)
            matrices[(simplex(a), simplex(b))] = [[F.parse(x) for x in row] for row in m]
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError("malformed local system: %s" % e)
    return make_local_system(F, K, U1, dims, matrices), digest


def _sample_limit(text):
    """The --sample budget: None without one, else the integer its ASCII digits spell.

    A budget has one spelling, str(n), as a level key does: the manifest
    records the text, so "07" would write another report than "7", and
    the default, every simplex, is written by leaving the option out.
    """
    if text is None:
        return None
    if text.isascii() and text.isdigit() and text == str(int(text)):
        return int(text)
    raise InputError("--sample must be a nonnegative integer without leading zeros, "
                     "got %r" % text)


def _simplex_reader(K):
    """A function from the text naming a simplex of K to its id.

    The text is vertex names separated by commas or whitespace, and a
    vertex v is named by str(v) alone, so "01" names the string vertex
    "01" and never the int 1.  A complex gives each vertex its own name
    with neither whitespace nor a comma in it, so this reads back
    `reports.simplex_key`.  An empty field and a name of no vertex are
    ComplexErrors, as a simplex of K the vertices do not span is.
    """
    named = {str(v): v for v in K.vertices}

    def read(text):
        if "," in text and not all(f.strip() for f in text.split(",")):
            raise ComplexError("empty vertex field in simplex %r" % text)
        out = []
        for part in text.replace(",", " ").split():
            if part not in named:
                raise ComplexError("no vertex %r in simplex %r" % (part, text))
            out.append(named[part])
        return K.id_of(out)

    return read


def _manifest(args, inputs, extra=None):
    m = {"format": reports.FORMAT_TAG, "command": args.command, "inputs": inputs,
         "field": args.field,
         "options": {"check_links": bool(args.check_links),
                     "naive": bool(args.naive), "refine": list(args.refine),
                     "sample": args.sample}}
    if extra:
        m["options"].update(extra)
    return m


def _link_heuristic(strat):
    """Advisory warnings: links of top stratum simplices against spheres.

    The rational homology of the link of each of the first two top simplices
    of a stratum of complex dimension k, inside each X^m (m ≠ k) that holds
    it, is compared with that of S^(2m−2k−1).  No cone condition, necessary
    or sufficient: genuine singular strata fail it (the pinch point of
    pinched-torus).
    """
    K = strat.complex
    warnings = []
    for st in strat.strata:
        kdim = st.complex_dim
        tops = [i for i in sorted(st.simplex_set) if K.sdim(i) == 2 * kdim]
        for sid in tops[:2]:
            for m, xm in sorted(strat.X_m.items()):
                if sid not in xm or m == kdim:
                    continue
                link = K.link_of(K.simplices[sid], xm)
                expect_dim = 2 * m - 2 * kdim - 1
                expected = {0: 2} if expect_dim == 0 else {0: 1, expect_dim: 1}
                if link is None:
                    got = {}
                else:
                    S = constant_complex(QQ, link, link.full_set())
                    got = sec.hypercohomology(S)
                if got != expected:
                    warnings.append(
                        "stratum %d simplex %s: link homology inside X^%d is %s, "
                        "sphere of dimension %d would give %s"
                        % (st.index, list(K.simplices[sid]), m,
                           {str(k): v for k, v in got.items()}, expect_dim,
                           {str(k): v for k, v in expected.items()}))
    return warnings


def run(argv=None):
    """Run one job and return its exit code.

    However the job ends, `up_set`'s process-wide cache is emptied, so no
    complex the job built outlives it.
    """
    try:
        return _job(argv)
    finally:
        SimplicialComplex.up_set.cache_clear()


def _job(argv):
    try:
        args = _parser().parse_args(argv)
    except InputError as e:
        print("error:", e, file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return e.code
    out = Path(args.out)
    try:
        F = field_by_name(args.field)
    except ValueError as e:
        print("error:", e, file=sys.stderr)
        return 1

    try:
        # an option the command would ignore is an error, not a no-op
        for given, option, commands in (
                (args.at is not None, "--at", ("stalks", "costalks")),
                (args.sample is not None, "--sample", ("costalks",)),
                (args.refine, "--refine", ("compare",)),
                (args.check_links, "--check-links", ("validate",)),
                (args.naive, "--naive", ("filtration",) + BUILDS),
                (args.local_system, "--local-system", BUILDS)):
            if given and args.command not in commands:
                raise InputError("%s applies only to %s" % (option, ", ".join(commands)))
        if args.at is not None and args.sample is not None:
            raise InputError("--at and --sample exclude each other")
        if args.command == "demo":
            name = args.space[5:] if args.space.startswith("demo:") else args.space
            cpath, spath = demo_files(name, args.out)
            print("complex:        ", cpath)
            print("stratification: ", spath)
            return 0

        limit = _sample_limit(args.sample)
        K, strat, inputs = load_space(args)
        # a point query reports values at chosen simplices, which depend only
        # on their open stars: the build covers the union of those and no more
        points = within = extra = None
        if args.at is not None:
            points = [_simplex_reader(K)(args.at)]
            extra = {"at": list(K.simplices[points[0]])}
        elif args.command == "costalks" and limit is not None:
            points = default_costalk_sample(strat, limit=limit)
        L, digest = load_system(args, F, strat)
        if digest is not None:
            inputs["local_system_sha256"] = digest
        manifest = _manifest(args, inputs, extra)
        if points is not None:
            within = frozenset(K.walk(points, K.cofacets))

        if args.command == "validate":
            payload = {"valid": True, "n": strat.n,
                       "strata": [{"index": s.index, "complex_dim": s.complex_dim,
                                   "open": s.is_open, "size": len(s.simplex_set)}
                                  for s in strat.strata],
                       "trust_note": TRUST_NOTE}
            if args.check_links:
                payload["link_warnings"] = _link_heuristic(strat)
            reports.write_report(out / "validate-report.json", manifest, payload)
            print("stratification valid: %d strata, n = %d" % (len(strat.strata), strat.n))
            for w in payload.get("link_warnings", []):
                print("advisory:", w)
            return 0

        if args.command == "filtration":
            filt = naive_filtration(strat) if args.naive else compute_open_filtration(strat)
            payload = reports.filtration_doc(filt)
            reports.write_report(out / "filtration-report.json", manifest, payload)
            print(reports.filtration_table_text(filt))
            return 0

        if args.command != "compare":
            bundle = build_ic(strat, L, field=F, naive=args.naive, within=within)

        if args.command == "build":
            payload = reports.bundle_doc(bundle)
            reports.write_report(out / "ic-bundle.json", manifest, payload)
            table = bundle.ic.stalk_table()
            shown = sorted(strat.level(strat.n - 1))[:8]
            print("built %s complex; construction steps: %s"
                  % ("naive" if args.naive else "canonical",
                     [(s["step"], s["cutoff"]) for s in bundle.log]))
            for sid in shown:
                print("  stalk at %-14s %s"
                      % (reports.simplex_key(K, sid),
                         reports.dims_doc(table.get(sid, {}))))
            return 0

        if args.command == "hyperco":
            payload = {"hypercohomology": reports.dims_doc(sec.hypercohomology(bundle.ic)),
                       "naive": args.naive}
            reports.write_report(out / "hyperco-report.json", manifest, payload)
            print("hypercohomology:", payload["hypercohomology"])
            return 0

        if args.command == "stalks":
            if points is None:
                table = bundle.ic.stalk_table()
            else:
                table = {sid: bundle.ic.stalk_cohomology(sid) for sid in points}
            payload = {"stalks": reports.table_doc(K, table)}
            reports.write_report(out / "stalks-report.json", manifest, payload)
            for key, row in sorted(payload["stalks"].items()):
                print("  %-16s %s" % (key, row))
            return 0

        if args.command == "costalks":
            table = sec.cell_costalk(bundle.ic,
                                     bundle.ic.domain if points is None else points)
            payload = {"costalks": reports.table_doc(K, table)}
            reports.write_report(out / "costalks-report.json", manifest, payload)
            shown = list(sorted(payload["costalks"].items()))[:10]
            for key, row in shown:
                print("  %-16s %s" % (key, row))
            return 0

        if args.command in ("check-ax1", "check-ax2", "check-classic-ax2"):
            if args.command == "check-ax1":
                report = ax.check_ax1(bundle.ic, strat)
            elif args.command == "check-ax2":
                report = ax.check_ax2(bundle.ic, strat)
            else:
                report = ax.check_classic_ax2(bundle.ic)
            payload = report.to_json()
            payload["checked_complex"] = "naive build" if args.naive else "canonical build"
            reports.write_report(out / ("%s-report.json" % args.command), manifest, payload)
            print("%s: %s" % (report.axiom_id, "PASS" if report.passed else "FAIL"))
            for c in report.clauses:
                print("  clause (%s): %s" % (c.clause, "pass" if c.passed else "FAIL"))
                for w in c.witnesses[:3]:
                    print("    witness: degree %s, locus of %d simplices, complex dim %s (bound %s)"
                          % (w.degree, len(w.simplex_ids), w.observed_dim, w.bound))
            return 0 if report.passed else 2

        if args.command == "compare":
            recipes = args.refine or ["extra-point"]
            others = [strat if r == "self" else demos.refine_stratification(strat, r)
                      for r in recipes]
            payload = {"comparisons": []}
            all_pass = True
            reps = compare_stratifications(strat, others, local_system=L, field=F,
                                           naive_first=args.naive)
            for recipe, rep in zip(recipes, reps):
                payload["comparisons"].append(
                    {"refine": recipe, "passed": rep["passed"],
                     "hypercohomology": reports.dims_doc(rep["hypercohomology"]),
                     "witnesses": rep["witnesses"]})
                all_pass = all_pass and rep["passed"]
                print("compare vs %-16s %s" % (recipe, "PASS" if rep["passed"] else "FAIL"))
            reports.write_report(out / "compare-report.json", manifest, payload)
            return 0 if all_pass else 2

        if args.command == "coarsen":
            state = clc_coarsen(strat, bundle.ic)
            payload = {"levels": state.levels_doc(),
                       "merge_level": {str(k): v for k, v in sorted(state.merge_level.items())},
                       "steps": state.steps, "note": state.note}
            reports.write_report(out / "coarsen-report.json", manifest, payload)
            print("coarsened levels:",
                  {k: len(v) for k, v in sorted(state.levels.items())})
            return 0

        raise InputError("unknown command %r" % args.command)
    # an OSError here comes from writing a demo file or a report under --out
    except (InputError, ComplexError, StratificationError, SheafError,
            ax.AxiomInputError, OSError) as e:
        print("error:", e, file=sys.stderr)
        return 1
    except sec.EngineError as e:
        print("internal error:", e, file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
