import gc
import hashlib
import json
import time
import weakref
from pathlib import Path

import pytest

from icsheaf import axioms as ax
from icsheaf import cli, deligne, demos, stratify
from icsheaf import sections as sec
from icsheaf.cli import run
from icsheaf import reports
from icsheaf.fields import field_by_name
from icsheaf.sheaves import constant_complex, make_local_system
from icsheaf.simplicial import SimplicialComplex, complex_to_doc, load_complex
from icsheaf.stratify import compute_open_filtration, validate_stratification

import oracles


def out(tmp_path, name="o"):
    return str(tmp_path / name)


def _bad_space(tmp_path, name, complex_doc, strat_doc):
    d = tmp_path / name
    d.mkdir()
    (d / "complex.json").write_text(json.dumps(complex_doc))
    (d / "stratification.json").write_text(json.dumps(strat_doc))
    return str(d)


def _object_text(pairs):
    """JSON text for an object with the given (key, text) pairs, repeated keys kept."""
    return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), v) for k, v in pairs)


def test_exit_code_contract(tmp_path, capsys, monkeypatch):
    o = out(tmp_path)
    # PASS -> 0
    assert run(["check-ax2", "demo:wedge", "--out", o]) == 0
    # FAIL with witness -> 2
    assert run(["check-classic-ax2", "demo:wedge", "--out", o]) == 2
    assert run(["check-ax2", "demo:fake-surface", "--naive", "--out", o]) == 2
    # input errors -> 1
    assert run(["build", "demo:nonexistent", "--out", o]) == 1
    assert run(["build", str(tmp_path / "missing-dir"), "--out", o]) == 1
    assert run(["build", "demo:wedge", "--field", "fp:6", "--out", o]) == 1
    # primality is exact and fast on the whole accepted range 2 <= p < 2^64:
    # 2^61 - 1 is prime, (2^31 - 1)^2 is not, and 2^64 + 13 is out of range
    capsys.readouterr()
    for p, code in ((2 ** 61 - 1, 0), ((2 ** 31 - 1) ** 2, 1), (2 ** 64 + 13, 1)):
        t0 = time.perf_counter()
        assert run(["validate", "demo:wedge", "--field", "fp:%d" % p, "--out", o]) == code, p
        assert time.perf_counter() - t0 < 1, p
        err = capsys.readouterr().err
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), (p, err)
    # a field tag that is neither q nor fp: and a decimal p names the expected form
    for tag in ("fp:x", "fp:", "fp:3.0", "fp:0x7"):
        assert run(["validate", "demo:wedge", "--field", tag, "--out", o]) == 1, tag
        assert capsys.readouterr().err == \
            "error: unknown field %r (expected 'q' or 'fp:<p>')\n" % tag
    # usage errors print one error line and no usage block: cleanup is part
    # of the construction, not an option, and the space argument is the one
    # source of the complex and stratification
    capsys.readouterr()
    for argv, extra in ((["build", "demo:wedge", "--cleanup", "off"], "--cleanup off"),
                        (["demo", "wedge", "--complex", "x"], "--complex x"),
                        (["validate", "demo:wedge", "--stratification", "x"],
                         "--stratification x"),
                        (["frobnicate", "demo:wedge"], None)):
        assert run(argv + ["--out", o]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert extra is None or err.endswith(
            "unrecognized arguments: %s\n" % extra), (argv, err)
    # help is not an error
    assert run(["--help"]) == 0
    assert "usage: icsheaf" in capsys.readouterr().out
    # malformed inputs -> 1 with a one-line message, never a traceback
    assert run(["demo", "wedge", "--out", o]) == 0
    wedge = tmp_path / "o" / "demos" / "wedge"
    cdoc = json.loads((wedge / "complex.json").read_text())
    sdoc = json.loads((wedge / "stratification.json").read_text())
    nested = _bad_space(tmp_path, "nested",
                        dict(cdoc, vertices=[[0]] + cdoc["vertices"][1:]), sdoc)
    null = _bad_space(tmp_path, "null", dict(cdoc, vertices=None), sdoc)
    word_key = _bad_space(tmp_path, "word-key", cdoc,
                          {"levels": dict(sdoc["levels"], zero=[[0]])})
    # "01" names level 1 too; it was read in place of the bad level "1"
    shadow_key = _bad_space(tmp_path, "shadow-key", cdoc,
                            {"levels": {"0": sdoc["levels"]["0"],
                                        "1": [["not", "a", "vertex"]],
                                        "01": sdoc["levels"]["1"],
                                        "2": sdoc["levels"]["2"]}})
    # rejected before its 2^64 - 1 faces are expanded
    huge = _bad_space(tmp_path, "huge",
                      {"vertices": list(range(64)), "maximal_simplices": [list(range(64))]},
                      {"levels": {"0": []}})
    # levels beyond 0..n on the boundary of the 3-simplex (n = 1)
    tetra = {"vertices": [0, 1, 2, 3],
             "maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
    sphere = {"1": tetra["maximal_simplices"], "0": []}
    assert run(["validate", _bad_space(tmp_path, "sphere", tetra, {"levels": sphere}),
                "--out", o]) == 0
    above = _bad_space(tmp_path, "above", tetra, {"levels": dict(sphere, **{"2": []})})
    below = _bad_space(tmp_path, "below", tetra, {"levels": dict(sphere, **{"-1": []})})
    # levels are a dict keyed by level, never a list indexed by it
    listed = _bad_space(tmp_path, "listed", tetra, {"levels": [[], sphere["1"]]})
    # files that are not UTF-8 or that nest deeper than the JSON parser recurses
    not_utf8 = _bad_space(tmp_path, "not-utf8", cdoc, sdoc)
    (Path(not_utf8) / "complex.json").write_bytes(b'{"vertices": ["\xff"]}')
    deep = _bad_space(tmp_path, "deep", cdoc, sdoc)
    (Path(deep) / "complex.json").write_text("[" * 200000)
    deep_levels = _bad_space(tmp_path, "deep-levels", cdoc, sdoc)
    (Path(deep_levels) / "stratification.json").write_text("[" * 200000)
    # a key repeated in one object is refused, not read as its last value
    levels = sdoc["levels"]
    twice_level = _bad_space(tmp_path, "twice-level", cdoc, sdoc)
    (Path(twice_level) / "stratification.json").write_text(_object_text([
        ("levels", _object_text([("0", json.dumps(levels["0"])),
                                 ("1", '[["not", "a", "vertex"]]'),
                                 ("1", json.dumps(levels["1"])),
                                 ("2", json.dumps(levels["2"]))]))]))
    twice_vertices = _bad_space(tmp_path, "twice-vertices", cdoc, sdoc)
    (Path(twice_vertices) / "complex.json").write_text(_object_text(
        [("vertices", "[0]")] + [(k, json.dumps(v)) for k, v in cdoc.items()]))
    # a space document has exactly its documented keys, as a local system does
    colour = _bad_space(tmp_path, "colour", dict(cdoc, colour="red"), sdoc)
    comment = _bad_space(tmp_path, "comment", cdoc, dict(sdoc, comment="x"))
    # local-system files, each breaking one rule of a valid rank-2 system
    K = load_complex(cdoc)
    U = compute_open_filtration(validate_stratification(K, sdoc["levels"])).U[1]
    dims = {reports.simplex_key(K, s): 2 for s in U}
    mats = {"%s|%s" % (reports.simplex_key(K, s), reports.simplex_key(K, t)): [[2, 0], [0, 1]]
            for s, t in K.cover_pairs(U)}
    pair = next(iter(mats))
    systems = []
    for name, stalk_dims, matrices, reason in (
            ("ragged", dims, dict(mats, **{pair: [[1, 0], [0]]}), "2 rows of 2 entries"),
            ("string-dim", dict(dims, **{"1": "2"}), mats,
             "integer at a simplex of the domain, got '2'"),
            ("not-a-cover-pair", dims, dict(mats, **{"1|0,1,2": [[1, 0], [0, 1]]}),
             "not on a cover pair"),
            ("one-by-one", dims, dict(mats, **{pair: [[1]]}), "2 rows of 2 entries"),
            # rows given as strings are not read digit by digit
            ("string-rows", dims, dict(mats, **{pair: ["20", "01"]}), "each a list"),
            # entries are exact: no binary fraction for 0.1, no 2 for 2.5, no 1 for true
            ("float-entry", dims, dict(mats, **{pair: [[0.1, 0], [0, 1]]}),
             "%r must be a list of rows, each a list of integers or strings" % pair),
            ("half-entry", dims, dict(mats, **{pair: [[2.5, 0], [0, 1]]}), repr(pair)),
            ("bool-entry", dims, dict(mats, **{pair: [[True, 0], [0, 1]]}), repr(pair))):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({"stalk_dims": stalk_dims, "matrices": matrices}))
        systems.append((str(path), reason))
    path = tmp_path / "string-rank.json"
    path.write_text(json.dumps({"rank": "2"}))
    systems.append((str(path), "rank must be a nonnegative integer, got '2'"))
    path = tmp_path / "twice-rank.json"
    path.write_text(_object_text([("rank", "-1"), ("rank", "2")]))
    systems.append((str(path), "cannot read local system: key 'rank' appears twice"))
    for name, data in (("not-utf8", b'{"rank": "\xff"}'), ("deep", b"[" * 200000)):
        path = tmp_path / (name + ".json")
        path.write_bytes(data)
        systems.append((str(path), "cannot read local system"))
    # a file has exactly one of the documented key sets
    for name, doc, key in (
            ("rank-and-dims", {"rank": 1, "stalk_dims": {"0": 5}}, "stalk_dims"),
            ("rank-and-bogus", {"rank": 1, "bogus": 2}, "bogus"),
            ("dims-and-x", {"stalk_dims": {}, "matrices": {}, "x": 1}, "x")):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        systems.append((str(path), "unexpected key %r in local system" % key))
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps({"rank": 2}))
    # an --out that cannot be a directory: writing a demo file or a report fails
    taken = tmp_path / "taken"
    taken.write_text("")
    for space in ("demo:wedge", str(wedge)):
        capsys.readouterr()
        assert run(["validate", space, "--out", str(taken)]) == 1, space
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (space, err)
    capsys.readouterr()

    # every input below is rejected before any build
    def no_build(*args, **kwargs):
        raise AssertionError("build_ic ran on a rejected input")

    monkeypatch.setattr(cli, "build_ic", no_build)
    for argv in (["validate", nested], ["validate", null], ["validate", word_key],
                 ["validate", shadow_key],
                 ["validate", huge], ["validate", above], ["validate", below],
                 ["validate", listed],
                 ["validate", not_utf8], ["validate", deep], ["validate", deep_levels],
                 ["costalks", "demo:wedge", "--sample", "x"],
                 ["costalks", "demo:wedge", "--sample=-3"],
                 ["costalks", "demo:wedge", "--sample=-1000"],
                 # a budget is ASCII digits: no empty text, sign, space or underscore
                 ["costalks", "demo:wedge", "--sample", ""],
                 ["costalks", "demo:wedge", "--sample", " 3"],
                 ["costalks", "demo:wedge", "--sample", "+3"],
                 ["costalks", "demo:wedge", "--sample", "1_0"],
                 ["stalks", "demo:wedge", "--at", "0,99"],
                 ["costalks", "demo:wedge", "--at", "0,99"],
                 # an option the command would ignore
                 ["hyperco", "demo:wedge", "--at", "0"],
                 ["demo", "wedge", "--at", "0"],
                 ["hyperco", "demo:wedge", "--sample", "3"],
                 ["compare", "demo:wedge", "--sample", "3"],
                 ["build", "demo:wedge", "--refine", "extra-point"],
                 ["stalks", "demo:wedge", "--check-links"],
                 ["costalks", "demo:wedge", "--at", "0", "--sample", "5"],
                 ["validate", "demo:wedge", "--naive"],
                 ["demo", "wedge", "--naive"],
                 ["validate", "demo:wedge", "--local-system", str(rank2)],
                 ["filtration", "demo:wedge", "--local-system", str(rank2)],
                 ["demo", "wedge", "--local-system", str(rank2)],
                 # an empty --at is a simplex to look up, not a missing option
                 ["hyperco", "demo:wedge", "--at", ""],
                 ["stalks", "demo:wedge", "--at", ""],
                 # an empty vertex field is not skipped
                 ["stalks", "demo:wedge", "--at", "0,"],
                 ["stalks", "demo:wedge", "--at", ",1"],
                 ["costalks", "demo:wedge", "--at", "0,,1"],
                 ["compare", "demo:wedge", "--refine", "extra-point:x"],
                 # a candidate index counts from the first candidate on
                 ["compare", "demo:wedge", "--refine", "extra-point:-1"],
                 ["compare", "demo:wedge", "--refine", "extra-point:-99"],
                 ["compare", "demo:wedge", "--refine", "extra-surface:-1"],
                 # a number is written one way, as str writes it, so no
                 # recipe runs another's comparison under its own label
                 ["compare", "demo:wedge", "--refine", "random:07"],
                 ["compare", "demo:wedge", "--refine", "random: 7"],
                 ["compare", "demo:wedge", "--refine", "random:+7"],
                 ["compare", "demo:wedge", "--refine", "random:7_0"],
                 ["compare", "demo:wedge", "--refine", "random:-0"],
                 ["compare", "demo:wedge", "--refine", "random:None"],
                 ["compare", "demo:wedge", "--refine", "random:"],
                 ["compare", "demo:wedge", "--refine", "extra-point:00"],
                 ["compare", "demo:wedge", "--refine", "extra-point:"],
                 # one spelling per job: the default 0 is written bare, and a
                 # prime with a leading zero would run fp:3 under another label
                 ["compare", "demo:wedge", "--refine", "extra-point:0"],
                 ["compare", "demo:wedge", "--refine", "extra-surface:0"],
                 ["compare", "demo:wedge", "--refine", "random:0"],
                 ["build", "demo:wedge", "--field", "fp:03"],
                 ["build", "demo:wedge", "--field", "fp:032003"]):
        assert run(argv + ["--out", o]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    for space, what, key in ((twice_level, "stratification", "1"),
                             (twice_vertices, "complex", "vertices")):
        assert run(["validate", space, "--out", o]) == 1, space
        assert capsys.readouterr().err == "error: cannot read %s: key %r appears twice " \
            "in one object\n" % (what, key)
    for space, what, key in ((colour, "complex", "colour"),
                             (comment, "stratification", "comment")):
        assert run(["validate", space, "--out", o]) == 1, space
        assert capsys.readouterr().err == "error: unexpected key %r in %s\n" % (key, what)
    # a vertex is named by str(v) in report keys and in --at, where
    # whitespace, ',' and '|' separate names: a name that is empty, holds
    # one of those or names two vertices is refused at load
    for name, vertices, message in (
            ("space-id", ["a b", "c", "d", "e"],
             "vertex id 'a b' is empty or holds whitespace, ',' or '|'"),
            ("tab-id", ["a\tb", "c", "d", "e"],
             "vertex id 'a\\tb' is empty or holds whitespace, ',' or '|'"),
            ("empty-id", ["", "c", "d", "e"],
             "vertex id '' is empty or holds whitespace, ',' or '|'"),
            ("comma-id", ["a,b", "c", "d", "e"],
             "vertex id 'a,b' is empty or holds whitespace, ',' or '|'"),
            ("pipe-id", ["a|b", "c", "d", "e"],
             "vertex id 'a|b' is empty or holds whitespace, ',' or '|'"),
            ("one-name", [1, "1", 2, 3], "vertex ids 1 and '1' are both named '1'")):
        faces = [[v for v in vertices if v != w] for w in vertices]
        space = _bad_space(tmp_path, name, {"vertices": vertices, "maximal_simplices": faces},
                           {"levels": {"0": [], "1": faces}})
        for command in ("validate", "build"):
            assert run([command, space, "--out", o]) == 1, (name, command)
            assert capsys.readouterr().err == "error: %s\n" % message, (name, command)
    for path, reason in systems:
        assert run(["build", "demo:wedge", "--local-system", path, "--out", o]) == 1, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and reason in err, (path, err)


def test_each_job_frees_its_complex(tmp_path, monkeypatch):
    """No complex outlives its job, however the job ends."""
    o = out(tmp_path)
    load_space = cli.load_space
    loaded = []

    def tracked(args):
        K, strat, inputs = load_space(args)
        loaded.append(weakref.ref(K))
        return K, strat, inputs

    def build_then_fail(*args, **kwargs):
        deligne.build_ic(*args, **kwargs)
        raise RuntimeError("build interrupted")

    def assert_freed(argv):
        gc.collect()
        assert len(loaded) == 1 and loaded.pop()() is None, argv
        assert SimplicialComplex.up_set.cache_info().currsize == 0, argv

    monkeypatch.setattr(cli, "load_space", tracked)
    # exit 0, exit 2, and exit 1 on an input error found after the space is loaded
    for argv, code in ((["build", "demo:wedge"], 0),
                       (["check-ax2", "demo:fake-surface", "--naive"], 2),
                       (["stalks", "demo:wedge", "--at", "0,99"], 1)):
        assert run(argv + ["--out", o]) == code, argv
        assert_freed(argv)
    # an exception that propagates out of the job, after the build filled the cache
    monkeypatch.setattr(cli, "build_ic", build_then_fail)
    with pytest.raises(RuntimeError):
        run(["build", "demo:wedge", "--out", o])
    assert_freed("build_ic raised")


def test_demo_materializes_and_caches(tmp_path):
    o = out(tmp_path)
    assert run(["demo", "wedge", "--out", o]) == 0
    cpath = tmp_path / "o" / "demos" / "wedge" / "complex.json"
    spath = tmp_path / "o" / "demos" / "wedge" / "stratification.json"
    assert cpath.exists() and spath.exists()
    K = load_complex(json.loads(cpath.read_text()))
    assert len(K) == 75
    before = cpath.read_text()
    assert run(["validate", "demo:wedge", "--out", o]) == 0
    assert cpath.read_text() == before  # reused, not regenerated


class _Stopped(BaseException):
    """A job stopped from outside: no handler in the package catches it."""


def test_stopped_demo_materialization_is_redone(tmp_path, monkeypatch):
    # a job stopped halfway through writing stratification.json leaves no
    # truncated file there, which every later job with the same --out
    # would fail to read; the next job writes the files again and runs
    o = out(tmp_path)
    d = tmp_path / "o" / "demos" / "wedge"

    class Cut:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:len(text) // 2])
            raise _Stopped

    def cut_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return Cut(f) if path.name.startswith("stratification.json") else f

    monkeypatch.setattr(reports, "open", cut_open, raising=False)
    with pytest.raises(_Stopped):
        run(["build", "demo:wedge", "--out", o])
    monkeypatch.undo()
    assert sorted(p.name for p in d.iterdir()) == ["complex.json"]
    # a killed job's temporary file is not read either
    (d / "stratification.json.1.tmp").write_text('{"levels":{"0":[[0')
    assert run(["build", "demo:wedge", "--out", o]) == 0
    K, doc = demos.demo_space("wedge")
    assert json.loads((d / "stratification.json").read_text()) == doc
    assert json.loads((d / "complex.json").read_text()) == \
        json.loads(oracles.canonical_json(complex_to_doc(K)))


def test_reports_are_byte_identical(tmp_path):
    import os
    import subprocess
    import sys
    o = out(tmp_path)
    snapshots = []
    for seed in ("1", "17"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        for cmd in (["build", "demo:wedge"], ["filtration", "demo:wedge"]):
            r = subprocess.run([sys.executable, "-m", "icsheaf.cli"] + cmd
                               + ["--out", o], env=env, capture_output=True)
            assert r.returncode == 0, r.stderr
        snapshots.append(((tmp_path / "o" / "ic-bundle.json").read_bytes(),
                          (tmp_path / "o" / "filtration-report.json").read_bytes()))
    assert snapshots[0] == snapshots[1]


def test_manifest_round_trip(tmp_path):
    o = out(tmp_path)
    assert run(["hyperco", "demo:pinched-torus", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "hyperco-report.json").read_text())
    assert doc["format"] == reports.FORMAT_TAG
    again = json.loads(oracles.canonical_json(doc))
    assert again == doc
    assert doc["report"]["hypercohomology"] == {"-1": 1, "1": 1}


def test_streamed_report_equals_canonical_json(tmp_path, built):
    shared = [["1", "-1/2"], ["0", "1"]]
    payloads = [
        {"b": {"z": [], "a": {}}, "a": [{"y": 1, "x": None}], "é": "ü\u2603"},
        {2: "two", 10: "ten", 1.5: [1.25, False], True: None},
        {"m": shared, "n": {"m": shared, "k": shared}},
        {"t": reports.Text('[["1","-1/2"],[]]'), "u": reports.Text("[]")},
        reports.bundle_doc(built["wedge"]),
    ]
    for payload in payloads:
        path = reports.write_report(tmp_path / "r.json", {"command": "x"}, payload)
        doc = {"format": reports.FORMAT_TAG, "manifest": {"command": "x"},
               "report": payload}
        assert path.read_bytes() == oracles.canonical_json(doc).encode()


def test_report_hash_is_the_hash_of_the_written_file(tmp_path, built):
    # sha256_of and write_json share one encoder: the hash is of the file's bytes
    bundle = built["nonpure-wedge"]
    for doc in (reports.bundle_doc(bundle), bundle.stratification.levels_doc(), {}):
        data = reports.write_json(tmp_path / "d.json", doc).read_bytes()
        assert reports.sha256_of(doc) == hashlib.sha256(data).hexdigest()


def test_failed_report_leaves_no_file(tmp_path):
    # a payload json cannot encode fails mid-document; nothing partial stays
    bad = {"a": [1, 2], "b": {"c": object()}}
    with pytest.raises(TypeError):
        reports.write_report(tmp_path / "o" / "r.json", {}, bad)
    assert list((tmp_path / "o").iterdir()) == []
    # a report already there is kept whole
    good = reports.write_report(tmp_path / "o" / "r.json", {}, {"a": 1}).read_bytes()
    with pytest.raises(TypeError):
        reports.write_report(tmp_path / "o" / "r.json", {}, bad)
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["r.json"]
    assert (tmp_path / "o" / "r.json").read_bytes() == good


def test_build_report_contents(tmp_path):
    o = out(tmp_path)
    assert run(["build", "demo:wedge", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "ic-bundle.json").read_text())
    rep = doc["report"]
    assert rep["stalk_table"]["0"] == {"-2": 1, "-1": 1}
    assert rep["field"] == "q"
    assert rep["naive_filtration"] is False
    assert len(rep["stratification_hash"]) == 64
    assert rep["construction_log"][0]["cutoff"] == -2


def _has_shape(m, rows, cols):
    return len(m) == rows and all(len(row) == cols for row in m)


def _round_trip_builds(spaces, build_of):
    """((demo, field, kind), bundle) for the builds the report sweep writes.

    Every demo over QQ and F_32003, canonical and naive, and over F_2
    canonical; on wedge and pinched-torus also a canonical build over QQ
    and F_32003 with the constant rank-2 system and with the rank-2 system
    that has diag(2, 1) on every cover pair of U_1.  Last, one build the
    sweep does not write: the wedge over QQ with each vertex v renamed to
    the string "0v", which a report key must not read back as the int v.
    """
    for name in demos.DEMO_NAMES:
        for field, kind in (("q", "canonical"), ("q", "naive"), ("fp:32003", "canonical"),
                            ("fp:32003", "naive"), ("fp:2", "canonical")):
            yield (name, field, kind), build_of(name, field, kind == "naive")
    for name in ("wedge", "pinched-torus"):
        K, strat = spaces[name]
        U = compute_open_filtration(strat).U[1]
        for field in ("q", "fp:32003"):
            F = field_by_name(field)
            diag21 = [[F.parse(2), F.parse(0)], [F.parse(0), F.parse(1)]]
            for kind, L in (("rank2", constant_complex(F, K, U, 2)),
                            ("diag21", make_local_system(
                                F, K, U, {s: 2 for s in U},
                                {pair: diag21 for pair in K.cover_pairs(U)}))):
                yield (name, field, kind), deligne.build_ic(strat, L, field=F)
    K, doc = demos.demo_space("wedge")

    def rename(simplices):
        return [["0%d" % v for v in s] for s in simplices]

    K = SimplicialComplex(["0%d" % v for v in K.vertices],
                          rename(complex_to_doc(K)["maximal_simplices"]))
    strat = validate_stratification(K, {k: rename(gens) for k, gens in doc["levels"].items()})
    yield ("wedge, vertices '0v'", "q", "canonical"), deligne.build_ic(strat)


def test_bundle_dump_round_trip(tmp_path, spaces, build_of):
    # every build report reads back as a valid complex with the report's
    # stalk table, and every matrix it writes, the zero blocks the writer
    # spells out included, has the shape its stalk dims give; the reloaded
    # complex gets the live bundle's AX1 and AX2 reports, so the bytes
    # alone describe the complex the axioms were checked on, and a
    # canonical build passes both; the reloaded costalks at the default
    # sample are the live bundle's and those of each open star alone
    # (`oracles.star_costalk`), so the AX2 verdict does not rest only on
    # the costalk code it checks
    for label, bundle in _round_trip_builds(spaces, build_of):
        strat = bundle.stratification
        K = strat.complex
        path = reports.write_report(tmp_path / "ic-bundle.json", {},
                                    reports.bundle_doc(bundle))
        doc = json.loads(path.read_text())["report"]
        S = oracles.load_sheaf_complex(doc["complex"], K, bundle.field)
        for s, ms in S.diffs.items():
            for q, m in ms.items():
                assert _has_shape(m, S.dim(s, q + 1), S.dim(s, q)), (label, s, q)
        for (s, t), ms in S.restrictions.items():
            for q, m in ms.items():
                assert _has_shape(m, S.dim(t, q), S.dim(s, q)), (label, s, t, q)
        S.validate()
        assert reports.table_doc(K, S.stalk_table()) == doc["stalk_table"], label
        sample = deligne.default_costalk_sample(strat)
        costalks = sec.cell_costalk(S, sample)
        assert costalks == sec.cell_costalk(bundle.ic, sample), label
        for sid in sample:
            assert costalks[sid] == oracles.star_costalk(S, sid), (label, sid)
        for check in (ax.check_ax1, ax.check_ax2):
            live = check(bundle.ic, strat).to_json()
            assert check(S, strat).to_json() == live, (label, check)
            assert label[2] == "naive" or live["passed"], (label, check)


def test_compare_command(tmp_path):
    o = out(tmp_path)
    assert run(["compare", "demo:wedge", "--refine", "extra-point", "--out", o]) == 0
    assert run(["compare", "demo:fake-surface", "--naive", "--refine", "self",
                "--out", o]) == 2
    doc = json.loads((tmp_path / "o" / "compare-report.json").read_text())
    assert doc["report"]["comparisons"][0]["passed"] is False
    assert doc["report"]["comparisons"][0]["witnesses"]


def test_compare_with_local_system(tmp_path, monkeypatch):
    # the second build gets the given system restricted to its own U_1
    o = out(tmp_path)
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps({"rank": 2}))
    filtrations = []

    def counted(strat):
        filtrations.append(strat)
        return compute_open_filtration(strat)

    monkeypatch.setattr(deligne, "compute_open_filtration", counted)
    assert run(["compare", "demo:wedge", "--local-system", str(rank2), "--refine", "self",
                "--refine", "extra-point", "--out", o]) == 0
    # one open filtration per build: the first stratification's is built
    # once, and `self` reads that build again
    assert len(filtrations) == 1 + 1
    doc = json.loads((tmp_path / "o" / "compare-report.json").read_text())
    assert [c["hypercohomology"] for c in doc["report"]["comparisons"]] == \
        [{"-2": 2, "-1": 2, "1": 2, "2": 2}] * 2


def test_compare_builds_the_first_stratification_once(tmp_path, monkeypatch):
    # two recipes need three builds, and report what two one-recipe jobs report
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build_ic(*args, **kwargs)

    build_ic = deligne.build_ic
    monkeypatch.setattr(deligne, "build_ic", counted)
    recipes = ("extra-point", "random:7")

    def comparisons(*refine):
        o = tmp_path / "-".join(refine)
        argv = ["compare", "demo:wedge", "--out", str(o)]
        for recipe in refine:
            argv += ["--refine", recipe]
        assert run(argv) == 0
        return json.loads((o / "compare-report.json").read_text())["report"]["comparisons"]

    both = comparisons(*recipes)
    assert len(builds) == 3
    assert both == comparisons(recipes[0]) + comparisons(recipes[1])


@pytest.mark.parametrize("naive, builds", ((False, 1), (True, 2)))
def test_compare_self_builds_once(tmp_path, monkeypatch, naive, builds):
    # a canonical first side is its own refinement's build; a naive one is
    # compared with the canonical build of the same stratification
    count = []

    def counted(*args, **kwargs):
        count.append(kwargs.get("naive", False))
        return build_ic(*args, **kwargs)

    build_ic = deligne.build_ic
    monkeypatch.setattr(deligne, "build_ic", counted)
    argv = ["compare", "demo:wedge", "--refine", "self", "--out", out(tmp_path)]
    assert run(argv + ["--naive"] * naive) == 0
    assert count == [naive] + [False] * (builds - 1)


@pytest.mark.parametrize("fault", ("truncate_le", "is_clc"))
def test_engine_fault_exits_3(tmp_path, capsys, monkeypatch, fault):
    # a failed check of a computed complex is no input error: one
    # `internal error:` line naming the stage and layer, and the degree
    def truncate_le(S, a):
        raise sec.EngineError("the kernel at [0] in degree %d does not land" % a)

    def is_clc(S, strat):
        return False, {"stratum": 0, "degree": -1, "pair": ((0,), (0, 1))}

    monkeypatch.setattr(sec, fault, {"truncate_le": truncate_le, "is_clc": is_clc}[fault])
    assert run(["build", "demo:wedge", "--out", out(tmp_path)]) == 3
    assert capsys.readouterr().err == "internal error: %s\n" % {
        "truncate_le": "step 1 (collapsed through 1): truncation: the kernel at [0] in "
                       "degree -2 does not land",
        "is_clc": "verify, stage 2: not stratumwise locally constant: "
                  "{'stratum': 0, 'degree': -1, 'pair': ((0,), (0, 1))}"}[fault]
    assert not (tmp_path / "o" / "ic-bundle.json").exists()


def test_at_names_a_vertex_by_its_str(tmp_path, capsys):
    # a vertex is named by str(v) alone: "01" names the string vertex "01",
    # and "00", "+0" or a non-ASCII digit name no vertex
    o = out(tmp_path)
    ids = ["01", "a", "b", "c"]
    faces = [[v for v in ids if v != w] for w in ids]
    sphere = _bad_space(tmp_path, "sphere", {"vertices": ids, "maximal_simplices": faces},
                        {"levels": {"0": [["01"]], "1": faces}})
    assert run(["stalks", sphere, "--at", "01", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "stalks-report.json").read_text())
    assert doc["manifest"]["options"]["at"] == ["01"]
    assert list(doc["report"]["stalks"]) == ["01"]
    for at in ("1", "001", "01,a,", "1,a"):
        assert run(["stalks", sphere, "--at", at, "--out", o]) == 1, at
        assert capsys.readouterr().err.count("\n") == 1
    for at in ("00", "+0", "-0", "\u0660", "0,01"):
        assert run(["stalks", "demo:wedge", "--at", at, "--out", o]) == 1, at
        err = capsys.readouterr().err
        assert err.startswith("error: no vertex ") and err.count("\n") == 1, (at, err)
    # an int vertex and a string vertex spelled alike have one name, so
    # the space is refused at load, whatever the command
    mixed = _bad_space(tmp_path, "mixed", {"vertices": [1, "1", 2],
                                           "maximal_simplices": [[1, "1", 2]]},
                       {"levels": {"0": [[1]], "1": [[1, "1", 2]]}})
    for command in ("validate", "filtration", *cli.BUILDS):
        assert run([command, mixed, "--out", o]) == 1, command
        assert capsys.readouterr().err == \
            "error: vertex ids 1 and '1' are both named '1'\n", command


@pytest.mark.parametrize("command, calls", (
    ("build", 1), ("hyperco", 1), ("stalks", 1), ("costalks", 1), ("coarsen", 1),
    # check-ax2 reads only the open strata U^m and their closures X^m
    ("check-classic-ax2", 1), ("check-ax2", 1),
    # check-ax1 computes its own filtration
    ("check-ax1", 2),
    # one per stratification
    ("compare", 2)))
def test_open_filtrations_per_command(tmp_path, monkeypatch, command, calls):
    o = out(tmp_path)
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps({"rank": 2}))
    count = []

    def counted(strat):
        count.append(strat)
        return compute_open_filtration(strat)

    for module in (cli, deligne, ax):
        monkeypatch.setattr(module, "compute_open_filtration", counted)
    assert run([command, "demo:wedge", "--out", o]) in (0, 2)
    assert len(count) == calls
    # a --local-system file is loaded on U_1, the union of the open strata,
    # which needs no filtration of its own
    del count[:]
    assert run([command, "demo:wedge", "--local-system", str(rank2), "--out", o]) in (0, 2)
    assert len(count) == calls


@pytest.mark.parametrize("command", ("build", "check-ax1", "compare"))
def test_failed_filtration_identity_exits_1(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(stratify, "verify_filtration_identities",
                        lambda filt: ["U_1 is not dense"])
    assert run([command, "demo:wedge", "--out", out(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: open filtration identity failed: U_1 is not dense\n"


def test_stalks_costalks_coarsen_commands(tmp_path):
    o = out(tmp_path)
    assert run(["stalks", "demo:wedge", "--at", "0", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "stalks-report.json").read_text())
    assert doc["report"]["stalks"]["0"] == {"-2": 1, "-1": 1}
    assert run(["costalks", "demo:wedge", "--at", "0", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "costalks-report.json").read_text())
    assert doc["report"]["costalks"]["0"] == {"1": 1, "2": 1}
    assert run(["coarsen", "demo:fake-surface", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "coarsen-report.json").read_text())
    assert doc["report"]["levels"]["0"] == [[0]]


def test_point_queries_report_the_full_rows(tmp_path):
    # stalks --at and costalks --sample build on open stars only; their rows
    # are those of the reports that build on the whole space
    def rows(*argv):
        o = tmp_path / "-".join((argv[0],) + argv[2:])
        assert run(list(argv) + ["--field", "fp:32003", "--out", str(o)]) == 0
        doc = json.loads((o / ("%s-report.json" % argv[0])).read_text())
        return doc["report"][argv[0]]

    space = "demo:susp-s1xs2"
    stalks = rows("stalks", space)
    for at in ("12", "0", "2,12"):
        got = rows("stalks", space, "--at", at)
        assert len(got) == 1 and got.items() <= stalks.items(), at
    costalks = rows("costalks", space)
    got = rows("costalks", space, "--sample", "6")
    assert len(got) > 6 and got.items() <= costalks.items()


def test_file_inputs_and_local_system(tmp_path):
    o = out(tmp_path)
    assert run(["demo", "wedge", "--out", o]) == 0
    d = tmp_path / "o" / "demos" / "wedge"
    ls = tmp_path / "rank2.json"
    ls.write_text(json.dumps({"rank": 2}))
    assert run(["build", str(d), "--local-system", str(ls), "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "ic-bundle.json").read_text())
    assert doc["report"]["stalk_table"]["0"] == {"-2": 2, "-1": 2}


def test_manifest_names_every_input(tmp_path):
    # a report records each input that changes it: the --at simplex and the
    # local system's bytes, and neither where the option is not given
    o = out(tmp_path)
    manifests = []
    for at in ("1", "2"):
        assert run(["stalks", "demo:wedge", "--at", at, "--out", o]) == 0
        doc = json.loads((tmp_path / "o" / "stalks-report.json").read_text())
        manifests.append(doc["manifest"])
    assert manifests[0] != manifests[1]
    assert [m["options"]["at"] for m in manifests] == [[1], [2]]
    assert run(["stalks", "demo:wedge", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "stalks-report.json").read_text())
    assert "at" not in doc["manifest"]["options"]

    K, sdoc = demos.demo_space("wedge")
    U = compute_open_filtration(validate_stratification(K, sdoc["levels"])).U[1]
    key = lambda sid: reports.simplex_key(K, sid)
    rank2, diag21 = tmp_path / "rank2.json", tmp_path / "diag21.json"
    rank2.write_text(json.dumps({"rank": 2}))
    diag21.write_text(json.dumps({
        "stalk_dims": {key(s): 2 for s in U},
        "matrices": {"%s|%s" % (key(s), key(t)): [[2, 0], [0, 1]]
                     for s, t in K.cover_pairs(U)}}))
    hashes = set()
    for system in ([], ["--local-system", str(rank2)], ["--local-system", str(diag21)]):
        assert run(["check-ax2", "demo:wedge", "--field", "q", "--out", o] + system) == 0
        data = (tmp_path / "o" / "check-ax2-report.json").read_bytes()
        hashes.add(hashlib.sha256(data).hexdigest())
        sha = json.loads(data)["manifest"]["inputs"].get("local_system_sha256")
        assert sha == (hashlib.sha256(Path(system[1]).read_bytes()).hexdigest()
                       if system else None)
    assert len(hashes) == 3


def test_sample_budget_has_one_spelling(tmp_path, capsys):
    # the manifest records --sample as written, so a budget is accepted only
    # as str(n): "07" and "00" exit 1 with one error line, as a level key
    # "01" does, and so does "all", which spelled the default a second way;
    # the canonical spellings still run
    o = out(tmp_path)
    for text in ("07", "00", "007", "all"):
        assert run(["costalks", "demo:wedge", "--sample", text, "--out", o]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: --sample ") and err.count("\n") == 1, (text, err)
        assert not (tmp_path / "o" / "costalks-report.json").exists()
    for text in ("0", "7"):
        assert run(["costalks", "demo:wedge", "--sample", text, "--out", o]) == 0, text
        doc = json.loads((tmp_path / "o" / "costalks-report.json").read_text())
        assert doc["manifest"]["options"]["sample"] == text


def test_local_system_is_read_once(tmp_path, capsys, monkeypatch):
    # the manifest hashes the bytes that were parsed: the file is read once,
    # and is rewritten after each read, so a second read would parse rank 3
    o = out(tmp_path)
    system = tmp_path / "rank2.json"
    data = json.dumps({"rank": 2}).encode()
    system.write_bytes(data)
    reads = []
    for name in ("read_bytes", "read_text"):
        def counted(self, *args, _real=getattr(Path, name), **kwargs):
            got = _real(self, *args, **kwargs)
            if self == system:
                reads.append(got)
                system.write_bytes(json.dumps({"rank": 3}).encode())
            return got
        monkeypatch.setattr(Path, name, counted)
    assert run(["build", "demo:wedge", "--local-system", str(system), "--out", o]) == 0
    assert len(reads) == 1
    doc = json.loads((tmp_path / "o" / "ic-bundle.json").read_text())
    assert doc["manifest"]["inputs"]["local_system_sha256"] == \
        hashlib.sha256(data).hexdigest()
    assert doc["report"]["stalk_table"]["0"] == {"-2": 2, "-1": 2}
    # a file that cannot be read or parsed is one error line
    capsys.readouterr()
    for bad, content in (("missing", None), ("not-utf8", b'{"rank": "\xff"}'),
                         ("deep", b"[" * 200000)):
        path = tmp_path / (bad + ".json")
        if content is not None:
            path.write_bytes(content)
        assert run(["build", "demo:wedge", "--local-system", str(path), "--out", o]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read local system: ") \
            and err.count("\n") == 1, (bad, err)


def test_field_option(tmp_path):
    o = out(tmp_path)
    assert run(["hyperco", "demo:wedge", "--field", "fp:7", "--out", o]) == 0
    doc = json.loads((tmp_path / "o" / "hyperco-report.json").read_text())
    assert doc["manifest"]["field"] == "fp:7"
    assert doc["report"]["hypercohomology"] == {"-2": 1, "-1": 1, "1": 1, "2": 1}


def test_check_links_advisory(tmp_path, capsys):
    o = out(tmp_path)
    assert run(["validate", "demo:pinched-torus", "--check-links", "--out", o]) == 0
    captured = capsys.readouterr()
    assert "advisory" in captured.out
    doc = json.loads((tmp_path / "o" / "validate-report.json").read_text())
    assert doc["report"]["link_warnings"]


def test_checks_compute_each_costalk_once(tmp_path, monkeypatch):
    # every costalk a job reads comes from one cell_costalk call per built
    # complex: the AX1 zone, the whole domain for the AX2 checks and the
    # costalks table, the point or the sample of a point query, and the
    # sample on each side of compare
    from icsheaf import sections as sec
    calls = []
    real = sec.cell_costalk

    def counted(S, sids):
        calls.append(S)
        return real(S, sids)

    monkeypatch.setattr(sec, "cell_costalk", counted)
    o = out(tmp_path)
    for argv, code, n in ((["check-ax1", "demo:wedge"], 0, 1),
                          (["check-ax2", "demo:wedge"], 0, 1),
                          (["check-classic-ax2", "demo:wedge"], 2, 1),
                          (["costalks", "demo:wedge"], 0, 1),
                          (["costalks", "demo:wedge", "--at", "0"], 0, 1),
                          (["costalks", "demo:wedge", "--sample", "4"], 0, 1),
                          (["compare", "demo:wedge"], 0, 2)):
        calls.clear()
        assert run(argv + ["--out", o]) == code, argv
        assert len(calls) == n, argv
