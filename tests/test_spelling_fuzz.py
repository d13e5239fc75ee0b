"""A bounded, seeded fuzzer for one spelling per job.

Each case respells one input of a job on a copy of the wedge demo: the
value of `--sample`, `--field` or the number in a `--refine` recipe, the
simplex of `--at` (its order, separators, whitespace, leading zeros,
signs, non-ASCII digits and empty fields, on the wedge and on a copy
whose vertex ids are strings of digits), a
level key, or the top level of the complex, stratification or
local-system document (an unknown or repeated key, a bool, float, NaN or
infinity for an int, a byte-order mark, bytes that are not UTF-8).  A
case either exits 1 with exactly one `error:` line, or it exits 0 and
writes the report its canonical spelling writes, byte for byte: two
spellings of one job that write two reports are what it looks for.  A
report names the space's documents by path, not by their bytes, so a
respelled complex or stratification document that was read would write
the canonical report; README refuses every respelling made here, so those
cases must exit 1.  The seeds are fixed, so a failing case reproduces;
all of them take about two seconds.
"""

import json
import random

import pytest

from icsheaf import demos, reports
from icsheaf.cli import run
from icsheaf.simplicial import complex_to_doc, load_complex
from icsheaf.stratify import compute_open_filtration, validate_stratification

SEEDS = range(12)
DRAWS = 3  # cases per input and seed
# the zeros of five sets of decimal digits that are not ASCII: Arabic-Indic,
# extended Arabic-Indic, Devanagari, fullwidth and mathematical bold
ZEROS = (0x660, 0x6F0, 0x966, 0xFF10, 0x1D7CE)


def respell_number(rng, text):
    """Another spelling of the decimal integer text, of its value where int() reads one."""
    n = int(text)
    forms = ["0" + text, "+" + text, " " + text, text + " ", "\t" + text, text + "\n",
             "".join(chr(rng.choice(ZEROS) + int(c)) for c in text),
             text + ".0", text + "e0", hex(n), oct(n), ""]
    if n == 0:
        forms.append("-0")
    if len(text) > 1:
        i = rng.randrange(1, len(text))
        forms.append(text[:i] + "_" + text[i:])
    return rng.choice(forms)


def respell_word(rng, text):
    """Another spelling of the word text: its case, a space, `_` for `-`, a doubled letter."""
    return rng.choice(sorted({text.upper(), text.capitalize(), " " + text, text + " ",
                              text.replace("-", "_"), text + text[-1]} - {text}))


def option_cases(rng, space):
    """(canonical argv, respelled argv) for the option values."""
    budget = rng.choice(("3", "12", "24"))
    yield ["costalks", space, "--sample", budget], \
        ["costalks", space, "--sample", respell_number(rng, budget)]
    p = rng.choice(("2", "5", "32003"))
    yield ["hyperco", space, "--field", "fp:" + p], \
        ["hyperco", space, "--field", rng.choice(("fp:" + respell_number(rng, p),
                                                  respell_word(rng, "fp") + ":" + p))]
    yield ["hyperco", space, "--field", "q"], ["hyperco", space, "--field",
                                               respell_word(rng, "q")]
    name, num = rng.choice((("random", "3"), ("random", "10"), ("extra-point", "1")))
    yield ["compare", space, "--refine", "%s:%s" % (name, num)], \
        ["compare", space, "--refine", rng.choice((
            "%s:%s" % (name, respell_number(rng, num)),
            "%s:%s" % (respell_word(rng, name), num)))]


def respell_simplex(rng, names):
    """Another spelling of the simplex whose vertices are named names."""
    names = list(names)
    i = rng.randrange(len(names))
    name = names[i]
    kind = rng.choice(("order", "separator", "whitespace", "zero", "sign", "digits",
                       "empty"))
    if kind == "order":
        rng.shuffle(names)
    elif kind == "separator":
        return rng.choice((", ", " ", "\t", " , ", ",\n")).join(names)
    elif kind == "whitespace":
        return rng.choice((" ", "\t")) + ",".join(names) + rng.choice(("", " ", "\n"))
    elif kind == "zero":
        names[i] = name[1:] if name.startswith("0") and len(name) > 1 else "0" + name
    elif kind == "sign":
        names[i] = rng.choice("+-") + name
    elif kind == "digits":
        names[i] = "".join(chr(rng.choice(ZEROS) + int(c)) if c.isdigit() else c
                           for c in name)
    else:
        return rng.choice(("," + ",".join(names), ",".join(names) + ",",
                           ",".join(names[:i] + [""] + names[i:])))
    return ",".join(names)


def at_case(rng, space, K):
    """(canonical argv, respelled argv) for the simplex of `--at`."""
    command = rng.choice(("stalks", "costalks"))
    names = [str(v) for v in K.simplices[rng.randrange(len(K))]]
    return [command, space, "--at", ",".join(names)], \
        [command, space, "--at", respell_simplex(rng, names)]


def _int_paths(doc, path=()):
    """The paths to every int (not bool) in a JSON document."""
    if type(doc) is int:
        yield path
    elif isinstance(doc, dict):
        for k, v in doc.items():
            yield from _int_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _int_paths(v, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return dict(doc, **{head: _replaced(doc[head], rest, value)})
    return doc[:head] + [_replaced(doc[head], rest, value)] + doc[head + 1:]


def respell_doc(rng, doc):
    """(what, bytes) for the document respelled once."""
    kind = rng.choice(("unknown key", "repeated key", "int", "BOM", "not UTF-8"))
    if kind == "unknown key":
        key = rng.choice(("colour", "comment", "", "Levels", "levels ", "Rank",
                          "levels", "rank", "vertices", "stalk_dims", "matrices"))
        if key not in doc:
            return kind, json.dumps(dict(doc, **{key: rng.choice((0, [], None))})).encode()
        kind = "repeated key"
    if kind == "repeated key":
        items = list(doc.items())
        i = rng.randrange(len(items))
        items.insert(rng.randrange(len(items) + 1), items[i])
        return kind, ("{%s}" % ", ".join("%s: %s" % (json.dumps(k), json.dumps(v))
                                         for k, v in items)).encode()
    if kind == "int":
        path = rng.choice(list(_int_paths(doc)))
        value = rng.choice((True, False, 1.0, float("nan"), float("inf"), -float("inf")))
        return "%r at %r" % (value, path), json.dumps(_replaced(doc, path, value)).encode()
    data = json.dumps(doc).encode()
    if kind == "BOM":
        return kind, b"\xef\xbb\xbf" + data
    i = rng.randrange(len(data) + 1)
    return kind, rng.choice((data[:i] + b"\xff" + data[i:],
                             data.replace(b" ", b"\xa0", 1),
                             data.decode().encode("utf-16")))


def _report(command):
    return "ic-bundle.json" if command == "build" else "%s-report.json" % command


def _renamed(doc, name):
    """doc with each int vertex id v in it replaced by name(v)."""
    if type(doc) is int:
        return name(doc)
    if isinstance(doc, dict):
        return {k: _renamed(v, name) for k, v in doc.items()}
    return [_renamed(v, name) for v in doc]


@pytest.fixture(scope="module")
def wedge_copy(tmp_path_factory):
    """(directory, complex doc, levels doc, the two local-system docs, the two
    complexes whose `--at` is respelled) of the wedge and of a copy with
    vertex ids "00", "01", ..."""
    d = tmp_path_factory.mktemp("fuzz")
    K, sdoc = demos.demo_space("wedge")
    cdoc = complex_to_doc(K)
    strings = (_renamed(cdoc, "0{}".format), _renamed(sdoc, "0{}".format))
    for name, (c, s) in (("wedge", (cdoc, sdoc)), ("wedge-str", strings)):
        space = d / name
        space.mkdir()
        (space / "complex.json").write_text(json.dumps(c))
        (space / "stratification.json").write_text(json.dumps(s))
    U = compute_open_filtration(validate_stratification(K, sdoc["levels"])).U[1]
    key = lambda sid: reports.simplex_key(K, sid)
    diag21 = {"stalk_dims": {key(s): 2 for s in U},
              "matrices": {"%s|%s" % (key(s), key(t)): [[2, 0], [0, 1]]
                           for s, t in K.cover_pairs(U)}}
    return d, cdoc, sdoc, ({"rank": 2}, diag21), \
        {"wedge": K, "wedge-str": load_complex(strings[0])}


@pytest.mark.parametrize("seed", SEEDS)
def test_each_job_has_one_spelling(seed, wedge_copy, capsys):
    d, cdoc, sdoc, systems, complexes = wedge_copy
    rng = random.Random(seed)
    space = str(d / "wedge")

    def job(argv, out, files=()):
        """Run argv with the given files written, then put back what was there."""
        saved = [(d / name, (d / name).read_bytes() if (d / name).exists() else None)
                 for name, _ in files]
        for name, data in files:
            (d / name).write_bytes(data)
        try:
            code = run(argv + ["--out", str(d / out)])
        finally:
            for path, data in saved:
                if data is None:
                    path.unlink()
                else:
                    path.write_bytes(data)
        return code, capsys.readouterr().err

    def check(what, canonical, argv, files=(), canonical_files=()):
        """canonical: the same job spelled canonically, or None for a case to refuse."""
        code, err = job(argv, "case", files)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (seed, what, err)
            return
        assert canonical is not None, (seed, what, "a respelled document was read")
        assert code == 0, (seed, what, code, err)
        assert job(canonical, "canonical", canonical_files)[0] == 0, (seed, what)
        name = _report(argv[0])
        assert (d / "case" / name).read_bytes() == (d / "canonical" / name).read_bytes(), \
            (seed, what, "exits 0 and writes another report than its canonical spelling")

    for _ in range(DRAWS):
        for canonical, argv in option_cases(rng, space):
            check(argv, canonical, argv)
        for name, K in sorted(complexes.items()):
            canonical, argv = at_case(rng, str(d / name), K)
            # every simplex has a spelling: str(v) of each vertex
            assert job(canonical, "canonical")[0] == 0, (seed, canonical)
            check(argv, canonical, argv)
        levels = sdoc["levels"]
        k = rng.choice(sorted(levels))
        key = respell_number(rng, k)
        respelled = {key if j == k else j: v for j, v in levels.items()}
        if rng.random() < 0.5:
            respelled[k] = levels[k]
        check(("level key", key), None, ["validate", space],
              [("wedge/stratification.json",
                json.dumps({"levels": respelled}).encode())])
        for name, doc in (("complex.json", cdoc), ("stratification.json", sdoc)):
            what, data = respell_doc(rng, doc)
            check((name, what, data), None, ["validate", space],
                  [("wedge/" + name, data)])
        system = rng.choice(systems)
        what, data = respell_doc(rng, system)
        argv = ["build", space, "--local-system", str(d / "system.json")]
        check(("local system", what, data), argv, argv, [("system.json", data)],
              [("system.json", json.dumps(system).encode())])
