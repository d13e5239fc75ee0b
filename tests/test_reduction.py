import random
import sys
from fractions import Fraction
from types import MappingProxyType
from itertools import combinations

import pytest

from icsheaf import demos, reports
from icsheaf import sections as sec
from icsheaf.fields import QQ, field_by_name
from icsheaf.reduction import SparseComplex
from icsheaf.sheaves import SheafComplex

import oracles
import work_counts


def simplex_cochains(n, kmax=None, support=None, cls=SparseComplex):
    """Simplicial cochain complex of the faces of the n-vertex simplex.

    Faces with at most kmax vertices (default all); support(face), if
    given, labels each generator.  Returns (G, faces), faces[g] the vertex
    tuple of generator g.
    """
    G = cls(QQ)
    faces = [f for k in range(1, (kmax or n) + 1) for f in combinations(range(n), k)]
    ids = {f: G.add_gen(len(f) - 1, support(f) if support else None) for f in faces}
    for f in faces:
        for v in range(n):
            cof = tuple(sorted(f + (v,)))
            if v not in f and cof in ids:
                oracles.add_entry(G, ids[f], ids[cof], -1 if cof.index(v) % 2 else 1)
    return G, faces


def test_ids_are_consecutive_from_zero():
    G = SparseComplex(QQ)
    assert [G.add_gen(d) for d in (0, 1, 1, 2, 0)] == [0, 1, 2, 3, 4]
    assert G.degree == {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}
    assert len(G.dout) == len(G.support) == 5
    # the reverse index exists only while reduce runs
    assert not hasattr(G, "din")


def test_add_entry_cancellation_clears_both_directions():
    G = SparseComplex(QQ)
    g, h = G.add_gen(0), G.add_gen(1)
    oracles.add_entry(G, g, h, 2)
    assert G.dout[g] == {h: 2}
    oracles.add_entry(G, g, h, 0)
    assert G.dout[g] == {h: 2}
    oracles.add_entry(G, g, h, -2)
    assert G.dout[g] == {}
    # reduce indexes the sources from the rows: h has none left to pivot on
    assert G.minimize_dims() == {0: 1, 1: 1} and not hasattr(G, "din")


def test_minimize_dims_raises_on_a_surviving_entry():
    # the free-reduction check is a raise, not an assert, so it holds
    # under python -O too: a reduce that eliminates nothing leaves x -> y

    class Idle(SparseComplex):
        def reduce(self, same_support=False):
            pass

    G = Idle(QQ)
    x, y = G.add_gen(0), G.add_gen(1)
    oracles.add_entry(G, x, y, 2)
    with pytest.raises(RuntimeError, match="left the entry 0 -> 1"):
        G.minimize_dims()


def test_same_support_reduction_never_pivots_across_supports():
    pivots = []

    class Recording(SparseComplex):
        def eliminate(self, g, h):
            pivots.append((self.support[g], self.support[h]))
            return super().eliminate(g, h)

    G, faces = simplex_cochains(4, support=lambda f: f[0], cls=Recording)
    G.reduce(same_support=True)
    assert pivots and all(a == b for a, b in pivots)
    # exhaustive: every entry left joins two supports
    for g, row in enumerate(G.dout):
        for h in row:
            assert G.support[g] != G.support[h]
    assert G.minimize_dims() == {0: 1}


def test_ucols_fill_through_an_elimination():
    # d x = 2y + 3z, and a map column e lands on y; both entries cost 0,
    # so reduce pivots on x -> y, the smaller target
    steps = []

    class Recording(SparseComplex):
        def eliminate(self, g, h):
            ins, outs = super().eliminate(g, h)
            steps.append((g, h, list(ins), dict(outs)))
            return ins, outs

    G = Recording(QQ)
    x, y, z = G.add_gen(0), G.add_gen(1), G.add_gen(1)
    oracles.add_entry(G, x, y, 2)
    oracles.add_entry(G, x, z, 3)
    G.add_ucol(y, "e", 1)
    G.add_ucol(x, "f", 5)
    G.reduce()
    assert steps == [(x, y, [], {z: 3})]
    assert G.ucols == {z: {"e": Fraction(-3, 2)}}
    assert G.degree == {z: 1}
    assert G.dout == [{}, {}, {}] and not hasattr(G, "din")


@pytest.mark.parametrize("same_support", (False, True), ids=("free", "same-support"))
def test_reduce_leaves_one_shared_dead_row_and_only_the_survivors(same_support):
    # every eliminated id's row is the one read-only empty row, in every
    # complex, and degree is rebuilt for the survivors: its table is no
    # larger than a fresh dict of them (1 on the 8-vertex simplex freely,
    # a few per support class otherwise)
    G, faces = simplex_cochains(8, support=lambda f: f[0] if same_support else None)
    G.reduce(same_support)
    assert sys.getsizeof(G.degree) <= sys.getsizeof({g: d for g, d in G.degree.items()})
    complexes = [G] + [random_complex(QQ, random.Random(seed)) for seed in range(5)]
    dead = set()
    for H in complexes:
        if H is not G:
            H.reduce(same_support)
        eliminated = [g for g in range(len(H.dout)) if g not in H.degree]
        assert eliminated
        for g in eliminated:
            row = H.dout[g]
            assert type(row) is MappingProxyType and not row
            with pytest.raises(TypeError):
                row[g] = 1
            dead.add(id(row))
    assert len(dead) == 1


@pytest.mark.parametrize("field", ("q", "fp:32003"))
def test_every_key_of_a_pushforward_is_its_id_object(monkeypatch, tower_of, field):
    # the nerve complex of every pushforward in a tower keys its rows, its
    # reverse index, its map columns and its degrees by the one int object
    # add_gen made for each id, before, during and after the cleanup
    real_reduce, real_eliminate = SparseComplex.reduce, SparseComplex.eliminate
    checked = []

    def shared(G):
        ids = G.ids
        assert len(ids) > 256  # ids above 256 are not the interpreter's cached ints
        assert all(g is ids[g] for g in G.degree)
        assert all(h is ids[h] for row in G.dout for h in row)
        assert all(h is ids[h] for h in G.ucols)

    def eliminate(G, g, h):
        if len(checked) % 64 == 0:
            assert all(s is G.ids[s] for ins in G.din for s in ins)
        checked.append(g)
        return real_eliminate(G, g, h)

    def reduce(G, same_support=False):
        if same_support:
            shared(G)
        real_reduce(G, same_support)
        if same_support:
            shared(G)

    bundle = tower_of("susp-s1xs2", field)
    monkeypatch.setattr(SparseComplex, "reduce", reduce)
    monkeypatch.setattr(SparseComplex, "eliminate", eliminate)
    for entry, S in zip(bundle.log, bundle.intermediates):
        sec.pushforward_open(S, bundle.filtration.U[entry["collapsed_through"] + 1])
    assert checked


@pytest.mark.parametrize("field", ("q", "fp:2", "fp:32003"))
def test_eliminator_matches_the_tuple_keyed_reference(monkeypatch, tower_of, field):
    # every pushforward of every demo's tower, canonical and naive, and each
    # IC's whole-domain cellular complex, same-support and free: every
    # reduction leaves the live ids, degrees, rows and map columns that the
    # tuple-keyed and the dict-indexed reference eliminators leave on a copy
    # of its input
    real, case, seen = SparseComplex.reduce, [], []

    def checked(G, same_support=False):
        refs = [Ref(G) for Ref in (oracles.ReferenceComplex, oracles.DictIndexComplex)]
        for R in refs:
            R.reduce(same_support)
        real(G, same_support)
        for R in refs:
            g = oracles.first_reduced_difference(G, R)
            assert g is None, "%s: first differing id %d from %s" % (
                case[-1], g, type(R).__name__)
        seen.append(same_support)

    towers = {(name, naive): tower_of(name, field, naive)
              for name in demos.DEMO_NAMES for naive in (False, True)}
    monkeypatch.setattr(SparseComplex, "reduce", checked)
    for (name, naive), bundle in towers.items():
        label = "%s%s over %s" % (name, " --naive" if naive else "", field)
        for entry, S in zip(bundle.log, bundle.intermediates):
            case.append("%s, pushforward of step %d" % (label, entry["step"]))
            sec.pushforward_open(S, bundle.filtration.U[entry["collapsed_through"] + 1])
        for same_support in (True, False):
            case.append("%s, cellular complex of the IC%s"
                        % (label, " (same support)" if same_support else ""))
            sec._cellular_complex(bundle.ic, bundle.ic.domain).reduce(same_support)
    assert True in seen and False in seen


class CountingCancels(SparseComplex):
    """Counts the fill entries that cancel, the case where din loses an id."""

    cancels = 0

    def eliminate(self, g, h):
        met = [(s, t) for s in self.din[h] if s != g
               for t in self.dout[g] if t != h and t in self.dout[s]]
        out = super().eliminate(g, h)
        self.cancels += sum(t not in self.dout[s] for s, t in met)
        return out


def random_complex(F, rng):
    """A seeded random cochain complex with map columns, in which fill cancels.

    The simplicial cochains of a random complex on 5 or 6 vertices, each
    generator supported at one of three labels, in a basis scrambled by
    random same-degree changes e_x <- e_x + c e_y (d² stays 0, and the
    rows gain entries that elimination later cancels), with a few random
    map columns.
    """
    n = rng.choice((5, 6))
    faces = set()
    for _ in range(rng.randrange(3, 7)):
        top = tuple(sorted(rng.sample(range(n), rng.randrange(2, 5))))
        faces.update(f for k in range(1, len(top) + 1) for f in combinations(top, k))
    faces = sorted(faces, key=lambda f: (len(f), f))
    G = CountingCancels(F)
    ids = {f: G.add_gen(len(f) - 1, rng.randrange(3)) for f in faces}
    one, mone = F.one, F.neg(F.one)
    for f in faces:
        for v in range(n):
            cof = tuple(sorted(f + (v,)))
            if v not in f and cof in ids:
                oracles.add_entry(G, ids[f], ids[cof], mone if cof.index(v) % 2 else one)
    coeffs = [one, mone, F.add(one, one)]
    by_degree = {}
    for f in faces:
        by_degree.setdefault(len(f) - 1, []).append(ids[f])
    for _ in range(2 * len(faces)):
        gens = by_degree[rng.choice(sorted(by_degree))]
        if len(gens) < 2:
            continue
        x, y = rng.sample(gens, 2)
        c = rng.choice(coeffs)
        if not c:
            continue
        # e_x = e'_x - c e_y: an entry s -> x also reaches y, times -c
        for s, row in enumerate(G.dout):
            a = row.get(x)
            if a:
                oracles.add_entry(G, s, y, F.neg(F.mul(a, c)))
        for t, b in list(G.dout[y].items()):
            oracles.add_entry(G, x, t, F.mul(c, b))
    for k in range(rng.randrange(1, 4)):
        for g in rng.sample(range(len(faces)), 3):
            G.add_ucol(g, ("col", k), rng.choice(coeffs))
    return G


@pytest.mark.parametrize("field", ("q", "fp:2", "fp:32003"))
def test_eliminator_matches_the_dict_index_oracle(field):
    # seeded random complexes, same-support and free: the eliminator, whose
    # reverse index holds ids only, leaves the live ids, degrees, rows and
    # map columns that the dict-indexed one leaves, and fill does cancel
    F = field_by_name(field)
    cancels = 0
    for seed in range(40):
        for same_support in (True, False):
            G = random_complex(F, random.Random(seed))
            R = oracles.DictIndexComplex(G)
            R.reduce(same_support)
            G.reduce(same_support)
            g = oracles.first_reduced_difference(G, R)
            assert g is None, "random complex %d over %s%s: first differing id %d" % (
                seed, field, " (same support)" if same_support else "", g)
            cancels += G.cancels
    assert cancels


def test_minimize_dims_triangle_boundary():
    G, _ = simplex_cochains(3, kmax=2)
    assert G.minimize_dims() == {0: 1, 1: 1}


def test_gens_sorted_is_ascending():
    G, faces = simplex_cochains(4, support=lambda f: f[0])
    G.reduce(same_support=True)
    live = G.gens_sorted()
    assert live == sorted(G.degree) and 0 < len(live) < len(faces)


# sha256 of reports.sheaf_complex_doc for every stage of the tower (the
# intermediates, the IC last), per (demo, field, naive), recorded on the
# parent commits before generators became integer ids (the final canonical
# QQ documents) and before direct sums, truncation and cohomology sheaves
# passed unchanged blocks through (every stage).  fake-surface shares the
# wedge's complex, and its minimal stratification gives the same IC.
PINNED_TOWER_SHA256 = {
    ("wedge", "q", False): (
        "b6e78a50c61baaf9b3031504b86731406926f7f5a9a56b4ef78f0132576c3b99",
        "b6e78a50c61baaf9b3031504b86731406926f7f5a9a56b4ef78f0132576c3b99",
        "4082d4f77f686ca7baf92fbd52b1cfb4c62343191ed62a3194e044abdaac19da",
    ),
    ("wedge", "q", True): (
        "b6e78a50c61baaf9b3031504b86731406926f7f5a9a56b4ef78f0132576c3b99",
        "4082d4f77f686ca7baf92fbd52b1cfb4c62343191ed62a3194e044abdaac19da",
    ),
    ("wedge", "fp:32003", False): (
        "aeb542450190ce7d6438b2c8dec654c5a7bc8ea147698fe9df8b7d2a7b21f593",
        "aeb542450190ce7d6438b2c8dec654c5a7bc8ea147698fe9df8b7d2a7b21f593",
        "70c3b6bd784cb37988732d11fb9d55c339fc0e4de730666dea594c3353cc317c",
    ),
    ("wedge", "fp:32003", True): (
        "aeb542450190ce7d6438b2c8dec654c5a7bc8ea147698fe9df8b7d2a7b21f593",
        "70c3b6bd784cb37988732d11fb9d55c339fc0e4de730666dea594c3353cc317c",
    ),
    ("pinched-torus", "q", False): (
        "5274090dc9950b7b1d90f597ea507836cd32eb96a1079cb3215e2558cfeb2d63",
        "3dcb6b45504e37a2cc652a36f24ab39174036bf7c7156c250671b8f6e2aecf78",
    ),
    ("pinched-torus", "q", True): (
        "5274090dc9950b7b1d90f597ea507836cd32eb96a1079cb3215e2558cfeb2d63",
        "3dcb6b45504e37a2cc652a36f24ab39174036bf7c7156c250671b8f6e2aecf78",
    ),
    ("pinched-torus", "fp:32003", False): (
        "35574f402f072688e5ba4b0db1cfae575c6b53bc776187efe301d5d3efb545bd",
        "4dbdcd1d780a56bc49d469708d71c48ed73322086679bd7d54a13f32f52c63a5",
    ),
    ("pinched-torus", "fp:32003", True): (
        "35574f402f072688e5ba4b0db1cfae575c6b53bc776187efe301d5d3efb545bd",
        "4dbdcd1d780a56bc49d469708d71c48ed73322086679bd7d54a13f32f52c63a5",
    ),
    ("susp-s1xs2", "q", False): (
        "8c7206c8a559c8fc1ad0036b8d226835dd2544301c5452a8e64b51060fcbe232",
        "8c7206c8a559c8fc1ad0036b8d226835dd2544301c5452a8e64b51060fcbe232",
        "744517eea06fbd45f68a6c9859e0dfd6f961d96a2ab4e4cff52417d0620370a8",
    ),
    ("susp-s1xs2", "q", True): (
        "8c7206c8a559c8fc1ad0036b8d226835dd2544301c5452a8e64b51060fcbe232",
        "8c7206c8a559c8fc1ad0036b8d226835dd2544301c5452a8e64b51060fcbe232",
        "744517eea06fbd45f68a6c9859e0dfd6f961d96a2ab4e4cff52417d0620370a8",
    ),
    ("susp-s1xs2", "fp:32003", False): (
        "6fef311a8bd808f651f32e9fda5db1e1ab354b2951167432ef6f5f3f6743f3d6",
        "6fef311a8bd808f651f32e9fda5db1e1ab354b2951167432ef6f5f3f6743f3d6",
        "612ce4a7680e20443ea54da62efd8137a2e6983c724d6d279faff21f17c32246",
    ),
    ("susp-s1xs2", "fp:32003", True): (
        "6fef311a8bd808f651f32e9fda5db1e1ab354b2951167432ef6f5f3f6743f3d6",
        "6fef311a8bd808f651f32e9fda5db1e1ab354b2951167432ef6f5f3f6743f3d6",
        "612ce4a7680e20443ea54da62efd8137a2e6983c724d6d279faff21f17c32246",
    ),
    ("nonpure-wedge", "q", False): (
        "46f0553f3c32e5360ca406eb944e7386af732c35d6a0bcb1da599cc5893e80a5",
        "46f0553f3c32e5360ca406eb944e7386af732c35d6a0bcb1da599cc5893e80a5",
        "ba1a368dfd0b0d8691b43d1a48076933d73330d2c7ccfc2b4d884cadea391b7f",
    ),
    ("nonpure-wedge", "q", True): (
        "46f0553f3c32e5360ca406eb944e7386af732c35d6a0bcb1da599cc5893e80a5",
        "3b3b4bcd6d1fdc7b956a3ac6d86a9daed90864991a3d5001b23294455bdb0e61",
        "bab86721bc303a4dd6345dfeea9db83cf66491b5a7be780ffb139434b9a5cc99",
    ),
    ("nonpure-wedge", "fp:32003", False): (
        "92d30548cc31194a57390c5db7dcabd8081414830ec607061b92c47bfebcb23c",
        "92d30548cc31194a57390c5db7dcabd8081414830ec607061b92c47bfebcb23c",
        "4461a5b75e016401f4a97b9653861e160036a0415ee9691c1d15d72a93b5b4ee",
    ),
    ("nonpure-wedge", "fp:32003", True): (
        "92d30548cc31194a57390c5db7dcabd8081414830ec607061b92c47bfebcb23c",
        "8f2b40ddffca474f1e85edaeb5308905fae895dcd4c5d90f06168f8d5dfac3db",
        "5686a4c3c15ce2bfe6a74cc7b0f4f6a4ebe313ca8c1d0ae2a64fe69f4b31ede1",
    ),
    ("fake-surface", "q", False): (
        "1de152b91d44cc6d09e0d0d8b224c3b9118285094a42c487cf1005eef41f4ce4",
        "b6e78a50c61baaf9b3031504b86731406926f7f5a9a56b4ef78f0132576c3b99",
        "4082d4f77f686ca7baf92fbd52b1cfb4c62343191ed62a3194e044abdaac19da",
    ),
    ("fake-surface", "q", True): (
        "1de152b91d44cc6d09e0d0d8b224c3b9118285094a42c487cf1005eef41f4ce4",
        "d06ed615d77837d7aa57a56e4a7a09e35c9ea961cd253868cc0f5bbea7aec4d7",
    ),
    ("fake-surface", "fp:32003", False): (
        "5af4a958695ca9b9fa112904710042899e24ce6b1b8af6f977295f1ca2632a61",
        "aeb542450190ce7d6438b2c8dec654c5a7bc8ea147698fe9df8b7d2a7b21f593",
        "70c3b6bd784cb37988732d11fb9d55c339fc0e4de730666dea594c3353cc317c",
    ),
    ("fake-surface", "fp:32003", True): (
        "5af4a958695ca9b9fa112904710042899e24ce6b1b8af6f977295f1ca2632a61",
        "1eb0fcf2fc94b11965b1f9d7751b5be99cbeb206801dad054ee8caa7566527a5",
    ),
}


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_ic_document_is_pinned(built, name):
    assert reports.sha256_of(reports.sheaf_complex_doc(built[name].ic)) \
        == PINNED_TOWER_SHA256[(name, "q", False)][-1]


@pytest.mark.parametrize("naive", (False, True), ids=("canonical", "naive"))
@pytest.mark.parametrize("field", ("q", "fp:32003"))
@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_tower_documents_are_pinned(tower_of, name, field, naive):
    tower = tower_of(name, field, naive).intermediates
    assert tuple(reports.sha256_of(reports.sheaf_complex_doc(S)) for S in tower) \
        == PINNED_TOWER_SHA256[(name, field, naive)]


def _zero_blocks_dropped(S):
    def nonzero(ms):
        return {q: m for q, m in ms.items() if any(any(row) for row in m)}
    return SheafComplex(S.F, S.complex, S.domain, S.dims,
                        {s: nonzero(ms) for s, ms in S.diffs.items()},
                        {p: nonzero(ms) for p, ms in S.restrictions.items()})


def _zero_blocks_filled(S):
    diffs = {s: {q: S.diff(s, q) for q in qs if q + 1 in qs} for s, qs in S.dims.items()}
    restr = {(s, t): {q: S.restriction_cover(s, t, q)
                      for q in S.dims.get(s, {}).keys() | S.dims.get(t, {}).keys()}
             for s, t in S.complex.cover_pairs(S.domain)}
    return SheafComplex(S.F, S.complex, S.domain, S.dims, diffs, restr)


@pytest.mark.parametrize("name, field, naive",
                         [(name, field, naive) for name in demos.DEMO_NAMES
                          for field in ("q", "fp:32003") for naive in (False, True)]
                         + [(name, "fp:2", False) for name in demos.DEMO_NAMES])
def test_document_does_not_depend_on_stored_zero_blocks(tower_of, name, field, naive):
    # a missing matrix is zero: a stage, its copy without a single all-zero
    # matrix and its copy with every canonical key stored write one document
    # (over fp:2 the signs of the differentials wrap to zero)
    for i, S in enumerate(tower_of(name, field, naive).intermediates):
        want = reports.sha256_of(reports.sheaf_complex_doc(S))
        for T in (_zero_blocks_dropped(S), _zero_blocks_filled(S)):
            assert reports.sha256_of(reports.sheaf_complex_doc(T)) == want, (name, field, i)


def test_work_counts_match_the_table():
    # the fixed jobs of tests/work_counts.py do the work recorded in
    # work_counts.json: same cleanup sizes, eliminations, free-reduction
    # inputs and rref cells, job by job
    assert work_counts.differences(work_counts.measure()) == []
