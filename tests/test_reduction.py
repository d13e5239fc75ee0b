from fractions import Fraction
from itertools import combinations

import pytest

from icsheaf import demos, reports
from icsheaf.fields import QQ
from icsheaf.reduction import SparseComplex


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
                G.add_entry(ids[f], ids[cof], -1 if cof.index(v) % 2 else 1)
    return G, faces


def test_ids_are_consecutive_from_zero():
    G = SparseComplex(QQ)
    assert [G.add_gen(d) for d in (0, 1, 1, 2, 0)] == [0, 1, 2, 3, 4]
    assert G.degree == {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}
    assert len(G.dout) == len(G.din) == len(G.support) == 5


def test_add_entry_cancellation_clears_both_directions():
    G = SparseComplex(QQ)
    g, h = G.add_gen(0), G.add_gen(1)
    G.add_entry(g, h, 2)
    assert G.dout[g] == {h: 2} and G.din[h] == {g: 2}
    G.add_entry(g, h, 0)
    assert G.dout[g] == {h: 2}
    G.add_entry(g, h, -2)
    assert G.dout[g] == {} and G.din[h] == {}


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
    # d x = 2y + 3z, and a map column e lands on y
    G = SparseComplex(QQ)
    x, y, z = G.add_gen(0), G.add_gen(1), G.add_gen(1)
    G.add_entry(x, y, 2)
    G.add_entry(x, z, 3)
    G.add_ucol(y, "e", 1)
    G.add_ucol(x, "f", 5)
    ins, outs = G.eliminate(x, y)
    assert ins == {} and outs == {z: 3}
    assert G.ucols == {z: {"e": Fraction(-3, 2)}}
    assert G.degree == {z: 1}
    assert G.dout[x] == G.din[y] == G.din[z] == {}


def test_minimize_dims_triangle_boundary():
    G, _ = simplex_cochains(3, kmax=2)
    assert G.minimize_dims() == {0: 1, 1: 1}


def test_gens_sorted_is_ascending():
    G, faces = simplex_cochains(4, support=lambda f: f[0])
    G.reduce(same_support=True)
    live = G.gens_sorted()
    assert live == sorted(G.degree) and 0 < len(live) < len(faces)


# sha256 of reports.sheaf_complex_doc(ic) for the canonical QQ build of every
# bundled demo, recorded before generators became integer ids.  fake-surface
# shares the wedge's complex, and its minimal stratification gives the same IC.
PINNED_IC_SHA256 = {
    "wedge": "4082d4f77f686ca7baf92fbd52b1cfb4c62343191ed62a3194e044abdaac19da",
    "pinched-torus": "3dcb6b45504e37a2cc652a36f24ab39174036bf7c7156c250671b8f6e2aecf78",
    "susp-s1xs2": "744517eea06fbd45f68a6c9859e0dfd6f961d96a2ab4e4cff52417d0620370a8",
    "nonpure-wedge": "ba1a368dfd0b0d8691b43d1a48076933d73330d2c7ccfc2b4d884cadea391b7f",
    "fake-surface": "4082d4f77f686ca7baf92fbd52b1cfb4c62343191ed62a3194e044abdaac19da",
}


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_ic_document_is_pinned(built, name):
    assert reports.sha256_of(reports.sheaf_complex_doc(built[name].ic)) \
        == PINNED_IC_SHA256[name]
