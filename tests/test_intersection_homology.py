"""The engine against intersection homology from allowable chains.

`oracles.intersection_homology` and `oracles.link_stalks` read only the
simplices and the levels, and compute ranks of allowable-chain boundary
maps with their own GF(p) elimination, so they share no code with the
sheaf engine.  Globally, the direct-sum IC's hypercohomology is
Σ_m IH_(m−q)(X^m) (Goresky–MacPherson, Intersection homology II, with the
paper's decomposition); locally, its stalk at every simplex is the IH of
the simplex's link, cut off by the cone formula.  The naive builds of
nonpure-wedge and fake-surface are the negative controls, as in
`test_verdier_self_duality`.
"""

import pytest

from icsheaf import demos
from icsheaf import sections as sec

import oracles

FIELDS = {"fp:2": 2, "fp:32003": 32003}
# the naive builds that differ from the oracles, and where
NAIVE_HYPERCO = {"nonpure-wedge": {-2: 1, 1: 2, 2: 1},
                 "fake-surface": {-2: 1, -1: 2, 1: 1}}
NAIVE_BAD_STALKS = {"nonpure-wedge": 1, "fake-surface": 14}


def _hyperco(ih):
    """H^q = Σ_m IH_(m−q)(X^m) from {m: {i: IH_i(X^m)}}."""
    out = {}
    for m, dims in ih.items():
        for i, h in dims.items():
            out[m - i] = out.get(m - i, 0) + h
    return dict(sorted(out.items()))


@pytest.mark.parametrize("field", FIELDS)
def test_hypercohomology_is_intersection_homology(build_of, field):
    for name in demos.DEMO_NAMES:
        K, doc = demos.demo_space(name)
        want = _hyperco(oracles.intersection_homology(K, doc["levels"], FIELDS[field]))
        got = sec.hypercohomology(build_of(name, field).ic)
        assert got == want, (name, field, got, want)
        if field == "fp:32003":
            naive = sec.hypercohomology(build_of(name, field, True).ic)
            assert naive == NAIVE_HYPERCO.get(name, want), (name, "naive", naive, want)


@pytest.mark.parametrize("field", FIELDS)
def test_stalks_are_the_intersection_homology_of_links(build_of, spaces, field):
    for name in demos.DEMO_NAMES:
        K, strat = spaces[name]
        want = oracles.link_stalks(K, strat, FIELDS[field])
        got = build_of(name, field).ic.stalk_table()
        assert set(got) == set(want) == set(K.full_set()), name
        for sid in sorted(want):
            assert got[sid] == want[sid], (name, field, K.simplices[sid], got[sid], want[sid])
        if field == "fp:32003":
            naive = build_of(name, field, True).ic.stalk_table()
            bad = [sid for sid in want if naive[sid] != want[sid]]
            assert len(bad) == NAIVE_BAD_STALKS.get(name, 0), (name, "naive", bad)
