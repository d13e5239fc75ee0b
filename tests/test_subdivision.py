"""Independence of the triangulation: a stellar subdivision keeps the IC.

The intersection complex depends on the stratified space, not on its
triangulation.  Each case subdivides one simplex σ of a demo
(`oracles.stellar`) and builds the canonical IC of both triangulations:
every simplex of the subdivision has the stalk of its carrier, every old
vertex keeps its costalk, the hypercohomology is unchanged, and AX1 and
AX2 pass on the subdivision.  Each demo has one σ over QQ and one over
GF(32003), among them edges through the wedge vertex 0 and through the
apex 12 of susp-s1xs2.
"""

import pytest

from icsheaf import axioms as ax
from icsheaf import demos
from icsheaf import sections as sec
from icsheaf.deligne import build_ic
from icsheaf.fields import field_by_name
from icsheaf.sheaves import first_difference
from icsheaf.stratify import validate_stratification

import oracles

CASES = [("wedge", (0, 1), "q"), ("wedge", (0, 6, 7), "fp:32003"),
         ("pinched-torus", (0, 1), "fp:32003"), ("pinched-torus", (1, 2, 6), "q"),
         ("susp-s1xs2", (0, 12), "fp:32003"), ("susp-s1xs2", (0, 1), "q"),
         ("nonpure-wedge", (12, 14), "fp:32003"), ("nonpure-wedge", (14, 15, 16), "q"),
         ("fake-surface", (1, 2), "fp:32003"), ("fake-surface", (1, 2, 3), "q")]


def _differs(what, sigma, at, carrier, got, want):
    q = first_difference(got, want)
    if q is None:
        return None
    return "subdividing %s: the %s at %s (carrier %s) has dim %d in degree %d, " \
        "expected %d" % (list(sigma), what, list(at), list(carrier), got.get(q, 0), q,
                         want.get(q, 0))


@pytest.mark.parametrize("name,sigma,field", CASES,
                         ids=["%s-%s-%s" % (n, ",".join(map(str, s)), f)
                              for n, s, f in CASES])
def test_stellar_subdivision_keeps_the_ic(spaces, build_of, name, sigma, field):
    K, strat = spaces[name]
    ic = build_of(name, field).ic
    K2, levels2, carrier = oracles.stellar(K, demos.demo_space(name)[1]["levels"], sigma)
    strat2 = validate_stratification(K2, levels2)
    ic2 = build_ic(strat2, field=field_by_name(field)).ic
    for sid in sorted(K2.full_set()):
        c = carrier[sid]
        bad = _differs("stalk", sigma, K2.simplices[sid], K.simplices[c],
                       ic2.stalk_cohomology(sid), ic.stalk_cohomology(c))
        assert bad is None, bad
    c2 = sec.cell_costalk(ic2, [K2.id_of([v]) for v in K.vertices])
    c1 = sec.cell_costalk(ic, [K.id_of([v]) for v in K.vertices])
    for v in K.vertices:
        bad = _differs("costalk", sigma, [v], [v], c2[K2.id_of([v])], c1[K.id_of([v])])
        assert bad is None, bad
    assert sec.hypercohomology(ic2) == sec.hypercohomology(ic), list(sigma)
    for check in (ax.check_ax1, ax.check_ax2):
        assert check(ic2, strat2).passed, (list(sigma), check.__name__)
