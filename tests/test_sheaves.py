import re
from fractions import Fraction

import pytest

from icsheaf.fields import QQ, PrimeField, field_by_name
from icsheaf.simplicial import SimplicialComplex
from icsheaf.sheaves import SheafError, constant_complex, make_local_system
from icsheaf import sections as sec

import oracles


def circle(n=3):
    return SimplicialComplex(range(n), [[i, (i + 1) % n] for i in range(n)])


def test_fields():
    assert QQ.parse("2/3") == Fraction(2, 3)
    F5 = field_by_name("fp:5")
    assert F5.mul(3, 4) == 2 and F5.inv(2) == 3
    with pytest.raises(ValueError):
        field_by_name("fp:6")
    with pytest.raises(ValueError):
        field_by_name("z")


def test_constant_local_system():
    K = circle()
    L = constant_complex(QQ, K, K.full_set(), 1)
    assert all(L.dim(s, 0) == 1 for s in K.full_set())
    assert all(L.is_iso(s, t, 0) for s, t in K.cover_pairs(L.domain))
    # a rank is exact: no string, bool or float stands for an int
    for rank in ("1", -1, True, 1.0, None):
        with pytest.raises(SheafError, match=re.escape(
                "rank must be a nonnegative integer, got %r" % (rank,))):
            constant_complex(QQ, K, K.full_set(), rank)


def test_sign_local_system_on_circle():
    K = circle()
    dims = {s: 1 for s in K.full_set()}
    mats = {}
    sheaf_pairs = [(s, c) for s in range(len(K.simplices))
                   for c, _ in K.cofacets[s]]
    for p in sheaf_pairs:
        mats[p] = [[Fraction(1)]]
    twist = (K.id_of([0]), K.id_of([0, 1]))
    mats[twist] = [[Fraction(-1)]]
    L = make_local_system(QQ, K, K.full_set(), dims, mats)
    assert all(L.is_iso(s, t, 0) for s, t in K.cover_pairs(L.domain))
    # twisted coefficients on a circle: no cohomology at all
    assert sec.hypercohomology(L) == {}
    # sanity against the untwisted circle
    assert sec.hypercohomology(constant_complex(QQ, K, K.full_set())) == {0: 1, 1: 1}


def test_non_invertible_matrix_rejected():
    K = circle()
    dims = {s: 1 for s in K.full_set()}
    mats = {(s, c): [[Fraction(1)]] for s in range(len(K.simplices))
            for c, _ in K.cofacets[s]}
    mats[(K.id_of([0]), K.id_of([0, 1]))] = [[Fraction(0)]]
    with pytest.raises(SheafError, match="not invertible"):
        make_local_system(QQ, K, K.full_set(), dims, mats)


@pytest.mark.parametrize("field, entry", [
    ("q", 0.5), ("q", True), ("q", 1.0), ("q", None), ("fp:3", 4), ("fp:3", -1), ("fp:3", 3),
    ("fp:3", Fraction(1)), ("fp:3", True)])
def test_non_canonical_entry_rejected(field, entry):
    # zero is tested by truth value, so a stored 3 over GF(3) would pass as
    # nonzero; every entry must be a canonical element of the field
    F = field_by_name(field)
    K = circle()
    dims = {s: 1 for s in K.full_set()}
    mats = {(s, c): [[F.one]] for s in range(len(K.simplices)) for c, _ in K.cofacets[s]}
    mats[(K.id_of([0]), K.id_of([0, 1]))] = [[entry]]
    with pytest.raises(SheafError) as err:
        make_local_system(F, K, K.full_set(), dims, mats)
    assert str(err.value) == "matrix at (0,) -> (0, 1) has entry %r, not an element of %r" \
        % (entry, F)
    mats[(K.id_of([0]), K.id_of([0, 1]))] = [[F.neg(F.one)]]
    make_local_system(F, K, K.full_set(), dims, mats)


def test_local_system_domain_must_be_open():
    K = SimplicialComplex(range(3), [[0, 1, 2]])
    closed = frozenset({K.id_of([0])})
    with pytest.raises(SheafError, match="up-closed"):
        make_local_system(QQ, K, closed, {}, {})


def test_shift():
    K = circle()
    S = constant_complex(QQ, K, K.full_set(), rank=1)
    T = oracles.shift(S, 2)
    assert T.degrees() == [-2]
    assert T.stalk_cohomology(0) == {-2: 1}
    assert oracles.shift(S, 0) is S
    back = oracles.shift(T, -2)
    assert back.stalk_table() == S.stalk_table()
    T.validate()


def test_shift_negates_differential_signs():
    K = SimplicialComplex(range(3), [[0, 1, 2]])
    U = K.full_set()
    # two-term complex with identity differential in degrees 0 -> 1
    dims = {s: {0: 1, 1: 1} for s in U}
    diffs = {s: {0: [[QQ.one]]} for s in U}
    restr = {}
    from icsheaf.sheaves import SheafComplex
    for p in K.cover_pairs(U):
        restr[p] = {0: [[QQ.one]], 1: [[QQ.one]]}
    S = SheafComplex(QQ, K, U, dims, diffs, restr)
    S.validate()
    T = oracles.shift(S, 1)
    assert T.diff(0, -1) == [[QQ.neg(QQ.one)]]
    T.validate()


def test_validate_rejects_each_broken_condition():
    from icsheaf.sheaves import SheafComplex
    one, two = [[QQ.one]], [[2]]
    # each message names the degree: d^0 d^-1 = 1 on a point with one
    # dimension in degrees -1, 0, 1
    P = SimplicialComplex(range(1), [[0]])
    S = SheafComplex(QQ, P, P.full_set(), {0: {-1: 1, 0: 1, 1: 1}},
                     {0: {-1: one, 0: one}}, {})
    with pytest.raises(SheafError) as info:
        S.validate()
    assert str(info.value) == "d² ≠ 0 at (0,) from degree -1"
    # d^1 = 1 on an edge, but the degree-2 restriction [0] -> [0, 1] is 2
    E = SimplicialComplex(range(2), [[0, 1]])
    U = E.full_set()
    restr = {p: {1: one, 2: one} for p in E.cover_pairs(U)}
    restr[(E.id_of([0]), E.id_of([0, 1]))] = {1: one, 2: two}
    S = SheafComplex(QQ, E, U, {s: {1: 1, 2: 1} for s in U},
                     {s: {1: one} for s in U}, restr)
    with pytest.raises(SheafError) as info:
        S.validate()
    assert str(info.value) == "restriction does not commute with d at (0,) -> (0, 1) " \
        "in degree 1"
    # rank 1 in degree 1 on a triangle; [0] -> [0, 1] is 2, every other pair 1
    T = SimplicialComplex(range(3), [[0, 1, 2]])
    U = T.full_set()
    restr = {p: {1: one} for p in T.cover_pairs(U)}
    restr[(T.id_of([0]), T.id_of([0, 1]))] = {1: two}
    S = SheafComplex(QQ, T, U, {s: {1: 1} for s in U}, {}, restr)
    with pytest.raises(SheafError,
                       match=r"path independence fails between \(0,\) and \(0, 1, 2\)"):
        S.validate()
    S.check_path_independence(0)  # no values in degree 0


def test_stalk_cohomology_matches_rank_oracle(built):
    # dim H^q = n_q − rank d^q − rank d^(q−1) at every simplex, with ranks
    # from the oracle's own elimination; the values include complexes of
    # more than 64 generators
    largest = 0
    for name in ("nonpure-wedge", "susp-s1xs2"):
        S = built[name].ic
        for sid in sorted(S.domain):
            qs = S.dims.get(sid, {})
            largest = max(largest, sum(qs.values()))
            rank = {q: oracles.rational_rank(S.diff(sid, q)) if S.dim(sid, q + 1) else 0
                    for q in qs}
            expect = {q: n - rank[q] - rank.get(q - 1, 0) for q, n in qs.items()}
            assert S.stalk_cohomology(sid) == {q: h for q, h in expect.items() if h}, \
                (name, sid)
    assert largest > 64


def test_direct_sum_and_domain_mismatch():
    K = circle()
    S = oracles.shift(constant_complex(QQ, K, K.full_set(), rank=1), 2)
    T = oracles.shift(constant_complex(QQ, K, K.full_set(), rank=1), 1)
    D = oracles.direct_sum(S, T)
    assert D.stalk_cohomology(0) == {-2: 1, -1: 1}
    D.validate()
    sub = K.full_set() - {K.id_of([0])}
    T2 = constant_complex(QQ, K, sub, rank=1)
    with pytest.raises(SheafError, match="equal domains"):
        oracles.direct_sum(S, T2)


def test_restrict_and_extend():
    K = SimplicialComplex(range(4), [[0, 1, 2], [0, 2, 3], [0, 1, 3]])
    S = constant_complex(QQ, K, K.full_set())
    # restrict to the whole domain is the identity
    assert S.restrict_open(K.full_set()).stalk_table() == S.stalk_table()
    star = frozenset(K.up_set(K.id_of([0])))
    rim = K.full_set() - star
    restricted = oracles.restrict_closed(S, rim)
    assert all(restricted.stalk_cohomology(s) == {0: 1} for s in rim)
    with pytest.raises(SheafError, match="up-closed"):
        S.restrict_open(rim)
    with pytest.raises(SheafError, match="down-closed"):
        oracles.restrict_closed(S, star)
    # skyscraper: a vertex value extended into the triangle
    vset = frozenset({K.id_of([1])})
    vert = constant_complex(QQ, K, vset)
    sky = oracles.extend_by_zero(vert, K.full_set())
    assert sky.stalk_cohomology(K.id_of([1])) == {0: 1}
    assert sky.stalk_cohomology(K.id_of([0, 1])) == {}
    # extend then restrict back is the identity on tables
    assert oracles.restrict_closed(sky, vset).stalk_table() == vert.stalk_table()
    with pytest.raises(SheafError, match="closed in the ambient"):
        oracles.extend_by_zero(constant_complex(QQ, K, star), K.full_set())


def test_prime_field_build(wedge):
    from icsheaf.deligne import build_ic
    K, strat = wedge
    F5 = PrimeField(5)
    b = build_ic(strat, field=F5)
    assert b.ic.stalk_cohomology(K.id_of([0])) == {-2: 1, -1: 1}
    assert sec.hypercohomology(b.ic) == {-2: 1, -1: 1, 1: 1, 2: 1}


def test_path_independence_checked():
    K = SimplicialComplex(range(3), [[0, 1, 2]])
    U = K.full_set()
    dims = {s: 1 for s in U}
    mats = {(s, c): [[Fraction(1)]] for s in range(len(K.simplices))
            for c, _ in K.cofacets[s]}
    mats[(K.id_of([0]), K.id_of([0, 1]))] = [[Fraction(2)]]
    with pytest.raises(SheafError, match="path independence"):
        make_local_system(QQ, K, U, dims, mats)


def test_restriction_of_a_non_face_pair_names_both_simplices():
    # the composite walks the coface from its end; a pair that is not a face
    # and a coface raises SheafError naming both, under python -O as well
    K = SimplicialComplex(range(4), [[0, 1, 2], [1, 2, 3]])
    S = constant_complex(QQ, K, K.full_set(), 2)
    for s, t in (([0], [1, 2]), ([0, 1], [1, 2]), ([0, 1], [0]), ([0, 1], [1, 2, 3]),
                 ([3], [0, 1, 2]), ([0, 2], [1, 2, 3])):
        with pytest.raises(SheafError, match=r"from %s to %s" % (
                re.escape(str(s)), re.escape(str(t)))):
            S.restriction(K.id_of(s), K.id_of(t), 0, {})
    memo = {}
    for s, t in (([0], [0, 1, 2]), ([1], [1, 2, 3]), ([1, 2], [1, 2, 3]), ([2], [2])):
        sid, tid = K.id_of(s), K.id_of(t)
        want = oracles.composite_restriction(S, sid, tid, 0)
        assert S.restriction(sid, tid, 0, memo) == want == S.restriction(sid, tid, 0)
