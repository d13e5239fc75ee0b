"""The exact kernels against plain oracles, over QQ and small and large primes.

Entries are canonical field elements, so the kernels test zero by truth
value; these tests pin that every operation keeps them canonical and that
the fast paths (memoized composite restrictions, stalks from exact ranks)
agree with the slow ones on every demo.
"""

import random
from fractions import Fraction

import pytest

from icsheaf import demos
from icsheaf import matrices as mx
from icsheaf.fields import QQ, PrimeField
from icsheaf.reduction import SparseComplex

import oracles

FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(32003))
QQ_ENTRIES = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _entry(F, rng):
    if F is QQ:
        return rng.choice(QQ_ENTRIES)
    return 0 if rng.random() < 0.4 else rng.randrange(F.p)


def _matrix(F, rng, rows, cols):
    return [[_entry(F, rng) for _ in range(cols)] for _ in range(rows)]


def _canonical(F, x):
    if F is QQ:
        return type(x) in (int, Fraction)
    return type(x) is int and 0 <= x < F.p


def _samples(F):
    if F is QQ:
        return (0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2))
    return tuple(sorted({0, 1, 2 % F.p, F.p - 1, F.p // 2, (F.p + 1) // 2 % F.p}))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_operations_return_canonical_elements(F):
    for a in _samples(F):
        assert F.is_element(a) and _canonical(F, a)
        outs = [F.neg(a), F.parse(F.to_str(a))]
        if a:
            outs.append(F.inv(a))
            assert F.mul(a, F.inv(a)) == F.one
        for b in _samples(F):
            outs += [F.add(a, b), F.sub(a, b), F.mul(a, b)]
        for x in outs:
            assert _canonical(F, x) and F.is_element(x), (a, x)
    assert _canonical(F, F.zero) and _canonical(F, F.one) and F.one and not F.zero
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    for x in (0.5, 1.0, True, False, None, "1"):
        assert not F.is_element(x)
    if F is not QQ:
        assert not F.is_element(F.p) and not F.is_element(-1)
        assert not F.is_element(Fraction(1))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_mat_mul_matches_the_definition(F):
    rng = random.Random(17)
    for _ in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A, B = _matrix(F, rng, m, k), _matrix(F, rng, k, n)
        got = mx.mat_mul(F, A, B)
        assert got == oracles.mat_mul_by_definition(F, A, B)
        assert all(_canonical(F, x) for row in got for x in row)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_rank_and_kernel(F):
    rng = random.Random(29)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        A = _matrix(F, rng, rows, cols)
        R, pivots = mx.rref(F, A)
        want = oracles.rational_rank(A) if F is QQ else oracles.modular_rank(A, F.p)
        assert len(pivots) == mx.rank(F, A) == want
        assert all(_canonical(F, x) for row in R for x in row)
        for r, c in enumerate(pivots):
            assert R[r][c] == F.one and not any(R[i][c] for i in range(rows) if i != r)
        K, free = mx.kernel(F, A, cols)
        assert len(free) + want == cols
        if free:
            assert mx.mat_mul(F, A, K) == mx.zeros(F, rows, len(free))
            assert [K[f] for f in free] == mx.identity(F, len(free))


@pytest.mark.parametrize("field", ("q", "fp:32003"))
@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_memoized_restrictions_match_the_composite(build_of, name, field):
    S = build_of(name, field).ic
    K = S.complex
    memo = {}
    pairs = 0
    for s in sorted(S.domain):
        for t in K.up_set(s):
            if t not in S.domain:
                continue
            for q in S.degrees():
                got = S.restriction(s, t, q, memo)
                assert got == S.restriction(s, t, q) == \
                    oracles.composite_restriction(S, s, t, q), (s, t, q)
                pairs += 1
    assert pairs and any(K.sdim(t) - K.sdim(s) >= 2 for s, t, _ in memo)


@pytest.mark.parametrize("field", ("q", "fp:32003"))
@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_flat_stalks_match_the_reduction(tower_of, name, field):
    # stalks from exact ranks against the eliminator on the assembled value,
    # at every stage of the canonical and the naive tower
    flat = 0
    for naive in (False, True):
        for S in tower_of(name, field, naive).intermediates:
            for sid in sorted(S.domain):
                G = SparseComplex(S.F)
                oracles.add_value(S, G, sid, 0, 1, None)
                if not any(G.dout):
                    flat += 1
                assert S.stalk_cohomology(sid) == G.minimize_dims(), (name, naive, sid)
    assert flat
