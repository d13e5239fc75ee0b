"""The int-first rational field: ints until a division is inexact, never floats."""

import random
from fractions import Fraction

from icsheaf import matrices as mx
from icsheaf.deligne import build_ic
from icsheaf.fields import QQ, PrimeField, _is_prime
from icsheaf.sheaves import make_local_system
from icsheaf.stratify import compute_open_filtration

import oracles

SAMPLES = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)]


def test_inv_of_units_stays_int():
    for u in (1, -1):
        assert type(QQ.inv(u)) is int and QQ.inv(u) == u
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int


def test_no_operation_returns_a_float():
    exact = (int, Fraction)
    for a in SAMPLES:
        assert isinstance(QQ.neg(a), exact)
        assert isinstance(QQ.parse(QQ.to_str(a)), exact)
        if a != 0:
            assert isinstance(QQ.inv(a), exact)
        for b in SAMPLES:
            assert isinstance(QQ.add(a, b), exact)
            assert isinstance(QQ.sub(a, b), exact)
            assert isinstance(QQ.mul(a, b), exact)
            if b != 0:
                assert isinstance(QQ.mul(a, QQ.inv(b)), exact)
                assert QQ.mul(a, QQ.inv(b)) == Fraction(a) / Fraction(b)


def test_parse_to_str_round_trip():
    for text in ("3", "-1", "1/2"):
        assert QQ.to_str(QQ.parse(text)) == text
    assert type(QQ.parse("3")) is int and type(QQ.parse("4/2")) is int
    assert QQ.parse("1/2") == Fraction(1, 2)
    assert QQ.to_str(Fraction(3)) == QQ.to_str(3) == "3"


def test_rref_and_rank_with_non_unit_pivots():
    A = [[2, 4, 1, 3], [3, 1, 5, 0], [6, 12, 3, 9], [0, 5, -7, 2]]
    R, pivots = mx.rref(QQ, A)
    assert mx.rank(QQ, A) == len(pivots) == oracles.rational_rank(A) == 3
    assert any(isinstance(x, Fraction) and x.denominator > 1 for row in R for x in row)
    for r, c in enumerate(pivots):
        assert R[r][c] == 1 and all(R[i][c] == 0 for i in range(len(R)) if i != r)
    rng = random.Random(3)
    for _ in range(20):
        M = [[rng.choice([0, 0, 2, 3, -5, 7]) for _ in range(6)] for _ in range(5)]
        assert mx.rank(QQ, M) == oracles.rational_rank(M)
        K, free = mx.kernel(QQ, M, 6)
        assert mx.mat_mul(QQ, M, K) == mx.zeros(QQ, 5, len(free))
        assert [K[f] for f in free] == mx.identity(QQ, len(free))
        assert len(free) + mx.rank(QQ, M) == 6
        # the basis the dense solver used, column for column
        assert [[row[j] for row in K] for j in range(len(free))] == \
            oracles.right_kernel_basis(QQ, M)


def _scaled_system(F, K, filt):
    """Rank-2 local system on U_1 with restriction diag(2, 1/2) on every cover pair."""
    U = filt.U[1]
    two = 2
    D = [[two, F.zero], [F.zero, F.inv(two)]]
    pairs = [(s, c) for s in sorted(U) for c, _ in K.cofacets[s] if c in U]
    return make_local_system(F, K, U, {s: 2 for s in U}, {p: D for p in pairs})


def test_build_with_fraction_entries_matches_prime_field(wedge):
    K, strat = wedge
    filt = compute_open_filtration(strat)
    FP = PrimeField(32003)
    bq = build_ic(strat, _scaled_system(QQ, K, filt), field=QQ)
    bp = build_ic(strat, _scaled_system(FP, K, filt), field=FP)
    assert bq.ic.stalk_table() == bp.ic.stalk_table()
    ic = bq.ic
    entries = [x for qs in ic.diffs.values() for m in qs.values() for row in m for x in row]
    entries += [x for qs in ic.restrictions.values() for m in qs.values()
                for row in m for x in row]
    assert entries and not any(isinstance(x, float) for x in entries)
    # the restrictions really promoted some entries
    assert any(isinstance(x, Fraction) and x.denominator > 1 for x in entries)


def test_primality_is_exact():
    # agrees with trial division on small n, and rejects strong pseudoprimes
    # to the smaller base sets: 3215031751 to 2, 3, 5, 7 and
    # 3825123056546413051 to every prime base up to 23
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if by_division(n)]
    for n in (3215031751, 3825123056546413051, (2 ** 31 - 1) ** 2, 2 ** 64 - 1):
        assert not _is_prime(n), n
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert _is_prime(p) and PrimeField(p).inv(2) * 2 % p == 1, p
