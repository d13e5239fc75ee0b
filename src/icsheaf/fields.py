"""Exact coefficient fields.

All linear algebra in this package runs over an explicit field object so
that ranks and kernels are exact: the rationals (default) or a prime field
F_p.  Elements are plain Python values and the field object supplies the
arithmetic.  Over F_p they are ints reduced mod p.  Over QQ they are ints
first: an element becomes a Fraction only when a division is inexact, and
Python mixes the two exactly, so the common case (pivots and entries
±1) never pays for Fraction arithmetic.  No QQ operation yields a float.

Elements are canonical (`is_element`): an int in [0, p) over F_p, an int
that is not a bool or a Fraction over QQ.  Zero is then the only falsy
element, so the kernels test an entry for zero by its truth value.
"""

import operator
from fractions import Fraction


class RationalField:
    """QQ with elements stored as ints, or Fractions after an inexact division."""

    name = "q"

    zero = 0
    one = 1

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        return 1 / Fraction(a)

    def is_element(self, a):
        return isinstance(a, Fraction) or (isinstance(a, int) and not isinstance(a, bool))

    def parse(self, s):
        x = Fraction(s)
        return x.numerator if x.denominator == 1 else x

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


# Miller–Rabin with the first twelve primes as bases decides primality
# exactly for every n < 3.18 · 10^23 (Sorenson and Webster, Strong
# pseudoprimes to twelve prime bases, Math. Comp. 86 (2017)), hence on the
# accepted range 2 <= p < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_P_LIMIT = 2 ** 64


def _is_prime(n):
    """Is n prime?  Deterministic Miller–Rabin, exact for 0 <= n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with elements stored as ints in [0, p), for a prime p < 2^64.

    The operations are closures over p, set per instance.
    """

    def __init__(self, p):
        if not 2 <= p < _P_LIMIT:
            raise ValueError("p must be a prime with 2 <= p < 2^64, got %d" % p)
        if not _is_prime(p):
            raise ValueError("p must be prime, got %d" % p)
        self.p = p
        self.name = "fp:%d" % p
        self.zero = 0
        self.one = 1 % p

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def mul(a, b):
            return a * b % p

        def neg(a):
            return -a % p

        self.add, self.sub, self.mul, self.neg = add, sub, mul, neg

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_element(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p

    def parse(self, s):
        return int(s) % self.p

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_by_name(name):
    """Resolve a CLI-style field tag: "q" or "fp:<p>", p written as `str` writes it."""
    if name == "q":
        return QQ
    digits = name[3:]
    if name.startswith("fp:") and digits.isascii() and digits.isdigit() \
            and str(int(digits)) == digits:
        return PrimeField(int(digits))
    raise ValueError("unknown field %r (expected 'q' or 'fp:<p>')" % name)
