"""Exact coefficient fields.

All linear algebra in this package runs over an explicit field object so
that ranks and kernels are exact: the rationals (default) or a prime field
F_p.  Elements are plain Python values and the field object supplies the
arithmetic.  Over F_p they are ints reduced mod p.  Over QQ they are ints
first: an element becomes a Fraction only when a division is inexact, and
Python mixes the two exactly, so the common case (pivots and entries
±1) never pays for Fraction arithmetic.  No QQ operation yields a float.
"""

from fractions import Fraction


class RationalField:
    """QQ with elements stored as ints, or Fractions after an inexact division."""

    name = "q"

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def parse(self, s):
        x = Fraction(s)
        return x.numerator if x.denominator == 1 else x

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p with elements stored as ints in [0, p)."""

    def __init__(self, p):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError("p must be prime, got %d" % p)
        self.p = p
        self.name = "fp:%d" % p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, s):
        return int(s) % self.p

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_by_name(name):
    """Resolve a CLI-style field tag: "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError("unknown field %r (expected 'q' or 'fp:<p>')" % name)
