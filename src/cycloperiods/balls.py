"""Certified complex interval arithmetic with exact rational data.

A ball is three integer numerators re_n, im_n, rad_n over one positive
denominator den: the represented value is guaranteed to lie within
distance rad_n/den of (re_n + im_n*i)/den.  This is the integer-mantissa
midpoint-radius layout of Arb (F. Johansson, IEEE Trans. Comput. 66(8),
2017) with an exact shared denominator, so soundness never depends on a
rounding mode, and neither the arithmetic nor the decimal output takes a
gcd.  `exactfield.embed` builds balls from a per-precision basis, each
part a shift plus three integer products.

Balls only feed printed output (decimals and the ranges of positivity
minors); no verdict rests on them.  The Fractions re, im and rad are
views for tests and the benchmark.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt


class ComplexBall:
    """Disc {z : |z - (re_n + im_n*i)/den| <= rad_n/den}."""

    __slots__ = ("re_n", "im_n", "rad_n", "den")

    def __init__(self, re_n, im_n, rad_n, den):
        if rad_n < 0 or den <= 0:
            raise ValueError("negative radius or nonpositive denominator")
        self.re_n, self.im_n, self.rad_n, self.den = re_n, im_n, rad_n, den

    re = property(lambda self: Fraction(self.re_n, self.den))
    im = property(lambda self: Fraction(self.im_n, self.den))
    rad = property(lambda self: Fraction(self.rad_n, self.den))

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, rad={self.rad})"

    def __add__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        d, e = self.den, other.den
        return ComplexBall(self.re_n * e + other.re_n * d,
                           self.im_n * e + other.im_n * d,
                           self.rad_n * e + other.rad_n * d, d * e)

    def __sub__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        d, e = self.den, other.den
        return ComplexBall(self.re_n * e - other.re_n * d,
                           self.im_n * e - other.im_n * d,
                           self.rad_n * e + other.rad_n * d, d * e)

    def __mul__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        a, b, r = self.re_n, self.im_n, self.rad_n
        c, d, s = other.re_n, other.im_n, other.rad_n
        # |xy - m1 m2| <= |m1| s + |m2| r + r s, with |m| bounded by isqrt
        m1, m2 = isqrt(a * a + b * b) + 1, isqrt(c * c + d * d) + 1
        return ComplexBall(a * c - b * d, a * d + b * c,
                           m1 * s + m2 * r + r * s, self.den * other.den)

    def scale(self, q):
        """Multiply by an exact rational scalar."""
        q = Fraction(q)
        p = q.numerator
        return ComplexBall(self.re_n * p, self.im_n * p, self.rad_n * abs(p),
                           self.den * q.denominator)

    def decimal(self, digits):
        """The midpoint's parts truncated toward zero to `digits` digits.
        No radius is printed, and digits past the radius are not certified
        (ROADMAP item 14)."""
        return (_dec(self.re_n, self.den, digits),
                _dec(self.im_n, self.den, digits))


@lru_cache(maxsize=16)
def _powers(digits):
    """(5^digits, 10^digits), shared by every part printed at `digits`."""
    return 5 ** digits, 10 ** digits


def _dec(n, den, digits):
    """n/den truncated toward zero to `digits` fractional digits; with
    none, the whole part without a point.  For den = odd 2^k that is the
    floor of |n| 5^digits 2^(digits - k) / odd: a division by odd only."""
    p5, p10 = _powers(digits)
    k, n5 = (den & -den).bit_length() - 1, abs(n) * p5
    q = (n5 << digits - k if digits >= k else n5 >> k - digits) // (den >> k)
    whole, frac = divmod(q, p10)
    point = f".{str(frac).zfill(digits)}" if digits else ""
    return f"{'-' if n < 0 else ''}{whole}{point}"
