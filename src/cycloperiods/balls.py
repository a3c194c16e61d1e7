"""Certified complex interval arithmetic with exact rational midpoints.

A ball is a triple (re, im, rad) of Fractions: the represented value is
guaranteed to lie within distance rad of re + im*i.  All operations are
carried out exactly over Q, so soundness never depends on a rounding
mode; "precision" only enters through the enclosures of the algebraic
constants (sqrt(3) and 3^(1/4)) built by the functions at the bottom.

Denominators stay powers of two throughout, which keeps the arithmetic
fast and makes every derived quantity bit-reproducible.  Balls only feed
printed output (decimals and the ranges of positivity minors); no
verdict rests on them.
"""

from fractions import Fraction
from math import isqrt


def sqrt_upper(q):
    """Upper bound for sqrt(q), q a nonnegative Fraction."""
    if q < 0:
        raise ValueError("sqrt_upper of negative value")
    n, d = q.numerator, q.denominator
    # sqrt(n/d) = sqrt(n*d)/d <= (isqrt(n*d)+1)/d
    return Fraction(isqrt(n * d) + 1, d)


class ComplexBall:
    """Disc {z : |z - (re + im*i)| <= rad} with exact rational data."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re=0, im=0, rad=0):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.rad = Fraction(rad)
        if self.rad < 0:
            raise ValueError("negative radius")

    @staticmethod
    def exact(re, im=0):
        return ComplexBall(re, im, 0)

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, rad={self.rad})"

    def __add__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.rad + other.rad)

    def __sub__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        return ComplexBall(self.re - other.re, self.im - other.im,
                           self.rad + other.rad)

    def __mul__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        # |xy - m1 m2| <= |m1| r2 + |m2| r1 + r1 r2
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        rad = (self.mag_upper_mid() * other.rad
               + other.mag_upper_mid() * self.rad
               + self.rad * other.rad)
        return ComplexBall(re, im, rad)

    def scale(self, q):
        """Multiply by an exact rational scalar."""
        q = Fraction(q)
        return ComplexBall(self.re * q, self.im * q, self.rad * abs(q))

    def conjugate(self):
        return ComplexBall(self.re, -self.im, self.rad)

    def mag_upper_mid(self):
        """Upper bound for |midpoint|."""
        return sqrt_upper(self.re * self.re + self.im * self.im)

    def real_range(self):
        return (self.re - self.rad, self.re + self.rad)

    def contains_zero(self):
        return self.re * self.re + self.im * self.im <= self.rad * self.rad

    def real_is_positive(self):
        """True if every point of the ball has positive real part."""
        return self.re - self.rad > 0

    def real_is_negative(self):
        return self.re + self.rad < 0

    def decimal(self, digits):
        """Deterministic decimal rendering of the midpoint.

        Truncates toward zero at the requested number of fractional
        digits; the radius is reported separately by callers.
        """
        return (_dec(self.re, digits), _dec(self.im, digits))


def _dec(q, digits):
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = int(q * 10 ** digits)
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def sqrt3_ball(prec):
    """Ball of radius 2^-(prec+1) around sqrt(3)."""
    if prec < 4:
        raise ValueError("precision too small")
    n = isqrt(3 << (2 * prec))
    # n <= sqrt(3)*2^prec < n+1
    return ComplexBall(Fraction(2 * n + 1, 2 ** (prec + 1)), 0,
                       Fraction(1, 2 ** (prec + 1)))


def root4_3_ball(prec):
    """Ball of radius 2^-prec around 3^(1/4)."""
    if prec < 4:
        raise ValueError("precision too small")
    s = isqrt(3 << (4 * prec))      # floor(sqrt(3) * 2^(2 prec))
    t = isqrt(s)                    # t <= 3^(1/4) * 2^prec < t + 2
    return ComplexBall(Fraction(t + 1, 2 ** prec), 0, Fraction(1, 2 ** prec))
