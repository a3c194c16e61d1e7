"""Exact arithmetic in the tower Q < Q(rho) < Q(zeta12) < Q(zeta12)(alpha).

zeta is a primitive 12th root of unity with minimal polynomial
Phi12(x) = x^4 - x^2 + 1, and alpha is the real fourth root of 3.  Since
alpha^2 = sqrt(3) = 2*zeta - zeta^3 already lies in Q(zeta12), the tower
has degree 8 over Q and every element is

    (c0 + c1 z + c2 z^2 + c3 z^3)  +  (a0 + a1 z + a2 z^2 + a3 z^3) * alpha

with rational coordinates (landmarks such as i = zeta^3 and rho = zeta^4
are the module constants below).

As in FLINT/ANTIC's nf_elem (W. Hart, "ANTIC", 2015) an element is 8
integers n = (c0..c3, a0..a3) over one denominator d > 0, gcd(d, *n) = 1.
Products are integer convolutions reduced by z^4 = z^2 - 1 and alpha^2 =
2z - z^3 (_convolve); a rational operand only scales the numerators, and
two real ones, (s + t sqrt3) + (p + q sqrt3) alpha with n2 = n6 = 0,
n1 = -2 n3 and n5 = -2 n7, take the formula restricted to Q(alpha): 16
integer products, not 64, written back in the same 8 coordinates.  Every
sum of products is one `dot` with delayed reduction (as in ANTIC and
FFLAS-FFPACK): the products are added in integer coordinates over one
running denominator (a merge over lcm(d, e) forms its two cofactors
once) and reduced by one final gcd.  The operators +, - and * are each
one `dot` too (x + y is the sum of x*1 and y*1), so there is no second
path for sums or rational scaling.  An integral result (d = 1) takes no gcd.
Inverses are closed form: 1/(b + a alpha) = (b - a alpha)/(b^2 - a^2 sqrt3),
1/x = conj(x)/(x conj(x)) in Q(zeta12), and 1/(s + t sqrt3) =
(s - t sqrt3)/(s^2 - 3t^2).  The embedding zeta -> exp(i*pi/6), alpha ->
+3^(1/4) is fixed; `embed` returns a certified ComplexBall for it, and
equality testing never falls back on numerics.  Per precision, the balls
of zeta^k and alpha*zeta^k (k = 0..3) are built once from isqrt and shifts
as integers over 2^E, E = prec + 8, rounding into the radius as Arb does
(see _basis): `embed` is three integer dot products, no gcd, no Fraction.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, mul

from .balls import ComplexBall

_Z4 = (0, 0, 0, 0)
_Z7 = (0,) * 7
_Z8 = (0,) * 8


# -- integer vectors of Z[zeta12] ----------------------------------------

def _zmul(p, q):
    """Product in Z[zeta12]: convolution reduced by z^4 = z^2 - 1, z^6 = -1."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    r4 = p1 * q3 + p2 * q2 + p3 * q1
    r5 = p2 * q3 + p3 * q2
    return (p0 * q0 - r4 - p3 * q3, p0 * q1 + p1 * q0 - r5,
            p0 * q2 + p1 * q1 + p2 * q0 + r4,
            p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0 + r5)


def _zsqrt3(p):
    """p * sqrt3 = p * (2z - z^3)."""
    p0, p1, p2, p3 = p
    return (p1 - p3, 2 * p0 + p2, p1 + 2 * p3, p2 - p0)


def _zconj(p):
    """Complex conjugation zeta -> zeta^11 = zeta - zeta^3; unimodular."""
    p0, p1, p2, p3 = p
    return (p0 + p2, p1, -p2, -p1 - p3)


def _zsub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def _raw(n, d):
    """Element n / d; the caller guarantees d > 0 and gcd(d, *n) = 1."""
    x = object.__new__(TowerElem)
    _set_n(x, n)
    _set_d(x, d)
    return x


def _make(n, d):
    """Element n / d for d != 0, reduced by one gcd to d > 0 (none for d = 1)."""
    g = 1 if d == 1 else gcd(d, *n) if d > 0 else -gcd(d, *n)
    return _raw(n, d) if g == 1 else _raw(tuple([v // g for v in n]), d // g)


def _convolve(xn, yn):
    """Coordinates of xn * yn for numerators xn, yn: a scaling if one is
    rational, else the Phi12 convolutions, restricted to Q(alpha) if both are real."""
    x0, x1, x2, x3, x4, x5, x6, x7 = xn
    y0, y1, y2, y3, y4, y5, y6, y7 = yn
    if not (x1 or x2 or x3 or x4 or x5 or x6 or x7):
        return yn if x0 == 1 else [x0 * v for v in yn]
    if not (y1 or y2 or y3 or y4 or y5 or y6 or y7):
        return xn if y0 == 1 else [y0 * v for v in xn]
    if (not (x2 or x6 or y2 or y6) and x1 == -2 * x3 and x5 == -2 * x7
            and y1 == -2 * y3 and y5 == -2 * y7):
        # (s + t sqrt3) + (p + q sqrt3) alpha is (s, 2t, 0, -t, p, 2q, 0, -q)
        c3 = x0 * y3 + x3 * y0 - x4 * y4 - 3 * x7 * y7
        a3 = x0 * y7 + x7 * y0 + x3 * y4 + x4 * y3
        return (x0 * y0 + 3 * (x3 * y3 - x4 * y7 - x7 * y4), -2 * c3, 0, c3,
                x0 * y4 + x4 * y0 + 3 * (x3 * y7 + x7 * y3), -2 * a3, 0, a3)
    r4 = x1 * y3 + x2 * y2 + x3 * y1
    r5 = x2 * y3 + x3 * y2
    c0 = x0 * y0 - r4 - x3 * y3
    c1 = x0 * y1 + x1 * y0 - r5
    c2 = x0 * y2 + x1 * y1 + x2 * y0 + r4
    c3 = x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0 + r5
    if not (x4 or x5 or x6 or x7 or y4 or y5 or y6 or y7):
        return (c0, c1, c2, c3, 0, 0, 0, 0)
    r4 = x5 * y7 + x6 * y6 + x7 * y5
    r5 = x6 * y7 + x7 * y6
    w0 = x4 * y4 - r4 - x7 * y7     # w = a1 a2, times sqrt3
    w1 = x4 * y5 + x5 * y4 - r5
    w2 = x4 * y6 + x5 * y5 + x6 * y4 + r4
    w3 = x4 * y7 + x5 * y6 + x6 * y5 + x7 * y4 + r5
    r4 = x1 * y7 + x2 * y6 + x3 * y5 + x5 * y3 + x6 * y2 + x7 * y1
    r5 = x2 * y7 + x3 * y6 + x6 * y3 + x7 * y2
    return (c0 + w1 - w3, c1 + 2 * w0 + w2, c2 + w1 + 2 * w3, c3 + w2 - w0,
            x0 * y4 + x4 * y0 - r4 - x3 * y7 - x7 * y3,
            x0 * y5 + x1 * y4 + x4 * y1 + x5 * y0 - r5,
            x0 * y6 + x1 * y5 + x2 * y4 + x4 * y2 + x5 * y1 + x6 * y0 + r4,
            x0 * y7 + x1 * y6 + x2 * y5 + x3 * y4 + x4 * y3 + x5 * y2
            + x6 * y1 + x7 * y0 + r5)


def dot(pairs):
    """sum x*y over (x, y) pairs of tower, int or Fraction operands.  Each
    product is formed on the integer numerators (the tower's one product
    formula), added over a running denominator and reduced once."""
    s = None
    for x, y in pairs:
        if type(x) is not TowerElem:            # a tower element first
            x, y = y, x
        if type(y) is TowerElem:
            t, e = _convolve(x.n, y.n), x.d * y.d
        elif type(x) is TowerElem:              # a rational scaling
            p = y.numerator
            t, e = (x.n if p == 1 else [v * p for v in x.n]), x.d * y.denominator
        else:                                   # two rationals
            p = x * y
            t, e = (p.numerator,) + _Z7, p.denominator
        if s is None:
            s, d = t, e
        elif e == d:
            s = list(map(add, s, t))
        else:           # bring the sum and the term over lcm(d, e)
            u, v = e // (g := gcd(d, e)), d // g
            s, d = [a * u + b * v for a, b in zip(s, t)], v * e
    return ZERO if s is None else _make(tuple(s), d)


class TowerElem:
    """Immutable element of Q(zeta12)(alpha): 8 integers over one denominator."""

    __slots__ = ("n", "d")

    def __init__(self, c=(), a=()):
        c, a = tuple(c), tuple(a)
        if len(c) > 4 or len(a) > 4:
            raise ValueError("cyclotomic coordinate vector too long")
        q = [Fraction(v) for v in c + _Z4[len(c):] + a + _Z4[len(a):]]
        d = lcm(*[v.denominator for v in q])
        _set_n(self, tuple([v.numerator * (d // v.denominator) for v in q]))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("TowerElem is immutable")

    c = property(lambda self: tuple([Fraction(v, self.d) for v in self.n[:4]]))
    a = property(lambda self: tuple([Fraction(v, self.d) for v in self.n[4:]]))

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, TowerElem):
            return x
        if isinstance(x, (int, Fraction)):
            return _raw((x.numerator,) + _Z7, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} into the tower")

    @staticmethod
    def from_json(obj):
        try:
            c, a = ([Fraction(n, d) for n, d in obj[k]] for k in ("c", "a"))
            ints = all(type(v) is int for k in ("c", "a") for p in obj[k] for v in p)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed tower element: {exc}") from exc
        if not ints or len(c) != 4 or len(a) != 4:
            raise ValueError("malformed tower element: it needs 4+4 "
                             "coordinates [n, d], ints with d != 0")
        return TowerElem(c, a)

    def to_json(self):
        d = self.d
        out = [[v, d] if (g := gcd(v, d)) == 1 else [v // g, d // g] for v in self.n]
        return {"c": out[:4], "a": out[4:]}

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (TowerElem, int, Fraction)):
            return NotImplemented
        return dot(((self, 1), (other, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (TowerElem, int, Fraction)):
            return NotImplemented
        return dot(((self, 1), (other, -1)))

    def __rsub__(self, other):
        if not isinstance(other, (TowerElem, int, Fraction)):
            return NotImplemented
        return dot(((other, 1), (self, -1)))

    def __neg__(self):
        return _raw(tuple([-v for v in self.n]), self.d)

    def __mul__(self, other):
        if not isinstance(other, (TowerElem, int, Fraction)):
            return NotImplemented
        return dot(((self, other),))

    __rmul__ = __mul__

    def inverse(self):
        n, d = self.n, self.d
        if n[1:] == _Z7:
            if not n[0]:
                raise ZeroDivisionError("inverse of zero tower element")
            return _raw((d if n[0] > 0 else -d,) + _Z7, abs(n[0]))
        b, a = n[:4], n[4:]
        if a == _Z4:    # 1/x = d / D with D = b
            b, D = (1, 0, 0, 0), b
        else:           # 1/x = d (b - a alpha) / D with D = b^2 - a^2 sqrt3
            D = _zsub(_zmul(b, b), _zsqrt3(_zmul(a, a)))
        # D conj(D) is real: s - t sqrt3 = (s, -2t, 0, t) for integers s, t,
        # so 1/D = conj(D) (s + t sqrt3) / (s^2 - 3 t^2)
        Dc = _zconj(D)
        s, _, _, t = _zmul(D, Dc)
        w = _zmul(Dc, (s, 2 * t, 0, -t))
        return _make(tuple([d * v for v in _zmul(b, w)]
                           + [-d * v for v in _zmul(a, w)]), s * s - 3 * t * t)

    def __truediv__(self, other):
        if not isinstance(other, (TowerElem, int, Fraction)):
            return NotImplemented
        return self * TowerElem.coerce(other).inverse()

    def __rtruediv__(self, other):
        return TowerElem.coerce(other) * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base, k, out = (self.inverse() if k < 0 else self), abs(k), ONE
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            base = base * base if k else base
        return out

    # -- structure maps ----------------------------------------------

    def conjugate(self):
        """Complex conjugation: zeta -> zeta^-1, alpha -> alpha."""
        return _raw(_zconj(self.n[:4]) + _zconj(self.n[4:]), self.d)

    def is_zero(self):
        return self.n == _Z8

    def __bool__(self):
        return self.n != _Z8

    def is_rational(self):
        return self.n[1:] == _Z7

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.n[0], self.d)

    def is_real(self):
        return self == self.conjugate()

    def as_sqrt3_pair(self):
        """Write an element of Q(sqrt3) as (s, t) with value s + t*sqrt3."""
        n0, n1, n2, n3 = self.n[:4]
        if self.n[4:] != _Z4 or n2 != 0 or n1 != -2 * n3:
            raise ValueError("element is not in Q(sqrt3)")
        return (Fraction(n0, self.d), Fraction(-n3, self.d))

    def __eq__(self, other):
        if type(other) is not TowerElem:
            if isinstance(other, (int, Fraction)):
                other = TowerElem.coerce(other)
            if not isinstance(other, TowerElem):
                return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):     # a rational element hashes as the value it equals
        n, d = self.n, self.d
        return hash((n, d) if n[1:] != _Z7 else n[0] if d == 1 else Fraction(n[0], d))

    def __repr__(self):
        parts = []
        for k, v in enumerate(self.c + self.a):
            if v:
                unit = ("", "z", "z^2", "z^3")[k % 4]
                term = str(v) if not unit else unit if v == 1 else f"{v}*{unit}"
                parts.append(term + ("*alpha" if k >= 4 else ""))
        return " + ".join(parts) or "0"


_set_n = TowerElem.n.__set__
_set_d = TowerElem.d.__set__


def zeta_power(k):
    """zeta^k for any integer k, read from the table of k mod 12."""
    return _ZETA_POWERS[k % 12]


ZERO = TowerElem()
ONE = TowerElem((1,))
ZETA = TowerElem((0, 1))
IUNIT = TowerElem((0, 0, 0, 1))          # zeta^3
RHO = TowerElem((-1, 0, 1))              # zeta^4 = zeta^2 - 1
SQRT3 = TowerElem((0, 2, 0, -1))         # 2*zeta - zeta^3
ROOT4_3 = TowerElem(_Z4, (1,))           # alpha
INV_ROOT4_3 = TowerElem(_Z4, (Fraction(1, 3),)) * SQRT3   # alpha^3/3
HALF = TowerElem((Fraction(1, 2),))
# zeta^0..zeta^3, then zeta^4 = i zeta, zeta^5 = i zeta^2, zeta^(k+6) = -zeta^k
_ZETA_POWERS = [_raw(_Z4[:k] + (1,) + _Z4[k + 1:] + _Z4, 1) for k in range(4)]
_ZETA_POWERS += [IUNIT * z for z in _ZETA_POWERS[1:3]]
_ZETA_POWERS += [-z for z in _ZETA_POWERS]


def cyclo(c0=0, c1=0, c2=0, c3=0):
    """Shorthand: c0 + c1 zeta + c2 zeta^2 + c3 zeta^3."""
    return TowerElem((c0, c1, c2, c3))


def _sqrt3_pair_sign(s, t):
    """Exact sign of s + t*sqrt(3) for rational s, t."""
    ss, st = (s > 0) - (s < 0), (t > 0) - (t < 0)
    if st == 0 or ss == st:
        return ss
    # mixed signs (or s = 0): |s| vs |t| sqrt3 by s^2 vs 3 t^2, never equal
    return ss if s * s > 3 * t * t else st


def real_sign(x):
    """Exact sign in {-1, 0, 1} of a real tower element.

    Real elements are exactly (u + v*alpha)/d with u = s + t sqrt3 and
    v = p + q sqrt3 in Z[sqrt3] and d > 0.  As alpha > 0, only when u and
    v disagree in sign is there a contest, decided by the sign of
    u^2 - v^2 sqrt3 = (s^2 + 3t^2 - 6pq) + (2st - p^2 - 3q^2) sqrt3, squared
    as Z[sqrt3] pairs.
    """
    x = TowerElem.coerce(x)
    if not x.is_real():
        raise ValueError("real_sign requires a real element")
    # s + t sqrt3 in Q(sqrt3) has the coordinates (s, 2t, 0, -t)
    s, t, p, q = x.n[0], -x.n[3], x.n[4], -x.n[7]
    su, sv = _sqrt3_pair_sign(s, t), _sqrt3_pair_sign(p, q)
    if sv == 0 or su == sv:
        return su
    sd = _sqrt3_pair_sign(s * s + 3 * t * t - 6 * p * q, 2 * s * t - p * p - 3 * q * q)
    if sd == 0:
        # u^2 = v^2 sqrt3 would put alpha inside Q(sqrt3)
        raise ArithmeticError("degenerate comparison in real_sign")
    return su if sd > 0 else sv


# -- certified embedding ----------------------------------------------

@lru_cache(maxsize=16)
def _basis(prec):
    """Integer (re, im, rad) over 2^E, E = prec + 8, of the balls of zeta^k and
    alpha*zeta^k, k = 0..3, and E.  cos(pi/6) is c = (2n + 1) 2^6 within 2^6;
    a/2^prec < 2 is within 2^-prec of alpha, so alpha*zeta^k is within 2^8 + 2r
    units of a m/2^prec for the ball (m, r) of zeta^k.  Only a c/2^prec is
    rounded (1 more unit); the rest are multiples of h or a: real x has im 0."""
    c, h = (2 * isqrt(3 << (2 * prec)) + 1) << 6, 1 << (prec + 7)
    a = isqrt(isqrt(3 << (4 * prec))) + 1       # a - 1 <= alpha 2^prec < a + 1
    ac, low = divmod(a * c + (1 << (prec - 1)), 1 << prec)
    r = (3 << 7) + (low != 1 << (prec - 1))     # 2^8 + 2 * 2^6, + 1 if rounded
    return ((2 * h, c, h, 0, a << 8, ac, a << 7, 0),
            (0, h, c, 2 * h, 0, a << 7, ac, a << 8),
            (0, 1 << 6, 1 << 6, 0, 1 << 8, r, r, 1 << 8)), prec + 8


def embed(x, prec=128):
    """Certified ComplexBall for x under zeta -> e^(i pi/6), alpha -> 3^(1/4)."""
    if prec < 16:
        raise ValueError("embedding precision must be at least 16 bits")
    x = TowerElem.coerce(x)
    (re, im, rad), e = _basis(prec)
    n = x.n
    return ComplexBall(sum(map(mul, n, re)), sum(map(mul, n, im)),
                       sum(map(mul, map(abs, n), rad)), x.d << e)
