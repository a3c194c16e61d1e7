"""Exact arithmetic in Q(zeta12)(alpha) and the certified embedding."""

import hashlib
import json
import random
import sys
from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:         # sympy is a test-only dependency
    sympy = None

try:
    import mpmath
except ImportError:         # so is mpmath
    mpmath = None

from cycloperiods import balls, intlat, periods, stcurve, suite
from cycloperiods.exactfield import (
    HALF,
    INV_ROOT4_3,
    IUNIT,
    ONE,
    RHO,
    ROOT4_3,
    SQRT3,
    ZERO,
    ZETA,
    TowerElem,
    _basis,
    _raw,
    cyclo,
    dot,
    embed,
    real_sign,
    zeta_power,
)

# the 97 fractions in [-4, 4] with denominator at most 6, which is the set
# st.fractions(-4, 4, max_denominator=6) draws from.  Simplest first, so
# that shrinking heads for 0, 1, -1, ...
_RATS = sorted({Fraction(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)},
               key=lambda q: (q.denominator, abs(q), q < 0))


def _digits(size, count):
    """count fractions of _RATS from one draw of size bytes, read as the
    base-97 digits of an integer (2**(8 size) is 49 or more times
    97**count, so about uniform).  Hypothesis draws fixed-size bytes
    uniformly, unlike its integers, which seldom reach 97**4, and shrinks
    them towards zero bytes, so towards (0, 0, ...)."""
    return st.binary(min_size=size, max_size=size).map(lambda b: tuple(
        _RATS[int.from_bytes(b, "big") // len(_RATS) ** i % len(_RATS)]
        for i in range(count)))


# the coordinates of an element in one draw, not one sampled draw per
# coordinate: the same values, about as uniform, each example cheaper
_coords = _digits(4, 4)
_elems = _digits(8, 8).map(lambda c: TowerElem(c[:4], c[4:]))
_nonzero = _elems.filter(lambda x: not x.is_zero())


def _real_range(b):
    """The real range [lo, hi] of a ball as Fractions of its integer data."""
    return (Fraction(b.re_n - b.rad_n, b.den),
            Fraction(b.re_n + b.rad_n, b.den))


def _ball_sign(x, prec=128):
    lo, hi = _real_range(embed(x, prec))
    return 1 if lo > 0 else -1 if hi < 0 else 0


# -- interval checks on the exact ball data, as (re, im, rad) Fraction triples

def _sqrt_upper(q):
    """Upper bound (isqrt(n d) + 1)/d for sqrt(q), q = n/d >= 0 reduced."""
    q = Fraction(q)
    return Fraction(isqrt(q.numerator * q.denominator) + 1, q.denominator)


def _triple(b):
    return (b.re, b.im, b.rad)


def _ball_add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def _ball_mul(p, q):
    """|xy - m1 m2| <= |m1| r2 + |m2| r1 + r1 r2."""
    (a, b, r), (c, d, s) = p, q
    return (a * c - b * d, a * d + b * c,
            _sqrt_upper(a * a + b * b) * s + _sqrt_upper(c * c + d * d) * r + r * s)


def _discs_meet(p, q):
    """Whether the discs p and q share a point: |m1 - m2| <= r1 + r2."""
    dr, di = p[0] - q[0], p[1] - q[1]
    return dr * dr + di * di <= (p[2] + q[2]) ** 2


def test_generator_relations():
    assert ZETA ** 4 - ZETA ** 2 + ONE == ZERO
    assert IUNIT == ZETA ** 3
    assert IUNIT * IUNIT == -ONE
    assert RHO == ZETA ** 4
    assert RHO * RHO + RHO + ONE == ZERO
    assert SQRT3 == ZETA * 2 - ZETA ** 3
    assert SQRT3 * SQRT3 == TowerElem.coerce(3)
    assert ROOT4_3 ** 2 == SQRT3
    assert ROOT4_3 ** 4 == TowerElem.coerce(3)
    assert ROOT4_3 * INV_ROOT4_3 == ONE
    assert HALF + HALF == ONE


def test_zeta_power_wraps_mod_twelve():
    for k in range(30):
        assert zeta_power(k) == ZETA ** (k % 12)
    assert zeta_power(12) == ONE
    assert zeta_power(-1) * ZETA == ONE


def test_zeta_power_table_matches_powers_of_zeta():
    for k in range(-24, 25):
        assert zeta_power(k) == ZETA ** k, k


def test_conjugation_fixes_alpha_and_reals():
    assert ZETA.conjugate() == zeta_power(11)
    assert IUNIT.conjugate() == -IUNIT
    assert ROOT4_3.conjugate() == ROOT4_3
    assert SQRT3.conjugate() == SQRT3
    assert RHO.conjugate() == -ONE - RHO


def test_rational_detection():
    assert TowerElem.coerce(Fraction(7, 3)).is_rational()
    assert TowerElem.coerce(Fraction(7, 3)).as_rational() == Fraction(7, 3)
    assert not ZETA.is_rational()
    x = ZETA ** 6
    assert x.is_rational() and x.as_rational() == -1


def test_rho_subfield_trace_and_norm():
    # x = a + b rho in K = Q(rho): x + conj(x) = 2a - b, x conj(x) = a^2 - ab + b^2
    a, b = Fraction(5, 2), Fraction(-3)
    x = TowerElem.coerce(a) + RHO * b
    assert (x + x.conjugate()).as_rational() == 2 * a - b
    assert (x * x.conjugate()).as_rational() == a * a - a * b + b * b
    assert (RHO + RHO.conjugate()).as_rational() == -1
    assert (RHO * RHO.conjugate()).as_rational() == 1
    # zeta12 is outside K: its trace down to Q(sqrt3) is sqrt3, not rational
    assert ZETA + ZETA.conjugate() == SQRT3


def test_sqrt3_pair_roundtrip():
    s, t = Fraction(1, 3), Fraction(-2)
    x = TowerElem.coerce(s) + SQRT3 * t
    assert x.as_sqrt3_pair() == (s, t)
    with pytest.raises(ValueError):
        ZETA.as_sqrt3_pair()
    with pytest.raises(ValueError):
        ROOT4_3.as_sqrt3_pair()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_real_sign_fixed_points():
    assert real_sign(ZERO) == 0
    assert real_sign(SQRT3 - 1) == 1
    assert real_sign(SQRT3 - 2) == -1
    assert real_sign(ROOT4_3 - 1) == 1
    assert real_sign(ROOT4_3 - 2) == -1
    # 3^(1/4) against 4/3: 3 vs (4/3)^4 = 256/81 > 3
    assert real_sign(ROOT4_3 - Fraction(4, 3)) == -1
    with pytest.raises(ValueError):
        real_sign(ZETA)


def test_embed_rejects_tiny_precision():
    with pytest.raises(ValueError):
        embed(ONE, 8)


def test_embed_known_values():
    b = embed(IUNIT, 64)
    assert b.re == 0 and b.im == 1 and b.rad == 0
    lo, hi = _real_range(embed(SQRT3, 128))
    assert Fraction(17320, 10000) < lo <= hi < Fraction(17321, 10000)
    lo, hi = _real_range(embed(ROOT4_3, 128))
    assert Fraction(13160, 10000) < lo <= hi < Fraction(13161, 10000)


def test_decimal_output():
    re, im = embed(HALF, 64).decimal(10)
    assert float(re) == 0.5 and float(im) == 0.0


@settings(max_examples=1000, deadline=None)
@given(_elems, _elems)
def test_ring_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + ONE) == x * y + x
    assert x - y == -(y - x)


@settings(max_examples=1000, deadline=None)
@given(_elems, _elems)
def test_conjugation_is_a_ring_involution(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=500, deadline=None)
@given(_elems)
def test_norm_is_real_and_nonnegative(x):
    n = x * x.conjugate()
    assert n.is_real()
    s = real_sign(n)
    assert s == (0 if x.is_zero() else 1)


@settings(max_examples=300, deadline=None)
@given(_nonzero)
def test_inverse_and_negative_powers(x):
    assert x * x.inverse() == ONE
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == x.inverse() * x.inverse()


@settings(max_examples=1000, deadline=None)
@given(_elems)
def test_json_roundtrip(x):
    blob = json.dumps(x.to_json())
    assert TowerElem.from_json(json.loads(blob)) == x


@settings(max_examples=500, deadline=None)
@given(_elems, _elems)
def test_embedding_is_a_homomorphism(x, y):
    # both discs contain the true value, so they meet
    bx, by = _triple(embed(x, 64)), _triple(embed(y, 64))
    assert _discs_meet(_ball_mul(bx, by), _triple(embed(x * y, 64)))
    assert _discs_meet(_ball_add(bx, by), _triple(embed(x + y, 64)))


@settings(max_examples=500, deadline=None)
@given(_elems)
def test_embedding_commutes_with_conjugation(x):
    re, im, rad = _triple(embed(x, 64))
    assert _discs_meet((re, -im, rad), _triple(embed(x.conjugate(), 64)))


@settings(max_examples=500, deadline=None)
@given(_coords)
def test_real_sign_agrees_with_embedding(coords):
    s, t, u, v = coords
    x = (TowerElem.coerce(s) + SQRT3 * t
         + ROOT4_3 * (TowerElem.coerce(u) + SQRT3 * v))
    assert x.is_real()
    got = real_sign(x)
    if x.is_zero():
        assert got == 0
    else:
        assert got == _ball_sign(x, 256)


@settings(max_examples=300, deadline=None)
@given(_elems)
def test_equality_and_hash_are_consistent(x):
    y = TowerElem(x.c, x.a)
    assert x == y and hash(x) == hash(y)
    assert x != x + ONE


def test_repr_smoke():
    assert "z" in repr(ZETA)
    assert "alpha" in repr(ROOT4_3)
    assert cyclo(1, 2, 3, 4) == ONE + ZETA * 2 + ZETA ** 2 * 3 + ZETA ** 3 * 4


# -- wide heights, normal form, and an independent sympy model ----------------

def _signed(size, top):
    """An integer in [-top, top] from one draw of size bytes, read modulo
    2 top + 1 (2**(8 size) is 64 or more times that, so about uniform,
    where st.integers seldom passes 2**32).  Zero bytes give 0, and
    residues past top the negatives."""
    m = 2 * top + 1
    return st.binary(min_size=size, max_size=size).map(
        lambda b: (lambda v: v if v <= top else v - m)(int.from_bytes(b, "big") % m))


_wide_rat = st.builds(Fraction, _signed(9, 2 ** 64), st.integers(1, 10 ** 6))
_wide_coords = st.tuples(_wide_rat, _wide_rat, _wide_rat, _wide_rat)
# full elements, elements of Q(zeta12), pure alpha parts and rationals, so
# that every fast path of the integer representation is reached
_wide = st.one_of(
    st.builds(TowerElem, _wide_coords, _wide_coords),
    st.builds(TowerElem, _wide_coords),
    st.builds(lambda a: TowerElem((), a), _wide_coords),
    _wide_rat.map(TowerElem.coerce),
)
_needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def _assert_normal(x):
    _assert_sound(x)
    assert gcd(x.d, *x.n) == 1


def _assert_sound(x):
    """The form of every element, kept or not: 8 ints over a d > 0, which
    an unreduced sum (dot(pairs, reduce=False)) may share a factor with."""
    assert len(x.n) == 8 and all(isinstance(v, int) for v in x.n) and x.d > 0


if sympy is not None:
    from sympy.polys.matrices import DomainMatrix

    # alpha^2 = 2z - z^3 and Phi12(z) = 0; in lex order with a > z the leading
    # terms a^2 and z^4 are coprime, so the relations form a Groebner basis
    # and the remainder modulo them is the unique normal form.  _sympy_det
    # works in the sparse ring over ZZ; the model of single elements, whose
    # coordinates are rational, in the same ring over QQ.
    _RING, _RA, _RZ = sympy.polys.rings.ring("a z", sympy.ZZ, sympy.lex)
    _RING_RELATIONS = [_RA ** 2 - 2 * _RZ + _RZ ** 3, _RZ ** 4 - _RZ ** 2 + 1]
    _MONOMIALS = [_RZ ** k for k in range(4)] + [_RA * _RZ ** k for k in range(4)]
    _QRING = _RING.clone(domain=sympy.QQ)
    _QRING_RELATIONS = [r.set_ring(_QRING) for r in _RING_RELATIONS]
    _QMONOMIALS = [b.set_ring(_QRING) for b in _MONOMIALS]


def _model(x):
    """x as a polynomial in a and z over QQ, read from its Fraction coordinates."""
    return sum((sympy.QQ(v.numerator, v.denominator) * b
                for v, b in zip(x.c + x.a, _QMONOMIALS) if v), _QRING.zero)


def _model_coords(p):
    """The 8 coordinates of the normal form of the polynomial p."""
    rem = p.rem(_QRING_RELATIONS)
    assert rem.degree(0) < 2 and rem.degree(1) < 4
    return tuple(Fraction(int(q.numerator), int(q.denominator))
                 for q in map(rem.coeff, _QMONOMIALS))


def _wide_square(n):
    return st.lists(st.lists(st.one_of(_wide, st.just(ZERO)), min_size=n, max_size=n),
                    min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_wide_square), st.booleans(), _wide)
def test_wide_tower_matrix_inverse(A, dependent, c):
    if dependent and len(A) > 1:
        A[-1] = [x * c for x in A[0]]       # singular by construction
    inv = intlat.inverse(A)
    if list(periods.leading_minors(A))[-1] == 0:
        assert inv is None
        return
    assert intlat.matmul(A, inv) == intlat.identity(len(A))


@st.composite
def _tall_matrix(draw):
    """A g x g tower matrix, g in 1..6: row i has numerators of up to h bits
    over one denominator of up to h bits, h in 1..1000.  Entries are zero
    at a drawn rate, the (1,1) entry may be zero, and a row may be a
    multiple of an earlier one, which makes every leading block from that
    row on singular."""
    rng = draw(st.randoms(use_true_random=False))
    g, h = draw(st.integers(1, 6)), draw(st.integers(1, 1000))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))

    def entry(d):
        if rng.random() < zeros:
            return ZERO
        n = [rng.randint(-2 ** h, 2 ** h) for _ in range(8)]
        return TowerElem([Fraction(v, d) for v in n[:4]],
                         [Fraction(v, d) for v in n[4:]])

    A = []
    for _ in range(g):
        d = rng.randint(1, 2 ** h)
        A.append([entry(d) for _ in range(g)])
    if draw(st.booleans()):
        A[0][0] = ZERO
    if g > 1 and draw(st.booleans()):
        k = rng.randrange(1, g)
        c = entry(rng.randint(1, 2 ** h))
        A[k] = [x * c for x in A[rng.randrange(k)]]
    return A


@st.composite
def _block_matrix(draw):
    """(A, block, below): a g x g tower matrix A, g in 1..6, block lower
    triangular over a drawn partition of 0..g-1 into runs, block[i] being
    the index of the run of i.  Entries of the diagonal blocks are zero at
    a drawn rate; those below the blocks are all zero (block diagonal) or,
    if below, all nonzero, and then A is not Hermitian.  The coordinates
    of a row share one denominator; numerators and denominators have up to
    h bits, h in 1..1000.  The first row of a block may keep one entry
    only, off the diagonal, so that the expansion holds a single minor that
    is not the leading one."""
    rng = draw(st.randoms(use_true_random=False))
    g, h = draw(st.integers(1, 6)), draw(st.integers(1, 1000))
    zeros = draw(st.sampled_from([0.0, 0.3]))
    below = draw(st.booleans())
    block = [0]
    for cut in draw(st.lists(st.booleans(), min_size=g - 1, max_size=g - 1)):
        block.append(block[-1] + cut)

    def entry(d, nonzero=False):
        while True:
            x = TowerElem(*([Fraction(rng.randint(-2 ** h, 2 ** h), d)
                             for _ in range(4)] for _ in range(2)))
            if x or not nonzero:
                return x

    A = []
    for r in range(g):
        d = rng.randint(1, 2 ** h)
        A.append([entry(d) if block[c] == block[r] and rng.random() >= zeros
                  else entry(d, True) if below and block[c] < block[r] else ZERO
                  for c in range(g)])
    starts = [r for r in range(g - 1) if block[r + 1] == block[r]
              and (r == 0 or block[r - 1] != block[r])]
    if starts and draw(st.booleans()):
        s = rng.choice(starts)              # a block of two or more rows
        keep = rng.choice([c for c in range(s + 1, g) if block[c] == block[s]])
        A[s] = [x if block[c] < block[s] else entry(rng.randint(1, 2 ** h), True)
                if c == keep else ZERO for c, x in enumerate(A[s])]
    return A, block, below


def _sympy_det(A):
    """det A by sympy: each row is scaled to Z[a, z] by the lcm of its
    denominators, the determinant is the constant term of sympy's
    division-free (Berkowitz) characteristic polynomial, reduced modulo
    the relations and divided by the scales; as 8 Fraction coordinates."""
    rows, scale = [], 1
    for row in A:
        m = lcm(*(x.d for x in row))
        scale *= m
        rows.append([sum((v * (m // x.d) * b for v, b in zip(x.n, _MONOMIALS)),
                         _RING.zero) for x in row])
    n = len(A)
    det = (-1) ** n * DomainMatrix(rows, (n, n), _RING.to_domain()).charpoly()[-1]
    det = det.rem(_RING_RELATIONS)
    return tuple(Fraction(int(det.coeff(b)), scale) for b in _MONOMIALS)


@_needs_sympy
@settings(max_examples=40, deadline=None)
@given(_tall_matrix())
def test_leading_minors_match_sympy_determinants(A):
    got = list(periods.leading_minors(A))
    assert len(got) == len(A)
    for k, minor in enumerate(got, 1):
        _assert_sound(minor)        # a minor is read once, so it may be unreduced
        want = _sympy_det([row[:k] for row in A[:k]])
        assert minor.c + minor.a == want


def _plain_leading_minors(H):
    """The leading minors by one expansion over all rows and columns, with
    no closed blocks: each level holds every nonzero minor of its rows."""
    level = {(): ONE}
    for r, row in enumerate(H):
        terms = {}
        for cols, m in level.items():
            for c, x in enumerate(row):
                if x and c not in cols:
                    j = bisect(cols, c)
                    terms.setdefault(cols[:j] + (c,) + cols[j:], []).append(
                        (x if (r - j) % 2 == 0 else -x, m))
        level = {cols: v for cols, pairs in terms.items() if (v := dot(pairs))}
        yield level.get(tuple(range(r + 1)), ZERO)


def _pair_counts(A):
    """The leading minors of A, and the number of pairs of each dot they take."""
    counts = []

    def counting_dot(pairs, reduce=True):      # reduced or not
        counts.append(len(pairs))
        return dot(pairs, reduce)

    with mock.patch.object(periods, "dot", counting_dot):
        return list(periods.leading_minors(A)), counts


@_needs_sympy
@settings(max_examples=40, deadline=None)
@given(_block_matrix())
def test_leading_minors_of_block_triangular_matrices(drawn):
    A, block, below = drawn
    g = len(A)
    if below and block[-1] > 0:
        assert A != [[x.conjugate() for x in col] for col in zip(*A)]
    got, counts = _pair_counts(A)
    for k, minor in enumerate(got, 1):
        _assert_sound(minor)        # a minor is read once, so it may be unreduced
        assert minor.c + minor.a == _sympy_det([row[:k] for row in A[:k]])
    # with det A != 0 every block closes by its last row, so the entries
    # below the blocks cost nothing: the block diagonal part takes the
    # same dots, pair for pair
    if got[-1]:
        diagonal = [[A[r][c] if block[r] == block[c] else ZERO for c in range(g)]
                    for r in range(g)]
        assert _pair_counts(diagonal) == (got, counts)


def _tall_family_point(rng, bits=512):
    """tau, z1, z2 with coordinates of `bits` bits, Im tau in [1/2, 3] and
    the real and imaginary parts of z1 and z2 in [-0.44, 0.44]."""
    def coord(lo, hi):
        den = rng.randint(2 ** (bits - 1), 2 ** bits)
        return Fraction(rng.randint(floor(lo * den), floor(hi * den)), den)

    box = Fraction(44, 100)
    return {"tau": coord(-2, 2) + IUNIT * coord(Fraction(1, 2), 3),
            "z1": coord(-box, box) + IUNIT * coord(-box, box),
            "z2": coord(-box, box) + IUNIT * coord(-box, box)}


def test_closed_blocks_match_the_plain_expansion_at_tall_family_points():
    pm = suite.SuiteContext(128).genus4_family
    rng = random.Random(18)
    for _ in range(20):
        H = periods.positivity_gram(pm, _tall_family_point(rng),
                                    stcurve.POSITIVITY_SIGN)
        # the Z/6 characters split H into blocks of size 1 + 1 + 2
        assert not any(H[0][1:] + H[1][2:])
        assert list(periods.leading_minors(H)) == list(_plain_leading_minors(H))


# SHA-256 of the (verdict, evidence) of riemann_positivity at the points of
# test_positivity_evidence_at_seeded_family_points_is_frozen, as JSON,
# recorded with every product on the general convolution
POSITIVITY_DIGEST = "d5e5ddc23d5d4bf69bcfbca58a66f07b9a9355af5281d7d50dbff4854bbb72ee"


def test_positivity_evidence_at_seeded_family_points_is_frozen():
    pm = suite.SuiteContext(128).genus4_family
    rng = random.Random(27)
    out = []
    for bits, prec in [(4, 16), (64, 128), (512, 512), (512, 2048)] * 3:
        point = _tall_family_point(rng, bits)
        if rng.randrange(3) == 0:   # |z1|^2 + |z2|^2 > 1: not positive
            point["z1"] += Fraction(3, 4)
            point["z2"] += Fraction(3, 4) * IUNIT
        out.append(periods.riemann_positivity(pm, point, prec, stcurve.POSITIVITY_SIGN))
    assert {verdict for verdict, _ in out} == {"positive", "not-positive"}
    text = json.dumps(out).encode()
    assert hashlib.sha256(text).hexdigest() == POSITIVITY_DIGEST


# the same at the points of
# test_positivity_evidence_at_seeded_alpha_points_is_frozen, recorded before
# a norm x conj(x) had its own branch in the product
ALPHA_POSITIVITY_DIGEST = "ba84c7b84ed2248b5ad7fe5f97ac17463e80d02eef6bc4e644f007f391e0e621"


def test_positivity_evidence_at_seeded_alpha_points_is_frozen():
    """Points whose coordinates have alpha parts, up to 1,024 bits: the 2 x 2
    minor of H's character block multiplies -h32 by h23 = conj(h32)."""
    pm = suite.SuiteContext(128).genus4_family
    rng = random.Random(31)
    out = []
    for bits, prec in [(8, 64), (128, 128), (1024, 512), (1024, 2048)] * 2:
        point = _tall_family_point(rng, bits)
        for name in point:          # alpha zeta^k c with |c| <= 1/20
            c = Fraction(rng.randint(-2 ** bits, 2 ** bits), 20 << bits)
            point[name] += c * ROOT4_3 * zeta_power(rng.randrange(12))
        if rng.randrange(3) == 0:   # |z1|^2 + |z2|^2 > 1: not positive
            point["z1"] += Fraction(3, 4)
            point["z2"] += Fraction(3, 4) * IUNIT
        out.append(periods.riemann_positivity(pm, point, prec, stcurve.POSITIVITY_SIGN))
    assert {verdict for verdict, _ in out} == {"positive", "not-positive"}
    text = json.dumps(out).encode()
    assert hashlib.sha256(text).hexdigest() == ALPHA_POSITIVITY_DIGEST


@_needs_sympy
@settings(max_examples=100, deadline=None)
@given(_wide, _wide, _wide_rat)
def test_wide_arithmetic_matches_sympy_model(x, y, q):
    X, Y, Q = _model(x), _model(y), _model(TowerElem.coerce(q))
    assert (x * y).c + (x * y).a == _model_coords(X * Y)
    assert (x + y).c + (x + y).a == _model_coords(X + Y)
    assert (x - y).c + (x - y).a == _model_coords(X - Y)
    assert (x * q).c + (x * q).a == _model_coords(X * Q)
    assert (q - x).c + (q - x).a == _model_coords(Q - X)


# a foreign operand gets NotImplemented from +, - and *, so Python raises
@pytest.mark.parametrize("op", [lambda x: x + 0.5, lambda x: 0.5 - x,
                                lambda x: x * "a", lambda x: x - None],
                         ids=["x + 0.5", "0.5 - x", "x * 'a'", "x - None"])
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op(ZETA + ROOT4_3 * Fraction(2, 7))


@_needs_sympy
def test_rational_operands_on_either_side_match_sympy_model():
    x = ZETA + ROOT4_3 * Fraction(2, 7) - 5
    X = _model(x)
    for got, want in ((Fraction(3, 4) + x, X + sympy.Rational(3, 4)),
                      (1 - x, 1 - X), (x * True, X)):
        assert got.c + got.a == _model_coords(want)


@_needs_sympy
@settings(max_examples=100, deadline=None)
@given(_wide)
def test_wide_inverse_and_conjugate_match_sympy_model(x):
    X = _model(x)
    # conjugation is zeta -> zeta^11 = zeta^-1 and fixes alpha
    conj = x.conjugate()
    X11 = X.compose(_QRING.gens[1], _QRING.gens[1] ** 11)
    assert conj.c + conj.a == _model_coords(X11)
    assume(not x.is_zero())
    one = (Fraction(1),) + (Fraction(0),) * 7
    assert _model_coords(X * _model(x.inverse())) == one


@settings(max_examples=300, deadline=None)
@given(_wide, _wide, _wide_rat)
def test_wide_results_are_normalised(x, y, q):
    results = [x, y, x * y, x + y, x - y, -x, x * q, x + q, q - x,
               x.conjugate(), x * x.conjugate()]
    if not x.is_zero():
        results += [x.inverse(), y / x, x ** -2]
    for r in results:
        _assert_normal(r)
    assert x - x == ZERO and (x - x).d == 1
    assert TowerElem(x.c, x.a) == x and hash(TowerElem(x.c, x.a)) == hash(x)


def test_a_rational_element_hashes_as_the_value_it_equals():
    assert TowerElem.coerce(2) == 2 and {TowerElem.coerce(2): 1}[2] == 1
    assert {Fraction(-3, 4): 1}[TowerElem.coerce(Fraction(-3, 4))] == 1
    for q in (0, 1, -7, 2 ** 70, Fraction(1, 2), Fraction(-10 ** 30, 7)):
        assert hash(TowerElem.coerce(q)) == hash(q)


def test_equal_values_share_one_normal_form():
    half = TowerElem((Fraction(2, 4),))
    assert half == TowerElem.coerce(Fraction(1, 2)) == HALF == Fraction(1, 2)
    assert hash(half) == hash(HALF)
    assert (half.n, half.d) == ((1, 0, 0, 0, 0, 0, 0, 0), 2)
    x = TowerElem((Fraction(6, 4), Fraction(-9, 6)), (Fraction(3, 2),))
    assert (x.n, x.d) == ((3, -3, 0, 0, 3, 0, 0, 0), 2)
    y = TowerElem((Fraction(-10, 4),), (0, 0, 0, Fraction(5, -6)))
    assert (y.n, y.d) == ((-15, 0, 0, 0, 0, 0, 0, -5), 6)
    assert (ZETA * 4) * Fraction(1, 4) == ZETA and hash(ZETA * 2 * HALF) == hash(ZETA)
    assert ((ZETA * 3 + HALF) - HALF).d == 1
    for zero in (ZERO, ZETA - ZETA, HALF * 0, ZETA * Fraction(0, 7)):
        assert (zero.n, zero.d) == ((0,) * 8, 1)
    assert (-HALF).inverse() == -2 and (-HALF).inverse().d == 1


# -- an independent mpmath model of the embedding and of real_sign ------------

_needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")
_MP_DPS = 320


def _mp_value(x):
    """x under zeta -> e^(i pi/6), alpha -> 3^(1/4), at _MP_DPS digits."""
    with mpmath.workdps(_MP_DPS):
        zeta = mpmath.expjpi(mpmath.mpf(1) / 6)
        alpha = mpmath.root(3, 4)
        acc = mpmath.mpc(0)
        for i, coords in enumerate((x.c, x.a)):
            for k, v in enumerate(coords):
                if v:
                    acc += mpmath.mpf(v.numerator) / v.denominator * alpha ** i * zeta ** k
        return acc


def _iroot4(n):
    """floor(n^(1/4)) for an integer n >= 0."""
    return isqrt(isqrt(n))


# real elements b - m*alpha with b/m within 1/m of 3^(1/4), so that the
# two parts nearly cancel and real_sign has to settle a contest of signs
_alpha_ties = st.builds(
    lambda m, e, s: (TowerElem.coerce(_iroot4(3 * m ** 4) + e) - ROOT4_3 * m) * s,
    st.integers(1, 2 ** 64), st.integers(-1, 2), st.sampled_from([1, -1, SQRT3]))


@_needs_mpmath
@settings(max_examples=200, deadline=None)
@given(_wide, st.sampled_from([16, 64, 128, 512]))
def test_embed_contains_the_mpmath_value(x, prec):
    b = embed(x, prec)
    v = _mp_value(x)
    with mpmath.workdps(_MP_DPS):
        mid = mpmath.mpc(mpmath.mpf(b.re.numerator) / b.re.denominator,
                         mpmath.mpf(b.im.numerator) / b.im.denominator)
        rad = mpmath.mpf(b.rad.numerator) / b.rad.denominator
        # slack for mpmath's own rounding, far below any radius at 512 bits
        slack = mpmath.mpf(10) ** (60 - _MP_DPS) * (1 + abs(v))
        assert abs(v - mid) <= rad + slack


@_needs_mpmath
@settings(max_examples=200, deadline=None)
@given(st.one_of(_wide, _alpha_ties))
def test_real_sign_matches_mpmath(x):
    r = x + x.conjugate()
    got = real_sign(r)
    if r.is_zero():
        assert got == 0
        return
    v = _mp_value(r)
    with mpmath.workdps(_MP_DPS):
        assert abs(v.imag) < mpmath.mpf(10) ** (60 - _MP_DPS) * (1 + abs(v))
        # the value must stand clear of mpmath's rounding for the sign to count
        assert abs(v.real) > mpmath.mpf(10) ** (60 - _MP_DPS) * (1 + abs(v))
        assert got == (1 if v.real > 0 else -1)


def _root4_3_convergents(h):
    """Continued-fraction convergents b/m of 3^(1/4) with 1 <= m < 2^h, read
    off floor(3^(1/4) 2^N)/2^N, N = 2h + 8, whose expansion agrees with
    that of 3^(1/4) that far."""
    p, q, out = _iroot4(3 << 4 * (2 * h + 8)), 1 << 2 * h + 8, []
    (b0, b1), (m0, m1) = (0, 1), (1, 0)
    while q:
        a, p, q = p // q, q, p % q
        (b0, b1), (m0, m1) = (b1, a * b1 + b0), (m1, a * m1 + m0)
        if m1 >> h:
            return out
        out.append((b1, m1))
    return out


@st.composite
def _contested(draw):
    """(x, u, v, bits): a real x = (u + v alpha)/d with u = s + t sqrt3 and
    v = p + q sqrt3 of opposite signs, s, t, p, q all nonzero, and u/v
    near -alpha, so that real_sign must compare u^2 with v^2 sqrt3.  With
    b/m a convergent of 3^(1/4), the pair U = b, V = m or U = m sqrt3,
    V = b (alpha = sqrt3/alpha) has U ~ V alpha; u = U w + e and v = -V w
    for w > 0 in Z[sqrt3] and a small e >= 0, the sign of x drawn.
    Numerators have up to about 2,000 bits."""
    h = draw(st.integers(2, 1000))
    b, m = draw(st.sampled_from(_root4_3_convergents(h)))
    (U0, U1), (V0, V1) = draw(st.sampled_from([((b, 0), (m, 0)), ((0, m), (b, 0))]))
    w0, w1 = (draw(st.integers(1, 2 ** draw(st.integers(1, 1000)))) for _ in range(2))
    e0, e1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    sign = draw(st.sampled_from([1, -1]))
    u = (sign * (U0 * w0 + 3 * U1 * w1 + e0), sign * (U0 * w1 + U1 * w0 + e1))
    v = (-sign * (V0 * w0 + 3 * V1 * w1), -sign * (V0 * w1 + V1 * w0))
    d = draw(st.integers(1, 2 ** 64))
    x = TowerElem([Fraction(c, d) for c in (u[0], 2 * u[1], 0, -u[1])],
                  [Fraction(c, d) for c in (v[0], 2 * v[1], 0, -v[1])])
    return x, u, v, max(abs(c).bit_length() for c in u + v)


@_needs_mpmath
@settings(max_examples=200, deadline=None)
@given(_contested())
def test_real_sign_settles_contested_near_ties(drawn):
    x, (s, t), (p, q), bits = drawn
    assert x.is_real() and all((s, t, p, q))
    with mpmath.workprec(4 * bits + 256):
        sqrt3 = mpmath.sqrt(3)
        u, v = s + t * sqrt3, p + q * sqrt3
        value = u + v * mpmath.root(3, 4)
        # u and v differ in sign, and the value stands clear of rounding
        assert u * v < 0
        assert abs(value) > mpmath.ldexp(abs(u), 64 - (4 * bits + 256))
        assert real_sign(x) == (1 if value > 0 else -1)


def _direct_dec(n, den, digits):
    """n/den truncated toward zero, from the floor of |n| 10^digits / den."""
    whole, frac = divmod(abs(n) * 10 ** digits // den, 10 ** digits)
    point = "." + str(frac).zfill(digits) if digits else ""
    return ("-" if n < 0 else "") + str(whole) + point


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 4000, 2 ** 4000), st.integers(0, 1200),
       st.sampled_from(["odd", "below", "at", "above"]), st.data())
def test_decimal_divides_by_the_odd_part_of_the_denominator(n, digits, where, data):
    # den = odd 2^k with k = 0, or k below, at or above digits
    k = data.draw(st.integers(*{"odd": (0, 0), "below": (0, max(digits - 1, 0)),
                                "at": (digits, digits),
                                "above": (digits + 1, digits + 2000)}[where]))
    den = (2 * data.draw(st.integers(0, 2 ** 2000)) + 1) << k
    assert balls._dec(n, den, digits) == _direct_dec(n, den, digits)


# -- embed's integer dot product against the Fraction-ball sum ----------------

def _zeta_balls(prec):
    """Balls of zeta^k, k = 0..3, as Fraction triples: cos(pi/6) is
    sqrt3/2 to 2^-(prec+2), from n <= sqrt3 2^prec < n + 1."""
    n = isqrt(3 << (2 * prec))
    c, r = Fraction(2 * n + 1, 2 ** (prec + 2)), Fraction(1, 2 ** (prec + 2))
    half = Fraction(1, 2)
    return [(1, 0, 0), (c, half, r), (half, c, r), (0, 1, 0)]


def _reference_basis(prec):
    """Balls of zeta^k and alpha*zeta^k, k = 0..3, as Fraction triples on
    the grid 2^-(prec+8): alpha*zeta^k is a m rounded to the grid, a =
    (t + 1)/2^prec within 2^-prec of 3^(1/4), for the ball (m, r) of
    zeta^k, with radius 2^-prec + 2r and one more grid step if rounded."""
    unit = Fraction(1, 2 ** (prec + 8))
    t = isqrt(isqrt(3 << (4 * prec)))               # t <= alpha 2^prec < t + 2
    a = Fraction(t + 1, 2 ** prec)
    zpow, alpha = _zeta_balls(prec), []
    for re, im, rad in zpow:
        mid = [floor(a * v / unit + Fraction(1, 2)) * unit for v in (re, im)]
        exact = mid == [a * re, a * im]
        alpha.append((*mid, Fraction(1, 2 ** prec) + 2 * rad + (0 if exact else unit)))
    return zpow + alpha


def _exact_construction_basis(prec):
    """The balls the exact construction built before the grid: 3^(1/4) as
    the Fraction ball ((t + 1)/2^prec, 2^-prec) times each ball of zeta^k,
    |xy - m1 m2| <= |m1| r2 + |m2| r1 + r1 r2.  Each magnitude is bounded
    by isqrt, exactly where it is a perfect square: that construction took
    2 for |1| and |i|, twice what holds, so its balls of alpha and alpha*i
    had radius 2^(1-prec), which no ball of the proven radius 2^-prec can
    contain."""
    def mag(x, y):
        q = Fraction(x * x + y * y)
        s = isqrt(q.numerator * q.denominator)
        return Fraction(s + (s * s != q.numerator * q.denominator), q.denominator)

    t = isqrt(isqrt(3 << (4 * prec)))
    a, ra = Fraction(t + 1, 2 ** prec), Fraction(1, 2 ** prec)
    zpow = _zeta_balls(prec)
    return zpow + [(a * x, a * y, mag(a, 0) * rz + mag(x, y) * ra + ra * rz)
                   for x, y, rz in zpow]


@pytest.mark.parametrize("prec", [16, 128, 512, 2048, 65536])
def test_basis_is_the_reference_and_contains_the_exact_construction(prec):
    (re, im, rad), e = _basis(prec)
    got = [(Fraction(x, 2 ** e), Fraction(y, 2 ** e), Fraction(r, 2 ** e))
           for x, y, r in zip(re, im, rad)]
    assert e == prec + 8
    assert got == _reference_basis(prec)
    for (x, y, r), (u, v, s) in zip(got, _exact_construction_basis(prec)):
        # the disc (u + v i, s) lies inside (x + y i, r)
        assert s <= r and (x - u) ** 2 + (y - v) ** 2 <= (r - s) ** 2


def _truncate(q, digits):
    """The Fraction q truncated toward zero to `digits` fractional digits;
    with none, the whole part without a point."""
    whole, frac = divmod(int(abs(q) * 10 ** digits), 10 ** digits)
    sign = "-" if q < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


@st.composite
def _tall(draw):
    """Elements whose 8 coordinates have numerators and denominators of up
    to h bits, h in 4..3000; numerators of either sign or zero."""
    h = draw(st.integers(4, 3000))
    coords = [Fraction(draw(st.sampled_from([1, -1, 0]))
                       * draw(st.integers(2 ** (h - 1), 2 ** h)),
                       draw(st.integers(1, 2 ** h))) for _ in range(8)]
    return TowerElem(coords[:4], coords[4:])


@settings(max_examples=120, deadline=None)
@given(st.one_of(_tall(), st.just(ZERO), _elems),
       st.sampled_from([16, 128, 512, 2048]), st.integers(0, 700))
def test_embed_dot_product_matches_the_fraction_ball_sum(x, prec, digits):
    ref = (Fraction(0), Fraction(0), Fraction(0))
    for v, (re, im, rad) in zip(x.n, _reference_basis(prec)):
        q = Fraction(v, x.d)
        ref = _ball_add(ref, (q * re, q * im, abs(q) * rad))
    b = embed(x, prec)
    assert _triple(b) == ref
    assert _real_range(b) == (ref[0] - ref[2], ref[0] + ref[2])
    assert b.decimal(digits) == (_truncate(ref[0], digits), _truncate(ref[1], digits))


@settings(max_examples=30, deadline=None)
@given(st.one_of(_tall(), _elems), st.sampled_from([16, 128, 2048, 65536]))
def test_real_and_imaginary_elements_embed_with_an_exact_zero_part(x, prec):
    # a real element prints "0.000...", never "-0.000...", as its imaginary part
    assert embed(x + x.conjugate(), prec).im_n == 0
    assert embed(x - x.conjugate(), prec).re_n == 0


# -- embed's shifts and three products against the dot products, seeded --

def _dot_embed(x, prec):
    """(re_n, im_n, rad_n, den) of embed(x, prec) as three 8-term dot
    products against the rows of _basis(prec)."""
    (re, im, rad), e = _basis(prec)
    n = x.n
    return (sum(map(mul, n, re)), sum(map(mul, n, im)),
            sum(map(mul, map(abs, n), rad)), x.d << e)


def _embed_elem(rng, kind, bits, den_bits):
    """A seeded element of one kind with numerators of up to `bits` bits
    over one denominator of up to `den_bits` bits: real is
    (s + t sqrt3) + (p + q sqrt3) alpha, and imaginary is i times that,
    i (s + t sqrt3) = -t + 2t z^2 + s z^3."""
    num = lambda: rng.choice((-1, 1)) * rng.getrandbits(bits)
    s, t, p, q = (num() for _ in range(4))
    n = {"zero": (0,) * 8,
         "rational": (num(), 0, 0, 0, 0, 0, 0, 0),
         "real": (s, 2 * t, 0, -t, p, 2 * q, 0, -q),
         "imaginary": (-t, 0, 2 * t, s, -q, 0, 2 * q, p),
         "general": tuple(num() for _ in range(8))}[kind]
    d = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
    return TowerElem([Fraction(v, d) for v in n[:4]], [Fraction(v, d) for v in n[4:]])


@pytest.mark.parametrize("prec", [16, 17, 64, 128, 333, 2048, 65536])
@pytest.mark.parametrize("kind", ["zero", "rational", "real", "imaginary", "general"])
def test_embed_equals_the_dot_products_against_the_basis(kind, prec):
    rng = random.Random(f"embed {kind} {prec}")
    sizes = [(1, 1), (4000, 1500)] + [(rng.randint(1, 4000), rng.randint(1, 1500))
                                      for _ in range(10)]
    for bits, den_bits in sizes:
        x = _embed_elem(rng, kind, bits, den_bits)
        b = embed(x, prec)
        assert (b.re_n, b.im_n, b.rad_n, b.den) == _dot_embed(x, prec)
        if kind in ("zero", "rational", "real"):
            assert b.im_n == 0
        if kind in ("zero", "imaginary"):
            assert b.re_n == 0


def test_decimal_from_the_cached_powers_matches_the_direct_truncation():
    rng = random.Random(30)
    balls._powers.cache_clear()
    for digits in (0, 1, 30, 608, 4300, 30):
        for k in (0, rng.randint(0, digits), digits, digits + rng.randint(1, 2000)):
            n = rng.randint(-2 ** 4000, 2 ** 4000)
            den = (2 * rng.getrandbits(2000) + 1) << k
            assert balls._dec(n, den, digits) == _direct_dec(n, den, digits)
    # 30 is read back from the cache
    assert balls._powers.cache_info()[:2] == (19, 5)


def test_embed_takes_no_gcd_and_builds_no_fraction():
    x = TowerElem((Fraction(-7, 3), 5), (0, Fraction(2 ** 90, 11)))
    embed(x, 256)                           # the per-precision basis is cached
    seen = []

    def profile(frame, event, arg):
        if event == "c_call":
            seen.append(arg)
        elif event == "call":
            seen.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        b = embed(x, 256)
    finally:
        sys.setprofile(None)
    assert gcd not in seen
    assert not [f for f in seen if isinstance(f, str) and f.endswith("fractions.py")]
    scale = b.den // x.d                    # the common denominator d 2^E
    assert b.den == x.d * scale and scale & (scale - 1) == 0


# -- the fused dot product ------------------------------------------------

def _fraction_product(x, y):
    """x * y on Fraction coordinates by schoolbook convolution in z and
    alpha, reduced by alpha^2 = 2z - z^3 and z^4 = z^2 - 1; as 8 Fractions."""
    poly = {}
    for i, u in enumerate(x.c + x.a):
        for j, v in enumerate(y.c + y.a):
            key = (i // 4 + j // 4, i % 4 + j % 4)      # (alpha power, z power)
            poly[key] = poly.get(key, 0) + u * v
    for k in range(7):                                  # alpha^2 -> 2z - z^3
        c = poly.pop((2, k), 0)
        poly[0, k + 1] = poly.get((0, k + 1), 0) + 2 * c
        poly[0, k + 3] = poly.get((0, k + 3), 0) - c
    for a in (0, 1):
        for k in range(9, 3, -1):                       # z^k -> z^(k-2) - z^(k-4)
            c = poly.pop((a, k), 0)
            poly[a, k - 2] = poly.get((a, k - 2), 0) + c
            poly[a, k - 4] = poly.get((a, k - 4), 0) - c
    return tuple(Fraction(poly.get((a, k), 0)) for a in (0, 1) for k in range(4))


@st.composite
def _dot_pairs(draw):
    """0..8 pairs of ints, Fractions, zeros and tower elements (full, in
    Q(zeta12), pure alpha, rational-valued) with numerators and unequal
    denominators of up to h bits, h in 1..1000."""
    rng = draw(st.randoms(use_true_random=False))
    h = draw(st.integers(1, 1000))

    def operand():
        kind = rng.randrange(7)
        num = lambda: rng.randint(-2 ** h, 2 ** h)
        den = lambda: rng.randint(1, 2 ** h)
        if kind == 0:
            return num()
        if kind == 1:
            return Fraction(num(), den())
        if kind == 2:
            return rng.choice([0, Fraction(0), ZERO])
        if kind == 3:
            return TowerElem.coerce(Fraction(num(), den()))
        d = den()
        c = [Fraction(num(), d) for _ in range(4)]
        a = [Fraction(num(), d) for _ in range(4)]
        return TowerElem(*{4: (c, a), 5: (c,), 6: ((), a)}[kind])

    return [(operand(), operand()) for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=150, deadline=None)
@given(_dot_pairs())
def test_dot_matches_the_sum_of_products(pairs):
    got = dot(pairs)
    _assert_normal(got)
    assert got == sum((x * y for x, y in pairs), ZERO)
    want = [Fraction(0)] * 8
    for x, y in pairs:
        p = _fraction_product(TowerElem.coerce(x), TowerElem.coerce(y))
        want = [u + v for u, v in zip(want, p)]
    assert got.c + got.a == tuple(want)
    # exact cancellation leaves the canonical zero
    cancelled = dot(pairs + [(-TowerElem.coerce(x), y) for x, y in pairs])
    assert cancelled == ZERO and cancelled.n == ZERO.n and cancelled.d == 1


@st.composite
def _integral_pairs(draw):
    """0..8 pairs from dot's integral regime, each kind on either side:
    small d = 1 tower elements (full, in Q(zeta12), or one coordinate
    alone, such as 5 zeta^3), +-1 scalings as ints, Fractions or tower
    elements, rational-valued tower elements with denominators 1..3, and
    zeros."""
    rng = draw(st.randoms(use_true_random=False))

    def operand():
        kind = rng.randrange(6)
        if kind == 0:
            return rng.choice([1, -1, Fraction(1), Fraction(-1), ONE, -ONE])
        if kind == 1:
            return TowerElem.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        if kind == 2:
            return rng.choice([0, ZERO])
        if kind == 3:
            n = [0] * 8
            n[rng.randrange(8)] = rng.choice([-9, -2, -1, 1, 2, 9])
            return TowerElem(n[:4], n[4:])
        c = [rng.randint(-9, 9) for _ in range(4)]
        return TowerElem(c, [rng.randint(-9, 9) for _ in range(4)] if kind == 4 else ())

    return [(operand(), operand()) for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=150, deadline=None)
@given(_integral_pairs())
def test_dot_in_its_integral_regime(pairs):
    got = dot(pairs)
    _assert_normal(got)
    want = [Fraction(0)] * 8
    for x, y in pairs:
        p = _fraction_product(TowerElem.coerce(x), TowerElem.coerce(y))
        want = [u + v for u, v in zip(want, p)]
    assert got.c + got.a == tuple(want)
    # the zero and equality tests agree with the normal form they read
    elems = [got] + [TowerElem.coerce(v) for pair in pairs for v in pair]
    elems += [TowerElem.coerce(x * y) for x, y in pairs]
    elems += [TowerElem.coerce(x + y) for x, y in pairs]
    for x in elems:
        _assert_normal(x)
        assert bool(x) is any(x.n) and x.is_zero() is not any(x.n)
        for y in elems:
            assert (x == y) is ((x.n, x.d) == (y.n, y.d))


def test_dot_edge_cases():
    assert dot([]) == ZERO and dot(iter(())).d == 1
    x = TowerElem((Fraction(1, 6), 1), (Fraction(-2, 9),))
    y = TowerElem((0, Fraction(3, 4)), (Fraction(5, 2), 0, 1))
    # unequal denominators 6*4 and 9*2 and rational operands in both places
    pairs = [(x, y), (Fraction(7, 10), x), (y, 3), (Fraction(1, 3), Fraction(3, 5))]
    got = dot(pairs)
    _assert_normal(got)
    assert got == x * y + x * Fraction(7, 10) + y * 3 + Fraction(1, 5)
    assert dot([(x, y)]) == x * y == y * x
    assert dot([(x, y), (-x, y)]) == ZERO
    assert dot([(2, 3)]) == 6 and dot([(ZERO, x)]) == ZERO


# -- the product restricted to Q(alpha), drawn from a seeded random.Random --

_BITS = (1, 2, 3, 8, 31, 64, 129, 512, 1000, 2048, 4000)


def _rat(rng, bits):
    """A seeded fraction with numerator and denominator of up to `bits` bits,
    0 one time in five."""
    if rng.randrange(5) == 0:
        return Fraction(0)
    return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))


def _real_elem(rng, bits):
    """(s + t sqrt3) + (p + q sqrt3) alpha, each of s, t, p, q over its own
    denominator, so the element's one denominator is their lcm."""
    s, t, p, q = (_rat(rng, bits) for _ in range(4))
    return TowerElem((s, 2 * t, 0, -t), (p, 2 * q, 0, -q))


def _near_real_elem(rng, bits):
    """A real element with one coordinate moved off the real pattern
    n2 = n6 = 0, n1 = -2 n3, n5 = -2 n7: with n2 = 0 but n1 != -2 n3, say."""
    x = _real_elem(rng, bits)
    k = rng.choice([1, 2, 3, 5, 6, 7])
    shift = [0] * 8
    shift[k] = _rat(rng, bits) or Fraction(1, 3)
    y = x + TowerElem(shift[:4], shift[4:])
    assert not y.is_real()
    return y


def _assert_product(x, y):
    """x y by dot against the Fraction convolution, the sympy model and dot's
    general path: (x i)(-i y) has the same value and no real operand unless
    one is 0.  The real branch reads only n0, n3, n4 and n7, so a non-real
    operand routed to it would give another product."""
    got = dot([(x, y)])
    _assert_normal(got)
    assert got == dot([(x * IUNIT, -IUNIT * y)]) == y * x
    assert got.c + got.a == _fraction_product(x, y)
    if sympy is not None:
        assert got.c + got.a == _model_coords(_model(x) * _model(y))


def test_real_products_match_the_general_convolution_and_sympy():
    rng = random.Random(27)
    for _ in range(120):
        x, y = (_real_elem(rng, rng.choice(_BITS)) for _ in range(2))
        _assert_product(x, y)
        assert (x * y).is_real()


def test_near_real_and_mixed_operands_take_the_general_path():
    rng = random.Random(72)
    full = lambda bits: TowerElem([_rat(rng, bits) for _ in range(4)],
                                  [_rat(rng, bits) for _ in range(4)])
    for _ in range(50):
        bits = rng.choice(_BITS)
        near, real = _near_real_elem(rng, bits), _real_elem(rng, bits)
        for x, y in ((near, real), (near, _near_real_elem(rng, bits)),
                     (real, full(bits)), (real, real * IUNIT)):
            _assert_product(x, y)


# -- the norm x conj(x), drawn from a seeded random.Random ----------------

_NORM_BITS = (1, 2, 8, 64, 512, 3000)


def _elem_of_kind(rng, kind, bits):
    """A seeded element: with an alpha part ("full"), in Q(zeta12)
    ("alpha-free"), in Q ("rational") or in Q(alpha) ("real")."""
    if kind == "real":
        return _real_elem(rng, bits)
    c = [_rat(rng, bits) for _ in range(1 if kind == "rational" else 4)]
    a = [_rat(rng, bits) or Fraction(1, 7) for _ in range(4)] if kind == "full" else []
    return TowerElem(c, a)


def test_norms_match_the_general_convolution_and_sympy():
    rng = random.Random(31)
    for kind in ("full", "alpha-free", "rational", "real"):
        for bits in _NORM_BITS:
            for _ in range(3):
                x = _elem_of_kind(rng, kind, bits)
                for y in (x.conjugate(), -x.conjugate()):
                    _assert_product(x, y)
                    _assert_product(y, x)
                    assert (x * y).is_real()


def test_a_pair_one_coordinate_off_a_norm_takes_the_general_path():
    """Integral operands, so that y's numerators are its coordinates: y
    differs from +-conj(x) in coordinate k alone, and a norm test that skips
    coordinate k would return +-x conj(x), not x y."""
    rng = random.Random(8)
    for bits in _NORM_BITS:
        draw = lambda: [rng.randint(-2 ** bits, 2 ** bits) for _ in range(4)]
        x = TowerElem(draw(), [v or 1 for v in draw()])
        for sign in (1, -1):
            near = [sign * v for v in x.conjugate().n]
            for k in range(8):
                off = list(near)
                off[k] += rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
                y = TowerElem(off[:4], off[4:])
                _assert_product(x, y)
                assert x * y != sign * x * x.conjugate()


def test_dot_of_real_pairs_over_mixed_denominators():
    rng = random.Random(15)
    for _ in range(40):
        pairs = [(_real_elem(rng, rng.choice(_BITS)), _real_elem(rng, rng.choice(_BITS)))
                 for _ in range(rng.randint(1, 6))]
        got = dot(pairs)
        _assert_normal(got)
        want = [Fraction(0)] * 8
        for x, y in pairs:
            want = [u + v for u, v in zip(want, _fraction_product(x, y))]
        assert got.c + got.a == tuple(want)


# -- unreduced twins: a sum read once and dropped keeps its common factor --

def _twin(x, k):
    """x written as (k n) / (k d), as dot(pairs, reduce=False) may leave it."""
    return _raw(tuple([k * v for v in x.n]), k * x.d)


def test_an_unreduced_twin_reads_as_the_value_it_equals():
    """Everything that reads an element sees its value, not its form: an
    element and its twin agree on ==, hash, a dict or lru_cache key, the
    JSON, coordinates and str, the balls of embed, their decimals and the
    doubles of their ends, real_sign, is_rational and bool."""
    rng = random.Random(29)
    full = lambda bits: TowerElem([_rat(rng, bits) for _ in range(4)],
                                  [_rat(rng, bits) for _ in range(4)])
    kinds = (lambda bits: ZERO, lambda bits: TowerElem.coerce(_rat(rng, bits)),
             lambda bits: _real_elem(rng, bits), full)
    keyed = lru_cache(maxsize=None)(lambda key: object())
    last = ONE
    for _ in range(80):
        x = rng.choice(kinds)(rng.choice(_BITS + (rng.randint(1, 4000),)))
        k, k2 = (rng.randint(2, 2 ** rng.choice((1, 8, 64, 256))) for _ in range(2))
        twin = _twin(x, k)
        assert twin == x and x == twin and not twin != x and twin == _twin(x, k2)
        assert (twin == last) == (x == last) == (last == twin)
        assert hash(twin) == hash(x) and {x: 1}[twin] == 1
        assert keyed((twin, ONE)) is keyed((x, ONE))
        assert twin.to_json() == x.to_json() and str(twin) == str(x)
        assert (twin.c, twin.a) == (x.c, x.a)
        assert (twin.is_rational(), bool(twin)) == (x.is_rational(), bool(x))
        if x.is_real():
            assert twin.is_real() and real_sign(twin) == real_sign(x)
        for prec in (16, 128, 2048):
            b, e = embed(x, prec), embed(twin, prec)
            assert (e.re, e.im, e.rad) == (b.re, b.im, b.rad)
            for digits in (0, 30, 608):
                assert e.decimal(digits) == b.decimal(digits)
            for up, s in ((False, -1), (True, 1)):
                assert (periods._double(e.re_n + s * e.rad_n, e.den, up)
                        == periods._double(b.re_n + s * b.rad_n, b.den, up))
        last = x
