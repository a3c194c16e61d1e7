"""Seeded inputs for the benchmark, written the way users give them.

The program only ever sees the text: tower literals for `emit` and
`tools riemann-check`, JSON rows for `tools snf` and
`tools symplectic-basis`, comma lists for `tools covers`.  Each input
also carries the exact values the text denotes, which only the checks
read.  Every generator takes a `random.Random`; `round_rng(seed, r)`
makes the one for round r of a run, so a seed fixes every round.

Nothing here imports cycloperiods, sympy or mpmath.
"""

import json
import random
from fractions import Fraction
from math import gcd

# zeta^k in the basis 1, zeta, zeta^2, zeta^3 of Q(zeta12), from
# zeta^4 = zeta^2 - 1 (zeta^6 = -1).  oracle.self_check re-derives the
# table from Phi12 with sympy.
ZETA_POWERS = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
    (0, 0, -1, 0), (0, 0, 0, -1), (1, 0, -1, 0), (0, 1, 0, -1),
)

# digits of 2 per decimal digit, for matching decimal heights to bits
_BITS_PER_DIGIT = 3.3219


def round_rng(seed, r):
    return random.Random(f"cycloperiods-bench/{seed}/{r}")


# -- tower literals for family points -----------------------------------------

class Coordinate:
    """One point coordinate: literal text plus the exact value it denotes.

    `coords` are the 8 rational tower coordinates (c0..c3 over
    1, zeta, zeta^2, zeta^3, then the alpha part, always zero here);
    `abs2` is |value|^2 and `imag_sign` the sign of the imaginary part,
    both exact.
    """

    def __init__(self, text, coords, abs2, imag_sign):
        self.text = text
        self.coords = coords
        self.abs2 = abs2
        self.imag_sign = imag_sign


def _frac_text(q):
    return f"{q.numerator}/{q.denominator}"


def _dec_text(n, digits):
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _rational(rng, bits, lo, hi):
    """Uniform-ish rational in [lo, hi) with a denominator of `bits` bits."""
    q = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return Fraction(rng.randrange(int(lo * q), int(hi * q)), q)


def _decimal(rng, bits, lo, hi):
    """Decimal in [lo, hi) with about `bits` bits of height; (text, value)."""
    digits = max(1, round(bits / _BITS_PER_DIGIT))
    scale = 10 ** digits
    n = rng.randrange(int(lo * scale), int(hi * scale))
    return _dec_text(n, digits), Fraction(n, scale)


def _sign(q):
    return (q > 0) - (q < 0)


def coordinate(rng, form, bits, re_range, im_range, zeta_ks=range(12),
               mag_range=(Fraction(1, 10), Fraction(3, 5))):
    """A literal of the given form.

    fraction   'p/q+(r/s)*i'
    comma      'p/q,r/s'          (the CLI's real,imag form)
    decimal    '0.123,-0.456'     (comma form with decimals)
    zeta       '(p/q)*zeta^k'     (magnitude from mag_range, k in zeta_ks)
    """
    if form == "zeta":
        x = _rational(rng, bits, *mag_range)
        k = rng.choice(list(zeta_ks))
        coords = tuple(x * c for c in ZETA_POWERS[k]) + (Fraction(0),) * 4
        # Im(x zeta^k) = x sin(k pi / 6): sign of sin for k mod 12
        s = 0 if k % 6 == 0 else (1 if k % 12 < 6 else -1)
        return Coordinate(f"({_frac_text(x)})*zeta^{k}", coords, x * x, s)
    if form == "decimal":
        re_text, re = _decimal(rng, bits, *re_range)
        im_text, im = _decimal(rng, bits, *im_range)
        text = f"{re_text},{im_text}"
    else:
        re = _rational(rng, bits, *re_range)
        im = _rational(rng, bits, *im_range)
        if form == "comma":
            text = f"{_frac_text(re)},{_frac_text(im)}"
        elif form == "fraction":
            text = f"{_frac_text(re)}+({_frac_text(im)})*i"
        else:
            raise ValueError(f"unknown literal form {form!r}")
    coords = (re, Fraction(0), Fraction(0), im) + (Fraction(0),) * 4
    return Coordinate(text, coords, re * re + im * im, _sign(im))


class FamilyPoint:
    """A parameter point (tau, z1, z2) of the genus-4 family."""

    def __init__(self, label, prec, digits, coords):
        self.label = label
        self.prec = prec
        self.digits = digits
        self.coords = coords          # name -> Coordinate

    @property
    def texts(self):
        return {name: c.text for name, c in self.coords.items()}

    @property
    def inside(self):
        """Exact domain test: |z1|^2 + |z2|^2 < 1 and Im tau > 0."""
        c = self.coords
        return (c["z1"].abs2 + c["z2"].abs2 < 1) and c["tau"].imag_sign > 0


# (height bits, literal forms of tau / z1 / z2, precision bits, inside the ball)
FAMILY_ROUND = (
    (4, ("fraction", "decimal", "zeta"), 128, True),
    (8, ("decimal", "zeta", "comma"), 256, True),
    (32, ("zeta", "comma", "fraction"), 512, True),
    (64, ("comma", "fraction", "decimal"), 1024, True),
    (128, ("fraction", "zeta", "decimal"), 2048, True),
    (256, ("decimal", "comma", "zeta"), 128, True),
    (384, ("zeta", "fraction", "comma"), 512, True),
    (512, ("comma", "decimal", "fraction"), 2048, True),
    (16, ("fraction", "comma", "zeta"), 128, False),
)


def decimal_digits(prec):
    """Fractional digits printed at a precision: all but the last 8 it carries."""
    return int(prec * 0.30103) - 8


def family_round(seed, r):
    """The points of round r: one per FAMILY_ROUND class, values seeded."""
    rng = round_rng(seed, r)
    points = []
    for idx, (bits, forms, prec, inside) in enumerate(FAMILY_ROUND):
        half = Fraction(1, 2)
        tau = coordinate(rng, forms[0], bits, (-2, 2), (half, 3),
                         zeta_ks=range(1, 6), mag_range=(Fraction(3, 5), 3))
        if inside:
            # |z|^2 < 0.39 each, so |z1|^2 + |z2|^2 < 0.78
            box = (Fraction(-44, 100), Fraction(44, 100))
            z1 = coordinate(rng, forms[1], bits, box, box)
            z2 = coordinate(rng, forms[2], bits, box, box)
        else:
            # |z1|^2 >= 0.5625 and |z2|^2 >= 0.5 put the point outside
            z1 = coordinate(rng, forms[1], bits, (Fraction(3, 4), Fraction(19, 20)),
                            (0, Fraction(1, 100)),
                            mag_range=(Fraction(3, 4), Fraction(19, 20)))
            z2 = coordinate(rng, forms[2], bits, (Fraction(71, 100), Fraction(9, 10)),
                            (0, Fraction(1, 100)),
                            mag_range=(Fraction(71, 100), Fraction(9, 10)))
        points.append(FamilyPoint(f"r{r}p{idx}", prec, decimal_digits(prec),
                                  {"tau": tau, "z1": z1, "z2": z2}))
    return points


# -- integer matrices and branch data for the lattice tools ------------------

def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def unimodular(rng, n, mag=2):
    """P L U with L, U unitriangular (entries in [-mag, mag]), P a permutation."""
    L = [[1 if i == j else (rng.randint(-mag, mag) if i > j else 0)
          for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (rng.randint(-mag, mag) if i < j else 0)
          for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return _matmul([L[p] for p in perm], U)


def divisor_chain(rng, n):
    """d1 | d2 | ... | dn with d1 = 1, each step times 1, 2 or 3."""
    d = [1]
    for _ in range(n - 1):
        d.append(d[-1] * rng.choice((1, 1, 1, 1, 1, 2, 3)))
    return d


def frobenius_form(d):
    """[[0, D], [-D, 0]] with D = diag(d)."""
    g = len(d)
    F = [[0] * (2 * g) for _ in range(2 * g)]
    for i, di in enumerate(d):
        F[i][g + i] = di
        F[g + i][i] = -di
    return F


class MatrixInput:
    """A matrix as JSON text, with the factors it was built from."""

    def __init__(self, kind, text, matrix, chain):
        self.kind = kind
        self.text = text
        self.matrix = matrix
        self.chain = chain


class CoverInput:
    kind = "covers"

    def __init__(self, n, exponents):
        self.n = n
        self.exponents = exponents

    @property
    def text(self):
        return ",".join(str(a) for a in self.exponents)


def _matrix_text(rng, A):
    """JSON rows, or the {"rows", "cols", "data"} object, as the CLI accepts."""
    if rng.random() < 0.5:
        return json.dumps(A)
    return json.dumps({"rows": len(A), "cols": len(A[0]), "data": A})


def snf_input(rng, n):
    d = divisor_chain(rng, n)
    D = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    A = _matmul(unimodular(rng, n), _matmul(D, unimodular(rng, n)))
    return MatrixInput("snf", _matrix_text(rng, A), A, d)


def symplectic_input(rng, n):
    d = divisor_chain(rng, n // 2)
    S0 = unimodular(rng, n)
    S0t = [list(col) for col in zip(*S0)]
    E = _matmul(S0t, _matmul(frobenius_form(d), S0))
    return MatrixInput("symplectic", _matrix_text(rng, E), E, d)


def cover_input(rng):
    """Connected branch data: exponents in 1..n-1 summing to 0 mod n."""
    while True:
        n = rng.randint(2, 12)
        r = rng.randint(3, 8)
        a = [rng.randint(1, n - 1) for _ in range(r - 1)]
        last = (-sum(a)) % n
        if last == 0:
            continue
        a.append(last)
        g = n
        for x in a:
            g = gcd(g, x)
        if g == 1:
            return CoverInput(n, a)


SNF_SIZES = (8, 10, 12, 14, 16, 8, 10, 12, 14, 16)
SYMPLECTIC_SIZES = (8, 12, 16)
COVERS_PER_BATCH = 4


def lattice_round(seed, r):
    """One batch: SNF inputs, alternating forms and branch data."""
    rng = round_rng(seed, r)
    snf = [snf_input(rng, n) for n in SNF_SIZES]
    sym = [symplectic_input(rng, n) for n in SYMPLECTIC_SIZES]
    cov = [cover_input(rng) for _ in range(COVERS_PER_BATCH)]
    return snf + sym + cov
