"""Reference computations for the benchmark checks, independent of the program.

Nothing here imports cycloperiods.  Tower elements arrive as their
exact coordinates (the `{"c": [[n, d]] * 4, "a": [[n, d]] * 4}` JSON of
the program, or tuples of Fractions) and are embedded with mpmath under
zeta -> e^(i pi/6), alpha -> 3^(1/4) at 300 or more digits.  Integer
matrices go to sympy for Smith forms and determinants, and the genus of
a cyclic cover comes from Riemann-Hurwitz.

Run `python3 bench/oracle.py` for the self-checks; the benchmark also
runs them once per run before it checks anything.
"""

from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mp
from sympy import Matrix, Poly, ZZ, symbols
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

MIN_DPS = 320


def _q(x):
    """Fraction from a Fraction, an int or an [n, d] pair."""
    if isinstance(x, (list, tuple)):
        return Fraction(int(x[0]), int(x[1]))
    return Fraction(x)


class Embedding:
    """The complex embedding zeta -> e^(i pi/6), alpha -> 3^(1/4) at `dps` digits.

    Values are mpmath numbers made at this precision; do arithmetic on
    them inside `with emb.ctx():` so it runs at the same precision.
    """

    def __init__(self, dps=MIN_DPS):
        self.dps = max(dps, MIN_DPS)
        with self.ctx():
            zeta = mp.expjpi(mpmath.mpf(1) / 6)
            alpha = mp.root(3, 4)
            zk = [mpmath.mpc(1), zeta, zeta ** 2, zeta ** 3]
            self.basis = zk + [alpha * z for z in zk]
            self.sqrt3 = mp.sqrt(3)

    def ctx(self):
        return mp.workdps(self.dps)

    def rat(self, q):
        q = _q(q)
        with self.ctx():
            return mpmath.mpf(q.numerator) / q.denominator

    def coords(self, c, a=(0, 0, 0, 0)):
        """Value of sum c_k zeta^k + alpha * sum a_k zeta^k."""
        with self.ctx():
            acc = mpmath.mpc(0)
            for k, x in enumerate(list(c) + list(a)):
                x = _q(x)
                if x:
                    acc += self.basis[k] * (mpmath.mpf(x.numerator) / x.denominator)
            return acc

    def tower(self, obj):
        """Value of a tower element given as its JSON object."""
        return self.coords(obj["c"], obj["a"])

    def affine(self, form, values):
        """Value of an affine-form JSON object at {name: complex value}."""
        with self.ctx():
            acc = self.tower(form["const"])
            for name, coeff in form.items():
                if name != "const":
                    acc += self.tower(coeff) * values[name]
            return acc

    def period_matrix(self, pm, values):
        """Entries of a PeriodMatrix JSON object at a point."""
        return [[self.affine(f, values) for f in row] for row in pm["entries"]]


def rational_inverse(M):
    """Exact inverse of an integer (or rational) matrix, entries as Fractions."""
    inv = Matrix([[_q(x) for x in row] for row in M]).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)]
            for i in range(inv.rows)]


def polarization_inverse(pm):
    data = pm["polarization"]["data"]
    return rational_inverse(data)


def first_relation_residual(emb, P, Einv):
    """max |(P E^-1 P^T)_ij| for a numeric period matrix P."""
    with emb.ctx():
        n = len(Einv)
        PE = [[mpmath.fsum(row[k] * emb.rat(Einv[k][j]) for k in range(n))
               for j in range(n)] for row in P]
        worst = mpmath.mpf(0)
        for a in PE:
            for b in P:
                worst = max(worst, abs(mpmath.fsum(x * y for x, y in zip(a, b))))
        return worst


def positivity_minors(emb, P, Einv, sign):
    """Leading principal minors of sign * i * P E^-1 conj(P)^T, as mpc."""
    with emb.ctx():
        n = len(Einv)
        g = len(P)
        PE = [[mpmath.fsum(row[k] * emb.rat(Einv[k][j]) for k in range(n))
               for j in range(n)] for row in P]
        unit = mpmath.mpc(0, sign)
        H = mpmath.matrix(g, g)
        for i in range(g):
            for j in range(g):
                H[i, j] = unit * mpmath.fsum(
                    x * mpmath.conj(y) for x, y in zip(PE[i], P[j]))
        return [mpmath.det(H[:k, :k]) if k > 1 else H[0, 0]
                for k in range(1, g + 1)]


def within(value, lo, hi, rel=1e-12):
    """lo <= value <= hi for float bounds printed from exact ones.

    The floats are the nearest doubles to exact endpoints, so allow a
    relative slack of `rel` on each side.
    """
    slack = rel * max(abs(lo), abs(hi), 1e-300)
    return lo - slack <= value <= hi + slack


# -- integer matrices ------------------------------------------------------------

def smith_divisors(M):
    """Diagonal of the Smith form of an integer matrix, made nonnegative."""
    S = smith_normal_form(Matrix(M), domain=ZZ)
    return [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]


def det(M):
    n = len(M)
    return int(DomainMatrix([[ZZ(int(x)) for x in row] for row in M], (n, n), ZZ).det())


# -- cyclic covers -----------------------------------------------------------------

def rh_genus(n, exponents):
    """Genus of y^n = prod (x - b_j)^{a_j} by Riemann-Hurwitz.

    A branch point with exponent a has gcd(a, n) preimages, so
    2g - 2 = -2n + sum_j (n - gcd(a_j, n)); a zero exponent is unramified.
    """
    twice = -2 * n + sum(n - gcd(a % n, n) for a in exponents)
    if twice % 2:
        raise ValueError("Riemann-Hurwitz gives a non-integral genus")
    return twice // 2 + 1


# -- self-checks -------------------------------------------------------------------

def zeta_power_table():
    """zeta^k, k = 0..11, in the basis 1, zeta, zeta^2, zeta^3 (sympy)."""
    x = symbols("x")
    phi12 = Poly(x ** 4 - x ** 2 + 1, x)
    out = []
    for k in range(12):
        rem = Poly(x ** k, x).rem(phi12)
        coeffs = [int(rem.coeff_monomial(x ** i)) for i in range(4)]
        out.append(tuple(coeffs))
    return tuple(out)


class OracleError(AssertionError):
    pass


def _require(ok, what):
    if not ok:
        raise OracleError(f"oracle self-check failed: {what}")


def self_check(zeta_powers=None):
    """Known values; raises OracleError on any mismatch."""
    emb = Embedding()
    with emb.ctx():
        tiny = mpmath.mpf(10) ** (-(emb.dps - 10))
        # 2 zeta - zeta^3 = sqrt(3), and alpha^2 = sqrt(3)
        _require(abs(emb.coords((0, 2, 0, -1)) - emb.sqrt3) < tiny, "2z - z^3 = sqrt3")
        alpha = emb.coords((0,) * 4, (1, 0, 0, 0))
        _require(abs(alpha * alpha - emb.sqrt3) < tiny, "alpha^2 = sqrt3")
        # zeta^3 = i and rho = zeta^4 = zeta^2 - 1 is a cube root of unity
        _require(abs(emb.coords((0, 0, 0, 1)) - mpmath.mpc(0, 1)) < tiny, "z^3 = i")
        rho = emb.coords((-1, 0, 1, 0))
        _require(abs(rho ** 3 - 1) < tiny and abs(rho - 1) > 1, "rho^3 = 1")
    table = zeta_power_table()
    if zeta_powers is not None:
        _require(tuple(map(tuple, zeta_powers)) == table, "zeta power table")
    _require(rh_genus(6, (1, 1, 1, 3)) == 4, "genus 4 for n=6, a=(1,1,1,3)")
    _require(rh_genus(3, (1, 1, 1, 0)) == 1, "genus 1 for n=3, a=(1,1,1,0)")
    _require(rh_genus(2, (1,) * 6) == 2, "genus 2 for a double cover over 6 points")
    _require(smith_divisors([[2, 4], [6, 8]]) == [2, 4], "snf of [[2,4],[6,8]]")
    _require(det([[2, 4], [6, 8]]) == -8, "det of [[2,4],[6,8]]")
    _require(rational_inverse([[0, 1], [-1, 0]]) == [[0, -1], [1, 0]], "inverse of J")


if __name__ == "__main__":
    from inputs import ZETA_POWERS

    self_check(ZETA_POWERS)
    print("oracle self-checks passed")
