"""Unitary module data for (1,1,3)-polarized threefolds with Z[rho] action.

The pipeline: build_module packages an order-3 lattice action with a
chosen Z[rho]-basis; solve_T recovers the skew-Hermitian form over
K = Q(rho) from two integer trace-pairing matrices; diagonalize_W
reduces it to diag(i, i, -i) shape by Hermitian congruence;
family_periods writes down the induced period matrices over the 2-ball;
match_solver locates the parameter point where the family meets a given
constant period matrix, and prym_family rebases the matched family to
the lattice coordinates it came from.

The family is built under a reading of the construction's ambiguous
choices, the dict {"embedding", "I2_in_Jz", "column_order"} that the
report prints; resolve_conventions finds the one grouped reading that
matches (an interleaved order leaves row 1 singular), sharing its work
through caches keyed on their inputs, and row_multipliers is the one
place its embedding is decided.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
from math import isqrt

from . import intlat
from .exactfield import (TowerElem, ZERO, ONE, IUNIT, RHO, SQRT3, ROOT4_3,
                         dot, real_sign)
from .periods import PeriodMatrix, tower_conj


class ModuleError(ValueError):
    """Rejected module data; .evidence carries the witness."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class MatchError(ValueError):
    """Matching system inconsistent; .residuals lists offending entries."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class ConventionError(ValueError):
    """No (or no unique) convention choice reproduces the target."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class PELModule:
    """Rank-6 lattice with an order-3 action and a chosen triple of
    generators u1, u2, u3 such that (u, action*u) is a Z-basis."""

    def __init__(self, pairing, basis, g0full, g1full):
        self.pairing = pairing
        self.basis = basis          # columns u1,u2,u3,rho u1,rho u2,rho u3
        self.g0full = g0full        # basis^T pairing basis
        self.g1full = g1full        # basis^T action^T pairing basis

    @property
    def g0(self):
        return [row[:3] for row in self.g0full[:3]]

    @property
    def g1(self):
        return [row[:3] for row in self.g1full[:3]]


def build_module(action, gens, pairing):
    """Assemble a PELModule, rejecting inconsistent data.

    action must square-plus-itself to minus the identity and preserve
    the pairing; the six columns (gens, action*gens) must form a Z-basis,
    otherwise the SNF divisors of the assembled matrix are reported.
    """
    n = len(action)
    if len(gens) * 2 != n:
        raise ModuleError(f"need {n // 2} generators for a rank-{n} lattice")
    ident = intlat.identity(n)
    poly = intlat.matmul(action, action)
    poly = [[poly[i][j] + action[i][j] + ident[i][j] for j in range(n)]
            for i in range(n)]
    if any(x != 0 for row in poly for x in row):
        raise ModuleError("action does not satisfy x^2 + x + 1 = 0")
    if intlat.matmul(intlat.transpose(action),
                     intlat.matmul(pairing, action)) != pairing:
        raise ModuleError("action does not preserve the pairing")
    cols = list(gens) + [[sum(action[i][j] * g[j] for j in range(n))
                          for i in range(n)] for g in gens]
    basis = tuple(zip(*cols))        # a tuple of tuples, cached_inverse's key
    divs = intlat.snf_divisors(basis)
    if any(d != 1 for d in divs):
        raise ModuleError(
            f"generators do not span the lattice (Smith divisors {divs})",
            evidence={"snf_divisors": divs})
    bt = intlat.transpose(basis)
    g0full = intlat.matmul(bt, intlat.matmul(pairing, basis))
    g1full = intlat.matmul(bt, intlat.matmul(intlat.transpose(action),
                                             intlat.matmul(pairing, basis)))
    return PELModule(pairing, basis, g0full, g1full)


def solve_T(g0, g1):
    """Recover the 3x3 skew-Hermitian form over K from trace pairings.

    Entry p + q*rho is pinned by tr(x) = 2p - q = g0 and
    tr(rho*x) = -p - q = g1.  The result is verified skew-Hermitian;
    failure means the two pairing matrices are inconsistent.
    """
    T = []
    for i in range(3):
        row = []
        for j in range(3):
            p = Fraction(g0[i][j] - g1[i][j], 3)
            q = Fraction(-g0[i][j] - 2 * g1[i][j], 3)
            row.append(p + q * RHO)
        T.append(row)
    bad = [(i, j) for i in range(3) for j in range(3)
           if T[j][i] + T[i][j].conjugate()]
    if bad:
        raise ValueError(f"solved form is not skew-Hermitian at {bad}")
    return T


def trace_pairing(T):
    """All 36 trace pairings tr(a^T T conj(b)) over the module basis.

    The basis u_k, rho u_k is the columns of V = (I | rho I) in K^3, so the
    pairings are the traces x + conj(x) of the entries of V^T T conj(V).
    """
    V = [[1 if j == i else RHO if j == i + 3 else 0 for j in range(6)]
         for i in range(3)]
    P = intlat.matmul(intlat.transpose(V), intlat.matmul(T, tower_conj(V)))
    out = []
    for row in P:
        traces = [TowerElem.coerce(x + x.conjugate()) for x in row]
        if not all(t.is_rational() for t in traces):
            raise ValueError("trace pairing left the rationals")
        out.append([t.as_rational() for t in traces])
    return out


def integrality_check(module, T):
    """Trace pairings must be integers matching the lattice pairing.

    Returns (ok, offenders); each offender is (i, j, got, expected).
    """
    pairs = trace_pairing(T)
    offenders = []
    for i in range(6):
        for j in range(6):
            got = pairs[i][j]
            want = Fraction(module.g0full[i][j])
            if got.denominator != 1 or got != want:
                offenders.append((i, j, got, want))
    return not offenders, offenders


# -- Hermitian congruence reduction --------------------------------------

def ldl_hermitian(G):
    """Diagonalize a Hermitian tower matrix by congruence.

    Returns (D, S) with S G S^dagger = D diagonal, S invertible over the
    tower.  A working diagonal that is all zero ends the reduction, and
    raises ValueError unless the rest of the matrix is zero too.
    """
    n = len(G)
    bad = [(i, j) for i in range(n) for j in range(n)
           if G[j][i].conjugate() != G[i][j]]
    if bad:
        raise ValueError(f"matrix is not Hermitian at {bad}")
    # each row of A carries the row of S behind it: [A | S]
    R = [row[:] + u for row, u in zip(G, intlat.identity(n))]
    for k in range(n):
        piv = next((r for r in range(k, n) if R[r][r]), None)
        if piv is None:
            break
        if piv != k:
            intlat._swap(R, R, k, piv)
        for r in range(k + 1, n):
            if R[r][k]:
                intlat._add(R, R, r, k, -(R[r][k] / R[k][k]))
    off = [(i, j) for i in range(n) for j in range(n) if i != j and R[i][j]]
    if off:
        raise ValueError(f"congruence reduction left entries at {off}")
    return ([[TowerElem.coerce(x) for x in row[:n]] for row in R],
            [[TowerElem.coerce(x) for x in row[n:]] for row in R])


def pivot_signs(T):
    """Congruence pivots of the Hermitian -iT with their exact signs.

    Returns (pivots, signs, S) with S (-iT) S^dagger = diag(pivots) and
    signs[i] = real_sign(pivots[i]).
    """
    H = [[x * (-IUNIT) for x in row] for row in T]
    D, S = ldl_hermitian(H)
    pivots = [D[i][i] for i in range(len(D))]
    return pivots, [real_sign(p) for p in pivots], S


def signature(T):
    """Exact signature (positives, negatives) of the Hermitian -iT."""
    _, signs, _ = pivot_signs(T)
    if 0 in signs:
        raise ValueError("form is degenerate")
    return signs.count(1), signs.count(-1)


def _rat_sqrt(q):
    """The rational square root >= 0 of the Fraction q, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def tower_sqrt(x):
    """Square root of a Q(sqrt3) element inside the tower, or None.

    The root is s + t*sqrt3 with square x, or alpha*(s + t*sqrt3) with
    (s + t*sqrt3)^2 = x/sqrt3, for rational s and t >= 0.
    """
    a, b = x.as_sqrt3_pair()
    for p, q, unit in ((a, b, ONE), (b, a / 3, ROOT4_3)):
        # s^2 + 3t^2 = p and 2st = q: s^2 and 3t^2 are the roots (p +- e)/2
        # of X^2 - pX + 3q^2/4, with e^2 = p^2 - 3q^2
        e = _rat_sqrt(p * p - 3 * q * q)
        if e is None:
            continue
        for s2, t2 in (((p + e) / 2, (p - e) / 6), ((p - e) / 2, (p + e) / 6)):
            s, t = _rat_sqrt(s2), _rat_sqrt(t2)
            if s is not None and t is not None:
                s = -s if q < 0 else s
                return (s + t * SQRT3) * unit
    return None


def defw_residual(W, T):
    """W^T D conj(W) - T with D = diag(i, i, -i), entry by entry."""
    D = (IUNIT, IUNIT, -IUNIT)
    WDW = intlat.matmul(intlat.transpose(W),
                        [[d * x.conjugate() for x in row] for d, row in zip(D, W)])
    return [[x - t for x, t in zip(row, trow)] for row, trow in zip(WDW, T)]


def diagonalize_W(T):
    """Find W over the tower with T = W^T diag(i, i, -i) conj(W).

    Works by congruence reduction of the Hermitian -iT; the two positive
    pivots are routed to the first two slots.  Raises ValueError when the
    signature is not (2,1) or a pivot has no square root in the tower.
    defw_residual measures how far the result is from T.
    """
    pivots, signs, S = pivot_signs(T)
    if signs.count(1) != 2 or signs.count(-1) != 1:
        raise ValueError(f"signature {(signs.count(1), signs.count(-1))}"
                         " is not (2,1)")
    order = sorted(range(3), key=lambda i: 0 if signs[i] > 0 else 1)
    roots = []
    for i in order:
        r = tower_sqrt(pivots[i] * signs[i])
        if r is None:
            raise ValueError(f"pivot {i} = {pivots[i]!r}: the square root "
                             f"of its absolute value is not in the tower")
        roots.append(r)
    Sinv = intlat.inverse(S)
    return intlat.transpose([[Sinv[i][order[j]] * roots[j] for j in range(3)]
                             for i in range(3)])


# -- the period family over the 2-ball -----------------------------------

def row_multipliers(reading):
    """rho's image in the three family rows: (rho, rho_bar, rho_bar) under
    the reading's embedding "sigma", their conjugates under "sigmabar"."""
    rho = RHO if reading["embedding"] == "sigma" else RHO.conjugate()
    return rho, rho.conjugate(), rho.conjugate()


@lru_cache(maxsize=16)
def _multiplied_rows(W, embedding):
    """The rows u | m u of W and of conj(W) as tuples, m the multiplier of
    the family rows they enter under the embedding: row 1 for W, rows 2
    and 3 (which share one) for conj(W)."""
    m1, m2, _ = row_multipliers({"embedding": embedding})
    return tuple(tuple(row + tuple(x * m for x in row) for row in map(tuple, M))
                 for M, m in ((W, m1), (tower_conj(W), m2)))


def family_periods(W, module, reading):
    """Period matrix of the family in module-generator coordinates.

    Columns are the images of (u1, u2, u3, rho u1, rho u2, rho u3), the
    grouped order, so the polarization is the full trace-pairing Gram
    matrix of the module.  Row 1 is z1 W_1 + z2 W_2 + W_3, rows 2 and 3
    are d conj(W_1) + z1 conj(W_3) and d conj(W_2) + z2 conj(W_3), with
    d = 1 or i by the I2 reading; in each of the coefficient matrices
    (constant, z1, z2) a row's rho half is its u half times the row's
    multiplier.  Those rows come from _multiplied_rows, which no I2
    reading changes.
    """
    A, B = _multiplied_rows(tuple(map(tuple, W)), reading["embedding"])
    if reading["I2_in_Jz"] != "identity":
        B = tuple(tuple(x * IUNIT for x in row) for row in B[:2]) + B[2:]
    zero = [ZERO] * 6
    return PeriodMatrix(3, ("z1", "z2"), [[A[2], B[0], B[1]],
                                          [A[0], B[2], zero],
                                          [A[1], zero, B[2]]], module.g0full)


class MatchResult:
    """Solution of C * family(z) = target with block-diagonal C."""

    def __init__(self, z1, z2, coeffs):
        self.z1 = z1
        self.z2 = z2
        self.coeffs = coeffs  # {"c11","c22","c23","c32","c33"}

    def point(self):
        return {"z1": self.z1, "z2": self.z2}

    def block_matrix(self):
        c = self.coeffs
        return [[c["c11"], ZERO, ZERO],
                [ZERO, c["c22"], c["c23"]],
                [ZERO, c["c32"], c["c33"]]]


def ball_norm(z1, z2):
    """(|z1|^2 + |z2|^2, whether it is < 1): the norm an exact real tower
    element, and the unit-ball test decided exactly by real_sign."""
    norm = z1 * z1.conjugate() + z2 * z2.conjugate()
    return norm, real_sign(1 - norm) > 0


@lru_cache(maxsize=16)
def _row1_solve(Wx, t):
    """(c11, z1, z2) from row 1's matrix Wx and target row t, or MatchError."""
    Winv = intlat.inverse(Wx)
    if Winv is None:
        raise MatchError("row-1 coefficient matrix singular")
    w = intlat.matmul(intlat.transpose(Winv), [[x] for x in t])
    if not w[2][0]:
        raise MatchError("row-1 system forces c11 = 0")
    return w[2][0], w[0][0] / w[2][0], w[1][0] / w[2][0]


def _pair_solve(eqs):
    """(c, c') with c a + c' b = t for the (a, b, t) of eqs, from the first
    two equations with a nonzero determinant; None if there are none."""
    for (a1, b1, t1), (a2, b2, t2) in itertools.combinations(eqs, 2):
        det = dot(((a1, b2), (-a2, b1)))
        if det:
            return (dot(((t1, b2), (-t2, b1))) / det,
                    dot(((a1, t2), (-a2, t1))) / det)
    return None


def match_solver(family, target):
    """Solve C * family(z1, z2) = target exactly.

    family: PeriodMatrix affine in z1, z2; target: 3x6 tower matrix.  The
    first row is inverted through its coefficient matrix, which pins
    (c11 z1, c11 z2, c11) at once (_row1_solve, cached on that matrix and
    the target row); the remaining two rows each give an overdetermined
    2x2 linear system in the first three columns.  Every one of the 18
    entries is then verified, each residual one dot; any nonzero residual
    raises MatchError carrying the offending entries.
    """
    if family.params != ("z1", "z2"):
        raise ValueError(f"family parameters {family.params} are not (z1, z2)")
    P0, P1, P2 = family.coeffs
    c11, z1, z2 = _row1_solve((P1[0][:3], P2[0][:3], P0[0][:3]),
                              tuple(target[0][:3]))
    F = family.evaluate({"z1": z1, "z2": z2})
    coeffs = {"c11": c11}
    for ri, names in ((1, ("c22", "c23")), (2, ("c32", "c33"))):
        sol = _pair_solve([(F[1][k], F[2][k], target[ri][k]) for k in range(3)])
        if sol is None:
            raise MatchError(f"row {ri + 1} system is degenerate")
        coeffs[names[0]], coeffs[names[1]] = sol
    result = MatchResult(z1, z2, coeffs)
    residuals = []
    for i, row in enumerate(result.block_matrix()):
        for j in range(6):      # (C F)[i][j] - target[i][j]
            r = dot([(c, F[k][j]) for k, c in enumerate(row) if c]
                    + [(target[i][j], -1)])
            if r:
                residuals.append((i, j, r))
    if residuals:
        raise MatchError(f"{len(residuals)} entries fail verification",
                         residuals)
    return result


def resolve_conventions(W, module, target):
    """Search the finite ambiguity set for the family construction.

    Tries the four (embedding, I2 reading) combinations in the grouped
    column order and keeps those whose family admits an exact match
    against the target.  Row 1 reads neither choice in its u columns, so
    the four share one row-1 solve (one c11, one point), and the two
    readings of an embedding share its multiplied rows, each formed once
    through the caches of _row1_solve and _multiplied_rows.  The
    interleaved order (u1, rho u1, u2, ...) is not tried: its first three
    row-1 columns are u1, rho u1 and u2, and in each coefficient matrix
    the rho u1 entry is the u1 entry times the row's multiplier, so its
    row-1 system is singular for every W and every target.  Exactly one
    reading must survive, and (reading, match, family) of it is returned;
    anything else raises ConventionError with the readings that matched
    as its candidates.
    """
    winners = []
    for embedding, i2 in itertools.product(("sigma", "sigmabar"),
                                           ("identity", "i-identity")):
        reading = {"embedding": embedding, "I2_in_Jz": i2,
                   "column_order": "grouped"}
        family = family_periods(W, module, reading)
        try:
            sol = match_solver(family, target)
        except MatchError:
            continue
        winners.append((reading, sol, family))
    if len(winners) != 1:
        raise ConventionError(
            f"{len(winners)} convention choices reproduce the target",
            [reading for reading, _, _ in winners])
    return winners[0]


def prym_family(match, family, module):
    """C * family rebased to lattice coordinates, with pairing polarization."""
    C, Binv = match.block_matrix(), intlat.cached_inverse(module.basis)
    return PeriodMatrix(
        3, family.params,
        [intlat.matmul(intlat.matmul(C, P), Binv) for P in family.coeffs],
        module.pairing)
