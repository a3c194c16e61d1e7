"""Exact matrix algorithms over Z, Q and the tower.

Matrices are plain lists of lists (rows).  The two generic routines,
matmul and inverse (the one exact inverse, kept across calls by
cached_inverse), take int, Fraction or TowerElem entries in any mix;
everything else works on integer or rational matrices.  Sizes stay small
(16x16 for the package's own data, at most MAX_JSON_DIM on a side from
JSON input), so elementary-operation algorithms are used throughout with
no modular tricks.  The two lattice workhorses are Smith normal form with
transforms, whose divisors also give the rank and |det| of an integer
matrix (H. Cohen, GTM 138, 2.4), and a symplectic (Frobenius) basis for
alternating forms (M. Newman, Integral Matrices, 1972, ch. IV).  Both
clear by one kernel of nearest-integer Euclid steps, which holds the
Smith transforms to about 3.5, 6 and 10 times rows x bits of the input
at 8, 16 and 32 rows, and the symplectic basis to under 4 times at 32.
Each row of the reduced matrix carries its transform's row behind it,
[D | U] or [G | B], and V is carried transposed, so every Euclid step is
one of two moves, _swap and _add: a row move on one set of rows and a
column move on another, or both on one set for a congruence.  pel's
Hermitian congruence reduction makes the same moves on [A | S] rows.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .exactfield import TowerElem, dot


# -- plain matrix helpers ----------------------------------------------

def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def standard_symplectic(g):
    """2g x 2g block matrix [[0, I], [-I, 0]]."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def permutation_matrix(perm):
    """P with P e_j = e_{perm[j]}, i.e. P[perm[j]][j] = 1."""
    n = len(perm)
    P = [[0] * n for _ in range(n)]
    for j, pj in enumerate(perm):
        P[pj][j] = 1
    return P


def transpose(A):
    return [list(row) for row in zip(*A)]


def product_rows(A, B):
    """The rows of A B one at a time, so a caller can stop early; see matmul."""
    if A and len(A[0]) != len(B):
        raise ValueError("matmul dimension mismatch")
    width = len(B[0]) if B else 0
    nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    ka, kb = set(map(type, chain(*A))), set(map(type, chain(*B)))
    fused = TowerElem in ka | kb
    # only if both sides have rational entries can an entry lack a tower factor
    mixed = fused and ka - {TowerElem} and kb - {TowerElem}
    for row in A:
        acc = [[] for _ in range(width)] if fused else [0] * width
        for a, terms in zip(row, nonzero):
            if a:
                for j, b in terms:
                    if fused:
                        acc[j].append((a, b))
                    else:
                        acc[j] += a * b
        if fused:
            acc = [dot(p) if p and (not mixed or any(
                type(a) is TowerElem or type(b) is TowerElem for a, b in p))
                   else sum(a * b for a, b in p) for p in acc]
        yield acc


def matmul(A, B):
    """A B for int, Fraction or TowerElem entries in any mix.

    Zero factors are skipped, so a sparse operand costs only its nonzero
    entries.  An entry with a tower factor is one exactfield.dot, formed
    in integer coordinates and reduced once; the others keep int and
    Fraction arithmetic, and one with no nonzero term is the int 0.
    """
    return list(product_rows(A, B))


def is_alternating(E):
    n = len(E)
    if any(len(row) != n for row in E):
        return False
    return all(E[i][j] == -E[j][i] for i in range(n) for j in range(i, n))


def mat_to_json(A):
    return {"rows": len(A), "cols": len(A[0]), "data": [list(r) for r in A]}


# most rows or columns a matrix read from JSON may have; cli bounds the
# height of its entries.  At 32 x 32 symplectic_basis takes 0.01-0.02 s on
# entries in [-9, 9] and 0.22-0.45 s on 64-bit ones, smith_normal_form
# 0.07-0.08 s on 3-digit ones; at 16 x 16 with 30-digit entries
# smith_normal_form takes 0.09-0.11 s (Python 3.11, 2-core Xeon VM)
MAX_JSON_DIM = 32


def _json_entry(x):
    """An int, or an exact Fraction from [n, d] with ints n and d != 0."""
    if type(x) is int:
        return x
    if (type(x) is list and len(x) == 2 and all(type(v) is int for v in x)
            and x[1] != 0):
        return Fraction(x[0], x[1])
    raise ValueError(f"matrix entries must be ints or [n,d]: {x!r}")


def rows_from_json(data):
    """Matrix from a JSON list of equally long rows of int or [n, d] entries.

    Floats, booleans and strings are refused rather than truncated, and
    neither dimension may exceed MAX_JSON_DIM.
    """
    if (type(data) is not list or not data
            or any(type(r) is not list for r in data)):
        raise ValueError("matrix must be a nonempty list of rows")
    if len(data) > MAX_JSON_DIM or any(len(r) > MAX_JSON_DIM for r in data):
        raise ValueError(f"matrix is larger than {MAX_JSON_DIM} x "
                         f"{MAX_JSON_DIM}")
    if any(len(r) != len(data[0]) for r in data):
        raise ValueError("matrix rows differ in length")
    return [[_json_entry(x) for x in r] for r in data]


def mat_from_json(obj):
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    out = rows_from_json(data)
    if len(out) != rows or len(out[0]) != cols:
        raise ValueError("matrix data does not match declared shape")
    return out


# -- moves on augmented rows -----------------------------------------------
# They stay private: a tracer that wraps each public function would
# otherwise add a span to every move.

def _swap(X, Y, i, j):
    """Swap rows i and j of X and columns i and j of the rows Y."""
    X[i], X[j] = X[j], X[i]
    for r in Y:
        r[i], r[j] = r[j], r[i]


def _add(X, Y, dst, src, c):
    """Row dst of X += c * row src, and column dst of the rows Y +=
    conj(c) * column src."""
    X[dst] = [a + c * b if b else a for a, b in zip(X[dst], X[src])]
    c = c.conjugate()
    for r in Y:
        if r[src]:
            r[dst] += c * r[src]


# -- Smith normal form -------------------------------------------------

def _euclid(X, Y, t, line):
    """Clear line()[k], k > t, by Euclid steps, each one _swap or _add on
    (X, Y): swap an entry of least absolute value into t and subtract its
    nearest-integer multiple from the others, which leaves each at most
    half of it.

    The Smith form passes a column of D with row moves on [D | U] and a
    row of D with column moves; symplectic_basis a row of the Gram matrix
    with congruence moves on [G | B].
    """
    while any((vals := line())[t + 1:]):
        p = min((abs(v), k) for k, v in enumerate(vals) if v and k >= t)[1]
        _swap(X, Y, t, p)
        vals[t], vals[p] = vals[p], vals[t]
        b = vals[t]
        for k in range(t + 1, len(vals)):
            q = (2 * vals[k] + b) // (2 * b)
            if q:
                _add(X, Y, k, t, -q)


def _smith(A, transforms):
    """The rows [D | U] of the Smith form and the rows of V^T, or with no
    transforms the rows of D and empty rows; see smith_normal_form."""
    m, n = len(A), len(A[0])
    R = [[int(x) for x in row] + u
         for row, u in zip(A, identity(m) if transforms else [[]] * m)]
    Vt = identity(n) if transforms else [[]] * n
    column, row = (lambda: [r[t] for r in R]), (lambda: R[t][:n])
    for t in range(min(m, n)):
        col = next((j for j in range(t, n) if any(r[j] for r in R[t:])), None)
        if col is None:
            break
        _swap(Vt, R, t, col)
        while True:
            _euclid(R, (), t, column)
            # the rows above t are zero from column t on
            _euclid(Vt, R[t:], t, row)
            if any(column()[t + 1:]):
                continue
            # enforce the divisor chain before moving on; a unit divides all
            d = R[t][t]
            bad = next((i for i in range(t + 1, m) if abs(d) != 1
                        and any(x % d for x in R[i][t + 1:n])), None)
            if bad is None:
                break
            _add(R, (), t, bad, 1)
        if R[t][t] < 0:
            R[t] = [-x for x in R[t]]
    return R, Vt


def smith_normal_form(A):
    """(U, D, V) with U*A*V = D, U and V unimodular, diagonal divisor chain.

    The first nonzero column of the block moves to t, and Euclid steps
    clear column t below the pivot and row t to its right, in turn, until
    both are zero; a row the pivot does not divide is added to row t, and
    the clearing resumes with a smaller pivot.  Nearest-integer quotients
    keep U and V small (Kannan and Bachem, SIAM J. Comput. 8(4), 1979).
    """
    n = len(A[0])
    R, Vt = _smith(A, True)
    return [r[n:] for r in R], [r[:n] for r in R], transpose(Vt)


def snf_divisors(A):
    """The Smith divisors: the rank of A is the number of nonzero ones, and
    for square A their product is |det A|.  The elimination of
    smith_normal_form runs on D alone."""
    R, _ = _smith(A, False)
    return [R[i][i] for i in range(min(len(R), len(A[0])))]


# -- inverses --------------------------------------------------------------

def inverse(A):
    """Inverse of a square matrix over Q or the tower; None if A is singular.

    Gauss-Jordan elimination on [A | I].  Integer pivots are promoted
    through Fraction(1) / pivot, so an integer matrix gets a rational
    inverse; a tower matrix gets a tower one.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            f = M[r][col]
            if r != col and f:
                M[r] = [x - f * y if y else x for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


@lru_cache(maxsize=16)
def cached_inverse(M):
    """inverse(M) for a tuple of tuples M, as a tuple of tuples or None, kept
    across calls for the frozen matrices that every run inverts; 16 entries."""
    inv = inverse(M)
    return None if inv is None else tuple(map(tuple, inv))


# -- symplectic basis ----------------------------------------------------

class DegenerateFormError(ValueError):
    """Raised by symplectic_basis on a degenerate form; carries the radical."""

    def __init__(self, radical):
        self.radical = radical
        super().__init__(f"alternating form is degenerate; radical rank {len(radical)}")


def symplectic_basis(E):
    """Frobenius basis for a nondegenerate integral alternating form.

    Returns (S, divisors) with S unimodular and

        S^T E S = [[0, D], [-D, 0]],   D = diag(d1 | d2 | ... | dg).

    Each row of G = B E B^T, every pairing of the basis B, carries the
    row of B behind it.  The least pairing of the remaining block moves to
    (t, t + 1), and Euclid steps, congruence moves on [G | B], clear row t
    past t + 1 and row t + 1 past t, in turn, until both are zero; a
    vector whose pairings the pivot d does not divide is added to vector
    t, and the clearing resumes with a smaller pivot, as in
    smith_normal_form.  Degenerate input raises DegenerateFormError with
    a radical basis.
    """
    n = len(E)
    if not is_alternating(E):
        raise ValueError("symplectic_basis requires an alternating form")
    R = [list(row) + u for row, u in zip(E, identity(n))]
    row, next_row = (lambda: R[t][:n]), (lambda: R[t + 1][:n])
    t = 0
    while (pair := min(((abs(R[i][j]), i, j) for i in range(t, n)
                        for j in range(i + 1, n) if R[i][j]), default=None)):
        _swap(R, R, t, pair[1])
        _swap(R, R, t + 1, pair[2])
        while True:
            _euclid(R, R, t + 1, row)
            _euclid(R, R, t, next_row)
            if any(R[t][t + 2:n]):
                continue
            d = R[t][t + 1]
            bad = next((k for k in range(t + 2, n) if abs(d) != 1
                        and any(x % d for x in R[k][t + 2:n])), None)
            if bad is None:
                break
            _add(R, R, t, bad, 1)
        if R[t][t + 1] < 0:
            _swap(R, R, t, t + 1)
        t += 2
    if t < n:
        raise DegenerateFormError([r[n:] for r in R[t:]])
    B = [r[n:] for r in R]
    return transpose(B[0:t:2] + B[1:t:2]), [R[k][k + 1] for k in range(0, t, 2)]
