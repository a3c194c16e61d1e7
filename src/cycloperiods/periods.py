"""Period matrices whose entries are affine in named parameters.

Entries live in the coefficient tower of exactfield, so every algebraic
identity among periods is checked symbolically: the bilinear relations
reduce to a quadratic form in the parameters with tower coefficients
that must vanish identically.  Positivity of the polarization form is
decided exactly too: the leading minors of the Hermitian Gram matrix are
real tower elements whose signs real_sign settles, and a precision only
sizes the decimal ranges printed next to the verdict.
"""

from fractions import Fraction
from functools import lru_cache

from . import intlat
from .exactfield import TowerElem, ZERO, ONE, IUNIT, embed, real_sign, zeta_power


def _coerce_scalar(x):
    if isinstance(x, TowerElem):
        return x
    if isinstance(x, (int, Fraction)):
        return TowerElem.rational(x)
    raise TypeError(f"expected a tower scalar, got {type(x).__name__}")


class AffineForm:
    """const + sum over named parameters of coeff * parameter."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const=ZERO, coeffs=None):
        object.__setattr__(self, "const", _coerce_scalar(const))
        clean = {}
        for name, v in (coeffs or {}).items():
            v = _coerce_scalar(v)
            if not v.is_zero():
                clean[str(name)] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AffineForm is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, AffineForm):
            return x
        return AffineForm(_coerce_scalar(x))

    @staticmethod
    def variable(name, coeff=ONE):
        return AffineForm(ZERO, {name: coeff})

    def params(self):
        return set(self.coeffs)

    def is_constant(self):
        return not self.coeffs

    def is_zero(self):
        return self.const.is_zero() and not self.coeffs

    def __add__(self, other):
        if isinstance(other, (TowerElem, int, Fraction)):
            other = AffineForm.coerce(other)
        if not isinstance(other, AffineForm):
            return NotImplemented
        coeffs = dict(self.coeffs)
        for name, v in other.coeffs.items():
            coeffs[name] = coeffs.get(name, ZERO) + v
        return AffineForm(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(-self.const, {n: -v for n, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (TowerElem, int, Fraction)):
            other = AffineForm.coerce(other)
        if not isinstance(other, AffineForm):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scalar multiple; products of two forms go through QuadForm."""
        if isinstance(other, AffineForm):
            raise TypeError("use QuadForm.product for form * form")
        s = _coerce_scalar(other)
        return AffineForm(self.const * s,
                          {n: v * s for n, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (TowerElem, int, Fraction)):
            other = AffineForm.coerce(other)
        if not isinstance(other, AffineForm):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.const, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        parts = [] if self.const.is_zero() else [repr(self.const)]
        for name in sorted(self.coeffs):
            parts.append(f"({self.coeffs[name]!r})*{name}")
        return " + ".join(parts) if parts else "0"

    def subs(self, assignment):
        """Substitute tower values for a subset of the parameters."""
        const = self.const
        coeffs = {}
        for name, v in self.coeffs.items():
            if name in assignment:
                const = const + v * _coerce_scalar(assignment[name])
            else:
                coeffs[name] = v
        return AffineForm(const, coeffs)

    def evaluate(self, assignment):
        out = self.subs(assignment)
        if out.coeffs:
            missing = sorted(out.coeffs)
            raise ValueError(f"unassigned parameters: {missing}")
        return out.const

    def to_json(self):
        obj = {"const": self.const.to_json()}
        for name in sorted(self.coeffs):
            obj[name] = self.coeffs[name].to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        if "const" not in obj:
            raise ValueError("affine form object needs a 'const' entry")
        const = TowerElem.from_json(obj["const"])
        coeffs = {name: TowerElem.from_json(v)
                  for name, v in obj.items() if name != "const"}
        return cls(const, coeffs)


class QuadForm:
    """Quadratic expression in the parameters, used for residuals.

    Keys are sorted tuples of parameter names: () for the constant,
    one name for linear terms, two for quadratic ones.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, v in (terms or {}).items():
            v = _coerce_scalar(v)
            if not v.is_zero():
                clean[tuple(sorted(mono))] = v
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QuadForm is immutable")

    @staticmethod
    def product(f, g):
        f = AffineForm.coerce(f)
        g = AffineForm.coerce(g)
        terms = {(): f.const * g.const}
        for n, v in f.coeffs.items():
            terms[(n,)] = terms.get((n,), ZERO) + v * g.const
        for n, v in g.coeffs.items():
            terms[(n,)] = terms.get((n,), ZERO) + f.const * v
        for n, v in f.coeffs.items():
            for m, w in g.coeffs.items():
                key = tuple(sorted((n, m)))
                terms[key] = terms.get(key, ZERO) + v * w
        return QuadForm(terms)

    def __add__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        terms = dict(self.terms)
        for mono, v in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + v
        return QuadForm(terms)

    def __neg__(self):
        return QuadForm({m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        return self + (-other)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            label = "*".join(mono) if mono else "1"
            parts.append(f"({self.terms[mono]!r})*{label}")
        return " + ".join(parts)


# -- matrices over the tower and over forms -----------------------------

def tower_matrix(rows):
    return [[_coerce_scalar(x) for x in row] for row in rows]


def tower_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def tower_matmul(A, B):
    if A and B and len(A[0]) != len(B):
        raise ValueError("tower matrix dimensions do not match")
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO)
             for j in range(len(B[0]))] for i in range(len(A))]


def tower_transpose(A):
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def tower_conj(A):
    return [[x.conjugate() for x in row] for row in A]


def tower_det(rows):
    """Determinant of a small square matrix by cofactor expansion.

    Uses only +, - and *, so it is exact over the tower and needs no
    inverses.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * tower_det(minor)
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc


def tower_inv(A):
    """Inverse of a square tower matrix by Gauss-Jordan elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("tower inverse needs a square matrix")
    M = [[A[i][j] for j in range(n)]
         + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("matrix is singular over the tower")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col].inverse()
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and not M[r][col].is_zero():
                f = M[r][col]
                M[r] = [M[r][j] - f * M[col][j] for j in range(2 * n)]
    return [row[n:] for row in M]


def form_matrix(rows):
    return [[AffineForm.coerce(x) for x in row] for row in rows]


def form_matmul_rat(A, Q):
    """Affine-form matrix times a rational matrix on the right."""
    if A and len(A[0]) != len(Q):
        raise ValueError("form matrix dimensions do not match")
    zero = AffineForm()
    return [[sum((A[i][k] * Q[k][j] for k in range(len(Q))), zero)
             for j in range(len(Q[0]))] for i in range(len(A))]


def scalar_form_matmul(S, A):
    """Tower matrix times affine-form matrix."""
    if S and len(S[0]) != len(A):
        raise ValueError("matrix dimensions do not match")
    zero = AffineForm()
    return [[sum((A[k][j] * S[i][k] for k in range(len(A))), zero)
             for j in range(len(A[0]))] for i in range(len(S))]


class PeriodMatrix:
    """g x 2g affine-form matrix together with an integer polarization.

    The polarization is the alternating Gram matrix of the lattice basis
    indexing the columns.  Parameter names are fixed up front so that
    serialization and evaluation are unambiguous.
    """

    __slots__ = ("g", "params", "entries", "polarization")

    def __init__(self, g, params, entries, polarization):
        if len(entries) != g or any(len(row) != 2 * g for row in entries):
            raise ValueError(f"period matrix must be {g} x {2 * g}")
        entries = form_matrix(entries)
        params = tuple(str(p) for p in params)
        used = set()
        for row in entries:
            for f in row:
                used |= f.params()
        if not used <= set(params):
            raise ValueError(f"entries use undeclared parameters "
                             f"{sorted(used - set(params))}")
        pol = [[int(x) for x in row] for row in polarization]
        if len(pol) != 2 * g or any(len(r) != 2 * g for r in pol):
            raise ValueError("polarization must be 2g x 2g")
        if not intlat.is_alternating(pol):
            raise ValueError("polarization must be alternating")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "polarization", pol)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodMatrix is immutable")

    def subs(self, assignment):
        rows = [[f.subs(assignment) for f in row] for row in self.entries]
        kept = tuple(p for p in self.params if p not in assignment)
        return PeriodMatrix(self.g, kept, rows, self.polarization)

    def evaluate(self, assignment):
        """Exact tower matrix at a full parameter assignment."""
        return [[f.evaluate(assignment) for f in row] for row in self.entries]

    def eval_ball(self, assignment, prec=128):
        return [[embed(x, prec) for x in row] for row in self.evaluate(assignment)]

    def to_json(self):
        return {"g": self.g,
                "params": list(self.params),
                "entries": [[f.to_json() for f in row] for row in self.entries],
                "polarization": intlat.mat_to_json(self.polarization)}

    @classmethod
    def from_json(cls, obj):
        try:
            g = int(obj["g"])
            params = [str(p) for p in obj["params"]]
            entries = [[AffineForm.from_json(e) for e in row]
                       for row in obj["entries"]]
            pol = intlat.mat_from_json(obj["polarization"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed period matrix object: {exc}") from exc
        return cls(g, params, entries, pol)


def _polarization_inverse(pm):
    """E^{-1} as a tuple of tuples, shared by every matrix with polarization E."""
    return _rational_inverse(tuple(map(tuple, pm.polarization)))


@lru_cache(maxsize=16)
def _rational_inverse(E):
    det, inv = intlat.exact_det_inv(E)
    if det == 0 or inv is None:
        raise ValueError("polarization is degenerate")
    return tuple(map(tuple, inv))


def riemann_first_relation(pm):
    """Residual of the symmetry relation, a g x g matrix of QuadForms.

    The relation asserts P E^{-1} P^T = 0 identically in the parameters,
    with E the polarization.  All-zero output means it holds.
    """
    Einv = _polarization_inverse(pm)
    PE = form_matmul_rat(pm.entries, Einv)
    g, n = pm.g, 2 * pm.g
    out = []
    for i in range(g):
        row = []
        for j in range(g):
            acc = QuadForm()
            for k in range(n):
                acc = acc + QuadForm.product(PE[i][k], pm.entries[j][k])
            row.append(acc)
        out.append(row)
    return out


def first_relation_holds(pm):
    return all(q.is_zero() for row in riemann_first_relation(pm) for q in row)


def positivity_gram(pm, point, sign=1):
    """Exact Hermitian matrix sign * i * P E^{-1} conj(P)^T at a point."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    P = pm.evaluate(point)
    Einv = _polarization_inverse(pm)
    PE = tower_matmul(P, Einv)
    H = tower_matmul(PE, tower_transpose(tower_conj(P)))
    unit = IUNIT if sign == 1 else -IUNIT
    return [[x * unit for x in row] for row in H]


def riemann_positivity(pm, point, prec=128, sign=1):
    """Decide definiteness of the polarization form at a parameter point.

    Each leading principal minor of the Hermitian form is computed
    exactly in the tower and its sign decided by real_sign.  Returns
    (verdict, evidence): "positive" when every minor is > 0, else
    "not-positive" at the first minor that is not.  Evidence lists
    (k, lo, hi) for the minors up to that one, with [lo, hi] the real
    range of the minor embedded at prec bits; prec sizes these printed
    ranges only and never changes the verdict.
    """
    H = positivity_gram(pm, point, sign)
    evidence = []
    for k in range(1, pm.g + 1):
        d = tower_det([row[:k] for row in H[:k]])
        lo, hi = embed(d, prec).real_range()
        evidence.append((k, float(lo), float(hi)))
        if real_sign(d) <= 0:
            return "not-positive", evidence
    return "positive", evidence


# -- splitting off an elliptic factor -----------------------------------

class SplitResult:
    """Integer column combinations separating the first coordinate."""

    def __init__(self, elliptic, prym, elliptic_gram, prym_gram):
        self.elliptic = elliptic
        self.prym = prym
        self.elliptic_gram = elliptic_gram
        self.prym_gram = prym_gram


def _coordinate_rows(forms, names):
    """Rational constraint rows forcing a combination of forms to vanish."""
    rows = []
    keys = [None] + list(names)
    for key in keys:
        for part in ("c", "a"):
            for idx in range(4):
                row = []
                for f in forms:
                    x = f.const if key is None else f.coeffs.get(key, ZERO)
                    row.append(getattr(x, part)[idx])
                if any(row):
                    rows.append(row)
    return rows


def isogeny_split(pm):
    """Split the column lattice against the first row.

    Elliptic combinations kill every row but the first; the complementary
    ones kill the first row.  Returns the two integer sublattices with
    the polarization Gram form restricted to each.
    """
    n = 2 * pm.g
    ell_rows = []
    for i in range(1, pm.g):
        ell_rows.extend(_coordinate_rows(pm.entries[i], pm.params))
    prym_rows = _coordinate_rows(pm.entries[0], pm.params)
    ell = intlat.integer_kernel(ell_rows) if ell_rows else []
    prym = intlat.integer_kernel(prym_rows) if prym_rows else []
    if len(ell) + len(prym) != n:
        raise ValueError(f"split ranks {len(ell)} + {len(prym)} "
                         f"do not fill the lattice of rank {n}")
    E = pm.polarization

    def gram(vs):
        return [[sum(vs[a][i] * E[i][j] * vs[b][j]
                     for i in range(n) for j in range(n))
                 for b in range(len(vs))] for a in range(len(vs))]

    return SplitResult(ell, prym, gram(ell), gram(prym))


# -- symmetries ----------------------------------------------------------

def automorphism_residual(pm, A, R):
    """Entries of A * P - P * R as affine forms.

    A acts on the forms (tower matrix, g x g), R on the lattice basis
    (integer matrix, 2g x 2g).  All-zero output means the pair
    intertwines the period matrix.
    """
    left = scalar_form_matmul(tower_matrix(A), pm.entries)
    right = form_matmul_rat(pm.entries, R)
    return [[left[i][j] - right[i][j] for j in range(2 * pm.g)]
            for i in range(pm.g)]


def intertwines(pm, A, R):
    return all(f.is_zero() for row in automorphism_residual(pm, A, R)
               for f in row)


def _integer_inverse(R):
    det, inv = intlat.exact_det_inv(R)
    if det == 0 or abs(det) != 1:
        raise ValueError("lattice action must be unimodular")
    return [[int(x) for x in row] for row in inv]


def intertwiner_search(pm, exponents, R, signs=(1, -1)):
    """Try diagonal twelfth-root weights against variants of R.

    exponents fixes the diagonal A = diag(zeta^(s*e)) up to the overall
    sign s.  Variants of the lattice action are the matrix itself, its
    inverse, and their transposes.  Returns the list of (sign, variant)
    pairs that intertwine; conventions are chosen by the caller from it.
    """
    if len(exponents) != pm.g:
        raise ValueError("need one weight exponent per row")
    Rinv = _integer_inverse(R)
    variants = [("plain", R),
                ("inverse", Rinv),
                ("transpose", intlat.transpose(R)),
                ("inverse-transpose", intlat.transpose(Rinv))]
    hits = []
    for s in signs:
        A = [[zeta_power(s * exponents[i]) if i == j else ZERO
              for j in range(pm.g)] for i in range(pm.g)]
        for name, V in variants:
            if intertwines(pm, A, V):
                hits.append((s, name))
    return hits


def combine_split_family(top_form, top_cols, sub_entries, sub_cols,
                         basis, params, polarization):
    """Assemble a split period matrix and return to the basis of interest.

    Row 0 carries the affine forms top_form[c] in the columns top_cols,
    rows 1.. carry sub_entries in the columns sub_cols; everything else
    is zero.  The result is multiplied by basis^(-1) on the right, so
    the output is indexed by the original lattice basis and carries the
    supplied polarization.
    """
    g = 1 + len(sub_entries)
    n = 2 * g
    zero = AffineForm()
    big = [[zero for _ in range(n)] for _ in range(g)]
    for c, fval in zip(top_cols, top_form):
        big[0][c] = AffineForm.coerce(fval)
    for r in range(len(sub_entries)):
        for c, fval in zip(sub_cols, sub_entries[r]):
            big[1 + r][c] = AffineForm.coerce(fval)
    det, Binv = intlat.exact_det_inv(basis)
    if det == 0:
        raise ValueError("basis matrix is singular")
    entries = form_matmul_rat(big, Binv)
    return PeriodMatrix(g, params, entries, polarization)
