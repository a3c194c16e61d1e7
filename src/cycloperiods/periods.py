"""Period matrices whose entries are affine in named parameters.

A PeriodMatrix is stored as P = P_0 + sum_k t_k P_k: one dense g x 2g
tower matrix for the constant part and one per declared parameter, in
params order.  Whole products go through intlat.matmul, which takes
int, Fraction or TowerElem entries and skips zero factors, so a sparse
rational polarization inverse, lattice action or base change costs only
its nonzero entries.  Each tower entry of a product, an evaluation, the
Gram matrix or a minor is one exactfield.dot: its products are summed in
integer coordinates and reduced once (delayed reduction).  In JSON each
entry is {"const": c, name: coefficient, ...}, with only the nonzero
coefficients listed.

Both Riemann relations are quadratic in the parameters (t_0 = 1 for the
constant), so they are decided from constant products of X_a = P_a E^-1
(E^-1 from intlat.cached_inverse) and P_b, built when first needed and
kept on the PeriodMatrix, each entry one dot.  With M_ab = X_a P_b^T,
P E^-1 P^T = 0 holds identically when each coefficient C_ab of t_a t_b
(M_aa, or M_ab + M_ba if a < b) is 0; C_ab is antisymmetric as E^-1 is,
and only its entries i < j are formed.
The Hermitian form of the second relation at a point is, up to sign,
i sum_ab t_a conj(t_b) K_ab, K_ab = X_a conj(P_b)^T (of K_aa only i <= j,
and a vanishing K_ab is skipped); real_sign settles the exact signs of
its leading minors (one zero-skipping expansion that factors out each
closed leading block, such as the Z/6 character blocks), and a precision
only sizes the ranges printed next to the verdict.  An intertwining
A P = P R holds when A P_k = P_k R for all k.
"""

import math
import sys
from bisect import bisect

from . import intlat
from .exactfield import TowerElem, ZERO, ONE, IUNIT, dot, embed, real_sign, zeta_power


# -- matrices over the tower ----------------------------------------------

def tower_conj(A):
    return [[x.conjugate() for x in row] for row in A]


def leading_minors(H):
    """Yield the leading principal minors of the square matrix H, k = 1..n.

    Level r keeps the nonzero minors on rows start..r by column tuple,
    each expanded along row r over level r - 1 on columns >= start, so
    zero entries and zero sub-minors cost nothing.  If the only one left
    is on columns start..r, those rows are zero past column r (a row space
    with one Pluecker coordinate is a coordinate subspace): the block
    closes, and its minor joins the factor f of the minors of the trailing
    block from row r + 1 on.  Each minor is one exactfield.dot of its signed
    (entry, sub-minor) pairs, times f, and the generator is lazy: a caller
    that stops early skips the later levels.
    """
    f, start, level = ONE, 0, {(): ONE}
    for r, row in enumerate(H):
        terms = {}
        for cols, m in level.items():
            for c, x in enumerate(row[start:], start):
                if x and c not in cols:
                    j = bisect(cols, c)
                    terms.setdefault(cols[:j] + (c,) + cols[j:], []).append(
                        (x if (r - start - j) % 2 == 0 else -x, m))
        level = {cols: v for cols, pairs in terms.items() if (v := dot(pairs))}
        m = level.get(tuple(range(start, r + 1)), ZERO)
        yield (minor := m if f is ONE else dot([(f, m)]))
        if len(level) == 1 and minor:
            f, start, level = minor, r + 1, {(): ONE}


class PeriodMatrix:
    """g x 2g matrix P_0 + sum_k t_k P_k with an integer polarization.

    coeffs[0] is the constant tower matrix P_0 and coeffs[1 + k] the
    coefficient matrix of params[k], each a g x 2g tuple of tuples.  The
    polarization, a 2g x 2g tuple of tuples, is the alternating Gram
    matrix of the lattice basis indexing the columns.  Parameter names are
    fixed up front so that serialization and evaluation are unambiguous.
    """

    __slots__ = ("g", "params", "coeffs", "polarization", "_products")

    def __init__(self, g, params, coeffs, polarization):
        params = tuple(str(p) for p in params)
        if len(set(params)) != len(params):
            raise ValueError(f"repeated parameter names in {list(params)}")
        if len(coeffs) != 1 + len(params):
            raise ValueError(f"need {1 + len(params)} coefficient matrices")
        if any(len(C) != g or any(len(row) != 2 * g for row in C) for C in coeffs):
            raise ValueError(f"period matrix must be {g} x {2 * g}")
        pol = tuple(tuple(int(x) for x in row) for row in polarization)
        if len(pol) != 2 * g or any(len(r) != 2 * g for r in pol):
            raise ValueError("polarization must be 2g x 2g")
        if not intlat.is_alternating(pol):
            raise ValueError("polarization must be alternating")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(
            tuple(tuple(TowerElem.coerce(x) for x in row) for row in C)
            for C in coeffs))
        object.__setattr__(self, "polarization", pol)
        object.__setattr__(self, "_products", {})   # see _product

    def __setattr__(self, name, value):
        raise AttributeError("PeriodMatrix is immutable")

    def _substitute(self, assignment):
        """P_0 + sum t_k P_k over the assigned t_k, one dot per entry, and
        the unassigned (name, P_k)."""
        named = list(zip(self.params, self.coeffs[1:]))
        used = [(C, TowerElem.coerce(assignment[p])) for p, C in named if p in assignment]
        kept = [(p, C) for p, C in named if p not in assignment]
        out = [[dot(([(x, 1)] if x else []) + [(C[i][j], t) for C, t in used if C[i][j]])
                for j, x in enumerate(row)] for i, row in enumerate(self.coeffs[0])]
        return out, kept

    def subs(self, assignment):
        P0, kept = self._substitute(assignment)
        return PeriodMatrix(self.g, [p for p, _ in kept], [P0] + [C for _, C in kept],
                            self.polarization)

    def evaluate(self, assignment):
        """Exact tower matrix at a full parameter assignment."""
        P0, _ = self._substitute(assignment)
        self._refuse_missing(assignment)
        return P0

    def _refuse_missing(self, assignment):
        """Raise if a parameter with a nonzero coefficient matrix is unassigned."""
        missing = sorted(p for p, C in zip(self.params, self.coeffs[1:])
                         if p not in assignment and any(x for row in C for x in row))
        if missing:
            raise ValueError(f"unassigned parameters: {missing}")

    def eval_ball(self, assignment, prec=128):
        return [[embed(x, prec) for x in row] for row in self.evaluate(assignment)]

    def to_json(self):
        named = sorted(zip(self.params, self.coeffs[1:]))

        def entry(i, j, x):
            return {"const": x.to_json(),
                    **{p: C[i][j].to_json() for p, C in named if C[i][j]}}
        return {"g": self.g,
                "params": list(self.params),
                "entries": [[entry(i, j, x) for j, x in enumerate(row)]
                            for i, row in enumerate(self.coeffs[0])],
                "polarization": intlat.mat_to_json(self.polarization)}

    @classmethod
    def from_json(cls, obj, bound=None):
        try:
            g, params = obj["g"], obj["params"]
            entries = [[_entry_from_json(e) for e in row] for row in obj["entries"]]
            pol = intlat.mat_from_json(obj["polarization"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed period matrix object: {exc}") from exc
        if (type(g) is not int or type(params) is not list
                or any(type(p) is not str for p in params)
                or any(x.denominator != 1 for row in pol for x in row)):
            raise ValueError("malformed period matrix object: g must be an int, "
                             "params strings and the polarization integral")
        used = {p for row in entries for e in row for p, x in e.items()
                if p is not None and x}
        if not used <= set(params):
            raise ValueError(f"entries use undeclared parameters "
                             f"{sorted(used - set(params))}")
        pm = cls(g, params, [[[e.get(p, ZERO) for e in row] for row in entries]
                             for p in [None, *params]], pol)
        if bound:       # a caller's limits, before the one step that outgrows the input
            bound(pm)
        _polarization_inverse(pm)       # a degenerate polarization is refused here
        return pm


def _entry_from_json(obj):
    """{"const": c, name: coefficient, ...} as {None: c, name: coefficient}."""
    if "const" not in obj:
        raise ValueError("affine form object needs a 'const' entry")
    return {None: TowerElem.from_json(obj["const"]),
            **{p: TowerElem.from_json(v) for p, v in obj.items() if p != "const"}}


def _polarization_inverse(pm):
    """E^{-1} as a tuple of tuples, shared by every matrix with polarization E."""
    Einv = intlat.cached_inverse(pm.polarization)
    if Einv is None:
        raise ValueError("polarization is degenerate")
    return Einv


def _product(pm, a, b, conj):
    """K_ab = X_a conj(P_b)^T if conj, else the coefficient C_ab of t_a t_b
    in P E^{-1} P^T, cached on pm with X_a = P_a E^{-1}.  Each entry formed
    is one dot: C_ab's entries i < j (negated below, see the module
    docstring) and K_ab's, of K_aa only i <= j (None below)."""
    cache, g = pm._products, pm.g
    key = ("gram" if conj else "relation", a, b)
    if key not in cache:
        if a not in cache:
            cache[a] = intlat.matmul(pm.coeffs[a], _polarization_inverse(pm))
        X, P = cache[a], tower_conj(pm.coeffs[b]) if conj else pm.coeffs[b]

        def pairs(i, j, s=1):   # the products summed in s * (X_a P^T)[i][j]
            return [(x, y if s == 1 else -y) for x, y in zip(X[i], P[j]) if x and y]
        C = [[None if conj else ZERO] * g for _ in range(g)]
        for i in range(g):
            for j in range(g):
                if conj and (a != b or i <= j):
                    C[i][j] = dot(pairs(i, j))
                elif not conj and i < j:
                    C[i][j] = dot(pairs(i, j) + (pairs(j, i, -1) if a != b else []))
                    C[j][i] = -C[i][j]
        cache[key] = C
    return cache[key]


def riemann_first_relation(pm):
    """The nonzero coefficients of P E^{-1} P^T as a polynomial in the parameters.

    Returns {monomial: g x g tower matrix}, a monomial being a sorted
    tuple of parameter names (() for the constant term).  With
    M_ab = P_a E^{-1} P_b^T the coefficient of t_a^2 is M_aa and that of
    t_a t_b (a < b) is M_ab + M_ba = M_ab - M_ab^T.  An empty dict means
    the relation holds identically.
    """
    names = [()] + [(p,) for p in pm.params]
    coeffs = {tuple(sorted(names[a] + names[b])): _product(pm, a, b, False)
              for a in range(len(names)) for b in range(a, len(names))}
    return {m: M for m, M in coeffs.items() if any(x for row in M for x in row)}


def first_relation_holds(pm):
    return not riemann_first_relation(pm)


def positivity_gram(pm, point, sign=1):
    """Exact Hermitian matrix H = sign * i * P E^{-1} conj(P)^T at a point.

    H = sum_ab w_ab K_ab with w_ab = sign * i * t_a conj(t_b) and
    K_ab = P_a E^{-1} conj(P_b)^T (t_0 = 1).  w_ba K_ba is the conjugate
    transpose of w_ab K_ab, so only entries i <= j of the nonzero K_ab with
    a <= b and t_a, t_b != 0 are used (no weight is formed for the others),
    and each H_ij is one exactfield.dot.  Like evaluate, it ignores extra
    names and refuses a missing parameter whose coefficient matrix is nonzero.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = [ONE] + [TowerElem.coerce(point[p]) if p in point else ZERO
                 for p in pm.params]
    pm._refuse_missing(point)
    unit = IUNIT if sign == 1 else -IUNIT
    g = pm.g
    terms = [[[] for _ in range(g)] for _ in range(g)]     # entries i <= j
    for a, ta in enumerate(t):
        ita = None                      # sign * i * t_a, formed once per a
        for b in range(a, len(t)):
            if not (ta and t[b] and any(map(any, K := _product(pm, a, b, True)))):
                continue                # a zero weight or a vanishing K_ab
            if ita is None:
                ita = dot([(unit, ta)])
            w = dot([(ita, t[b].conjugate())])
            wc = w.conjugate()                  # conj(w K) = conj(w) conj(K)
            for i in range(g):
                for j in range(i, g):
                    if K[i][j]:
                        terms[i][j].append((w, K[i][j]))
                    if a != b and K[j][i]:
                        terms[i][j].append((wc, K[j][i].conjugate()))
    H = [[dot(terms[i][j]) if i <= j else None for j in range(g)] for i in range(g)]
    for i in range(g):
        for j in range(i):
            H[i][j] = H[j][i].conjugate()
    return H


def riemann_positivity(pm, point, prec=128, sign=1):
    """Decide definiteness of the polarization form at a parameter point.

    real_sign decides the sign of each exact leading minor (leading_minors).
    Returns (verdict, evidence): "positive" when every minor is > 0, else
    "not-positive" at the first minor that is not.  Evidence lists
    (k, lo, hi) for the minors up to that one, [lo, hi] being the real
    range of the minor's ball at prec bits rounded outward to doubles
    (_double); prec never changes the verdict.
    """
    H = positivity_gram(pm, point, sign)
    evidence = []
    for k, d in enumerate(leading_minors(H), 1):
        b = embed(d, prec)
        evidence.append((k, _double(b.re_n - b.rad_n, b.den, up=False),
                         _double(b.re_n + b.rad_n, b.den, up=True)))
        if real_sign(d) <= 0:
            return "not-positive", evidence
    return "positive", evidence


def _double(n, den, up):
    """n/den (den > 0) rounded outward to a double: to the least double
    >= n/den if up, else to the greatest double <= n/den.  Past the double
    range that is the largest finite double or infinity."""
    try:
        x = n / den                     # correctly rounded
    except OverflowError:
        edge = math.inf if (n > 0) == up else sys.float_info.max
        return edge if n > 0 else -edge
    p, q = x.as_integer_ratio()
    if (p * den < n * q) if up else (p * den > n * q):
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


# -- symmetries ----------------------------------------------------------

def intertwines(pm, A, R):
    """Whether A P = P R identically in the parameters.

    A acts on the forms (tower matrix, g x g), R on the lattice basis
    (rational matrix, 2g x 2g).  Checked as A P_k = P_k R for each
    coefficient matrix, stopping at the first row that differs.
    """
    for P in pm.coeffs:
        for left, right in zip(intlat.product_rows(A, P),
                               intlat.product_rows(P, R)):
            if left != right:
                return False
    return True


def intertwiner_search(pm, exponents, R, signs=(1, -1)):
    """Try diagonal twelfth-root weights against variants of R.

    exponents fixes the diagonal A = diag(zeta^(s*e)) up to the overall
    sign s.  Variants of the lattice action are the matrix itself, its
    inverse (intlat.cached_inverse; ValueError unless it is integral),
    and their transposes.  Returns the list of (sign, variant) pairs
    that intertwine; conventions are chosen by the caller from it.
    """
    if len(exponents) != pm.g:
        raise ValueError("need one weight exponent per row")
    Rinv = intlat.cached_inverse(tuple(map(tuple, R)))
    if Rinv is None or any(x.denominator != 1 for row in Rinv for x in row):
        raise ValueError("matrix is not unimodular")
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

