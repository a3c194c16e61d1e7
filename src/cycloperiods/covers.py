"""Cyclic covers of the line and their first homology.

A cover y^n = prod (x - b_j)^{a_j} of the projective line is described
combinatorially by the degree n and the list of branch exponents a_j,
one for each branch point label, with the point at infinity carrying
the exponent that makes the total sum vanish mod n.  Genus and the
character-wise decomposition of the holomorphic forms follow from the
exponents alone.

Character convention, fixed once for the whole package: the deck map
sends y to zeta_n * y, the form x^s dx / y^k belongs to character k,
and the deck map multiplies that form by zeta_n^(-k).

The homology side works with a model: a finite set of loop classes,
their integer intersection pairing, and the permutation by which the
deck map shifts the loops.  verify_homology_model runs the forced
algebraic checks on such a model together with a proposed symplectic
combination of the loops.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import intlat


class CyclicCover:
    """Degree-n cyclic cover data given by branch exponents.

    exponents: iterable of (label, a) pairs or bare integers (labels are
    then generated).  Exponents are reduced mod n; a zero exponent means
    the point is unramified and is kept only as a record.
    """

    def __init__(self, n, exponents):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"cover degree must be an integer >= 2, got {n!r}")
        pts = []
        for k, item in enumerate(exponents):
            if isinstance(item, (tuple, list)):
                label, a = item
            else:
                label, a = f"p{k + 1}", item
            if not isinstance(a, int):
                raise ValueError(f"branch exponent must be an integer, got {a!r}")
            pts.append((str(label), a % n))
        if sum(a for _, a in pts) % n != 0:
            raise ValueError("branch exponents must sum to 0 mod n "
                             "(include the point at infinity)")
        g = n
        for _, a in pts:
            g = gcd(g, a)
        if g != 1:
            raise ValueError(f"cover is disconnected: gcd of exponents with n is {g}")
        self.n = n
        self.exponents = tuple(pts)

    def genus(self):
        # 2g - 2 = -2n + sum over points of (n - #preimages)
        total = sum(self.n - gcd(a, self.n) for _, a in self.exponents)
        twice = -2 * self.n + total
        if twice % 2:
            raise ValueError("branch data gives a non-integral genus")
        return twice // 2 + 1

    def eigenspace_dims(self):
        """dict k -> dim of holomorphic forms in character k, k = 1..n-1."""
        n, exps = self.n, [a for _, a in self.exponents]
        out = {}
        for k in range(1, n):       # dim = sum over a of {k a / n}, minus 1
            s = sum([k * a % n for a in exps])
            if s % n:
                raise ValueError("character dimension is not integral")
            out[k] = s // n - 1
        return out

    def h1_ranks(self):
        """dict k -> rank of the character-k part of first cohomology."""
        n = self.n
        out = {}
        for k in range(1, n):
            ram = sum(1 for _, a in self.exponents if (k * a) % n != 0)
            out[k] = ram - 2 if ram else 0
        return out

    def table(self):
        """[(k, rank, dim)] for k = 1..n-1."""
        dims = self.eigenspace_dims()
        ranks = self.h1_ranks()
        return [(k, ranks[k], dims[k]) for k in range(1, self.n)]


class HomologyModel(namedtuple("HomologyModel", ("pairing", "shift"))):
    """Loop classes with intersection pairing and deck-shift permutation.

    A tuple of the pairing, itself a tuple of tuples, and the shift, so a
    model cannot change once built.
    """

    __slots__ = ()

    def __new__(cls, pairing, shift):
        n = len(pairing)
        if any(len(row) != n for row in pairing):
            raise ValueError("pairing matrix must be square")
        if sorted(shift) != list(range(n)):
            raise ValueError("shift must be a permutation of the loop indices")
        return super().__new__(cls, tuple(map(tuple, pairing)), tuple(shift))

    @property
    def size(self):
        return len(self.pairing)

    def shift_matrix(self):
        return intlat.permutation_matrix(self.shift)


def six_loop_shift():
    """The standard shift on two orbits of six loops each:
    first block 0..5 cycles, second block 6..11 cycles."""
    return [6 * (i // 6) + (i + 1) % 6 for i in range(12)]


# rank of the pairing on the twelve loops of the genus-4 cover, and the
# loops on which its principal minor is nondegenerate
EXPECTED_RANK = 8
MINOR_INDEX = (0, 1, 2, 3, 6, 7, 8, 9)


def verify_homology_model(model, X):
    """Run the forced checks on a homology model and a symplectic combination.

    X: integer matrix whose columns are the combinations in loop
    coordinates; their Gram matrix X^T M X under the pairing M should be
    the standard symplectic form.  Returns a list of (check id, passed)
    pairs, one per check.
    """
    M, sig, n = model.pairing, model.shift, model.size
    minor = [[M[i][j] for j in MINOR_INDEX] for i in MINOR_INDEX]
    gram = intlat.matmul(intlat.transpose(X), intlat.matmul(M, X))
    return [
        ("alternating", intlat.is_alternating(M)),
        ("shift-equivariant", all(M[sig[i]][sig[j]] == M[i][j]
                                  for i in range(n) for j in range(n))),
        ("rank", sum(map(bool, intlat.snf_divisors(M))) == EXPECTED_RANK),
        ("principal-minor", 0 not in intlat.snf_divisors(minor)),
        ("combo-gram", gram == intlat.standard_symplectic(len(X[0]) // 2)),
    ]


def deck_action_matrix(model, X):
    """Matrix of the deck shift on the span of the columns of X.

    With E = X^T M X the (nondegenerate) Gram form of the columns, the
    shift acts by the R with E R = X^T M P X.  The system is solved in
    integers through the Smith form U E V = D as R = V D^{-1} U X^T M P X
    (H. Cohen, GTM 138, section 2.4).  Entries must come out integral,
    otherwise the columns do not span a shift-stable primitive sublattice
    and a ValueError names the first entry of R that is not.
    """
    M = model.pairing
    Xt = intlat.transpose(X)
    E = intlat.matmul(Xt, intlat.matmul(M, X))
    U, D, V = intlat.smith_normal_form(E)
    divs = [D[i][i] for i in range(len(D))]
    if 0 in divs:
        raise ValueError("combos have degenerate Gram form")
    P = model.shift_matrix()
    Y = intlat.matmul(U, intlat.matmul(Xt, intlat.matmul(M, intlat.matmul(P, X))))
    if any(y % d for row, d in zip(Y, divs) for y in row):
        R = intlat.matmul(V, [[Fraction(y, d) for y in row] for row, d in zip(Y, divs)])
        x = next(x for row in R for x in row if Fraction(x).denominator != 1)
        raise ValueError(f"deck action is not integral on the combos: {x}")
    return intlat.matmul(V, [[y // d for y in row] for row, d in zip(Y, divs)])
