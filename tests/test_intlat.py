"""Integer lattice routines checked against small classical oracles."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:         # sympy is a test-only dependency
    sympy = None

from cycloperiods import intlat
from cycloperiods.exactfield import IUNIT, ZERO, TowerElem, cyclo

_entry = st.integers(min_value=-6, max_value=6)


def _matrix_strategy(max_dim=4):
    dims = st.integers(min_value=1, max_value=max_dim)
    return dims.flatmap(lambda m: dims.flatmap(
        lambda n: st.lists(
            st.lists(_entry, min_size=n, max_size=n),
            min_size=m, max_size=m)))


def _square_strategy(max_dim=4):
    dims = st.integers(min_value=1, max_value=max_dim)
    return dims.flatmap(lambda n: st.lists(
        st.lists(_entry, min_size=n, max_size=n),
        min_size=n, max_size=n))


_mats = _matrix_strategy()
_squares = _square_strategy()


def _det_laplace(A):
    """Cofactor-expansion determinant, the oracle for the fast routines."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        if A[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = A[0][j] * _det_laplace(minor)
        total += term if j % 2 == 0 else -term
    return total


def _minor_gcd_divisors(A):
    """Invariant factors as quotients of k-minor gcds."""
    m, n = len(A), len(A[0])
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(_det_laplace(sub)))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def _is_unimodular(U):
    return abs(_det_laplace(U)) == 1


@settings(max_examples=400, deadline=None)
@given(_mats)
def test_smith_normal_form_properties(A):
    U, D, V = intlat.smith_normal_form(A)
    m, n = len(A), len(A[0])
    assert _is_unimodular(U) and _is_unimodular(V)
    assert intlat.matmul(U, intlat.matmul(A, V)) == D
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@settings(max_examples=200, deadline=None)
@given(_mats)
def test_snf_divisors_match_minor_gcds(A):
    assert intlat.snf_divisors(A) == _minor_gcd_divisors(A)


def _signed(lo_bits, hi_bits):
    return st.builds(mul, st.sampled_from((-1, 1)),
                     st.integers(1 << lo_bits, 1 << hi_bits))


def _product(m, n, max_k):
    """An m x n matrix of rank at most k <= max_k: an m x k times a k x n
    factor, with entries of up to 100 bits in each factor."""
    def draw(k):
        factor = st.lists(st.one_of(_entry, _signed(80, 100)), min_size=k, max_size=k)
        return st.tuples(st.lists(factor, min_size=m, max_size=m),
                         st.lists(factor, min_size=n, max_size=n)).map(
            lambda BC: [[sum(map(mul, b, c)) for c in BC[1]] for b in BC[0]])
    return st.integers(1, max_k).flatmap(draw)


# entries of up to about 200 bits, small ones mixed in, on square and
# rectangular shapes; a product through an inner dimension below min(m, n)
# is rank deficient, and singular when square
_dims = st.integers(min_value=1, max_value=5)
_high_mats = st.one_of(
    st.tuples(_dims, _dims).flatmap(lambda mn: st.lists(
        st.lists(st.one_of(_entry, _signed(150, 200)),
                 min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0])),
    st.tuples(_dims, _dims).flatmap(lambda mn: _product(*mn, min(mn))),
    st.integers(2, 5).flatmap(lambda n: _product(n, n, n - 1)),
)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=150, deadline=None)
@given(_high_mats)
def test_snf_divisors_give_rank_and_det_like_sympy(A):
    divs = intlat.snf_divisors(A)
    M = sympy.Matrix(A)
    assert sum(map(bool, divs)) == M.rank()
    if M.is_square:
        assert prod(divs) == abs(M.det())


def _bits(*mats):
    return max(abs(x).bit_length() for M in mats for row in M for x in row)


def _seeded_snf_input(seed):
    """An m x n matrix, 1 <= m, n <= 8, of entries up to 10^30: dense, or
    the product of an m x k and a k x n factor, so often rank deficient."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    h = 10 ** rng.choice((1, 3, 10, 30))
    if seed % 2:
        return [[rng.randint(-h, h) for _ in range(n)] for _ in range(m)]
    k = rng.randint(1, min(m, n))
    B = [[rng.randint(-h, h) for _ in range(k)] for _ in range(m)]
    C = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    return [[sum(map(mul, b, c)) for c in zip(*C)] for b in B]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("seed", range(40))
def test_smith_normal_form_matches_sympy_with_small_transforms(seed):
    from sympy.matrices.normalforms import smith_normal_form
    A = _seeded_snf_input(seed)
    m, n = len(A), len(A[0])
    U, D, V = intlat.smith_normal_form(A)
    S = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
    assert D == [[abs(int(S[i, j])) for j in range(n)] for i in range(m)]
    assert intlat.matmul(U, intlat.matmul(A, V)) == D
    assert abs(sympy.Matrix(U).det()) == abs(sympy.Matrix(V).det()) == 1
    # within six times the Hadamard-style height max(m, n) * bits of the
    # input (at most 4.4 times here); the minimal-pivot elimination with
    # floor quotients reached 47 times it on seed 11, at 8 x 8
    assert _bits(U, V) <= 6 * max(m, n) * (_bits(A) + 1)


def test_smith_transforms_of_an_8x8_with_30_digit_entries_stay_small():
    rng = random.Random(8)
    A = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(8)] for _ in range(8)]
    U, D, V = intlat.smith_normal_form(A)
    assert intlat.matmul(U, intlat.matmul(A, V)) == D
    # 2,736 bits; the minimal-pivot elimination with floor quotients
    # reached 35,766
    assert _bits(U, V) < 4096


@settings(max_examples=300, deadline=None)
@given(_squares)
def test_inverse(A):
    inv = intlat.inverse(A)
    if _det_laplace(A) == 0:
        assert inv is None
        return
    n = len(A)
    prod = [[sum(Fraction(A[i][k]) * inv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)]
                    for i in range(n)]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=300, deadline=None)
@given(_squares)
def test_inverse_matches_sympy(A):
    M = sympy.Matrix(A)
    inv = intlat.inverse(A)
    if M.det() == 0:
        assert inv is None
        return
    want = M.inv()
    assert [[Fraction(int(want[i, j].p), int(want[i, j].q)) for j in range(M.cols)]
            for i in range(M.rows)] == inv


def test_inverse_rejects_nonsquare():
    with pytest.raises(ValueError):
        intlat.inverse([[1, 2, 3], [4, 5, 6]])


def test_unimodular_inverse():
    """The one inverse, through its cache: integral exactly when det = +-1."""
    A = ((2, 1), (1, 1))
    assert intlat.cached_inverse(A) == ((1, -1), (-1, 2))
    assert intlat.cached_inverse(A) is intlat.cached_inverse(A)
    assert intlat.cached_inverse(((2, 0), (0, 1))) == ((Fraction(1, 2), 0), (0, 1))
    assert intlat.cached_inverse(((1, 2), (2, 4))) is None


def _seeded_unimodular(rng, n):
    """I moved by seeded row additions, swaps and sign changes: det +-1."""
    A = intlat.identity(n)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-3, 3)
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
            A[i], A[j] = A[j], A[i]
        else:
            A[i] = [-a for a in A[i]]
    return A


def _integral(M):
    return all(x.denominator == 1 for row in M for x in row)


@pytest.mark.parametrize("n", range(1, 9))
def test_unimodular_inverse_inverts_seeded_unimodular_matrices(n):
    rng = random.Random(n)
    for _ in range(5):
        A = _seeded_unimodular(rng, n)
        inv = intlat.cached_inverse(tuple(map(tuple, A)))
        assert _integral(inv)
        assert intlat.matmul(A, inv) == intlat.matmul(inv, A) == intlat.identity(n)
        # a row doubled (det +-2) has an inverse that is not integral, and a
        # row copied onto another (det 0) none
        bad = [[2 * x for x in A[0]]] + A[1:]
        assert not _integral(intlat.cached_inverse(tuple(map(tuple, bad))))
        if n > 1:
            assert intlat.cached_inverse(tuple(map(tuple, [A[1]] + A[1:]))) is None
        with pytest.raises(ValueError, match="not square"):
            intlat.cached_inverse(tuple(map(tuple, A[1:] if n > 1 else [[1, 0]])))


def test_matmul_skips_zero_factors_and_mixes_entry_types():
    A = [[2, 0], [Fraction(1, 3), IUNIT]]
    B = [[IUNIT, 0], [0, Fraction(3, 2)]]
    assert intlat.matmul(A, B) == [[IUNIT * 2, ZERO],
                                   [IUNIT * Fraction(1, 3), IUNIT * Fraction(3, 2)]]
    # results are not coerced: an entry without a nonzero term is the int 0
    # and integer products stay integers
    assert intlat.matmul([[0, 0]], B) == [[0, 0]]
    assert all(type(x) is int for x in intlat.matmul([[0, ZERO]], B)[0])
    assert intlat.matmul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        intlat.matmul(A, [[1, 2]])


# sparse entries of every kind matmul takes: zeros (int, Fraction, tower),
# ints, Fractions and tower elements with and without an alpha part
_mixed_entry = st.one_of(
    st.sampled_from([0, 0, Fraction(0), ZERO]),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 10 ** 5)),
    st.builds(cyclo, *[st.integers(-9, 9)] * 4),
    st.builds(lambda c, a, d: TowerElem([Fraction(v, d) for v in c],
                                        [Fraction(v, d) for v in a]),
              *[st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=4, max_size=4)] * 2,
              st.integers(1, 10 ** 5)),
)


def _mixed_pair():
    dims = st.integers(1, 4)
    return st.tuples(dims, dims, dims).flatmap(lambda s: st.tuples(
        *[st.lists(st.lists(_mixed_entry, min_size=c, max_size=c), min_size=r, max_size=r)
          for r, c in ((s[0], s[1]), (s[1], s[2]))]))


def _reference_matmul(A, B):
    """Triple loop: each entry sums its products of two nonzero factors,
    starting from the first; one with no such product is the int 0."""
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            terms = [a * B[k][j] for k, a in enumerate(row) if a and B[k][j]]
            out[-1].append(sum(terms[1:], terms[0]) if terms else 0)
    return out


@settings(max_examples=200, deadline=None)
@given(_mixed_pair())
def test_matmul_matches_the_triple_loop_in_value_and_type(AB):
    A, B = AB
    got, want = intlat.matmul(A, B), _reference_matmul(A, B)
    assert got == want
    for row, ref_row in zip(got, want):
        for x, ref in zip(row, ref_row):
            assert type(x) is type(ref)
            if isinstance(x, TowerElem):
                assert x.d > 0 and gcd(x.d, *x.n) == 1


def _nonzero_divisors(gens):
    return [d for d in intlat.snf_divisors(gens) if d]


def test_snf_divisors_see_lattice_membership():
    # the nonzero divisors depend only on the lattice the rows generate
    gens = [[2, 0], [0, 3]]
    assert _nonzero_divisors(gens) == [1, 6]
    assert _nonzero_divisors(gens + [[4, -3]]) == [1, 6]    # in the lattice
    assert _nonzero_divisors(gens + [[1, 0]]) == [1, 3]     # not in it


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_entry, min_size=3, max_size=3),
                min_size=2, max_size=3),
       st.lists(_entry, min_size=2, max_size=3))
def test_snf_divisors_ignore_an_appended_integer_combination(gens, coeffs):
    v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)]
    assert _nonzero_divisors(gens + [v]) == _nonzero_divisors(gens)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_entry, min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_snf_divisors_under_row_shuffle_sign_and_doubling(gens):
    flipped = [[-x for x in g] for g in reversed(gens)]
    assert intlat.snf_divisors(flipped) == intlat.snf_divisors(gens)
    doubled = [[2 * x for x in g] for g in gens]
    assert intlat.snf_divisors(doubled) == [
        2 * d for d in intlat.snf_divisors(gens)]


def test_permutation_matrix_and_alternating():
    P = intlat.permutation_matrix([1, 2, 0])
    assert intlat.matmul(P, [[1], [0], [0]]) == [[0], [1], [0]]
    assert intlat.is_alternating([[0, 2], [-2, 0]])
    assert not intlat.is_alternating([[0, 2], [2, 0]])
    assert not intlat.is_alternating([[1, 0], [0, 1]])


def test_standard_symplectic_shape():
    J = intlat.standard_symplectic(2)
    assert J == [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert intlat.is_alternating(J)


def _symplectic_block(divs):
    g = len(divs)
    E = [[0] * (2 * g) for _ in range(2 * g)]
    for i, d in enumerate(divs):
        E[i][g + i] = d
        E[g + i][i] = -d
    return E


def test_symplectic_basis_on_standard_form():
    J = intlat.standard_symplectic(3)
    S, divs = intlat.symplectic_basis(J)
    assert list(divs) == [1, 1, 1]
    assert intlat.matmul(intlat.transpose(S), intlat.matmul(J, S)) == J


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_entry, min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_symplectic_basis_normal_form(B):
    E = [[B[i][j] - B[j][i] for j in range(4)] for i in range(4)]
    if _det_laplace(E) == 0:
        with pytest.raises(intlat.DegenerateFormError):
            intlat.symplectic_basis(E)
        return
    S, divs = intlat.symplectic_basis(E)
    assert _is_unimodular(S)
    got = intlat.matmul(intlat.transpose(S), intlat.matmul(E, S))
    assert got == _symplectic_block(list(divs))
    assert all(d > 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0


def _seeded_alternating(rng, n, h):
    E = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            E[i][j] = rng.randint(-h, h)
            E[j][i] = -E[i][j]
    return E


def test_symplectic_basis_of_a_32x32_with_16_bit_entries_stays_small():
    rng = random.Random(149)
    E = _seeded_alternating(rng, 32, 2 ** 16 - 1)
    S, divs = intlat.symplectic_basis(E)
    assert intlat.matmul(intlat.transpose(S), intlat.matmul(E, S)) == \
        _symplectic_block(divs)
    assert [d for d in divs for _ in (0, 1)] == intlat.snf_divisors(E)
    # 1,743 bits; the least-pairing elimination with floor quotients
    # reached 49,848 against 269-bit divisors
    assert _bits(S) < 4096


def _seeded_symplectic_input(seed):
    """An n x n alternating form, 1 <= n <= 10, of entries up to 10^30:
    dense, or B^T C B with C alternating k x k, so often degenerate."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    h = 10 ** rng.choice((1, 3, 10, 30))
    if seed % 2:
        return _seeded_alternating(rng, n, h)
    k = rng.randint(1, n)
    C = _seeded_alternating(rng, k, h)
    B = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    return intlat.matmul(intlat.transpose(B), intlat.matmul(C, B))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("seed", range(40))
def test_symplectic_basis_matches_sympy_with_a_small_basis(seed):
    from sympy.matrices.normalforms import smith_normal_form
    E = _seeded_symplectic_input(seed)
    n = len(E)
    D = smith_normal_form(sympy.Matrix(E), domain=sympy.ZZ)
    smith = sorted((abs(int(D[i, i])) for i in range(n)),
                   key=lambda d: (d == 0, d))
    try:
        S, divs = intlat.symplectic_basis(E)
    except intlat.DegenerateFormError as exc:
        S = exc.radical
        assert len(S) == smith.count(0) and sympy.Matrix(S).rank() == len(S)
        assert intlat.matmul(E, intlat.transpose(S)) == [[0] * len(S)] * n
    else:
        assert [d for d in divs for _ in (0, 1)] == smith
        assert intlat.matmul(intlat.transpose(S), intlat.matmul(E, S)) == \
            _symplectic_block(divs)
        assert abs(sympy.Matrix(S).det()) == 1
    # within six times the Hadamard-style height n * bits of the input
    assert _bits(S) <= 6 * n * (_bits(E) + 1)


def test_symplectic_basis_reports_radical():
    E = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    with pytest.raises(intlat.DegenerateFormError) as err:
        intlat.symplectic_basis(E)
    (v,) = err.value.radical
    assert all(sum(E[i][j] * v[j] for j in range(3)) == 0 for i in range(3))


def test_mat_json_roundtrip():
    A = [[1, -2, 3], [0, 5, 7]]
    assert intlat.mat_from_json(intlat.mat_to_json(A)) == A
    obj = {"rows": 1, "cols": 2, "data": [[[1, 2], 4]]}
    assert intlat.mat_from_json(obj) == [[Fraction(1, 2), 4]]
    with pytest.raises(ValueError):
        intlat.mat_from_json({"rows": 2, "cols": 2, "data": [[1, 2]]})
    with pytest.raises(ValueError):
        intlat.mat_from_json({"rows": 1, "cols": 1, "data": [["x"]]})


# -- the Euclid moves, pinned ---------------------------------------------
# SHA-256 of each output on seeded inputs, written out by _hex_repr and
# recorded before the moves were carried on augmented rows: the same moves
# in the same order give the same transforms, bases and radicals byte for
# byte, so any change to which moves the eliminations make, or in what
# order, changes a digest.

def _seeded_pinned(m, n, bits, rank=None):
    """An m x n matrix with entries of up to `bits` bits, seeded by its
    shape; of rank at most `rank` when that is given (0: all zero)."""
    rng = random.Random(1000 * m + n + bits)
    h = 2 ** bits - 1
    if rank is None:
        return [[rng.randint(-h, h) for _ in range(n)] for _ in range(m)]
    B = [[rng.randint(-h, h) for _ in range(rank)] for _ in range(m)]
    C = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rank)]
    return [[sum(b[k] * C[k][j] for k in range(rank)) for j in range(n)]
            for b in B]


def _hex_repr(x):
    """x written out with its ints in hex, which has no digit limit."""
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(_hex_repr, x)) + "]"
    return hex(x) if type(x) is int else repr(x)


def _digest(obj):
    return hashlib.sha256(_hex_repr(obj).encode()).hexdigest()


# (rows, cols, entry bits, rank bound or None) -> SHA-256 of (U, D, V);
# rank bound 0 is the zero matrix, and 3 x 0 has empty rows
SNF_DIGESTS = {
    (1, 1, 8, None):
        'bce26184e2bedf6f101614dfd99e9902f3d31c689192873e83327ea0e10a1cf1',
    (2, 2, 8, None):
        '05e7c425ed6fe0a65ca35614cba75a18b4182379529bdd173fe9c7dafbabb057',
    (3, 3, 64, None):
        'fe14b5033e21c7e92f588d0a5896290775450282e82ea65f7607cb03b4d8bb4e',
    (4, 4, 16, None):
        'f2f9e4b72625e2b5e9bf7094947c7eb974afa26540e99bba2de8392be3f4142d',
    (5, 5, 4, None):
        '0d6fc1abea17b9ebcdcdf74763c75ed43323eac3c210e0e8f9e3ffe8bde96927',
    (8, 8, 64, None):
        '5f9b2bd2b9dd65d7d58db3c9540c03dc81c1bb6a40fea565ac813dc676871229',
    (12, 12, 32, None):
        'e3d68bbdb194485a7c70dc67a2a6f0939a78e10e94142791ff63a0785182cf95',
    (16, 16, 64, None):
        '0df7324c01ea32a6260667aa279c92f7095daa2040395fc38fa0a8fed546e53c',
    (24, 24, 16, None):
        '902256d52d9cffb69af75a7c0a50532a20a5d78bd52a561adf22cacca77066c8',
    (32, 32, 16, None):
        'ca43bb815ab719e38d23aabcaf927eb4b70a71ec1f884b224a23c8f726142740',
    (32, 32, 64, None):
        '7e341f0b2dbab2d2b791f2c3f7e6fb680d9c97e650a6dae66541e79ebb3441be',
    (3, 7, 16, None):
        '074adb5ca13a2b8a1defc1bcd7c9e1f7b835ee6a0b2ae33ddc47d7d7f385f61b',
    (7, 3, 16, None):
        'd19dbe4fd19102af5b6b8d7e4c219056913fc9dd1cbc56f439bdc61e05ed75cd',
    (1, 6, 64, None):
        '4bc28af4e8953f02e409ef00001767589754cc21dd2769f1f5cc5424eab20fb7',
    (6, 1, 64, None):
        '05d9acfba216a78a4a522df794c0462265be4776b2dedbcdf6c0c55b4fd679c5',
    (12, 20, 32, None):
        '518cb82d232d0d5f090b1c2e48ef38232dc8d54bfa8a0b04cce57d763a3e0de4',
    (20, 12, 32, None):
        '4f4ebdf02a7ad30a8580e0d79a007595b74ccd73ef5b72ccc1071a22e4000867',
    (8, 8, 16, 5):
        '62897f4a614dc9a2a714cbc10f47915e387bd5c221a5d0636fb1d1461bda12f4',
    (10, 6, 16, 3):
        '90dd785403a3497021f4a10d9d52e0e3b02cbf69ffb3d0abfb845b861a0a0a3b',
    (6, 10, 16, 2):
        '746bbb46a76337f83bfdf13c77260b5bbf4401f3160e4dc441ee0e94747756d9',
    (16, 16, 32, 15):
        'deea5198f57e0ecab5819ff8a5fc1fcceb252828c5ad0bab28dead609beeead4',
    (1, 1, 8, 0):
        '35ab2193a089fee8a0a950876be3f06d2b5d67b633d0ab536ea4f2b34eeb3d23',
    (4, 6, 8, 0):
        '6516ca4f28a5bb660df5dd928fd42ceddc70ef321fde98a4e6e0debd85fd93cb',
    (6, 4, 8, 0):
        '7d54d11d68551ec5ca888cddd6ffa0837b6103761385da5e39bc128a5d3e987e',
    (3, 0, 8, None):
        'c06893fdcd13a03bd4da22b2155ce324e572a414d401d91276d45dc791e66746',
}


@pytest.mark.parametrize("case", SNF_DIGESTS, ids=str)
def test_smith_normal_form_makes_the_pinned_moves(case):
    U, D, V = intlat.smith_normal_form(_seeded_pinned(*case))
    assert _digest((U, D, V)) == SNF_DIGESTS[case]


def _seeded_pinned_form(n, bits, rank=None):
    """An n x n alternating form with entries of up to `bits` bits, seeded
    by its size; B C B^T, of rank at most `rank`, when that is given."""
    rng = random.Random(1000 * n + bits)
    if rank is None:
        return _seeded_alternating(rng, n, 2 ** bits - 1)
    C = _seeded_alternating(rng, rank, 2 ** bits - 1)
    B = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(n)]
    BC = [[sum(map(mul, b, c)) for c in zip(*C)] for b in B]
    return [[sum(map(mul, x, y)) for y in B] for x in BC]


# (size, entry bits, rank bound of the inner form or None) -> SHA-256 of
# ("basis", S, divisors) or of ("radical", radical)
SYMPLECTIC_DIGESTS = {
    (2, 8, None):
        '605ed7eac3736fc982808f837f2069b87bf8519e27364078663d6860f59164f6',
    (4, 64, None):
        '4f06dd6fa9d7f618ecfa2fb7ba9def24ffcea42b5470d4cbc6233eaf2e787625',
    (6, 4, None):
        '94916edeea46b657b58c66134019cfe58befcea27bbd1f7f8b0e3a7391372e40',
    (8, 16, None):
        'e15b1e24433b49237f1c7b3cf7813438bc9de722b3f13e918b96f01a45df7aaf',
    (10, 64, None):
        '3f5eb09e153f162d08d5a86ddc82ed019d0eda690b1774c667313a54a41d72b7',
    (16, 16, None):
        'd84ff2b4d424039b88d9100456a920e5511336b7569075c6f38d5eeda774f7af',
    (16, 64, None):
        '330df76ee70b7d2dc6801f64971a75412fce3b837f7da1cfd74852a239a83f82',
    (24, 8, None):
        '2416eeac011aace5322f4ddc548f3cce0e63ffb4c772d4cd579633ff4c153030',
    (32, 4, None):
        '08e5be9110114345771e1e3b425fbef2ea8ed36a03f15ace4f9b7265e9998c5a',
    (32, 16, None):
        '8cc48c348c505559cdcdbd11240d2db7b460359cd617e063f7920f8091d351f8',
    (32, 64, None):
        'd0d4e4e5aa1b9711b02b9065843f35ea618582c315a710b70706358939cee313',
    (1, 8, None):
        'c7db6f8f9478c5c24fbf4f307970b0555b46363309b2c01b4d9d36e042ed0c12',
    (5, 16, None):
        '1f8481016d93cec3514b52f0df64f4f6d95b6ea0b0f9fdc23da05ea8066a9aa4',
    (7, 4, None):
        '035fc903298d48bc758041cc8c6284ccb87649f4131c79c734dc0dce57bc2e57',
    (8, 16, 4):
        '9a765c8f68292cbdbd6c96c046c2643d4d7b7e1d5401db015dc8d79d27c60196',
    (12, 32, 6):
        'f539493d423969f79292966e253583b3309d23b61e0f6b032b2df67af231beb1',
    (9, 8, 3):
        '65f0dc977120d0e0aae3a47a2f48b32c2db8cb8e8320237e74a560c838675f8e',
    (32, 16, 30):
        '51065cdaeb3fac94d2fbe8765b8dcde27c797061b14573210f290e8bb15849f9',
    (4, 8, 0):
        'b40a61734b2f654af7339198d451bffcd55962340492596f61ef1f90d21ee081',
    (6, 64, 5):
        '6023dc0530d51641534526b41c0ad410b525113821feae7b586f98392d80c756',
}


@pytest.mark.parametrize("case", SYMPLECTIC_DIGESTS, ids=str)
def test_symplectic_basis_makes_the_pinned_moves(case):
    try:
        out = ("basis", *intlat.symplectic_basis(_seeded_pinned_form(*case)))
    except intlat.DegenerateFormError as exc:
        out = ("radical", exc.radical)
    assert _digest(out) == SYMPLECTIC_DIGESTS[case]
