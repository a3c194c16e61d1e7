"""Integer lattice routines checked against small classical oracles."""

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
    assert intlat.unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    for A in ([[2, 0], [0, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):
            intlat.unimodular_inverse(A)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_unimodular_inverse_inverts_seeded_unimodular_matrices(n):
    rng = random.Random(n)
    for _ in range(5):
        A = _seeded_unimodular(rng, n)
        inv = intlat.unimodular_inverse(A)
        assert all(type(x) is int for row in inv for x in row)
        assert intlat.matmul(A, inv) == intlat.matmul(inv, A) == intlat.identity(n)
        # a row doubled (det +-2) or copied onto another (det 0) is refused
        bad = [[2 * x for x in A[0]]] + A[1:]
        with pytest.raises(ValueError, match="not unimodular"):
            intlat.unimodular_inverse(bad)
        if n > 1:
            with pytest.raises(ValueError, match="not unimodular"):
                intlat.unimodular_inverse([A[1]] + A[1:])
        with pytest.raises(ValueError, match="not square"):
            intlat.unimodular_inverse(A[1:] if n > 1 else [[1, 0]])


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
