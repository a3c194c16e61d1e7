"""The rank-3 module over Z[rho], its skew form, and the two-ball family."""

import math
import random
import traceback
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloperiods import intlat, pel, periods, stcurve, suite
from cycloperiods.exactfield import (
    IUNIT, ONE, RHO, ROOT4_3, SQRT3, ZERO, TowerElem, cyclo, real_sign,
)


def _module():
    return pel.build_module(stcurve.PRYM_SHIFT, list(stcurve.MODULE_GENS),
                            stcurve.PRYM_POLARIZATION)


def _target(module):
    sp = stcurve.PRYM_SPECIAL
    basis = module.basis
    return [[sum((sp[i][k] * basis[k][j] for k in range(6)), ZERO)
             for j in range(6)] for i in range(3)]


def _resolved():
    module = _module()
    conv, match, _ = pel.resolve_conventions(stcurve.FAMILY_W, module,
                                             _target(module))
    return module, conv, match


def test_module_generator_grams():
    module = _module()
    assert module.g0 == stcurve.REF_PAIRING_GRAM
    assert module.g1 == stcurve.REF_SHIFT_GRAM


def test_module_rejects_wrong_action():
    with pytest.raises(pel.ModuleError):
        pel.build_module(intlat.identity(6), list(stcurve.MODULE_GENS),
                         stcurve.PRYM_POLARIZATION)


def test_module_rejects_unpreserved_pairing():
    with pytest.raises(pel.ModuleError):
        pel.build_module(stcurve.PRYM_SHIFT, list(stcurve.MODULE_GENS),
                         intlat.standard_symplectic(3))


def test_module_rejects_non_basis_generators():
    gens = [[2 * x for x in g] for g in stcurve.MODULE_GENS]
    with pytest.raises(pel.ModuleError) as err:
        pel.build_module(stcurve.PRYM_SHIFT, gens,
                         stcurve.PRYM_POLARIZATION)
    assert "snf_divisors" in (err.value.evidence or {})


@pytest.mark.parametrize("k", range(len(stcurve.MODULE_GENS)))
def test_module_rejects_one_doubled_generator(k):
    # the columns (gens, action*gens) then span a sublattice of index 4
    gens = [[2 * x for x in g] if j == k else list(g)
            for j, g in enumerate(stcurve.MODULE_GENS)]
    with pytest.raises(pel.ModuleError) as err:
        pel.build_module(stcurve.PRYM_SHIFT, gens, stcurve.PRYM_POLARIZATION)
    divs = err.value.evidence["snf_divisors"]
    assert divs != [1] * 6 and math.prod(divs) == 4


def test_solve_T_reproduces_frozen_form():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    assert all((T[i][j] - stcurve.REF_SKEW_T[i][j]).is_zero()
               for i in range(3) for j in range(3))


def _random_skew_hermitian(rng):
    """T with entries p + q rho, q = 2p on the diagonal, and their (p, q)."""
    T = [[None] * 3 for _ in range(3)]
    pq = [[None] * 3 for _ in range(3)]
    for i in range(3):
        p = Fraction(rng.randint(-9, 9))
        T[i][i] = TowerElem.coerce(p) + RHO * (2 * p)
        pq[i][i] = (p, 2 * p)
        for j in range(i + 1, 3):
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            T[i][j] = TowerElem.coerce(p) + RHO * q
            T[j][i] = -T[i][j].conjugate()
            # -conj(p + q rho) = (q - p) + q rho, as conj(rho) = -1 - rho
            pq[i][j] = (Fraction(p), Fraction(q))
            pq[j][i] = (Fraction(q - p), Fraction(q))
    return T, pq


def test_solve_T_roundtrip_on_random_forms():
    rng = random.Random(20240817)
    for _ in range(200):
        T, pq = _random_skew_hermitian(rng)
        g0, g1 = [], []
        for i in range(3):
            r0, r1 = [], []
            for j in range(3):
                p, q = pq[i][j]
                r0.append(2 * p - q)   # tr(x)
                r1.append(-p - q)      # tr(rho x)
            g0.append(r0)
            g1.append(r1)
        back = pel.solve_T(g0, g1)
        assert all((back[i][j] - T[i][j]).is_zero()
                   for i in range(3) for j in range(3))


def test_solve_T_rejects_non_skew_data():
    with pytest.raises(ValueError):
        pel.solve_T(intlat.identity(3), intlat.identity(3))


def test_signature():
    assert pel.signature(stcurve.REF_SKEW_T) == (2, 1)
    D = [[ONE * SQRT3 * cyclo(0, 0, 0, 1) if i == j else ZERO
          for j in range(3)] for i in range(3)]
    # i*sqrt3 on the diagonal gives -i T = sqrt3 * identity, definite
    assert pel.signature(D) == (3, 0)


def test_trace_pairings_are_the_lattice_pairing():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    ok, offenders = pel.integrality_check(module, T)
    assert ok and offenders == []
    tp = pel.trace_pairing(T)
    assert tp == [[Fraction(x) for x in row] for row in module.g0full]


def test_ldl_on_a_random_hermitian_matrix():
    rng = random.Random(77)
    raw = [[TowerElem.coerce(rng.randint(-4, 4)) + RHO * rng.randint(-4, 4)
            for _ in range(3)] for _ in range(3)]
    G = [[raw[i][j] + raw[j][i].conjugate() for j in range(3)]
         for i in range(3)]
    D, S = pel.ldl_hermitian(G)
    n = len(G)
    SG = [[sum((S[i][k] * G[k][j] for k in range(n)), ZERO)
           for j in range(n)] for i in range(n)]
    SGS = [[sum((SG[i][k] * S[j][k].conjugate() for k in range(n)), ZERO)
            for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            want = D[i][j] if i == j else ZERO
            assert (SGS[i][j] - want).is_zero()
            if i != j:
                assert D[i][j].is_zero()


def test_tower_sqrt():
    three = TowerElem.coerce(3)
    r = pel.tower_sqrt(three)
    assert r is not None and r * r == three
    r = pel.tower_sqrt(SQRT3)
    assert r is not None and r * r == SQRT3
    for x in (TowerElem.coerce(2), TowerElem.coerce(-1), ONE + SQRT3,
              SQRT3 * 2):
        assert pel.tower_sqrt(x) is None


# rationals with numerator and denominator of up to 64 bits
_rat64 = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64),
                   st.integers(1, 2 ** 64))
_sqrt3_elems = st.builds(lambda s, t: TowerElem.coerce(s)
                         + TowerElem.coerce(t) * SQRT3, _rat64, _rat64)


@settings(max_examples=300, deadline=None)
@given(_sqrt3_elems, st.booleans())
def test_tower_sqrt_finds_every_root(y, times_alpha):
    # y in Q(sqrt3) or in alpha*Q(sqrt3); either way y^2 is in Q(sqrt3)
    if times_alpha:
        y = y * ROOT4_3
    r = pel.tower_sqrt(y * y)
    assert r == y or r == -y


@settings(max_examples=300, deadline=None)
@given(_sqrt3_elems)
def test_tower_sqrt_roots_square_back(x):
    r = pel.tower_sqrt(x)
    assert r is None or r * r == x


def test_ldl_hermitian_needs_a_pivot_on_the_diagonal():
    G = [[ZERO, ONE], [ONE, ZERO]]
    with pytest.raises(ValueError, match="left entries"):
        pel.ldl_hermitian(G)


def _congruent(S, G):
    """S G S^dagger."""
    Sd = periods.tower_conj(intlat.transpose(S))
    return intlat.matmul(S, intlat.matmul(G, Sd))


def test_ldl_hermitian_swaps_in_a_diagonal_pivot():
    # G[0][0] = 0, so row and column 0 trade places with 1 first; then
    # row 1 -= row 0 and column 1 -= column 0
    G = [[TowerElem.coerce(x) for x in row]
         for row in ([0, 1, 0], [1, 1, 0], [0, 0, 1])]
    D, S = pel.ldl_hermitian(G)
    assert D == [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert S == [[0, 1, 0], [1, -1, 0], [0, 0, 1]]
    assert _congruent(S, G) == D


_small_rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_small_elems = st.builds(
    lambda a, b, c, d: (TowerElem.coerce(a) + RHO * b + ROOT4_3 * c
                        + IUNIT * d),
    _small_rat, _small_rat, _small_rat, _small_rat)


@st.composite
def _hermitian_with_zero_diagonal(draw):
    """A 2x2 to 4x4 Hermitian tower matrix with at least one zero on its
    diagonal."""
    n = draw(st.integers(2, 4))
    raw = [[draw(_small_elems) for _ in range(n)] for _ in range(n)]
    G = [[raw[i][j] + raw[j][i].conjugate() for j in range(n)]
         for i in range(n)]
    zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    for i in range(n):
        if zeros[i]:
            G[i][i] = ZERO
    return G


def _must_refuse(G):
    """Whether ldl_hermitian must refuse G, decided by minors of G alone.

    After pivots on the rows P, the working matrix at rows a, b outside P
    is det G[P+a, P+b] / det G[P, P].  The reduction takes the first
    working diagonal entry that is nonzero, and refuses when none is
    left but an entry off the diagonal is.
    """
    n = len(G)

    def minor(rows, cols):
        *_, det = periods.leading_minors([[G[i][j] for j in cols] for i in rows])
        return det

    order, P = list(range(n)), []
    for k in range(n):
        r = next((r for r in range(k, n)
                  if minor(P + [order[r]], P + [order[r]])), None)
        if r is None:
            rest = order[k:]
            return any(minor(P + [a], P + [b])
                       for a in rest for b in rest if a != b)
        order[k], order[r] = order[r], order[k]
        P.append(order[k])
    return False


@settings(max_examples=60, deadline=None)
@given(_hermitian_with_zero_diagonal())
def test_ldl_hermitian_against_the_leading_minors(G):
    if _must_refuse(G):
        with pytest.raises(ValueError, match="left entries"):
            pel.ldl_hermitian(G)
        return
    D, S = pel.ldl_hermitian(G)
    n = len(G)
    assert list(periods.leading_minors(S))[-1] != 0
    assert _congruent(S, G) == D
    # with no swap S is unit lower triangular, so S keeps every leading
    # minor and the first k pivots multiply to the k-th one
    if all(S[i][i] == 1 and not any(S[i][i + 1:]) for i in range(n)):
        product = ONE
        for k in range(n):
            product = product * D[k][k]
            *_, det = periods.leading_minors([row[:k + 1] for row in G[:k + 1]])
            assert product == det


def test_signature_of_a_form_with_a_zero_block_is_degenerate():
    # -iT = diag(1, 0, 0): the reduction stops at the zero block
    T = [[IUNIT if i == j == 0 else ZERO for j in range(3)] for i in range(3)]
    D, _ = pel.ldl_hermitian([[x * -IUNIT for x in row] for row in T])
    assert [D[i][i] for i in range(3)] == [ONE, ZERO, ZERO]
    with pytest.raises(ValueError, match="degenerate"):
        pel.signature(T)
    with pytest.raises(ValueError, match="degenerate"):
        pel.signature([[ZERO] * 3 for _ in range(3)])


def test_diagonalize_W_is_exact_here():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    W = pel.diagonalize_W(T)
    res = pel.defw_residual(W, T)
    assert all(x.is_zero() for row in res for x in row)


def test_diagonalize_W_needs_pivot_roots_in_the_tower():
    # -iT = diag(2, 2, -2), and sqrt(2) is not in Q(zeta12)(3^(1/4))
    two_i = cyclo(0, 0, 0, 2)
    T = [[two_i, ZERO, ZERO], [ZERO, two_i, ZERO], [ZERO, ZERO, -two_i]]
    with pytest.raises(ValueError, match="pivot 0"):
        pel.diagonalize_W(T)


def test_signature_and_diagonalizer_share_the_pivot_signs():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    pivots, signs, _ = pel.pivot_signs(T)
    assert signs == [real_sign(p) for p in pivots]
    assert (signs.count(1), signs.count(-1)) == pel.signature(T) == (2, 1)


def test_family_W_satisfies_the_defining_identity():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    res = pel.defw_residual(stcurve.FAMILY_W, T)
    assert all(x.is_zero() for row in res for x in row)


def test_standalone_display_W_fails_the_identity():
    module = _module()
    T = pel.solve_T(module.g0, module.g1)
    res = pel.defw_residual(stcurve.REF_STANDALONE_W, T)
    bad = [(i, j) for i in range(3) for j in range(3)
           if not res[i][j].is_zero()]
    assert bad == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_convention_resolution_is_unique():
    module = _module()
    conv, _, family = pel.resolve_conventions(stcurve.FAMILY_W, module,
                                              _target(module))
    assert conv == {"embedding": "sigma", "I2_in_Jz": "identity",
                    "column_order": "grouped"}
    # the winner's family is the one family_periods builds for it
    assert family.coeffs == pel.family_periods(stcurve.FAMILY_W, module,
                                               conv).coeffs


def test_convention_search_tries_the_four_grouped_readings(monkeypatch):
    solve, tried = pel.match_solver, []
    monkeypatch.setattr(pel, "match_solver",
                        lambda *args: tried.append(args) or solve(*args))
    module = _module()
    pel.resolve_conventions(stcurve.FAMILY_W, module, _target(module))
    assert len(tried) == 4


def _family_coeffs_by_rows(W, reading):
    """The (constant, z1, z2) matrices of family_periods written row by row
    from its docstring, each entry formed on its own."""
    mults = pel.row_multipliers(reading)
    d = ONE if reading["I2_in_Jz"] == "identity" else IUNIT
    Wc = [[x.conjugate() for x in row] for row in W]
    zero = [ZERO] * 3
    mats = ([W[2], [d * x for x in Wc[0]], [d * x for x in Wc[1]]],
            [W[0], Wc[2], zero], [W[1], zero, Wc[2]])
    return tuple(tuple(tuple(row) + tuple(x * m for x in row)
                       for row, m in zip(C, mults)) for C in mats)


def test_each_searched_family_is_the_one_built_alone(monkeypatch):
    # the search shares each embedding's multiplied rows between its two
    # I2 readings; every family it tries is still the one family_periods
    # builds for that reading alone
    build, built = pel.family_periods, []

    def recording(W, module, reading, *rows):
        built.append((dict(reading), build(W, module, reading, *rows)))
        return built[-1][1]

    monkeypatch.setattr(pel, "family_periods", recording)
    module = _module()
    pel.resolve_conventions(stcurve.FAMILY_W, module, _target(module))
    monkeypatch.undo()
    assert [(r["embedding"], r["I2_in_Jz"]) for r, _ in built] == [
        (e, i2) for e in ("sigma", "sigmabar") for i2 in ("identity", "i-identity")]
    for reading, family in built:
        alone = pel.family_periods(stcurve.FAMILY_W, module, reading)
        assert (family.params, family.coeffs, family.polarization) == (
            alone.params, alone.coeffs, alone.polarization)
        assert family.coeffs == _family_coeffs_by_rows(stcurve.FAMILY_W, reading)


# rho on the module basis (u1, u2, u3, rho u1, rho u2, rho u3), acting on
# the right: the R_rho of the module-endo check
_R_RHO = [[0, 0, 0, -1, 0, 0], [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, -1],
          [1, 0, 0, -1, 0, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]]


@pytest.mark.parametrize("embedding", ["sigma", "sigmabar"])
@pytest.mark.parametrize("i2", ["identity", "i-identity"])
def test_every_grouped_reading_carries_its_row_multipliers(embedding, i2):
    reading = {"embedding": embedding, "I2_in_Jz": i2,
               "column_order": "grouped"}
    mults = pel.row_multipliers(reading)
    rho, rho_bar = RHO, RHO.conjugate()
    assert mults == ((rho, rho_bar, rho_bar) if embedding == "sigma"
                     else (rho_bar, rho, rho))
    family = pel.family_periods(stcurve.FAMILY_W, _module(), reading)
    for C in family.coeffs:
        for row, m in zip(C, mults):
            assert list(row[3:]) == [x * m for x in row[:3]]
    A = [[m if i == j else ZERO for j in range(3)] for i, m in enumerate(mults)]
    assert periods.intertwines(family, A, _R_RHO)


def _random_tower(rng):
    return (cyclo(*(rng.randint(-5, 5) for _ in range(4)))
            + cyclo(*(rng.randint(-5, 5) for _ in range(4))) * ROOT4_3)


@pytest.mark.parametrize("embedding", ["sigma", "sigmabar"])
@pytest.mark.parametrize("i2", ["identity", "i-identity"])
def test_the_interleaved_row1_system_is_always_singular(embedding, i2):
    # why the search tries no interleaved reading: in the order (u1, rho u1,
    # u2, ...) row 1's first three columns are u1, rho u1 and u2, and each
    # coefficient matrix's rho u1 entry is its u1 entry times a multiplier
    reading = {"embedding": embedding, "I2_in_Jz": i2,
               "column_order": "grouped"}
    module, rng = _module(), random.Random(24)
    for _ in range(20):
        W = [[_random_tower(rng) for _ in range(3)] for _ in range(3)]
        P0, P1, P2 = pel.family_periods(W, module, reading).coeffs
        grouped = [C[0][:3] for C in (P1, P2, P0)]
        interleaved = [[C[0][k] for k in (0, 3, 1)] for C in (P1, P2, P0)]
        assert intlat.inverse(grouped) is not None
        assert intlat.inverse(interleaved) is None


def test_convention_resolution_fails_on_garbage_target():
    module = _module()
    target = _target(module)
    target[0][0] = target[0][0] + ONE
    with pytest.raises(pel.ConventionError) as err:
        pel.resolve_conventions(stcurve.FAMILY_W, module, target)
    assert err.value.candidates == []


def test_match_point_and_coefficients():
    _, _, match = _resolved()
    assert (match.z1 - stcurve.MATCH_POINT["z1"]).is_zero()
    assert (match.z2 - stcurve.MATCH_POINT["z2"]).is_zero()
    for key, want in stcurve.MATCH_COEFFS.items():
        assert (match.coeffs[key] - want).is_zero()


def test_match_point_is_inside_the_unit_ball():
    _, _, match = _resolved()
    norm, inside = pel.ball_norm(match.z1, match.z2)
    assert inside
    assert real_sign(ONE - norm) == 1
    # certified value is strictly between 0.84 and 0.85
    assert real_sign(norm - Fraction(84, 100)) == 1
    assert real_sign(Fraction(85, 100) - norm) == 1


def test_match_solver_rejects_inconsistent_targets():
    module, conv, _ = _resolved()
    family = pel.family_periods(stcurve.FAMILY_W, module, conv)
    target = _target(module)
    target[2][3] = target[2][3] + ONE
    with pytest.raises(pel.MatchError):
        pel.match_solver(family, target)


def test_match_solver_keys_its_shared_solves_on_the_target():
    module, conv, _ = _resolved()
    family = pel.family_periods(stcurve.FAMILY_W, module, conv)
    target = _target(module)
    doubled = [[x * 2 for x in row] for row in target]      # 2C, the same z*
    swapped = [target[0], target[2], target[1]]             # C's rows 2, 3 swapped
    slipped = [row[:] for row in target]
    slipped[2][3] = slipped[2][3] + ONE
    fresh = {}
    for name, other in (("doubled", doubled), ("swapped", swapped)):
        pel._row1_solve.cache_clear()
        fresh[name] = pel.match_solver(family, other)
    pel._row1_solve.cache_clear()
    first = pel.match_solver(family, target)
    for name, other in (("doubled", doubled), ("swapped", swapped)):
        got = pel.match_solver(family, other)
        assert got.point() == fresh[name].point() == first.point()
        assert got.coeffs == fresh[name].coeffs != first.coeffs
    assert pel.match_solver(family, doubled).coeffs["c11"] == first.coeffs["c11"] * 2
    assert pel.match_solver(family, swapped).coeffs["c22"] == first.coeffs["c32"]
    with pytest.raises(pel.MatchError):
        pel.match_solver(family, slipped)
    assert pel.match_solver(family, target).coeffs == first.coeffs
    # one solve per distinct target row 1: swapped and slipped share the
    # target's, and the doubled one is solved once for its two calls
    info = pel._row1_solve.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 5, 2)


def test_match_solver_raises_a_shared_row1_error_afresh():
    module, conv, _ = _resolved()
    family = pel.family_periods(stcurve.FAMILY_W, module, conv)
    zeroed = [[ZERO] * 6] + _target(module)[1:]     # row 1 forces c11 = 0
    pel._row1_solve.cache_clear()
    depths = []
    for _ in range(3):
        with pytest.raises(pel.MatchError, match="forces c11 = 0") as err:
            pel.match_solver(family, zeroed)
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    # the cache holds solutions only: each failing solve runs and raises afresh
    info = pel._row1_solve.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 0, 0)
    assert depths[0] == depths[2]


def test_prym_family_passes_through_the_special_fiber():
    module, conv, match = _resolved()
    family = pel.family_periods(stcurve.FAMILY_W, module, conv)
    fam = pel.prym_family(match, family, module)
    assert fam.g == 3
    assert fam.polarization == tuple(map(tuple, stcurve.PRYM_POLARIZATION))
    at_star = fam.evaluate(match.point())
    sp = stcurve.PRYM_SPECIAL
    assert all((at_star[i][j] - sp[i][j]).is_zero()
               for i in range(3) for j in range(6))


def test_special_fiber_fails_when_the_family_misses_the_special_matrix(
        monkeypatch):
    exact = pel.prym_family

    def shifted(match, family, module):
        # 1 more in the constant of entry (0, 0): the family no longer
        # passes through PRYM_SPECIAL at z*
        pm = exact(match, family, module)
        coeffs = [[list(row) for row in C] for C in pm.coeffs]
        coeffs[0][0][0] = coeffs[0][0][0] + ONE
        return periods.PeriodMatrix(pm.g, pm.params, coeffs, pm.polarization)

    monkeypatch.setattr(pel, "prym_family", shifted)
    (check,) = suite.run_all(only="special-fiber").checks
    assert check.verdict == "fail"
    assert check.evidence["prym_fiber_exact"] is False


def test_form_diagonal_fails_cleanly_on_a_wrong_root(monkeypatch):
    exact = pel.tower_sqrt
    monkeypatch.setattr(pel, "tower_sqrt", lambda x: exact(x) * 2)
    (check,) = suite.run_all(only="form-diagonal").checks
    assert check.verdict == "fail"
    assert check.anchor == "W^* D W reproduces T (residual 0 or < 2^-100)"
    assert check.evidence == {"exact": True, "residual_bound": "nonzero"}


def test_family_satisfies_riemann_symbolically():
    module, conv, match = _resolved()
    family = pel.family_periods(stcurve.FAMILY_W, module, conv)
    assert periods.first_relation_holds(family)
    fam = pel.prym_family(match, family, module)
    assert periods.first_relation_holds(fam)
