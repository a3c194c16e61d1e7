"""Parametrized period matrices: relations, positivity, splitting, symmetry."""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:         # sympy is a test-only dependency
    sympy = None

from cycloperiods import intlat, periods, stcurve, suite
from cycloperiods.exactfield import (
    HALF, IUNIT, ONE, ZERO, TowerElem, cyclo, embed, real_sign, zeta_power,
)
from cycloperiods.periods import PeriodMatrix

_I = cyclo(0, 0, 0, 1)
_needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def test_genus4_matrix_shape():
    pm = stcurve.GENUS4
    assert pm.g == 4 and pm.params == ("tau",)
    assert pm.polarization == tuple(map(tuple, intlat.standard_symplectic(4)))
    # the first row is affine in tau, the rest is constant
    assert all(not x for row in pm.coeffs[1][1:] for x in row)
    assert (pm.coeffs[0][0][0], pm.coeffs[1][0][0]) == (ZERO, ONE)


def test_period_matrix_validation():
    row = [[ZERO, ONE]]
    with pytest.raises(ValueError):     # one row, and g = 2 needs two
        PeriodMatrix(2, ("tau",), [[[ZERO] * 4], [[ONE] * 4]],
                     intlat.standard_symplectic(2))
    with pytest.raises(ValueError):     # a coefficient matrix of no parameter
        PeriodMatrix(1, (), [row, row], intlat.standard_symplectic(1))


def test_period_matrix_json_roundtrip():
    pm = stcurve.GENUS4
    blob = json.dumps(pm.to_json())
    back = PeriodMatrix.from_json(json.loads(blob))
    assert back.g == pm.g and back.params == pm.params
    assert back.polarization == pm.polarization
    assert back.coeffs == pm.coeffs
    assert back.to_json() == pm.to_json()
    with pytest.raises(ValueError):
        PeriodMatrix.from_json({"g": 2})


def test_from_json_bounds_the_matrix_before_inverting_the_polarization():
    obj = stcurve.GENUS4.to_json()
    seen = []
    assert PeriodMatrix.from_json(obj, seen.append).to_json() == obj
    assert [pm.g for pm in seen] == [4]

    def refuse(pm):
        raise LookupError(pm.polarization[0])
    obj["polarization"]["data"] = [[0] * 8 for _ in range(8)]
    with pytest.raises(ValueError, match="degenerate"):
        PeriodMatrix.from_json(obj)
    # the bound sees the degenerate polarization before the inverse does
    with pytest.raises(LookupError):
        PeriodMatrix.from_json(obj, refuse)


def test_period_matrix_json_entries():
    # (1 - tau + i s | s): each entry lists "const", then its nonzero
    # coefficients in sorted order, and reads back to the same matrix
    pm = PeriodMatrix(1, ("tau", "s"), [[[ONE, ZERO]], [[-ONE, ZERO]], [[IUNIT, ONE]]],
                      intlat.standard_symplectic(1))
    obj = pm.to_json()
    assert obj["entries"] == [[
        {"const": ONE.to_json(), "s": IUNIT.to_json(), "tau": (-ONE).to_json()},
        {"const": ZERO.to_json(), "s": ONE.to_json()}]]
    assert list(obj["entries"][0][0]) == ["const", "s", "tau"]
    back = PeriodMatrix.from_json(json.loads(json.dumps(obj)))
    assert back.params == ("tau", "s") and back.coeffs == pm.coeffs


def test_first_relation_holds_symbolically():
    assert periods.first_relation_holds(stcurve.GENUS4)
    assert periods.first_relation_holds(stcurve.PRYM_SPECIAL_MATRIX)


def test_first_relation_detects_perturbation():
    assert not periods.first_relation_holds(_perturbed(stcurve.GENUS4, 0, 0, 2))


@pytest.fixture(scope="module")
def genus4_family():
    return suite.SuiteContext(128).genus4_family


def _perturbed(pm, k, i, j):
    """pm with 1 added to entry (i, j) of its k-th coefficient matrix."""
    coeffs = [[list(row) for row in C] for C in pm.coeffs]
    coeffs[k][i][j] = coeffs[k][i][j] + ONE
    return PeriodMatrix(pm.g, pm.params, coeffs, pm.polarization)


def _order3_deck_pair():
    # the square of module-endo's deck pair: the order-3 part of the deck
    # map, which lives on the whole family and not only on the Jacobian locus
    A = [[zeta_power(2 * e) if i == j else ZERO for j in range(4)]
         for i, e in enumerate(stcurve.FORM_WEIGHT_EXPONENTS)]
    R = stcurve.DECK_SYMPLECTIC_ACTION
    return A, intlat.matmul(R, R)


@pytest.mark.parametrize("entry, monomials", [
    # row 1 has no tau part: each perturbation shows only against the constant
    ((1, 2), [[()], [("tau",)], [("z1",)], [("z2",)]]),
    # row 0 carries tau, so the cross terms t_a t_b with a, b > 0 show too
    ((0, 0), [[(), ("z1",), ("z2",)],
              [("tau",), ("tau", "z1"), ("tau", "z2")],
              [("z1",), ("z1", "z1"), ("z1", "z2")],
              [("z1", "z2"), ("z2",), ("z2", "z2")]]),
])
def test_first_relation_and_intertwining_detect_each_coefficient(
        genus4_family, entry, monomials):
    pm = genus4_family
    assert pm.params == ("tau", "z1", "z2")
    A, R = _order3_deck_pair()
    assert periods.riemann_first_relation(pm) == {}
    assert periods.intertwines(pm, A, R)
    for k, want in enumerate(monomials):    # constant, tau, z1, z2
        broken = _perturbed(pm, k, *entry)
        assert not periods.first_relation_holds(broken)
        assert sorted(periods.riemann_first_relation(broken)) == want
        assert not periods.intertwines(broken, A, R)


def _dense_first_relation(pm):
    """The nonzero coefficients of P E^-1 P^T by plain sums: P_a E^-1 P_a^T,
    and P_a E^-1 P_b^T + P_b E^-1 P_a^T for a < b."""
    Einv = intlat.inverse(pm.polarization)
    n = 2 * pm.g

    def M(a, b):
        A, B = pm.coeffs[a], pm.coeffs[b]
        return [[sum((A[i][k] * Einv[k][l] * B[j][l] for k in range(n)
                      for l in range(n) if Einv[k][l]), ZERO)
                 for j in range(pm.g)] for i in range(pm.g)]

    names = [()] + [(p,) for p in pm.params]
    out = {}
    for a in range(len(names)):
        for b in range(a, len(names)):
            C = M(a, a) if a == b else [[x + y for x, y in zip(r, s)]
                                        for r, s in zip(M(a, b), M(b, a))]
            if any(x for row in C for x in row):
                out[tuple(sorted(names[a] + names[b]))] = C
    return out


def _seeded_elem(rng, top=4):
    """A tower element with seeded small rational coordinates, many 0."""
    q = [Fraction(rng.randint(-top, top), rng.randint(1, top)) if rng.random() < 0.6
         else Fraction(0) for _ in range(8)]
    return TowerElem(q[:4], q[4:])


def test_first_relation_matches_the_dense_sums_on_the_suite_matrices():
    ctx = suite.SuiteContext(128)
    for pm in (stcurve.GENUS4, stcurve.PRYM_SPECIAL_MATRIX, ctx.family_u,
               ctx.prym_family, ctx.genus4_family):
        fresh = PeriodMatrix(pm.g, pm.params, pm.coeffs, pm.polarization)
        assert periods.riemann_first_relation(fresh) == _dense_first_relation(pm) == {}


@pytest.mark.parametrize("name", ["prym_family", "genus4_family"])
def test_first_relation_matches_the_dense_sums_where_it_fails(name):
    pm = getattr(suite.SuiteContext(128), name)
    rng = random.Random(name)
    failing = 0
    while failing < 20:
        # one to three entries of seeded coefficient matrices moved
        coeffs = [[list(row) for row in C] for C in pm.coeffs]
        for _ in range(rng.randint(1, 3)):
            k, i, j = (rng.randrange(len(coeffs)), rng.randrange(pm.g),
                       rng.randrange(2 * pm.g))
            coeffs[k][i][j] = coeffs[k][i][j] + _seeded_elem(rng)
        broken = PeriodMatrix(pm.g, pm.params, coeffs, pm.polarization)
        want = _dense_first_relation(broken)
        assert periods.riemann_first_relation(broken) == want
        failing += bool(want)


@pytest.mark.parametrize("name", ["prym_family", "genus4_family"])
def test_positivity_after_substitution_matches_the_family(name):
    pm = getattr(suite.SuiteContext(128), name)
    rng = random.Random(name)
    for _ in range(20):
        # small points, many inside the ball, and tau near the upper half plane
        point = {p: _seeded_elem(rng) * Fraction(1, 8) for p in pm.params}
        if "tau" in point:
            point["tau"] = point["tau"] + IUNIT * rng.randint(1, 3)
        for sign in (1, -1):
            assert (periods.riemann_positivity(pm.subs(point), {}, sign=sign)
                    == periods.riemann_positivity(pm, point, sign=sign))


def test_period_matrix_coefficients_and_entries_agree():
    pm = stcurve.GENUS4
    P0, Pt = pm.coeffs
    assert (P0[0][3], Pt[0][3]) == (-ONE, -ONE)
    assert pm.to_json()["entries"][0][3] == {"const": (-ONE).to_json(),
                                             "tau": (-ONE).to_json()}
    back = PeriodMatrix(4, pm.params, pm.coeffs, pm.polarization)
    assert back.coeffs == pm.coeffs and back.to_json() == pm.to_json()
    with pytest.raises(ValueError):
        PeriodMatrix(4, pm.params, pm.coeffs[:1], pm.polarization)
    with pytest.raises(ValueError):
        PeriodMatrix(4, ("tau", "tau"), [*pm.coeffs, pm.coeffs[1]], pm.polarization)


def test_positivity_certificates():
    pm = stcurve.GENUS4
    for tau in (_I, _I * 2, _I + 1):
        verdict, minors = periods.riemann_positivity(
            pm, {"tau": tau}, prec=128, sign=stcurve.POSITIVITY_SIGN)
        assert verdict == "positive"
        assert len(minors) == 4
        assert all(lo > 0 for _, lo, _ in minors)


def test_positivity_rejects_lower_half_plane():
    verdict, _ = periods.riemann_positivity(
        stcurve.GENUS4, {"tau": -_I}, prec=128, sign=stcurve.POSITIVITY_SIGN)
    assert verdict == "not-positive"


def test_positivity_sign_flip_fails():
    verdict, _ = periods.riemann_positivity(
        stcurve.GENUS4, {"tau": _I}, prec=128, sign=-stcurve.POSITIVITY_SIGN)
    assert verdict == "not-positive"


def test_positivity_is_exact_near_the_real_axis():
    # the minors are about 1e-58 here, too small for a determinant of
    # balls at 16 or 128 bits to separate from zero; the exact verdict
    # must not depend on prec
    tau = _I * Fraction(1, 2 ** 200)
    for prec in (16, 128):
        verdict, minors = periods.riemann_positivity(
            stcurve.GENUS4, {"tau": tau}, prec=prec, sign=stcurve.POSITIVITY_SIGN)
        assert verdict == "positive"
        assert [k for k, _, _ in minors] == [1, 2, 3, 4]


def test_positivity_on_the_real_axis_is_not_positive():
    # tau = 1 makes the first minor exactly 0
    verdict, minors = periods.riemann_positivity(
        stcurve.GENUS4, {"tau": ONE}, prec=128, sign=stcurve.POSITIVITY_SIGN)
    assert verdict == "not-positive"
    assert minors == [(1, 0.0, 0.0)]


@pytest.mark.parametrize("prec", [64, 128, 512])
def test_printed_minor_ranges_enclose_their_minors(monkeypatch, prec):
    # record every positivity call of the riemann-positive check, then
    # decide lo <= minor <= hi exactly in the tower for each printed range
    calls = []
    real = periods.riemann_positivity

    def recording(pm, point, prec=128, sign=1):
        verdict, minors = real(pm, point, prec=prec, sign=sign)
        calls.append((pm, point, sign, minors))
        return verdict, minors

    monkeypatch.setattr(periods, "riemann_positivity", recording)
    (check,) = suite.run_all(prec=prec, only="riemann-positive").checks
    assert check.verdict == "pass"
    assert [ev["minor_ranges"] for ev in check.evidence.values()] == [
        [list(r) for r in minors] for *_, minors in calls]
    assert len(calls) == 7
    for pm, point, sign, minors in calls:
        H = periods.positivity_gram(pm, point, sign)
        for (k, lo, hi), d in zip(minors, periods.leading_minors(H)):
            assert real_sign(d - Fraction(lo)) >= 0, (k, lo, point)
            assert real_sign(Fraction(hi) - d) >= 0, (k, hi, point)


def _record_positivity(monkeypatch):
    """The (pm, point) of each riemann_positivity call, and the contexts
    run_all builds."""
    calls, contexts, real = [], [], periods.riemann_positivity

    class Context(suite.SuiteContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    def recording(pm, point, prec=128, sign=1):
        calls.append((pm, point))
        return real(pm, point, prec=prec, sign=sign)

    monkeypatch.setattr(suite, "SuiteContext", Context)
    monkeypatch.setattr(periods, "riemann_positivity", recording)
    return calls, contexts


def test_positivity_reads_the_families_it_already_holds(monkeypatch):
    calls, contexts = _record_positivity(monkeypatch)
    (check,) = suite.run_all(prec=128, only="positivity").checks
    assert check.verdict == "pass"
    (ctx,) = contexts
    names = list(check.evidence)
    assert len(calls) == len(names) == 7
    routes = dict(zip(names, calls))
    for name in ("family z=0", "family z=(1/2,0)"):
        assert routes[name][0] is ctx.prym_family
    assert routes["family z=0"][1] == {"z1": ZERO, "z2": ZERO}
    assert routes["family z=(1/2,0)"][1] == {"z1": HALF, "z2": ZERO}
    assert routes["family z=z*"] == (ctx.prym_at_star, {})
    # the assembly at z* is GENUS4, whose products persist across calls
    pm, point = routes["genus4-family tau=2i, z=z*"]
    assert pm is stcurve.GENUS4 and point == {"tau": IUNIT * 2}


@pytest.mark.parametrize("differs", ["coefficients", "polarization"])
def test_positivity_decides_an_assembly_that_is_not_genus4_as_itself(
        monkeypatch, differs):
    g4, real = stcurve.GENUS4, stcurve.genus4_family
    # the real assembly at z* equals GENUS4, and the stage returns GENUS4
    assert suite.SuiteContext(128).genus4_at_star is g4

    def differing(prym):
        pm = real(prym)
        if differs == "coefficients":
            return PeriodMatrix(4, pm.params, [[[x * 2 for x in row] for row in C]
                                               for C in pm.coeffs], pm.polarization)
        return PeriodMatrix(4, pm.params, pm.coeffs,
                            [[2 * x for x in row] for row in pm.polarization])

    monkeypatch.setattr(stcurve, "genus4_family", differing)
    calls, contexts = _record_positivity(monkeypatch)
    (check,) = suite.run_all(prec=128, only="positivity").checks
    (ctx,) = contexts
    pm, point = calls[-1]
    assert pm is ctx.genus4_at_star and pm is not g4
    assert pm.params == g4.params and point == {"tau": IUNIT * 2}
    # it decides as the assembly with the point substituted first
    got = check.evidence["genus4-family tau=2i, z=z*"]
    verdict, minors = periods.riemann_positivity(pm.subs(point), {}, prec=128,
                                                 sign=stcurve.POSITIVITY_SIGN)
    assert (got["verdict"], got["minor_ranges"]) == (
        verdict, [list(m) for m in minors])
    assert verdict == "positive"


def _fraction_double(q, up):
    """The outward rounding of a Fraction q to a double, through Fractions."""
    try:
        x = float(q)
    except OverflowError:
        edge = math.inf if (q > 0) == up else sys.float_info.max
        return edge if q > 0 else -edge
    if (Fraction(x) < q) if up else (Fraction(x) > q):
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


@st.composite
def _ratio_near_a_double(draw):
    """n/den within 1/den of a double x of any size: n = p k + e, den = q k."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    p, q = x.as_integer_ratio()
    k = draw(st.integers(1, 2 ** 80))
    return p * k + draw(st.integers(-1, 1)), q * k


_ratios = st.one_of(
    st.tuples(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70)),
    # tiny, huge and past the double range, at either sign
    st.tuples(st.integers(-2 ** 1200, 2 ** 1200), st.integers(1, 2 ** 1200)),
    st.tuples(st.integers(-2 ** 40, 2 ** 40), st.integers(2 ** 1100, 2 ** 1200)),
    st.tuples(st.integers(2 ** 1020, 2 ** 1100).map(lambda n: -n), st.integers(1, 4)),
    _ratio_near_a_double(),
)


@settings(max_examples=500, deadline=None)
@given(_ratios, st.booleans())
def test_double_matches_the_fraction_rounding(ratio, up):
    n, den = ratio
    got = periods._double(n, den, up)
    assert repr(got) == repr(_fraction_double(Fraction(n, den), up))


def test_positivity_builds_no_fraction(genus4_family):
    point = {"tau": 1 + 2 * _I, "z1": HALF * zeta_power(2),
             "z2": TowerElem.coerce(Fraction(1, 5))}
    pm = genus4_family
    periods.riemann_positivity(pm, point, 256)    # builds the cached products
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        _, minors = periods.riemann_positivity(pm, point, 256)
    finally:
        sys.setprofile(None)
    assert len(minors) == 4
    assert not [f for f in seen if f.endswith("fractions.py")]


@_needs_sympy
def test_leading_minors_match_the_integer_determinants():
    A = [[2, -1, 0, 3], [1, 4, -2, 0], [0, 5, 1, -1], [3, 0, 2, 2]]
    for n in range(1, 5):
        sub = [row[:n] for row in A[:n]]
        *_, got = periods.leading_minors([[TowerElem.coerce(x) for x in row]
                                          for row in sub])
        assert got == TowerElem.coerce(int(sympy.Matrix(sub).det()))
    D = [[_I, ZERO], [ZERO, cyclo(0, 1)]]
    assert list(periods.leading_minors(D)) == [_I, _I * cyclo(0, 1)]


def test_polarization_inverse_is_computed_once(monkeypatch):
    calls = []
    real = intlat.inverse

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(intlat, "inverse", counting)
    intlat.cached_inverse.cache_clear()
    pm = stcurve.GENUS4
    for tau in (_I, _I * 2):
        periods.positivity_gram(pm, {"tau": tau}, sign=stcurve.POSITIVITY_SIGN)
    assert periods.first_relation_holds(pm.subs({"tau": _I}))
    assert len(calls) == 1
    # the shared inverse is immutable, so no caller can spoil it
    Einv = periods._polarization_inverse(pm)
    assert isinstance(Einv, tuple) and all(isinstance(r, tuple) for r in Einv)
    assert intlat.matmul(Einv, pm.polarization) == [
        [int(i == j) for j in range(8)] for i in range(8)]


def test_positivity_gram_is_hermitian():
    H = periods.positivity_gram(stcurve.GENUS4, {"tau": _I},
                                sign=stcurve.POSITIVITY_SIGN)
    for i in range(4):
        for j in range(4):
            assert H[i][j] == H[j][i].conjugate()
    with pytest.raises(ValueError):
        periods.positivity_gram(stcurve.GENUS4, {"tau": _I}, sign=2)


def test_positivity_gram_refuses_exactly_what_evaluate_refuses():
    pm = stcurve.GENUS4
    zero = [[ZERO] * 8 for _ in range(4)]
    padded = PeriodMatrix(4, ("tau", "s"), [*pm.coeffs, zero], pm.polarization)
    want = periods.positivity_gram(pm, {"tau": _I})
    # a missing parameter whose coefficient matrix is 0, and a name that
    # is no parameter, change nothing
    assert padded.evaluate({"tau": _I}) == pm.evaluate({"tau": _I})
    assert periods.positivity_gram(padded, {"tau": _I}) == want
    assert periods.positivity_gram(pm, {"tau": _I, "z9": ONE}) == want
    # a missing parameter with a nonzero coefficient matrix is refused with
    # the message of evaluate, in sorted order
    for family, point, missing in ((padded, {"s": ONE}, "['tau']"),
                                   (suite.SuiteContext(128).genus4_family,
                                    {"tau": _I}, "['z1', 'z2']")):
        messages = []
        for call in (lambda: family.evaluate(point),
                     lambda: periods.positivity_gram(family, point)):
            with pytest.raises(ValueError) as err:
                call()
            messages.append(str(err.value))
        assert messages == [f"unassigned parameters: {missing}"] * 2


# rational coordinates of up to 256-bit height, many of them 0
_coord = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-2 ** 256, 2 ** 256),
                             st.integers(1, 2 ** 256)))
_elem = st.one_of(st.just(ZERO), st.builds(
    TowerElem, st.lists(_coord, min_size=4, max_size=4),
    st.lists(_coord, min_size=4, max_size=4)))


def _dense_gram(pm, point, sign):
    """sign * i * P E^-1 conj(P)^T from the evaluated P, by plain sums."""
    P = pm.evaluate(point)
    Einv = intlat.inverse(pm.polarization)
    n = 2 * pm.g
    PE = [[sum((row[k] * Einv[k][l] for k in range(n) if Einv[k][l]), ZERO)
           for l in range(n)] for row in P]
    unit = IUNIT * sign
    return [[unit * sum((x * y.conjugate() for x, y in zip(left, right)), ZERO)
             for right in P] for left in PE]


@pytest.mark.parametrize("name", ["GENUS4", "prym_family", "genus4_family"])
@settings(max_examples=20, deadline=None)
@given(values=st.lists(_elem, min_size=3, max_size=3),
       sign=st.sampled_from([1, -1]))
def test_positivity_gram_matches_the_dense_product(name, values, sign):
    pm = (stcurve.GENUS4 if name == "GENUS4"
          else getattr(suite.SuiteContext(128), name))
    point = dict(zip(pm.params, values))
    assert periods.positivity_gram(pm, point, sign) == _dense_gram(pm, point, sign)


class _Formed(dict):
    """A product cache that records the key of every product formed."""

    def __init__(self):
        super().__init__()
        self.keys_formed = []

    def __setitem__(self, key, value):
        self.keys_formed.append(key)
        super().__setitem__(key, value)


def _counting(pm):
    object.__setattr__(pm, "_products", _Formed())
    return pm


def test_gram_products_are_built_once_per_matrix(genus4_family):
    fam = genus4_family
    pm = _counting(PeriodMatrix(fam.g, fam.params, fam.coeffs, fam.polarization))
    calls = pm._products.keys_formed
    point = {"tau": _I, "z1": HALF, "z2": cyclo(0, 0, Fraction(1, 3))}
    want = periods.positivity_gram(pm, point)
    # P_a E^-1 for the 4 coefficient matrices, then K_ab for a <= b
    assert len(calls) == 4 + 10
    calls.clear()
    assert periods.positivity_gram(pm, point) == want
    assert periods.positivity_gram(pm, {"tau": _I * 2, "z1": ZERO, "z2": ONE})
    assert calls == []
    # the first relation reuses the cached P_a E^-1 and builds its own
    # coefficients, one per a <= b
    assert periods.first_relation_holds(pm)
    assert len(calls) == 10
    calls.clear()
    assert periods.first_relation_holds(pm)
    assert calls == []
    # copies start with no products; zero parameters need none of theirs
    for copy in (pm.subs({}), PeriodMatrix(
            pm.g, pm.params, pm.coeffs, pm.polarization)):
        assert not copy._products
        assert periods.positivity_gram(_counting(copy), point) == want
        assert len(copy._products.keys_formed) == 14
    copy = _counting(pm.subs({}))
    periods.positivity_gram(copy, {"tau": _I, "z1": ZERO, "z2": ZERO})
    assert len(copy._products.keys_formed) == 2 + 3


def test_eval_ball_matches_exact_evaluation():
    pm = stcurve.GENUS4
    exact = pm.evaluate({"tau": _I * 2})
    balls = pm.eval_ball({"tau": _I * 2}, prec=64)
    for i in range(4):
        for j in range(8):
            a, b = balls[i][j], embed(exact[i][j], 64)
            # both discs contain the exact entry, so they meet
            dr, di = a.re - b.re, a.im - b.im
            assert dr * dr + di * di <= (a.rad + b.rad) ** 2


def test_split_blocks_of_frozen_basis():
    J = intlat.standard_symplectic(4)
    B = stcurve.SPLITTING_BASIS
    G = intlat.matmul(intlat.transpose(B), intlat.matmul(J, B))
    assert [[G[i][j] for j in stcurve.PRYM_COLS]
            for i in stcurve.PRYM_COLS] == stcurve.PRYM_POLARIZATION
    assert [[G[i][j] for j in stcurve.ELL_COLS]
            for i in stcurve.ELL_COLS] == stcurve.ELLIPTIC_BLOCK
    assert all(G[i][j] == 0
               for i in stcurve.ELL_COLS for j in stcurve.PRYM_COLS)


@_needs_sympy
def test_period_matrix_splits_along_the_frozen_sublattices():
    # the column combinations killing rows 1-3 of Z = Z0 + tau Zt form a
    # rank-2 lattice, those killing row 0 a rank-6 one.  The elliptic and
    # Prym columns of the frozen basis lie in those kernels and each block
    # is primitive (unit divisors), so they are exactly the two sublattices;
    # together they have index 9, the degree of the isogeny
    pm = stcurve.GENUS4

    def constraints(rows):
        # one rational row per (coefficient matrix, row, tower coordinate)
        out = []
        for C in pm.coeffs:
            for i in rows:
                xs = [TowerElem.coerce(x) for x in C[i]]
                out.extend([Fraction(x.n[k], x.d) for x in xs]
                           for k in range(8))
        return out

    assert len(sympy.Matrix(constraints((1, 2, 3))).nullspace()) == 2
    assert len(sympy.Matrix(constraints((0,))).nullspace()) == 6
    B = stcurve.SPLITTING_BASIS
    for cols in (stcurve.ELL_COLS, stcurve.PRYM_COLS):
        block = [[row[c] for c in cols] for row in B]
        assert intlat.snf_divisors(block) == [1] * len(cols)
    assert abs(sympy.Matrix(B).det()) == 9
    for C in pm.coeffs:
        CB = intlat.matmul(C, B)
        assert all(not CB[i][j] for i in (1, 2, 3) for j in stcurve.ELL_COLS)
        assert all(not CB[0][j] for j in stcurve.PRYM_COLS)
    # restricted polarizations: type (3) on the elliptic side, (1,1,3) on
    # the complement
    J = intlat.standard_symplectic(4)
    G = intlat.matmul(intlat.transpose(B), intlat.matmul(J, B))
    ell = [[G[i][j] for j in stcurve.ELL_COLS] for i in stcurve.ELL_COLS]
    prym = [[G[i][j] for j in stcurve.PRYM_COLS] for i in stcurve.PRYM_COLS]
    assert intlat.snf_divisors(ell) == [3, 3]
    assert list(intlat.symplectic_basis(ell)[1]) == [3]
    assert list(intlat.symplectic_basis(prym)[1]) == [1, 1, 3]


def test_deck_intertwiner_search():
    hits = periods.intertwiner_search(stcurve.GENUS4,
                                      stcurve.FORM_WEIGHT_EXPONENTS,
                                      stcurve.DECK_SYMPLECTIC_ACTION)
    assert hits == [(1, "plain"), (-1, "inverse")]


def test_intertwines_rejects_wrong_weights():
    bad = (stcurve.FORM_WEIGHT_EXPONENTS[0] + 1,
           *stcurve.FORM_WEIGHT_EXPONENTS[1:])
    hits = periods.intertwiner_search(stcurve.GENUS4, bad,
                                      stcurve.DECK_SYMPLECTIC_ACTION)
    assert hits == []
    with pytest.raises(ValueError):
        periods.intertwiner_search(stcurve.GENUS4, (6, 4),
                                   stcurve.DECK_SYMPLECTIC_ACTION)


def test_intertwiner_search_needs_unimodular_action():
    R = [list(row) for row in stcurve.DECK_SYMPLECTIC_ACTION]
    doubled = [[2 * x for x in R[0]]] + R[1:]          # det +-2
    copied = [R[1]] + R[1:]                             # det 0
    for bad in (doubled, copied):
        with pytest.raises(ValueError, match="not unimodular"):
            periods.intertwiner_search(stcurve.GENUS4,
                                       stcurve.FORM_WEIGHT_EXPONENTS, bad)
    with pytest.raises(ValueError, match="not square"):
        periods.intertwiner_search(stcurve.GENUS4,
                                   stcurve.FORM_WEIGHT_EXPONENTS, R[1:])


def test_subs_keeps_remaining_parameters():
    pm = stcurve.GENUS4
    fixed = pm.subs({"tau": _I})
    assert fixed.params == ()
    assert len(fixed.coeffs) == 1 and fixed.coeffs[0][0][0] == _I


def test_genus4_family_reassembles_the_tau_block():
    # the assembly of the constant special fiber, checked column by column
    # against the splitting basis
    prym = stcurve.PRYM_SPECIAL
    pm = stcurve.genus4_family(stcurve.PRYM_SPECIAL_MATRIX)
    assert pm.params == ("tau",)
    assert pm.polarization == tuple(map(tuple, intlat.standard_symplectic(4)))
    Z0, Zt = (intlat.matmul(P, stcurve.SPLITTING_BASIS) for P in pm.coeffs)
    assert [Z0[0][c] for c in stcurve.ELL_COLS] == [ZERO, 3]
    assert [Zt[0][c] for c in stcurve.ELL_COLS] == [3, 3]
    for r in range(1, 4):
        for k, c in enumerate(stcurve.PRYM_COLS):
            assert Z0[r][c] == prym[r - 1][k] and Zt[r][c] == ZERO
        for c in stcurve.ELL_COLS:
            assert Z0[r][c] == ZERO == Zt[r][c]
    for c in stcurve.PRYM_COLS:
        assert Z0[0][c] == ZERO == Zt[0][c]


def test_sums_of_products_make_no_intermediate_elements(genus4_family, monkeypatch):
    """A warm tower matmul and a warm positivity Gram form every entry as
    one exactfield.dot: no TowerElem product or sum is made on the way."""
    pm = genus4_family
    point = {"tau": 1 + 2 * _I, "z1": HALF * zeta_power(2), "z2": cyclo(0, 1, 1)}
    A, B = pm.coeffs[0], intlat.transpose(pm.coeffs[1])
    want_product = intlat.matmul(A, B)
    want_gram = periods.positivity_gram(pm, point)      # fills the K_ab cache
    calls = []

    def counting(name):
        real = getattr(TowerElem, name)

        def op(x, y):
            calls.append(name)
            return real(x, y)
        return op

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(TowerElem, name, counting(name))
    assert intlat.matmul(A, B) == want_product
    assert periods.positivity_gram(pm, point) == want_gram
    assert calls == []
    assert cyclo(1, 2) * cyclo(0, 1) + ONE == cyclo(1, 1, 2)
    assert calls == ["__mul__", "__add__"]         # the counters do count
