"""The caches that outlive one verify run, and what they may and may not change.

Work shared across runs is kept on its inputs: the products of the two
frozen period matrices (GENUS4, PRYM_SPECIAL_MATRIX) on the matrices
themselves, the inverses of the frozen integer matrices and the embedding
bases in lru_caches, and pel's row-1 solve and multiplied rows in theirs.
A report must not depend on what they hold, and a warm run must form
fewer products than a cold one by a pinned count.
"""

from fractions import Fraction

import pytest

from cycloperiods import exactfield, intlat, pel, periods, stcurve, suite
from cycloperiods.exactfield import IUNIT, ZETA, TowerElem


def _clear_cross_call_caches():
    for pm in (stcurve.GENUS4, stcurve.PRYM_SPECIAL_MATRIX):
        pm._products.clear()
    for cached in (intlat.cached_inverse, exactfield._basis,
                   pel._row1_solve, pel._multiplied_rows):
        cached.cache_clear()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("prec", [16, 128, 512])
def test_a_cold_report_equals_a_warm_one(prec, strict):
    _clear_cross_call_caches()
    cold = suite.run_all(prec=prec, strict=strict).dumps()
    warm = suite.run_all(prec=prec, strict=strict).dumps()
    assert cold == warm


def test_the_tower_keyed_caches_hit_on_equal_keys():
    _clear_cross_call_caches()
    cached = (pel._row1_solve, pel._multiplied_rows)
    suite.run_all(prec=128)
    cold = [c.cache_info() for c in cached]
    suite.run_all(prec=128)
    warm = [c.cache_info() for c in cached]
    for c, w in zip(cold, warm):
        assert w.misses == c.misses and w.hits > c.hits
    # a target row of ints finds the solve stored under equal tower elements
    eye = tuple(tuple(TowerElem.coerce(int(i == j)) for j in range(3)) for i in range(3))
    first = pel._row1_solve(eye, tuple(map(TowerElem.coerce, (2, 3, 5))))
    hits = pel._row1_solve.cache_info().hits
    assert pel._row1_solve(eye, (2, 3, 5)) is first
    assert pel._row1_solve.cache_info().hits == hits + 1


# exactfield.dot calls of one run_all, at any precision: a cold run forms
# every product, a warm one reuses GENUS4's products, the convention
# search's row-1 solve and its multiplied rows
COLD_DOTS, WARM_DOTS = 1437, 1258
# exactfield.dot calls of one riemann_positivity on the genus-4 family at
# tau = i, z1 = 1/3, z2 = zeta/5 once its K_ab are cached: one weight for
# each of the 5 pairs a <= b with K_ab != 0 and one i t_a for each of their
# 3 distinct a, 10 Gram entries, 5 expansion sums and 3 products with the
# first minor, which closes a block
POSITIVITY_DOTS = 26


@pytest.fixture
def dot_calls(monkeypatch):
    """A one-item list counting exactfield.dot calls from the modules that
    make them."""
    calls, real = [0], exactfield.dot

    def counting(pairs):
        calls[0] += 1
        return real(pairs)

    for module in (exactfield, intlat, periods, pel):
        monkeypatch.setattr(module, "dot", counting)
    return calls


def test_a_warm_run_forms_the_pinned_number_of_dots(dot_calls):
    _clear_cross_call_caches()
    counts = []
    for _ in range(2):
        dot_calls[0] = 0
        suite.run_all(prec=128)
        counts.append(dot_calls[0])
    assert counts == [COLD_DOTS, WARM_DOTS]


def test_positivity_at_a_family_point_forms_the_pinned_number_of_dots(dot_calls):
    family = suite.SuiteContext(128).genus4_family
    point = {"tau": IUNIT, "z1": Fraction(1, 3), "z2": ZETA * Fraction(1, 5)}
    periods.riemann_positivity(family, point)       # fills the K_ab cache
    counts = []
    for _ in range(2):
        dot_calls[0] = 0
        verdict, _ = periods.riemann_positivity(family, point)
        counts.append(dot_calls[0])
    assert verdict == "positive" and counts == [POSITIVITY_DOTS] * 2


def test_a_warm_run_inverts_only_the_diagonalizer(monkeypatch):
    """The frozen integer matrices are inverted through intlat.cached_inverse,
    so a warm run calls intlat.inverse once, on diagonalize_W's 3 x 3 S, and
    takes one Smith form with transforms, covers' deck action solve."""
    suite.run_all(prec=128)
    calls = {"inverse": [], "smith_normal_form": []}
    for name, seen in calls.items():
        def counting(A, real=getattr(intlat, name), seen=seen):
            seen.append(A)
            return real(A)
        monkeypatch.setattr(intlat, name, counting)
    suite.run_all(prec=128)
    assert [len(A) for A in calls["inverse"]] == [3]
    assert len(calls["smith_normal_form"]) == 1
