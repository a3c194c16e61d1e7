"""The caches that outlive one verify run, and what they may and may not change.

Work shared across runs is kept on its inputs: the products of the two
frozen period matrices (GENUS4, PRYM_SPECIAL_MATRIX) on the matrices
themselves, the polarization inverses and embedding bases in lru_caches,
and pel's row-1 solve and multiplied rows in theirs.  A report must not
depend on what they hold, and a warm run must form fewer products than a
cold one by a pinned count.
"""

import pytest

from cycloperiods import exactfield, intlat, pel, periods, stcurve, suite


def _clear_cross_call_caches():
    for pm in (stcurve.GENUS4, stcurve.PRYM_SPECIAL_MATRIX):
        pm._products.clear()
    for cached in (periods._rational_inverse, exactfield._basis,
                   pel._row1_solve, pel._multiplied_rows):
        cached.cache_clear()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("prec", [16, 128, 512])
def test_a_cold_report_equals_a_warm_one(prec, strict):
    _clear_cross_call_caches()
    cold = suite.run_all(prec=prec, strict=strict).dumps()
    warm = suite.run_all(prec=prec, strict=strict).dumps()
    assert cold == warm


# exactfield.dot calls of one run_all, at any precision: a cold run forms
# every product, a warm one reuses GENUS4's products, the convention
# search's row-1 solve and its multiplied rows
COLD_DOTS, WARM_DOTS = 1461, 1282


def test_a_warm_run_forms_the_pinned_number_of_dots(monkeypatch):
    calls, real = [0], exactfield.dot

    def counting(pairs):
        calls[0] += 1
        return real(pairs)

    for module in (exactfield, intlat, periods, pel):
        monkeypatch.setattr(module, "dot", counting)
    _clear_cross_call_caches()
    counts = []
    for _ in range(2):
        calls[0] = 0
        suite.run_all(prec=128)
        counts.append(calls[0])
    assert counts == [COLD_DOTS, WARM_DOTS]
