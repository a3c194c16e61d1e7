"""The frozen period matrices of stcurve as constants, and their mutants.

The matrices are built once at import, cannot be changed in place, and
are read by the suite at call time.  So a test can swap a constant for
a mutant with monkeypatch: adding 1 to any one entry of PRYM_SPECIAL or
of either coefficient matrix of GENUS4 must change at least one verdict
of the thirteen checks, or the checks do not pin that entry down.  The
same holds for a seeded sample of the +1 mutants of the working constants
that the suite's shared stages read.
"""

import random
import sys
import types

import pytest

from cycloperiods import stcurve, suite
from cycloperiods.exactfield import ONE
from cycloperiods.periods import PeriodMatrix


def _verdicts():
    return [c.verdict for c in suite.run_all().checks]


@pytest.fixture(scope="module")
def verdicts():
    return _verdicts()


def _codes(fn):
    """The code object of fn and of everything nested in it."""
    todo, out = [fn.__code__], set()
    while todo:
        code = todo.pop()
        out.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return out


def test_no_stcurve_builder_runs_during_a_verify():
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == stcurve.__file__:
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        suite.run_all()
    finally:
        sys.setprofile(None)
    assert stcurve.genus4_family.__code__ in entered
    assert sorted(c.co_name for c in entered - _codes(stcurve.genus4_family)) == []


def test_the_frozen_matrices_are_tuples_no_caller_can_change():
    for name in ("PRYM_SPECIAL", "REF_PRYM_SPECIAL", "SHIMURA_FAMILY_DISPLAY",
                 "PRYM_FAMILY_DISPLAY"):
        M = getattr(stcurve, name)
        assert type(M) is tuple and all(type(row) is tuple for row in M), name
    for pm in (stcurve.GENUS4, stcurve.PRYM_SPECIAL_MATRIX):
        assert all(type(row) is tuple for C in pm.coeffs for row in C)
        assert all(type(row) is tuple for row in pm.polarization)
        with pytest.raises(AttributeError):
            pm.coeffs = ()
    for model in (stcurve.HOMOLOGY_MODEL, stcurve.REF_HOMOLOGY_MODEL):
        assert all(type(row) is tuple for row in model.pairing)
        assert type(model.shift) is tuple
        with pytest.raises(AttributeError):
            model.pairing = ()
    with pytest.raises(AttributeError):
        stcurve.PRYM_SPECIAL[0][0].d = 2
    with pytest.raises(AttributeError):
        stcurve.PRYM_FAMILY_DISPLAY[0][0].const = ONE
    rebuilt = stcurve.genus4_period_matrix()
    assert rebuilt is not stcurve.GENUS4
    assert rebuilt.coeffs == stcurve.GENUS4.coeffs


def _shifted(rows, i, j):
    """rows with 1 added to entry (i, j), as a tuple of tuples."""
    return tuple(tuple(x + ONE if (r, c) == (i, j) else x
                       for c, x in enumerate(row))
                 for r, row in enumerate(rows))


PRYM_SPECIAL_ENTRIES = [(i, j) for i in range(3) for j in range(6)]
GENUS4_ENTRIES = [(k, i, j) for k in range(2) for i in range(4)
                  for j in range(8)]


@pytest.mark.parametrize("i, j", PRYM_SPECIAL_ENTRIES,
                         ids=[f"{i}-{j}" for i, j in PRYM_SPECIAL_ENTRIES])
def test_each_prym_special_mutant_changes_a_verdict(monkeypatch, verdicts,
                                                    i, j):
    monkeypatch.setattr(stcurve, "PRYM_SPECIAL",
                        _shifted(stcurve.PRYM_SPECIAL, i, j))
    assert _verdicts() != verdicts


@pytest.mark.parametrize("k, i, j", GENUS4_ENTRIES,
                         ids=[f"{k}-{i}-{j}" for k, i, j in GENUS4_ENTRIES])
def test_each_genus4_mutant_changes_a_verdict(monkeypatch, verdicts, k, i, j):
    pm = stcurve.GENUS4
    coeffs = [_shifted(C, i, j) if n == k else C
              for n, C in enumerate(pm.coeffs)]
    monkeypatch.setattr(stcurve, "GENUS4", PeriodMatrix.from_coeffs(
        pm.g, pm.params, coeffs, pm.polarization))
    assert _verdicts() != verdicts


def _unseen_display_mutants(monkeypatch, name):
    """The +1 mutants of the displayed constant stcurve.<name> that leave
    the strict display audit byte-identical."""
    rows = getattr(stcurve, name)
    base = suite.run_all(strict=True, only="errata").dumps()
    unseen = []
    for i, row in enumerate(rows):
        for j in range(len(row)):
            monkeypatch.setattr(stcurve, name, [
                [x + 1 if (r, c) == (i, j) else x for c, x in enumerate(rw)]
                for r, rw in enumerate(rows)])
            if suite.run_all(strict=True, only="errata").dumps() == base:
                unseen.append((i, j))
    return unseen


def test_each_standalone_w_mutant_changes_the_display_audit(monkeypatch):
    # the residual's values, not only its nonzero positions, are evidence
    assert sum(map(len, stcurve.REF_STANDALONE_W)) == 9
    assert _unseen_display_mutants(monkeypatch, "REF_STANDALONE_W") == []


def test_each_cycle_combo_mutant_changes_the_display_audit(monkeypatch):
    # a slip inside a column that already differs shows as its own entry
    assert sum(map(len, stcurve.REF_CYCLE_COMBOS)) == 96
    assert _unseen_display_mutants(monkeypatch, "REF_CYCLE_COMBOS") == []


# a seeded sample of the +1 mutants of the working constants that the
# shared stages read: the module (PRYM_SHIFT, MODULE_GENS), the convention
# search (FAMILY_W) and the deck actions (PRYM_SHIFT, DECK_SYMPLECTIC_ACTION)
WORKING_SAMPLE = [(name, i, j) for name in (
    "PRYM_SHIFT", "FAMILY_W", "MODULE_GENS", "DECK_SYMPLECTIC_ACTION")
    for i, j in random.Random(name).sample(
        [(i, j) for i, row in enumerate(getattr(stcurve, name))
         for j in range(len(row))], 6)]


def _plus_one(rows, i, j):
    """rows with 1 added to entry (i, j), in rows' own container types."""
    return type(rows)(type(row)(x + 1 if (r, c) == (i, j) else x
                                for c, x in enumerate(row))
                      for r, row in enumerate(rows))


@pytest.mark.parametrize("name, i, j", WORKING_SAMPLE,
                         ids=[f"{n}-{i}-{j}" for n, i, j in WORKING_SAMPLE])
def test_each_sampled_working_mutant_changes_a_verdict(monkeypatch, verdicts,
                                                       name, i, j):
    monkeypatch.setattr(stcurve, name, _plus_one(getattr(stcurve, name), i, j))
    assert _verdicts() != verdicts
