"""The frozen period matrices of stcurve as constants, and their mutants.

The matrices are built once at import, cannot be changed in place, and
are read by the suite at call time.  So a test can swap a constant for
a mutant with monkeypatch: adding 1 to any one entry of PRYM_SPECIAL or
of either coefficient matrix of GENUS4 must change at least one verdict
of the thirteen checks, or the checks do not pin that entry down.  The
same holds for a seeded sample of the +1 mutants of the working constants
that the suite reads.  Run as a script, with src on the path,

    python tests/test_mutants.py

tries every one of those mutants instead, names each that changes no
verdict, and then exits 1.
"""

import random
import sys
import types

import pytest

from cycloperiods import covers, stcurve, suite
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
    for name in ("PRYM_SPECIAL", "REF_PRYM_SPECIAL"):
        M = getattr(stcurve, name)
        assert type(M) is tuple and all(type(row) is tuple for row in M), name
    for name in ("SHIMURA_FAMILY_DISPLAY", "PRYM_FAMILY_DISPLAY"):
        # the (constant, z1, z2) coefficient matrices
        D = getattr(stcurve, name)
        assert type(D) is tuple and len(D) == 3, name
        assert all(type(M) is tuple and all(type(row) is tuple for row in M)
                   for M in D), name
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
        stcurve.PRYM_FAMILY_DISPLAY[0][0][1].d = 2
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
    monkeypatch.setattr(stcurve, "GENUS4", PeriodMatrix(
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


# the working constants that the suite reads: the module (PRYM_SHIFT,
# MODULE_GENS), the convention search (FAMILY_W), the deck actions
# (PRYM_SHIFT, DECK_SYMPLECTIC_ACTION), the splitting, the cycle basis and
# the displayed module forms.  A mutant of HOMOLOGY_MODEL changes its
# pairing and rebuilds the model, which is what the suite reads; a mutant
# of CYCLE_PAIRING alone would reach no check.
WORKING = ("PRYM_SHIFT", "FAMILY_W", "MODULE_GENS", "DECK_SYMPLECTIC_ACTION",
           "SPLITTING_BASIS", "ELLIPTIC_BLOCK", "CYCLE_COMBOS",
           "PRYM_POLARIZATION", "REF_PAIRING_GRAM", "REF_SHIFT_GRAM",
           "REF_SKEW_T", "HOMOLOGY_MODEL")


def _rows(name):
    """The matrix that a +1 mutant of stcurve.<name> changes."""
    value = getattr(stcurve, name)
    return value.pairing if name == "HOMOLOGY_MODEL" else value


def _entries(name):
    return [(i, j) for i, row in enumerate(_rows(name)) for j in range(len(row))]


def _plus_one(rows, i, j):
    """rows with 1 added to entry (i, j), in rows' own container types."""
    return type(rows)(type(row)(x + 1 if (r, c) == (i, j) else x
                                for c, x in enumerate(row))
                      for r, row in enumerate(rows))


def _mutant(name, i, j):
    """stcurve.<name> with 1 added to entry (i, j) of _rows(name)."""
    rows = _plus_one(_rows(name), i, j)
    if name == "HOMOLOGY_MODEL":
        return covers.HomologyModel(rows, stcurve.HOMOLOGY_MODEL.shift)
    return rows


# 6 seeded mutants of each (all 4 of the 2 x 2 ELLIPTIC_BLOCK)
WORKING_SAMPLE = [(name, i, j) for name in WORKING
                  for i, j in random.Random(name).sample(
                      _entries(name), min(6, len(_entries(name))))]


@pytest.mark.parametrize("name, i, j", WORKING_SAMPLE,
                         ids=[f"{n}-{i}-{j}" for n, i, j in WORKING_SAMPLE])
def test_each_sampled_working_mutant_changes_a_verdict(monkeypatch, verdicts,
                                                       name, i, j):
    monkeypatch.setattr(stcurve, name, _mutant(name, i, j))
    assert _verdicts() != verdicts


def _unkilled(mutants):
    """The (name, i, j) of mutants that leave every verdict as it is."""
    base, out = _verdicts(), []
    for name, i, j in mutants:
        kept = getattr(stcurve, name)
        setattr(stcurve, name, _mutant(name, i, j))
        try:
            if _verdicts() == base:
                out.append((name, i, j))
        finally:
            setattr(stcurve, name, kept)
    return out


if __name__ == "__main__":
    every = [(name, i, j) for name in WORKING for i, j in _entries(name)]
    unkilled = _unkilled(every)
    for name, i, j in unkilled:
        print(f"changes no verdict: {name} + 1 at ({i}, {j})")
    print(f"{len(every)} mutants of {len(WORKING)} working constants, "
          f"{len(unkilled)} change no verdict")
    sys.exit(1 if unkilled else 0)
