"""Acceptance gate: the thirteen frozen criteria, one verdict line each.

Each test drives the corresponding suite check at 128 bits through a
shared context, prints its criterion line, and pins the headline
quantities from the evidence so a regression names the exact number
that moved.
"""

from cycloperiods import suite

_CTX = suite.SuiteContext(prec=128)
_FNS = {cid: fn for cid, _, fn in suite.CHECKS}
_DONE = {}


def _run(n, cid):
    """The evidence of check cid, which must pass: its function returns
    (ok, evidence), or (verdict, evidence) for a third outcome."""
    if cid not in _DONE:
        _DONE[cid] = _FNS[cid](_CTX)
    out, evidence = _DONE[cid]
    verdict = {True: "pass", False: "fail"}.get(out, out)
    print(f"criterion {n:02d} {cid}: {verdict.upper()}")
    assert verdict == "pass", (cid, evidence)
    return evidence


def test_criterion_01_polarization_type():
    evidence = _run(1, "lattice-type")
    assert evidence["symplectic_type"] == [1, 1, 3]
    assert evidence["prym_snf"] == [1, 1, 1, 1, 3, 3]
    assert evidence["full_snf"] == [1, 1, 1, 1, 3, 3, 3, 3]
    assert evidence["mixed_block_nonzero"] == []


def test_criterion_02_cycle_basis_and_deck_action():
    evidence = _run(2, "cycle-basis")
    assert all(ok for _, ok in evidence["model_checks"])
    assert evidence["deck_action_symplectic"] is True
    assert evidence["deck_action_order"] == 6


def test_criterion_03_cover_character_table():
    evidence = _run(3, "cover-table")
    assert evidence["table"] == [
        [1, 2, 0], [2, 1, 0], [3, 2, 1], [4, 1, 1], [5, 2, 2]]
    assert evidence["genus"] == 4
    assert evidence["quotient_genus"] == 1


def test_criterion_04_split_block_product():
    evidence = _run(4, "split-product")
    assert evidence["bad_entries"] == []
    assert evidence["displayed_special_divergence"] == [[1, 1]]


def test_criterion_05_first_relation_symbolic():
    evidence = _run(5, "riemann-symbolic")
    assert evidence == {
        "genus4": True, "prym-special": True,
        "family-module-coords": True, "prym-family": True,
        "genus4-family": True}


def test_criterion_06_positivity_certificates():
    evidence = _run(6, "riemann-positive")
    assert "note" not in evidence
    assert len(evidence) == 7
    for name, data in evidence.items():
        assert data["verdict"] == "positive", name
        assert all(lo > 0 for _, lo, _ in data["minor_ranges"]), name


def test_criterion_07_prym_deck_intertwiner():
    evidence = _run(7, "deck-twist")
    assert evidence["hits"] == [[1, "plain"]]
    assert evidence["pairing_preserved"] is True


def test_criterion_08_skew_form_and_traces():
    evidence = _run(8, "module-form")
    assert evidence["generator_grams_match"] is True
    assert evidence["displayed_T_match"] is True
    assert evidence["signature"] == [2, 1]
    assert evidence["trace_offenders"] == []


def test_criterion_09_diagonalizing_W():
    evidence = _run(9, "form-diagonal")
    assert evidence["exact"] is True
    assert evidence["residual_bound"] == "0 (exact)"


def test_criterion_10_ball_point():
    evidence = _run(10, "ball-point")
    assert evidence["point_match"] is True
    assert evidence["coeff_match"] is True
    assert evidence["in_unit_ball"] is True
    assert evidence["norm_decimal"][0].startswith("0.84")


def test_criterion_11_special_fiber_and_assembly():
    evidence = _run(11, "special-fiber")
    assert evidence["prym_fiber_exact"] is True
    assert evidence["genus4_assembly_exact"] is True


def test_criterion_12_endomorphisms_family_wide():
    evidence = _run(12, "module-endo")
    assert evidence["rho_endomorphism"] is True
    assert evidence["prym_family_deck"] is True
    assert evidence["genus4_tau_family_deck"] is True
    assert evidence["genus4_assembly_at_star_deck"] is True


def test_criterion_13_display_audit():
    evidence = _run(13, "display-audit")
    assert evidence["first_row_exact"] is True
    assert evidence["c11_exact"] is True
    div = evidence["divergences"]
    assert div["family_module_coords"] == [[1, 2], [1, 5]]
    assert div["special_matrix"] == [[1, 1]]
    assert div["standalone_W_residual"] == [
        [1, 1, "3 + -6*z^2 + 9*z^3"], [1, 2, "z^2 + -3*z^3"],
        [2, 1, "-1 + z^2 + -3*z^3"], [2, 2, "-3 + 6*z^2 + -10*z^3"]]
    assert div["cycle_display_failed_checks"] == ["combo-gram"]
    # (loop, column, displayed coefficient) in e3, e4, e7, e8
    assert div["cycle_combos"] == [
        [0, 2, 1], [0, 6, 0], [1, 3, 1], [2, 2, -1], [2, 6, 1], [2, 7, 0],
        [4, 2, 1], [4, 6, -1], [4, 7, 0], [5, 2, 1], [7, 3, -1], [8, 6, 0],
        [10, 2, 0], [10, 3, 0], [10, 7, 0], [11, 2, 0]]
    assert sorted({j for _, j, _ in div["cycle_combos"]}) == [2, 3, 6, 7]
    assert len(div["family_lattice_coords"]) == 13
