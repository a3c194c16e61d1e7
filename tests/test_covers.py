"""Cyclic cover character tables and the rank-12 loop homology model."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycloperiods import covers, intlat, stcurve


def test_curve_cover_table():
    cover = stcurve.CURVE_COVER
    assert cover.n == 6
    assert cover.genus() == 4
    assert cover.table() == [(1, 2, 0), (2, 1, 0), (3, 2, 1),
                             (4, 1, 1), (5, 2, 2)]


def test_elliptic_quotient_cover():
    quot = stcurve.ELLIPTIC_QUOTIENT_COVER
    assert quot.n == 3
    assert quot.genus() == 1
    assert sum(quot.eigenspace_dims().values()) == 1


def test_cover_rejects_bad_data():
    with pytest.raises(ValueError):
        covers.CyclicCover(1, [0])
    with pytest.raises(ValueError):
        covers.CyclicCover(6, [1, 1, 1])  # sum is 3 mod 6
    with pytest.raises(ValueError):
        covers.CyclicCover(4, [2, 2, 0, 0])  # disconnected
    with pytest.raises(ValueError):
        covers.CyclicCover(6, [("p", "x"), ("q", 1)])


@st.composite
def _cover_data(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=3, max_value=6))
    exps = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=k, max_size=k))
    exps.append((-sum(exps)) % n)
    return n, exps


@settings(max_examples=400, deadline=None)
@given(_cover_data())
def test_cover_character_bookkeeping(data):
    n, exps = data
    try:
        cover = covers.CyclicCover(n, exps)
    except ValueError:
        assume(False)
    dims = cover.eigenspace_dims()
    ranks = cover.h1_ranks()
    g = cover.genus()
    assert sum(dims.values()) == g
    assert sum(ranks.values()) == 2 * g
    for k in range(1, n):
        assert dims[k] >= 0
        assert ranks[k] == ranks[n - k]
        # complex conjugation swaps the k and n-k characters on forms
        assert dims[k] + dims[n - k] == ranks[k]


def test_six_loop_shift_is_two_six_cycles():
    sig = covers.six_loop_shift()
    assert sorted(sig) == list(range(12))
    for start in (0, 6):
        orbit = [start]
        while True:
            nxt = sig[orbit[-1]]
            if nxt == start:
                break
            orbit.append(nxt)
        assert len(orbit) == 6
        assert all(start <= i < start + 6 for i in orbit)


def test_homology_model_validation():
    with pytest.raises(ValueError):
        covers.HomologyModel([[0, 1], [-1, 0], [0, 0]], [0, 1])
    with pytest.raises(ValueError):
        covers.HomologyModel([[0, 1], [-1, 0]], [0, 0])


def test_corrected_model_passes_all_checks():
    results = covers.verify_homology_model(stcurve.HOMOLOGY_MODEL,
                                           stcurve.CYCLE_COMBOS)
    assert results == [("alternating", True), ("shift-equivariant", True),
                       ("rank", True), ("principal-minor", True),
                       ("combo-gram", True)]


def test_displayed_pair_fails_only_the_gram_check():
    results = covers.verify_homology_model(stcurve.REF_HOMOLOGY_MODEL,
                                           stcurve.REF_CYCLE_COMBOS)
    failed = [cid for cid, ok in results if not ok]
    assert failed == ["combo-gram"]


def test_pairing_variants_are_swap_conjugate():
    M = stcurve.CYCLE_PAIRING
    R = stcurve.REF_CYCLE_PAIRING
    swap = list(range(6, 12)) + list(range(6))
    assert all(M[i][j] == R[swap[i]][swap[j]]
               for i in range(12) for j in range(12))
    assert M != R


def test_deck_action_matrix():
    model = stcurve.HOMOLOGY_MODEL
    R = covers.deck_action_matrix(model, stcurve.CYCLE_COMBOS)
    assert R == stcurve.DECK_SYMPLECTIC_ACTION
    J = intlat.standard_symplectic(4)
    assert intlat.matmul(intlat.transpose(R), intlat.matmul(J, R)) == J
    power = intlat.identity(8)
    orders = []
    for k in range(1, 7):
        power = intlat.matmul(power, R)
        if power == intlat.identity(8):
            orders.append(k)
    assert orders == [6]


def test_deck_action_rejects_bad_spans():
    model = stcurve.HOMOLOGY_MODEL
    X = stcurve.CYCLE_COMBOS
    with pytest.raises(ValueError, match="^combos have degenerate Gram form$"):
        covers.deck_action_matrix(model, [row[:1] for row in X])
    scaled = [[2 * row[0]] + row[1:] for row in X]
    with pytest.raises(ValueError,
                       match="^deck action is not integral on the combos: 1/2$"):
        covers.deck_action_matrix(model, scaled)


def _deck_action_oracle(model, X):
    """E^-1 X^T M P X in Fractions through intlat.inverse, E = X^T M X;
    None if E is singular."""
    M, Xt = model.pairing, intlat.transpose(X)
    Einv = intlat.inverse(intlat.matmul(Xt, intlat.matmul(M, X)))
    if Einv is None:
        return None
    PX = intlat.matmul(model.shift_matrix(), X)
    return intlat.matmul(Einv, intlat.matmul(Xt, intlat.matmul(M, PX)))


@pytest.mark.parametrize("seed", range(24))
def test_deck_action_matrix_matches_the_fraction_oracle(seed):
    # odd seeds: the combos in a random unimodular basis of their span,
    # so R stays integral; even seeds: random integer combinations, of
    # odd width (degenerate) or mostly with a fractional R
    rng = random.Random(seed)
    model = stcurve.HOMOLOGY_MODEL
    if seed % 2:
        U = intlat.identity(8)
        for _ in range(24):
            (i, j), c = rng.sample(range(8), 2), rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        X = intlat.matmul(stcurve.CYCLE_COMBOS, U)
    else:
        width = rng.randint(1, 8)
        X = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(12)]
    want = _deck_action_oracle(model, X)
    if want is None:
        with pytest.raises(ValueError, match="^combos have degenerate Gram form$"):
            covers.deck_action_matrix(model, X)
    elif all(x.denominator == 1 for row in want for x in map(Fraction, row)):
        assert covers.deck_action_matrix(model, X) == want
    else:
        bad = next(x for row in want for x in row if Fraction(x).denominator != 1)
        with pytest.raises(ValueError) as info:
            covers.deck_action_matrix(model, X)
        assert str(info.value) == f"deck action is not integral on the combos: {bad}"


def _fraction_dims(n, exponents):
    """dim of character k = sum over the exponents of {k a / n}, minus 1,
    summed in Fractions: the formula eigenspace_dims computes on integers."""
    out = {}
    for k in range(1, n):
        s = sum((Fraction(k * a % n, n) for a in exponents), Fraction(0)) - 1
        assert s.denominator == 1
        out[k] = int(s)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.lists(st.integers(-1000, 1000), min_size=1, max_size=8))
def test_eigenspace_dims_match_the_fraction_formula(n, exponents):
    exponents = exponents + [-sum(exponents)]           # the point at infinity
    assume(math.gcd(n, *exponents) == 1)
    cover = covers.CyclicCover(n, exponents)
    dims = cover.eigenspace_dims()
    assert dims == _fraction_dims(n, exponents)
    assert all(type(d) is int for d in dims.values())
