"""The thirteen verification checks for the curve data.

Each check is declared once, by @_register(id, tag, anchor): a stable
id, a tag for --only filtering, and an anchor string naming the quantity
it pins down.  Called as fn(ctx) on the run's SuiteContext (precision,
strict setting, stages), it returns (ok, evidence), or (verdict,
evidence) for a third outcome, and run_all makes the report.Check; the
suite never raises on a failing check, only on programming errors.

Checks that need the resolved family conventions go inconclusive when
the convention search does not land on a unique winner, since nothing
downstream of the family is then well defined.  The assembly at z* is
GENUS4 itself when equal to it, so its readers test identity.
"""

import os
import traceback

from . import covers, intlat, pel, periods, report, stcurve
from .exactfield import HALF, IUNIT, ZERO, embed, zeta_power

# frozen per run; the reading pel.resolve_conventions returns (embedding,
# I2 and column order) is appended when the resolution succeeds
RUN_CONVENTIONS = {
    "side": "right-plain",
    "positivity_sign": stcurve.POSITIVITY_SIGN,
    "deck_weight_exponents": list(stcurve.FORM_WEIGHT_EXPONENTS),
    "prym_weight_exponents": list(stcurve.PRYM_WEIGHT_EXPONENTS),
    "character_multiplier": "zeta^-k",
}


def _genus4_at_star(ctx):
    """The genus-4 family at z*, as stcurve.GENUS4 itself if it equals it."""
    at, g4 = ctx.genus4_family.subs(ctx.match.point()), stcurve.GENUS4
    same = (at.params, at.coeffs, at.polarization) == (
        g4.params, g4.coeffs, g4.polarization)
    return g4 if same else at


# stage name -> builder of its value from the context; the stages are the
# shared pipeline of the checks, each built at most once per context: the
# families at z* (prym_at_star, genus4_at_star) and deck-twist's search
# (deck_hits, whose (1, "plain") hit is module-endo's) serve several checks
STAGES = {
    "module": lambda ctx: pel.build_module(
        stcurve.PRYM_SHIFT, list(stcurve.MODULE_GENS),
        stcurve.PRYM_POLARIZATION),
    "skew_form": lambda ctx: pel.solve_T(ctx.module.g0, ctx.module.g1),
    "diagonalizer": lambda ctx: pel.diagonalize_W(ctx.skew_form),
    "match_target": lambda ctx: intlat.matmul(stcurve.PRYM_SPECIAL,
                                              ctx.module.basis),
    "resolution": lambda ctx: pel.resolve_conventions(
        stcurve.FAMILY_W, ctx.module, ctx.match_target),
    "conventions": lambda ctx: ctx.resolution[0],
    "match": lambda ctx: ctx.resolution[1],
    "family_u": lambda ctx: ctx.resolution[2],
    "prym_family": lambda ctx: pel.prym_family(
        ctx.match, ctx.family_u, ctx.module),
    "genus4_family": lambda ctx: stcurve.genus4_family(ctx.prym_family),
    "prym_at_star": lambda ctx: ctx.prym_family.subs(ctx.match.point()),
    "genus4_at_star": _genus4_at_star,
    "deck_hits": lambda ctx: periods.intertwiner_search(
        ctx.prym_family, stcurve.PRYM_WEIGHT_EXPONENTS, stcurve.PRYM_SHIFT,
        signs=(1,)),
}


class SuiteContext:
    """Lazy shared pipeline for the checks at a working precision; strict
    makes the display audit fail on any divergence.

    Each name of STAGES reads as an attribute; its builder runs on first
    use, and the value or the exception it raised is kept for later reads.
    """

    def __init__(self, prec=128, strict=False):
        self.prec = prec
        self.strict = strict
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            try:
                self._cache[key] = (None, builder())
            except Exception as exc:
                self._cache[key] = (exc, None)
        exc, value = self._cache[key]
        if exc is not None:
            raise exc
        return value

    def __getattr__(self, name):
        if name not in STAGES:
            raise AttributeError(name)
        return self._get(name, lambda: STAGES[name](self))


CHECKS = []


def _register(id, tag, anchor):
    # the anchor rides on the function, which functools.wraps copies
    def wrap(fn):
        fn.anchor = anchor
        CHECKS.append((id, tag, fn))
        return fn
    return wrap


def _submatrix(M, rows, cols):
    return [[M[i][j] for j in cols] for i in rows]


def _diag(xs):
    return [[x if i == j else ZERO for j in range(len(xs))]
            for i, x in enumerate(xs)]


def _diff_entries(A, B):
    """[i, j] of each entry where the same-shaped matrices A and B differ.

    Goes entry by entry, so a list matrix compares with a tuple one.
    """
    return [[i, j] for i, row in enumerate(A) for j, x in enumerate(row)
            if x != B[i][j]]


def _diff_coeffs(pm, display):
    """[i, j] of each entry where a coefficient matrix of pm differs from the
    same one of display: the constant, then one per parameter of pm."""
    return [[i, j] for i in range(pm.g) for j in range(2 * pm.g)
            if any(C[i][j] != D[i][j] for C, D in zip(pm.coeffs, display))]


@_register("lattice-type", "snf", "snf(B^T J B | prym) = (1,1,1,1,3,3)")
def _check_snf(ctx):
    J = intlat.standard_symplectic(4)
    B = stcurve.SPLITTING_BASIS
    G = intlat.matmul(intlat.transpose(B), intlat.matmul(J, B))
    ell, prym = stcurve.ELL_COLS, stcurve.PRYM_COLS
    mixed = [(i, j) for i in ell for j in prym if G[i][j] != 0]
    prym_block = _submatrix(G, prym, prym)
    ell_block = _submatrix(G, ell, ell)
    prym_divs = list(intlat.snf_divisors(prym_block))
    _, sympl_divs = intlat.symplectic_basis(prym_block)
    full_divs = list(intlat.snf_divisors(G))
    ok = (not mixed
          and prym_block == stcurve.PRYM_POLARIZATION
          and ell_block == stcurve.ELLIPTIC_BLOCK
          and prym_divs == [1, 1, 1, 1, 3, 3]
          and list(sympl_divs) == [1, 1, 3]
          and full_divs == [1, 1, 1, 1, 3, 3, 3, 3])
    return ok, {"prym_snf": prym_divs, "symplectic_type": list(sympl_divs),
                "full_snf": full_divs, "mixed_block_nonzero": mixed}


@_register("cycle-basis", "homology",
           "Gram(e) = J_std; shift acts symplectically, order 6")
def _check_homology(ctx):
    model = stcurve.HOMOLOGY_MODEL
    results = covers.verify_homology_model(model, stcurve.CYCLE_COMBOS)
    ok = all(passed for _, passed in results)
    R = covers.deck_action_matrix(model, stcurve.CYCLE_COMBOS)
    J = intlat.standard_symplectic(4)
    symplectic = intlat.matmul(intlat.transpose(R), intlat.matmul(J, R)) == J
    order = None
    power = intlat.identity(8)
    for k in range(1, 13):
        power = intlat.matmul(power, R)
        if power == intlat.identity(8):
            order = k
            break
    ok = (ok and R == stcurve.DECK_SYMPLECTIC_ACTION
          and symplectic and order == 6)
    return ok, {"model_checks": [[cid, passed] for cid, passed in results],
                "deck_action_symplectic": symplectic,
                "deck_action_order": order}


@_register("cover-table", "covers",
           "n=6, a=(1,1,1,3): dims (0,0,1,1,2), genus 4")
def _check_covers(ctx):
    cover = stcurve.CURVE_COVER
    table = cover.table()
    want = [(1, 2, 0), (2, 1, 0), (3, 2, 1), (4, 1, 1), (5, 2, 2)]
    genus = cover.genus()
    dims_sum = sum(cover.eigenspace_dims().values())
    quot = stcurve.ELLIPTIC_QUOTIENT_COVER
    ok = (table == want and genus == 4 and dims_sum == 4
          and quot.genus() == 1)
    return ok, {"table": [list(r) for r in table], "genus": genus,
                "quotient_genus": quot.genus()}


@_register("split-product", "split",
           "Z B = blockdiag((3 tau, 3 tau + 3), special)")
def _check_split(ctx):
    pm = stcurve.GENUS4
    # Z B = Z0 + tau Zt against the blocks its columns must carry
    Z0, Zt = (intlat.matmul(P, stcurve.SPLITTING_BASIS) for P in pm.coeffs)
    want0 = [[ZERO] * 8 for _ in range(4)]
    want_t = [[ZERO] * 8 for _ in range(4)]
    e0, e1 = stcurve.ELL_COLS
    want0[0][e1] = want_t[0][e0] = want_t[0][e1] = 3
    sp = stcurve.PRYM_SPECIAL
    for r in (1, 2, 3):
        for k, c in enumerate(stcurve.PRYM_COLS):
            want0[r][c] = sp[r - 1][k]
    bad = [[i, j] for i in range(4) for j in range(8)
           if Z0[i][j] != want0[i][j] or Zt[i][j] != want_t[i][j]]
    diffs = _diff_entries(sp, stcurve.REF_PRYM_SPECIAL)
    ok = not bad and diffs == [[1, 1]]
    return ok, {"bad_entries": bad, "displayed_special_divergence": diffs}


@_register("riemann-symbolic", "riemann", "P E^-1 P^T = 0 identically")
def _check_riemann(ctx):
    mats = [("genus4", stcurve.GENUS4),
            ("prym-special", stcurve.PRYM_SPECIAL_MATRIX),
            ("family-module-coords", ctx.family_u),
            ("prym-family", ctx.prym_family),
            ("genus4-family", ctx.genus4_family)]
    evidence = {}
    for name, pm in mats:
        evidence[name] = periods.first_relation_holds(pm)
    return all(evidence.values()), evidence


# the minors' signs are exact at any precision, but below this many bits
# the printed minor ranges are too coarse to back a pass, so the check
# reports them as evidence only
CERTIFICATION_FLOOR = 64


@_register("riemann-positive", "positivity",
           "i P E^-1 conj(P)^T definite (sign +1)")
def _check_positivity(ctx):
    # decided from cached products X_a = P_a E^-1, GENUS4's kept across calls
    g4, family = stcurve.GENUS4, ctx.prym_family
    points = [("genus4 tau=i", g4, {"tau": IUNIT}),
              ("genus4 tau=2i", g4, {"tau": IUNIT * 2}),
              ("genus4 tau=1+i", g4, {"tau": IUNIT + 1}),
              ("family z=0", family, {"z1": ZERO, "z2": ZERO}),
              ("family z=z*", ctx.prym_at_star, {}),
              ("family z=(1/2,0)", family, {"z1": HALF, "z2": ZERO}),
              ("genus4-family tau=2i, z=z*", ctx.genus4_at_star, {"tau": IUNIT * 2})]
    evidence = {}
    verdicts = []
    for name, pm, pt in points:
        verdict, minors = periods.riemann_positivity(
            pm, pt, prec=ctx.prec, sign=stcurve.POSITIVITY_SIGN)
        verdicts.append(verdict)
        evidence[name] = {"verdict": verdict, "prec": ctx.prec,
                          "minor_ranges": [[k, lo, hi]
                                           for k, lo, hi in minors]}
    if "not-positive" in verdicts:
        out = "fail"
    elif ctx.prec < CERTIFICATION_FLOOR:
        evidence["note"] = (f"below the {CERTIFICATION_FLOOR}-bit "
                            "certification floor; no claim made")
        out = "inconclusive"
    else:
        out = "pass"
    return out, evidence


@_register("deck-twist", "intertwine",
           "diag(zeta^4, zeta^8, zeta^8) intertwines exactly one"
           " variant, which preserves the pairing")
def _check_intertwine(ctx):
    hits = ctx.deck_hits
    J3 = stcurve.PRYM_POLARIZATION
    M = stcurve.PRYM_SHIFT
    preserves = intlat.matmul(intlat.transpose(M),
                              intlat.matmul(J3, M)) == J3
    ok = hits == [(1, "plain")] and preserves
    return ok, {"hits": [[s, v] for s, v in hits],
                "pairing_preserved": preserves}


@_register("module-form", "pel-t",
           "T skew-Hermitian, signature (2,1), 36 integral traces")
def _check_module_form(ctx):
    module = ctx.module
    grams_ok = (module.g0 == stcurve.REF_PAIRING_GRAM
                and module.g1 == stcurve.REF_SHIFT_GRAM)
    T = ctx.skew_form
    displayed_ok = T == stcurve.REF_SKEW_T
    sig = pel.signature(T)
    integral_ok, offenders = pel.integrality_check(module, T)
    ok = grams_ok and displayed_ok and sig == (2, 1) and integral_ok
    return ok, {"generator_grams_match": grams_ok,
                "displayed_T_match": displayed_ok,
                "signature": list(sig),
                "trace_offenders": [[i, j, str(g), str(w)]
                                    for i, j, g, w in offenders[:6]]}


@_register("form-diagonal", "defw",
           "W^* D W reproduces T (residual 0 or < 2^-100)")
def _check_diagonal(ctx):
    res = pel.defw_residual(ctx.diagonalizer, ctx.skew_form)
    ok = all(x.is_zero() for row in res for x in row)
    return ok, {"exact": True,
                "residual_bound": "0 (exact)" if ok else "nonzero"}


@_register("ball-point", "match", "z* exact, |z*|^2 < 1 certified")
def _check_match(ctx):
    m = ctx.match
    point_ok = m.point() == stcurve.MATCH_POINT
    coeff_ok = m.coeffs == stcurve.MATCH_COEFFS
    norm, inside = pel.ball_norm(m.z1, m.z2)
    ok = point_ok and coeff_ok and inside
    return ok, {"point_match": point_ok, "coeff_match": coeff_ok,
                "in_unit_ball": inside,
                "norm_decimal": embed(norm, prec=96).decimal(16)}


@_register("special-fiber", "family",
           "family(z*) = special; genus-4 assembly = Z(tau)")
def _check_special_fiber(ctx):
    fiber_ok = not _diff_entries(ctx.prym_at_star.coeffs[0],
                                 stcurve.PRYM_SPECIAL)
    genus4_ok = ctx.genus4_at_star is stcurve.GENUS4
    return fiber_ok and genus4_ok, {"prym_fiber_exact": fiber_ok,
                "genus4_assembly_exact": genus4_ok}


@_register("module-endo", "endo",
           "rho acts on columns; deck twist holds family-wide")
def _check_endo(ctx):
    A_rho = _diag(pel.row_multipliers(ctx.conventions))
    R_rho = [[0] * 6 for _ in range(6)]
    for k in range(3):
        R_rho[3 + k][k] = 1
        R_rho[k][3 + k] = -1
        R_rho[3 + k][3 + k] = -1
    rho_ok = periods.intertwines(ctx.family_u, A_rho, R_rho)

    # deck-twist's (sign 1, plain) variant: diag(zeta^e) against PRYM_SHIFT
    prym_ok = (1, "plain") in ctx.deck_hits

    # the full order-6 deck map only lives on the Jacobian locus, so it is
    # tested on the tau-family and on the assembly at z* if that is not it
    A4 = _diag([zeta_power(e) for e in stcurve.FORM_WEIGHT_EXPONENTS])
    R6 = stcurve.DECK_SYMPLECTIC_ACTION
    g4, pinned = stcurve.GENUS4, ctx.genus4_at_star
    genus4_ok = periods.intertwines(g4, A4, R6)
    pinned_ok = genus4_ok if pinned is g4 else periods.intertwines(pinned, A4, R6)
    ok = rho_ok and prym_ok and genus4_ok and pinned_ok
    return ok, {"rho_endomorphism": rho_ok,
                "prym_family_deck": prym_ok,
                "genus4_tau_family_deck": genus4_ok,
                "genus4_assembly_at_star_deck": pinned_ok}


@_register("display-audit", "errata",
           "first family row and c11 exact; slips enumerated")
def _check_display_audit(ctx):
    diverg = {}

    fam_diffs = _diff_coeffs(ctx.family_u, stcurve.SHIMURA_FAMILY_DISPLAY)
    diverg["family_module_coords"] = fam_diffs
    first_row_ok = not any(i == 0 for i, _ in fam_diffs)
    c11_ok = ctx.match.coeffs["c11"] == stcurve.MATCH_COEFFS["c11"]

    res = pel.defw_residual(stcurve.REF_STANDALONE_W, ctx.skew_form)
    diverg["standalone_W_residual"] = [[i, j, str(x)] for i, row in enumerate(res)
                                       for j, x in enumerate(row) if x]

    diverg["special_matrix"] = _diff_entries(stcurve.PRYM_SPECIAL,
                                             stcurve.REF_PRYM_SPECIAL)

    ref_results = covers.verify_homology_model(stcurve.REF_HOMOLOGY_MODEL,
                                               stcurve.REF_CYCLE_COMBOS)
    diverg["cycle_display_failed_checks"] = [cid for cid, passed
                                             in ref_results if not passed]
    ref = stcurve.REF_CYCLE_COMBOS
    diverg["cycle_combos"] = [[i, j, ref[i][j]]
                              for i, j in _diff_entries(ref, stcurve.CYCLE_COMBOS)]

    diverg["family_lattice_coords"] = _diff_coeffs(ctx.prym_family,
                                                   stcurve.PRYM_FAMILY_DISPLAY)

    ok = first_row_ok and c11_ok and not (ctx.strict and any(diverg.values()))
    return ok, {"first_row_exact": first_row_ok, "c11_exact": c11_ok,
                "strict": ctx.strict, "divergences": diverg}


# innermost frames kept in the evidence of an "unexpected error" verdict
TRACEBACK_FRAMES = 5


def run_all(prec=128, only=None, strict=False):
    ctx = SuiteContext(prec, strict)
    checks = []
    for cid, tag, fn in CHECKS:
        if only is not None and only not in (tag, cid):
            continue
        try:
            out, evidence = fn(ctx)
            verdict = out if isinstance(out, str) else "pass" if out else "fail"
            checks.append(report.Check(cid, fn.anchor, verdict, evidence))
        except pel.ConventionError as exc:
            checks.append(report.Check(
                cid, "convention resolution", "inconclusive",
                {"error": str(exc.args[0] if exc.args else exc),
                 "candidates": exc.candidates}))
        except Exception as exc:  # a check must never take down the run
            frames = traceback.extract_tb(exc.__traceback__)[-TRACEBACK_FRAMES:]
            checks.append(report.Check(
                cid, "unexpected error", "fail",
                {"error": f"{type(exc).__name__}: {exc}",
                 "traceback": [f"{os.path.basename(f.filename)}:{f.lineno} "
                               f"in {f.name}" + (f": {f.line}" if f.line else "")
                               for f in frames]}))
    conventions = dict(RUN_CONVENTIONS)
    try:
        conventions.update(ctx.conventions)
    except Exception:
        conventions["resolution"] = "unresolved"
    return report.Report(checks, conventions)


def check_tags():
    return [(cid, tag) for cid, tag, _ in CHECKS]
