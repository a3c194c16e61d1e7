"""The three workloads: rounds of calls into the program, and their checks.

A workload runs whole rounds.  A round is a fixed list of operations
(one `verify`, nine parameter points, or seventeen lattice tool calls)
whose inputs come from the seed and the round index.  Each operation is
timed on its own; its output is checked afterwards, outside the timed
region, against the oracle or against properties the method must have.
An operation fails if it raises, exits with the wrong code, or its
output fails a check.

All calls go through module attributes (`cli.parse_tower`,
`periods.riemann_positivity`, ...), never through names bound here, so
the tracer's stand-ins see them.
"""

import contextlib
import json
import time
import traceback
from fractions import Fraction

from click.testing import CliRunner

from cycloperiods import cli, exactfield, intlat, periods, stcurve, suite

import inputs

ROUND_PREC = 128          # verify --prec, and the family's pipeline precision


class Op:
    """One program call: label, wall time, output (or error), and its input."""

    __slots__ = ("label", "seconds", "output", "error", "item")

    def __init__(self, label, seconds, output, error, item=None):
        self.label = label
        self.seconds = seconds
        self.output = output
        self.error = error
        self.item = item


def _error_text(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _symplectic_j(g):
    return inputs.frobenius_form([1] * g)


class Workload:
    name = None

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.runner = CliRunner()

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def setup(self):
        """What a user pays before the first operation, beyond the import."""

    def run_round(self, r):
        """Yield the round's operations (Op), each timed, one at a time."""
        raise NotImplementedError

    def prepare(self, oracle):
        """Reference values for the checks; called once, before any check."""
        self.oracle = oracle

    def check(self, op, deep):
        """List of problems with op's output (empty when it is right)."""
        raise NotImplementedError

    def invoke(self, label, args, item=None):
        """One in-process CLI call, as a user's shell would make it."""
        t0 = time.perf_counter()
        with self.span("cli.invoke"):
            result = self.runner.invoke(cli.main, args)
        seconds = time.perf_counter() - t0
        error = None
        if result.exception is not None and not isinstance(result.exception,
                                                            SystemExit):
            error = _error_text(result.exception)
        return Op(label, seconds, (result.exit_code, result.stdout), error, item)


# -- verify-suite ----------------------------------------------------------------

# the positivity sample points of the riemann-positive check, by evidence key:
# (matrix, point), with "z*" standing for the matched point
POSITIVITY_POINTS = {
    "genus4 tau=i": ("genus4", {"tau": (0, 0, 0, 1)}),
    "genus4 tau=2i": ("genus4", {"tau": (0, 0, 0, 2)}),
    "genus4 tau=1+i": ("genus4", {"tau": (1, 0, 0, 1)}),
    "family z=0": ("prym", {"z1": (0,), "z2": (0,)}),
    "family z=z*": ("prym", "z*"),
    "family z=(1/2,0)": ("prym", {"z1": (Fraction(1, 2),), "z2": (0,)}),
    "genus4-family tau=2i, z=z*": ("genus4-family", "z*+tau=2i"),
}


class VerifySuite(Workload):
    name = "verify-suite"
    ARGS = ["verify", "--json", "--prec", str(ROUND_PREC)]

    def run_round(self, r):
        yield self.invoke(f"r{r}/verify", self.ARGS)

    def prepare(self, oracle):
        super().prepare(oracle)
        self.emb = emb = oracle.Embedding()
        ref = {}
        B = stcurve.SPLITTING_BASIS
        G = _matmul(_transpose(B), _matmul(_symplectic_j(4), B))
        cols = stcurve.PRYM_COLS
        prym = [[G[i][j] for j in cols] for i in cols]
        ref["full_snf"] = oracle.smith_divisors(G)
        ref["prym_snf"] = oracle.smith_divisors(prym)
        ref["prym_det"] = oracle.det(prym)
        curve, quot = stcurve.CURVE_COVER, stcurve.ELLIPTIC_QUOTIENT_COVER
        ref["genus"] = oracle.rh_genus(curve.n, [a for _, a in curve.exponents])
        ref["quotient_genus"] = oracle.rh_genus(quot.n, [a for _, a in quot.exponents])

        # positivity minors at the suite's sample points, from the exact
        # period matrices (frozen genus-4 matrix, and the pipeline's families)
        ctx = suite.SuiteContext(ROUND_PREC)
        mats = {"genus4": stcurve.genus4_period_matrix().to_json(),
                "prym": ctx.prym_family.to_json(),
                "genus4-family": ctx.genus4_family.to_json()}
        zstar = {k: emb.tower(v.to_json()) for k, v in stcurve.MATCH_POINT.items()}
        sign = stcurve.POSITIVITY_SIGN
        ref["minors"] = {}
        with emb.ctx():
            for key, (mat, point) in POSITIVITY_POINTS.items():
                if point == "z*":
                    values = dict(zstar)
                elif point == "z*+tau=2i":
                    values = dict(zstar, tau=emb.coords((0, 0, 0, 2)))
                else:
                    values = {k: emb.coords(v) for k, v in point.items()}
                pm = mats[mat]
                P = emb.period_matrix(pm, values)
                ref["minors"][key] = oracle.positivity_minors(
                    emb, P, oracle.polarization_inverse(pm), sign)
            ref["norm"] = sum(abs(v) ** 2 for v in zstar.values())
        self.ref = ref

    def check(self, op, deep):
        exit_code, stdout = op.output
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        report = json.loads(stdout)
        checks = report["checks"]
        problems = []
        if len(checks) != 13 or len({c["id"] for c in checks}) != 13:
            problems.append(f"{len(checks)} checks reported, expected 13 distinct")
        bad = [c["id"] for c in checks if c["verdict"] != "pass"]
        if bad:
            problems.append(f"not passing: {bad}")
        ev = {c["id"]: c["evidence"] for c in checks}
        ref = self.ref

        lt = ev["lattice-type"]
        if lt["full_snf"] != ref["full_snf"] or lt["prym_snf"] != ref["prym_snf"]:
            problems.append("lattice-type SNF differs from sympy")
        sym = lt["symplectic_type"]
        doubled = sorted(d for d in sym for _ in range(2))
        prod = 1
        for d in sym:
            prod *= d
        if doubled != ref["prym_snf"] or prod * prod != abs(ref["prym_det"]):
            problems.append(f"symplectic type {sym} disagrees with SNF/det")

        ct = ev["cover-table"]
        if ct["genus"] != ref["genus"] or ct["quotient_genus"] != ref["quotient_genus"]:
            problems.append("cover-table genus differs from Riemann-Hurwitz")
        problems += _table_problems(stcurve.CURVE_COVER.n,
                                    [tuple(r) for r in ct["table"]], ct["genus"])

        rp = ev["riemann-positive"]
        for key, minors in ref["minors"].items():
            e = rp[key]
            if e["verdict"] != "positive" or e["prec"] != ROUND_PREC:
                problems.append(f"riemann-positive {key}: {e['verdict']} at {e['prec']}")
            ranges = e["minor_ranges"]
            if [k for k, _, _ in ranges] != list(range(1, len(minors) + 1)):
                problems.append(f"riemann-positive {key}: minors {ranges}")
                continue
            for (k, lo, hi), m in zip(ranges, minors):
                if not (m.real > 0 and self.oracle.within(float(m.real), lo, hi)):
                    problems.append(f"riemann-positive {key} minor {k}: "
                                    f"[{lo}, {hi}] vs {mp_str(m.real)}")

        bp = ev["ball-point"]
        re_text, im_text = bp["norm_decimal"]
        with self.emb.ctx():
            slack = self.emb.rat(Fraction(1, 10 ** 16)) * (1 + Fraction(1, 10 ** 6))
            if (abs(self.emb.rat(Fraction(re_text)) - ref["norm"]) > slack
                    or abs(self.emb.rat(Fraction(im_text))) > slack):
                problems.append(f"ball-point norm {bp['norm_decimal']} vs "
                                f"{mp_str(ref['norm'])}")
        if not bp["in_unit_ball"] or not ref["norm"] < 1:
            problems.append("ball-point: z* not certified inside the ball")
        return problems


def mp_str(x):
    return str(x)[:24]


def _table_problems(n, table, genus):
    """Character table properties: sum dims = g, sum ranks = 2g, d_k + d_{n-k} = r_k."""
    problems = []
    if [k for k, _, _ in table] != list(range(1, n)):
        return [f"table rows {[k for k, _, _ in table]} for n={n}"]
    rank = {k: r for k, r, _ in table}
    dim = {k: d for k, _, d in table}
    if sum(dim.values()) != genus:
        problems.append(f"dims sum to {sum(dim.values())}, genus {genus}")
    if sum(rank.values()) != 2 * genus:
        problems.append(f"ranks sum to {sum(rank.values())}, 2g = {2 * genus}")
    bad = [k for k in range(1, n) if dim[k] + dim[n - k] != rank[k]]
    if bad:
        problems.append(f"d_k + d_(n-k) != rank_k at k={bad}")
    return problems


# -- family-points ---------------------------------------------------------------

class FamilyPoints(Workload):
    name = "family-points"

    def setup(self):
        self.family = suite.SuiteContext(ROUND_PREC).genus4_family

    def run_round(self, r):
        for pt in inputs.family_round(self.seed, r):
            t0 = time.perf_counter()
            try:
                with self.span("bench.point"):
                    out, error = self.emit_point(pt), None
            except Exception as exc:  # counted as a failed operation
                out, error = None, _error_text(exc)
            yield Op(pt.label, time.perf_counter() - t0, out, error, pt)

    def emit_point(self, pt):
        """`emit genus4 --tau --z1 --z2` in both formats, then `riemann-check`.

        The same steps the commands take once the family exists: parse the
        literals, certify Im tau > 0 and |z1|^2 + |z2|^2 < 1 exactly,
        evaluate, write the exact-json and decimal payloads, and certify
        positivity of the polarization form at the point.
        """
        values = {name: cli.parse_tower(text) for name, text in pt.texts.items()}
        tau, z1, z2 = values["tau"], values["z1"], values["z2"]
        out = {"values": values}
        imag_twice = (tau - tau.conjugate()) * exactfield.IUNIT
        out["upper"] = exactfield.real_sign(-imag_twice) > 0
        norm = z1 * z1.conjugate() + z2 * z2.conjugate()
        out["inside"] = exactfield.real_sign(1 - norm) > 0
        if not (out["upper"] and out["inside"]):
            return out        # emit stops here with a usage error
        rows = self.family.evaluate(values)
        head = {"point": {k: str(v) for k, v in values.items()},
                "polarization": intlat.mat_to_json(intlat.standard_symplectic(4))}
        exact = dict(head, format="exact-json",
                     entries=[[x.to_json() for x in row] for row in rows])
        out["exact"] = json.dumps(exact, indent=2, sort_keys=True)
        balls = [[exactfield.embed(x, pt.prec) for x in row] for row in rows]
        decimal = dict(head, format="decimal", precision_bits=pt.prec,
                       digits=pt.digits,
                       entries=[[list(b.decimal(pt.digits)) for b in row]
                                for row in balls])
        out["decimal"] = json.dumps(decimal, indent=2, sort_keys=True)
        out["radii"] = [[b.rad for b in row] for row in balls]
        out["rows"] = rows
        out["verdict"], out["minors"] = periods.riemann_positivity(
            self.family, values, prec=pt.prec, sign=stcurve.POSITIVITY_SIGN)
        return out

    def prepare(self, oracle):
        super().prepare(oracle)
        self.pm = self.family.to_json()
        self.einv = oracle.polarization_inverse(self.pm)
        self.embs = {}

    def embedding(self, dps):
        if dps not in self.embs:
            self.embs[dps] = self.oracle.Embedding(dps)
        return self.embs[dps]

    def check(self, op, deep):
        pt, out = op.item, op.output
        problems = []
        for name, coord in pt.coords.items():
            got = out["values"][name].to_json()
            got = tuple(Fraction(n, d) for n, d in got["c"] + got["a"])
            if got != coord.coords:
                problems.append(f"{name}={coord.text[:40]} parsed to another value")
        if not out["upper"]:
            problems.append("tau not certified in the upper half plane")
        if out["inside"] != pt.inside:
            problems.append(f"inside-ball certificate {out['inside']}, exact {pt.inside}")
        if problems or not pt.inside:
            return problems

        exact = json.loads(out["exact"])
        back = [[exactfield.TowerElem.from_json(e) for e in row]
                for row in exact["entries"]]
        if back != out["rows"] or exact["format"] != "exact-json":
            problems.append("exact-json does not round-trip")

        emb = self.embedding(pt.digits + 40)
        oracle = self.oracle
        with emb.ctx():
            tol = emb.rat(Fraction(1, 10 ** (emb.dps - 30)))
            values = {k: emb.coords(c.coords[:4], c.coords[4:])
                      for k, c in pt.coords.items()}
            P = emb.period_matrix(self.pm, values)
            ulp = emb.rat(Fraction(1, 10 ** pt.digits))
            dec = json.loads(out["decimal"])["entries"]
            for i, row in enumerate(P):
                for j, v in enumerate(row):
                    if abs(emb.tower(exact["entries"][i][j]) - v) > tol * (1 + abs(v)):
                        problems.append(f"exact entry {i},{j} differs from mpmath")
                    re_text, im_text = dec[i][j]
                    allow = ulp + emb.rat(out["radii"][i][j]) + tol * (1 + abs(v))
                    if (abs(emb.rat(Fraction(re_text)) - v.real) > allow
                            or abs(emb.rat(Fraction(im_text)) - v.imag) > allow):
                        problems.append(f"decimal entry {i},{j} off by more than "
                                        f"10^-{pt.digits} + radius")
            scale = max(abs(v) for row in P for v in row) ** 2
            if oracle.first_relation_residual(emb, P, self.einv) > tol * scale:
                problems.append("P E^-1 P^T is not 0 in mpmath")
            minors = oracle.positivity_minors(emb, P, self.einv, stcurve.POSITIVITY_SIGN)
            if not all(m.real > 0 and abs(m.imag) <= tol * (1 + abs(m)) for m in minors):
                problems.append("mpmath minors are not all positive")
        if out["verdict"] != "positive":
            problems.append(f"verdict {out['verdict']} inside the ball")
        elif [k for k, _, _ in out["minors"]] != list(range(1, len(minors) + 1)):
            problems.append(f"minor ranges {out['minors']}")
        else:
            for (k, lo, hi), m in zip(out["minors"], minors):
                if not oracle.within(float(m.real), lo, hi):
                    problems.append(f"minor {k}: [{lo}, {hi}] vs {mp_str(m.real)}")
        return problems


# -- lattice-tools ---------------------------------------------------------------

class LatticeTools(Workload):
    name = "lattice-tools"

    def run_round(self, r):
        for k, item in enumerate(inputs.lattice_round(self.seed, r)):
            if item.kind == "snf":
                args = ["tools", "snf", "--matrix", item.text]
            elif item.kind == "symplectic":
                args = ["tools", "symplectic-basis", "--matrix", item.text]
            else:
                args = ["tools", "covers", "--n", str(item.n),
                        "--exponents", item.text]
            yield self.invoke(f"r{r}/{k}/{item.kind}", args, item)

    def check(self, op, deep):
        item = op.item
        exit_code, stdout = op.output
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        if item.kind == "covers":
            return self._check_covers(item, stdout)
        obj = json.loads(stdout)
        d = item.chain
        if obj["divisors"] != d:
            return [f"divisors {obj['divisors']} != constructed {d}"]
        problems = []
        if item.kind == "snf":
            A, U, D, V = item.matrix, obj["U"], obj["D"], obj["V"]
            n = len(A)
            if D != [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]:
                problems.append("D is not diag(divisors)")
            if _matmul(U, _matmul(A, V)) != D:
                problems.append("U A V != D")
            # det A = +-prod(d) by construction, so U A V = D forces
            # det U * det V = +-1; the first round also asks sympy
            unimodular = [U, V]
        else:
            E, S = item.matrix, obj["basis"]
            if _matmul(_transpose(S), _matmul(E, S)) != inputs.frobenius_form(d):
                problems.append("S^T E S is not the Frobenius form of the chain")
            # likewise det E = prod(d)^2 = det F(d) forces det S = +-1
            unimodular = [S]
        if deep:
            if self.oracle.smith_divisors(item.matrix) != (
                    d if item.kind == "snf" else sorted(x for x in d for _ in range(2))):
                problems.append("sympy Smith form differs from the constructed chain")
            for M in unimodular:
                if abs(self.oracle.det(M)) != 1:
                    problems.append("transform is not unimodular (sympy det)")
        return problems

    def _check_covers(self, item, stdout):
        lines = stdout.strip().splitlines()
        table = [tuple(int(x) for x in line.split()) for line in lines[1:-1]]
        genus = int(lines[-1].split()[1])
        problems = []
        want = self.oracle.rh_genus(item.n, item.exponents)
        if genus != want:
            problems.append(f"genus {genus}, Riemann-Hurwitz {want}")
        return problems + _table_problems(item.n, table, genus)


WORKLOADS = {w.name: w for w in (VerifySuite, FamilyPoints, LatticeTools)}
