"""Command line front end: verify, emit, and small exact tools.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage or malformed
input, 3 the run could not reach a verdict (underpowered precision or
an unresolved convention ambiguity).
"""

import json
import re
import sys
from fractions import Fraction
from math import lcm

import click

from . import covers, intlat, pel, periods, stcurve, suite
from .exactfield import (IUNIT, RHO, ROOT4_3, SQRT3, ZETA, TowerElem, embed,
                         real_sign)
from .report import dumps_json, excerpt


# -- tower literals --------------------------------------------------------

class LiteralError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(\d+\.\d+|\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[()^+\-*/])")

# largest |exponent| a literal may use: 3^1024 already has 1,624 bits, and
# unbounded exponents would let one argument allocate without limit
MAX_EXPONENT = 1024
# bound on n * (height(x) + 4) >= height(x^n) in bits, checked before a
# power is taken, so that (2^1024)^1024 is refused rather than computed
MAX_POWER_BITS = 1 << 16
# deepest parenthesis nesting; the parser recurses on it
MAX_NESTING = 64
# largest --prec, which sizes every embed: verify --only positivity takes
# 0.2-0.26 s here, 0.73 s in-process at 262,144 bits (Python 3.11, 2-core Xeon VM)
MAX_PREC = 1 << 16
# largest --digits: Python turns no integer of more digits into a string
MAX_DIGITS = 4300
# largest --n of tools covers, whose table has n - 1 lines: at the bound
# the command takes 0.24 s with 4 exponents and 0.32 s with 8, against
# 13.4 s at n = 10^6 (Python 3.11, 2-core Xeon VM)
MAX_COVER_DEGREE = 10_000
# most --exponents of tools covers, each a term of every table line's integer
# sum: at n = 10,000 the command takes 0.27-0.39 s with 8 and 0.32-0.43 s
# with 16 (same VM)
MAX_COVER_EXPONENTS = 8
# largest genus and most parameters of a tools riemann-check matrix, and
# largest height (_height_bits) of its tower coordinates and --at values,
# each over one common denominator, halved per genus above 4: the minors take
# up to g 2^(g-1) products, the first relation and the Gram grow as the
# square of the parameter count, and distinct denominators multiply in the
# Gram.  At the bounds a dense matrix with 8 dense parameters takes 0.5-1.6 s
# at g = 2..8 through the CLI at --prec 65536 (same VM); g = 10 with 6, 2.4 s
MAX_RIEMANN_GENUS = 8
MAX_RIEMANN_PARAMS = 8
MAX_RIEMANN_MATRIX_BITS = 512
MAX_RIEMANN_POINT_BITS = 1280
# largest rows x bits of the largest entry, a Hadamard-style height, of a
# tools snf or tools symplectic-basis matrix.  At the bound, 32 x 32 with
# 64-bit entries, smith_normal_form took at most 0.58 s on 15 seeded
# matrices and symplectic_basis 0.45 s on 300 seeded forms (same VM)
MAX_MATRIX_HEIGHT_BITS = 2048
# most characters of --matrix or --file JSON, refused before it is parsed
MAX_JSON_TEXT = 4 << 20

_NAMES = {"i": IUNIT, "zeta": ZETA, "alpha": ROOT4_3,
          "rho": RHO, "sqrt3": SQRT3}


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise LiteralError(f"cannot read {excerpt(text[pos:])!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _height_bits(*xs):
    """Height of the tower elements xs over one common denominator, in bits,
    read from their coordinates as reduced fractions: it measures the value,
    whatever common factor the numerators and denominator may share."""
    qs = [q for x in xs for q in x.c + x.a]
    d = lcm(*[q.denominator for q in qs])
    return max([d] + [abs(q.numerator) * (d // q.denominator) for q in qs]).bit_length()


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise LiteralError(f"expected {want or 'a token'}, got {tok and excerpt(tok)!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                node = node + self.term()
            else:
                node = node - self.term()
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                node = node * rhs
            else:
                if rhs.is_zero():
                    raise LiteralError("division by zero")
                node = node / rhs
        return node

    def unary(self):
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        node = self.power()
        return -node if negate else node

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if not tok.isdigit():
                raise LiteralError(f"exponent must be an integer, got {excerpt(tok)!r}")
            n = int(tok) if len(tok) <= 100 else MAX_EXPONENT + 1
            if n > MAX_EXPONENT:
                raise LiteralError(f"exponent {'-' if sign < 0 else ''}"
                                   f"{tok[:20]} is out of range "
                                   f"(|exponent| <= {MAX_EXPONENT})")
            if sign < 0:
                if base.is_zero():
                    raise LiteralError("zero to a negative power")
                base = base.inverse()
            bits = n * (_height_bits(base) + 4)
            if bits > MAX_POWER_BITS:
                raise LiteralError(f"power too large: up to {bits} bits "
                                   f"(at most {MAX_POWER_BITS})")
            return base ** n
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise LiteralError(f"parentheses nested deeper than "
                                   f"{MAX_NESTING}")
            node = self.expr()
            self.take(")")
            self.depth -= 1
            return node
        if tok in _NAMES:
            return _NAMES[tok]
        if re.fullmatch(r"\d+\.\d+|\.\d+|\d+", tok):
            try:
                return TowerElem.coerce(Fraction(tok))
            except ValueError as exc:   # past Python's digit limit
                raise LiteralError(f"number too long: {exc}") from exc
        raise LiteralError(f"unexpected token {excerpt(tok)!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise LiteralError(f"trailing input at {excerpt(self.peek())!r}")
        return node


def parse_tower(text):
    """Exact value from a literal like '(1/2)+(-1)*zeta^3' or '0.25,0.5'.

    A comma splits real and imaginary parts, each again a literal;
    decimals are read exactly as the rationals they denote.  Exponents
    are integers of absolute value at most MAX_EXPONENT, a power may not
    pass MAX_POWER_BITS and parentheses nest at most MAX_NESTING deep;
    anything else raises LiteralError.
    """
    text = text.strip()
    if not text:
        raise LiteralError("empty literal")
    if "," in text:
        left, right = text.split(",", 1)
        return (_Parser(_tokenize(left)).parse()
                + _Parser(_tokenize(right)).parse() * IUNIT)
    return _Parser(_tokenize(text)).parse()


def _parse_or_usage(text, what):
    try:
        return parse_tower(text)
    except (LiteralError, ZeroDivisionError, ValueError) as exc:
        raise click.UsageError(f"bad {what} literal {excerpt(text)!r}: {exc}")


# -- output helpers --------------------------------------------------------

def _emit_payload(rows, polarization, point, fmt, prec, digits):
    payload = {"format": fmt, "point": {k: str(v) for k, v in point.items()},
               "polarization": intlat.mat_to_json(polarization)}
    if fmt == "exact-json":
        payload["entries"] = [[x.to_json() for x in row] for row in rows]
    else:
        payload["precision_bits"] = prec
        payload["digits"] = digits
        payload["entries"] = [[list(embed(x, prec).decimal(digits))
                               for x in row] for row in rows]
    return payload


def _echo_json(build, *args):
    """Print build(*args) as JSON.

    Python will not turn an integer of more than 4,300 digits into a
    string, in str() and dumps_json alike; such a result is a usage error
    (exit 2) instead of a traceback.
    """
    try:
        text = dumps_json(build(*args))
    except ValueError as exc:
        raise click.UsageError(f"result too large to print: {exc}")
    click.echo(text)


def _require_in_ball(z1, z2, prec, digits):
    norm, inside = pel.ball_norm(z1, z2)
    if not inside:
        try:
            shown = embed(norm, prec).decimal(digits)[0]
        except ValueError:      # past Python's 4,300-digit limit
            shown = "a number too long to print"
        raise click.UsageError(
            f"point outside the unit ball: |z1|^2 + |z2|^2 = {shown} >= 1 "
            f"(certified exactly)")


def _require_upper_half(tau):
    imag_twice = (tau - tau.conjugate()) * IUNIT
    if real_sign(-imag_twice) <= 0:
        raise click.UsageError("tau must have positive imaginary part "
                               "(certified exactly)")


def _read_source(matrix, path):
    """Raw JSON text from --matrix (inline or @file) or --file."""
    if (matrix is None) == (path is None):
        raise click.UsageError("give the matrix with --matrix or --file")
    if path is None and matrix.startswith("@"):
        path, matrix = matrix[1:], None
    if path is not None:
        try:
            with open(path) as fh:
                matrix = fh.read(MAX_JSON_TEXT + 1)
        except OSError as exc:
            raise click.UsageError(f"cannot read {excerpt(path)}: {exc.strerror or exc}")
    if len(matrix) > MAX_JSON_TEXT:
        raise click.UsageError(f"matrix JSON is longer than {MAX_JSON_TEXT} characters")
    return matrix


def _load_json(matrix, path):
    """The JSON of --matrix or --file.  Text that is not JSON, holds an
    integer past Python's digit limit or nests deeper than the parser's
    recursion limit is a usage error."""
    try:
        return json.loads(_read_source(matrix, path))
    except (ValueError, RecursionError) as exc:
        raise click.UsageError(f"matrix is not valid JSON: {exc}")


def _load_matrix(matrix, path):
    """Integer matrix from JSON rows or a {"rows", "cols", "data"} object,
    of height (rows x bits of the largest entry) at most
    MAX_MATRIX_HEIGHT_BITS."""
    obj = _load_json(matrix, path)
    try:
        if isinstance(obj, dict):
            A = intlat.mat_from_json(obj)
        else:
            A = intlat.rows_from_json(obj)
    except ValueError as exc:
        raise click.UsageError(f"malformed matrix: {exc}")
    if any(x.denominator != 1 for row in A for x in row):
        raise click.UsageError("malformed matrix: entries must be integers")
    A = [[int(x) for x in row] for row in A]
    _bound_height(A)
    return A


def _bound_height(A):
    """Refuse A past MAX_MATRIX_HEIGHT_BITS, rows x bits of its largest entry."""
    height = len(A) * max((abs(x) for row in A for x in row), default=0).bit_length()
    if height > MAX_MATRIX_HEIGHT_BITS:
        raise click.UsageError(f"matrix height {height} bits (rows x bits of the "
                               f"largest entry) passes {MAX_MATRIX_HEIGHT_BITS}")


def _check_range(option, value, lo, hi):
    if not lo <= value <= hi:
        raise click.UsageError(f"{option} must be between {lo} and {hi}")


def _pipeline(prec):
    """Shared context, mapping an unresolved convention search to exit 3."""
    ctx = suite.SuiteContext(prec)
    try:
        ctx.prym_family
    except pel.ConventionError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    return ctx


# -- commands ---------------------------------------------------------------

@click.group()
def main():
    """Exact period-matrix checks for the hexagonal genus-4 family."""


@main.command()
@click.option("--prec", default=128, show_default=True,
              help="working precision in bits (16 to 65536)")
@click.option("--all", "everything", is_flag=True,
              help="run every check (the default)")
@click.option("--only", default=None, metavar="TAG",
              help="run only the checks with this tag or id")
@click.option("--strict", is_flag=True,
              help="treat documented display divergences as failures")
@click.option("--json", "as_json", is_flag=True, help="machine readable output")
def verify(prec, everything, only, strict, as_json):
    """Run the verification suite and exit 0/1/3."""
    _check_range("--prec", prec, 16, MAX_PREC)
    if everything and only is not None:
        raise click.UsageError("--all and --only exclude each other")
    rep = suite.run_all(prec=prec, only=only, strict=strict)
    if only is not None and not rep.checks:
        known = sorted({t for _, t in suite.check_tags()}
                       | {c for c, _ in suite.check_tags()})
        raise click.UsageError(f"nothing matches --only {excerpt(only)!r}; "
                               f"known: {', '.join(known)}")
    click.echo(rep.dumps() if as_json else rep.render())
    sys.exit(rep.exit_code())


@main.command()
@click.argument("which", type=click.Choice(["prym", "genus4"]))
@click.option("--special", is_flag=True,
              help="the distinguished fiber instead of a family point")
@click.option("--tau", default=None, help="base parameter (genus4 only)")
@click.option("--z1", default=None, help="first ball coordinate")
@click.option("--z2", default=None, help="second ball coordinate")
@click.option("--format", "fmt", default="exact-json", show_default=True,
              type=click.Choice(["exact-json", "decimal"]))
@click.option("--prec", default=128, show_default=True,
              help="bits for decimal output")
@click.option("--digits", default=30, show_default=True,
              help="fractional digits for decimal output")
def emit(which, special, tau, z1, z2, fmt, prec, digits):
    """Print a period matrix at an exact parameter point."""
    _check_range("--prec", prec, 16, MAX_PREC)
    _check_range("--digits", digits, 0, MAX_DIGITS)
    have_z = z1 is not None or z2 is not None
    if special and have_z:
        raise click.UsageError("--special excludes --z1/--z2")
    if have_z and (z1 is None or z2 is None):
        raise click.UsageError("need both --z1 and --z2")
    if which == "prym" and tau is not None:
        raise click.UsageError("prym takes no --tau")
    if which == "genus4" and tau is None:
        raise click.UsageError("genus4 needs --tau")

    point = {}
    if tau is not None:
        point["tau"] = _parse_or_usage(tau, "--tau")
        _require_upper_half(point["tau"])
    if have_z:
        point["z1"] = _parse_or_usage(z1, "--z1")
        point["z2"] = _parse_or_usage(z2, "--z2")
        _require_in_ball(point["z1"], point["z2"], prec, digits)
        ctx = _pipeline(prec)
        pm = ctx.prym_family if which == "prym" else ctx.genus4_family
    elif which == "prym":
        pm = stcurve.PRYM_SPECIAL_MATRIX
    else:
        pm = stcurve.GENUS4
    _echo_json(_emit_payload, pm.evaluate(point), pm.polarization,
               point, fmt, prec, digits)


@main.group()
def tools():
    """Small exact lattice and period utilities."""


@tools.command()
@click.option("--matrix", default=None,
              help="integer matrix, JSON rows or @file")
@click.option("--file", "path", default=None, type=click.Path(),
              help="file holding the matrix JSON")
def snf(matrix, path):
    """Smith normal form and divisor chain."""
    A = _load_matrix(matrix, path)
    try:
        U, D, V = intlat.smith_normal_form(A)
    except (ValueError, IndexError) as exc:
        raise click.UsageError(f"not a valid integer matrix: {exc}")
    divisors = [D[i][i] for i in range(min(len(D), len(D[0])))]
    _echo_json(lambda: {"divisors": divisors, "U": U, "D": D, "V": V})


@tools.command("symplectic-basis")
@click.option("--matrix", default=None,
              help="alternating integer matrix, JSON rows or @file")
@click.option("--file", "path", default=None, type=click.Path(),
              help="file holding the matrix JSON")
def symplectic_basis(matrix, path):
    """Frobenius basis and polarization type of an alternating form."""
    A = _load_matrix(matrix, path)
    try:
        S, divisors = intlat.symplectic_basis(A)
    except intlat.DegenerateFormError as exc:
        raise click.UsageError(f"form is degenerate: {exc}")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_json(lambda: {"basis": S, "divisors": list(divisors)})


@tools.command("riemann-check")
@click.option("--matrix", default=None,
              help="period matrix JSON (as produced by to_json), or @file")
@click.option("--file", "path", default=None, type=click.Path(),
              help="file holding the period matrix JSON")
@click.option("--at", "assignments", multiple=True, metavar="NAME=LITERAL",
              help="parameter values for the positivity test")
@click.option("--prec", default=128, show_default=True)
def riemann_check(matrix, path, assignments, prec):
    """First bilinear relation, and positivity at a chosen point."""
    _check_range("--prec", prec, 16, MAX_PREC)
    obj = _load_json(matrix, path)
    def bound(pm):          # before from_json inverts the polarization
        if pm.g > MAX_RIEMANN_GENUS or len(pm.params) > MAX_RIEMANN_PARAMS:
            raise click.UsageError(
                f"genus {pm.g} with {len(pm.params)} parameters: at most genus "
                f"{MAX_RIEMANN_GENUS} and {MAX_RIEMANN_PARAMS} parameters")
        _bound_height(pm.polarization)
    try:
        pm = periods.PeriodMatrix.from_json(obj, bound)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"malformed period matrix: {exc}")
    point = {}
    for item in assignments:
        if "=" not in item:
            raise click.UsageError(f"--at needs NAME=LITERAL, got {excerpt(item)!r}")
        name, text = item.split("=", 1)
        key = name.strip()
        if key in point or key not in pm.params:
            why = "given twice" if key in point else "not a parameter"
            raise click.UsageError(f"--at {excerpt(key)} is {why}; the matrix "
                                   f"declares {excerpt(str(list(pm.params)))}")
        point[key] = _parse_or_usage(text, f"--at {excerpt(name)}")
    missing = sorted(set(pm.params) - set(point))
    if missing:
        raise click.UsageError(f"missing --at values for {excerpt(str(missing))}")
    coords = [x for M in pm.coeffs for row in M for x in row]
    values = [point[p] for p in pm.params]
    for what, xs, limit in (("matrix", coords, MAX_RIEMANN_MATRIX_BITS),
                            ("point", values, MAX_RIEMANN_POINT_BITS)):
        limit >>= max(0, pm.g - 4)
        # each element on its own first: no lcm of a tall input
        if any(_height_bits(x) > limit for x in xs) or _height_bits(*xs) > limit:
            raise click.UsageError(f"{what} height over one common "
                                   f"denominator passes {limit} bits")
    relation = periods.first_relation_holds(pm)
    verdict, minors = periods.riemann_positivity(
        pm, point, prec=prec, sign=stcurve.POSITIVITY_SIGN)
    payload = {"first_relation": relation,
               "positivity": verdict,
               "precision_bits": prec,
               "minor_ranges": [[k, lo, hi] for k, lo, hi in minors]}
    click.echo(dumps_json(payload))
    if not relation or verdict == "not-positive":
        sys.exit(1)


@tools.command("covers")
@click.option("--n", required=True, type=click.IntRange(max=MAX_COVER_DEGREE),
              help="order of the cyclic group")
@click.option("--exponents", required=True,
              help="comma separated local rotation data, e.g. 1,1,1,3")
def covers_cmd(n, exponents):
    """Character table (rank and form dimension) of a cyclic cover."""
    try:
        data = [int(x) for x in exponents.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad --exponents: {exc}")
    if len(data) > MAX_COVER_EXPONENTS:
        raise click.UsageError(f"at most {MAX_COVER_EXPONENTS} --exponents")
    try:
        cover = covers.CyclicCover(n, data)
        table = cover.table()
        genus = cover.genus()
    except ValueError as exc:
        raise click.UsageError(f"invalid branch data: {exc}")
    click.echo(f"{'k':>3} {'rank':>5} {'dim':>4}")
    for k, rank, dim in table:
        click.echo(f"{k:>3} {rank:>5} {dim:>4}")
    click.echo(f"genus {genus}")


if __name__ == "__main__":
    main()
