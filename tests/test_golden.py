"""Golden outputs: commands whose stdout and exit code must not change.

Each command runs in a fresh interpreter, and the SHA-256 of its stdout
is compared with the digest recorded when the output was last known
good.  A deliberate change of one of these outputs updates its digest
here and says why in CHANGES.md.  Hostile inputs run the same way and
must end with their exit code within a wall-time budget.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

POINT = ["--tau", "1+2*i", "--z1", "(1/4)*zeta^2", "--z2", "0.25,0"]

# stands for a file holding the JSON of the genus-4 family, written by the
# test the way tests/test_reach.py builds its riemann-check input
FAMILY = "<genus4 family JSON file>"
# a point of the family with literals of about 130 bits, inside the ball
LARGE = ["--at", "tau=(1234567890123456789012345678901234567891/"
         "987654321098765432109876543210987654321)+"
         "(31415926535897932384626433832795028841971/"
         "10000000000000000000000000000000000000000)*i",
         "--at", "z1=(-27182818284590452353602874713526624977/"
         "100000000000000000000000000000000000000)+(1/3)*zeta^2",
         "--at", "z2=(14142135623730950488016887242096980785697/"
         "100000000000000000000000000000000000000000)*i"]

# a fixed 8 x 8 integer matrix of rank 7 with divisors 1,1,1,1,1,2,2,0
SNF_8 = [[-4, 14, -3, 2, 6, -6, -6, 3],
         [-14, -8, 9, 4, -8, -5, -9, -3],
         [-2, -14, -6, 5, 5, 0, 9, -7],
         [-10, 4, -7, 1, -8, -7, -5, 2],
         [-14, -4, -8, 1, -2, 0, 2, 1],
         [-14, 14, -6, 2, 4, -4, -4, -1],
         [6, -10, 4, -7, -6, 8, -2, -7],
         [34, 52, -33, -8, 36, 3, 15, 15]]


def seeded_form(n, top=9):
    """An n x n alternating form with entries in [-top, top], seeded by n."""
    rng = random.Random(n)
    E = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            E[i][j] = rng.randint(-top, top)
            E[j][i] = -E[i][j]
    return E


def seeded_matrix(n, digits):
    """An n x n integer matrix with entries of up to `digits` decimal
    digits, seeded by n."""
    rng = random.Random(n)
    top = 10 ** digits - 1
    return [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]


def _family():
    from cycloperiods import suite
    return suite.SuiteContext().genus4_family.to_json()


def _prym_form():
    from cycloperiods import stcurve
    return stcurve.PRYM_POLARIZATION


def _split_family(g):
    """The JSON of (I | tau I), g x 2g, with the standard polarization."""
    from cycloperiods import intlat
    from cycloperiods.periods import PeriodMatrix
    eye = [[int(j == i) for j in range(2 * g)] for i in range(g)]
    tau = [[int(j == g + i) for j in range(2 * g)] for i in range(g)]
    return PeriodMatrix(g, ["tau"], [eye, tau],
                        intlat.standard_symplectic(g)).to_json()


def _dense_family(g):
    """The JSON of (I | Z), Z = X - i Y symmetric with seeded integers: X in
    [-9, 9], Y in [-9, 9] off the diagonal and 36 g on it, so Y is
    diagonally dominant and all g positivity minors are > 0."""
    from cycloperiods import intlat
    from cycloperiods.exactfield import IUNIT
    from cycloperiods.periods import PeriodMatrix
    rng = random.Random(g)
    Z = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            y = 36 * g if i == j else rng.randint(-9, 9)
            Z[i][j] = Z[j][i] = rng.randint(-9, 9) - IUNIT * y
    entries = [[int(j == i) if j < g else Z[i][j - g] for j in range(2 * g)]
               for i in range(g)]
    return PeriodMatrix(g, [], [entries], intlat.standard_symplectic(g)).to_json()


def _many_params(p):
    """The JSON of (I | -i I) + sum_k t_k C_k at g = 4, with p parameters
    t0, t1, ... and seeded dense C_k with entries in [-9, 9]."""
    from cycloperiods import intlat
    from cycloperiods.exactfield import IUNIT
    from cycloperiods.periods import PeriodMatrix
    rng = random.Random(p)
    # drawn entry by entry, t0 .. t_{p-1} each, then split into matrices
    draws = [[[rng.randint(-9, 9) for _ in range(p)] for _ in range(8)]
             for _ in range(4)]
    const = [[int(j == i) - IUNIT * (j == 4 + i) for j in range(8)]
             for i in range(4)]
    coeffs = [[[d[k] for d in row] for row in draws] for k in range(p)]
    return PeriodMatrix(4, [f"t{k}" for k in range(p)], [const, *coeffs],
                        intlat.standard_symplectic(4)).to_json()


def _tall_polarization(g, bits):
    """The JSON of (I | -i I) at genus g with the seeded alternating 2g x 2g
    polarization of entries up to `bits` bits."""
    from cycloperiods.exactfield import IUNIT
    from cycloperiods.periods import PeriodMatrix
    entries = [[int(j == i) - IUNIT * (j == g + i) for j in range(2 * g)]
               for i in range(g)]
    return PeriodMatrix(g, [], [entries], seeded_form(2 * g, 2 ** bits - 1)).to_json()


def _tall_family(g, bits):
    """The JSON of (I | Z), Z symmetric, every tower coordinate of Z a
    seeded fraction with numerator and denominator of up to `bits` bits."""
    from fractions import Fraction
    from cycloperiods import intlat
    from cycloperiods.exactfield import TowerElem
    from cycloperiods.periods import PeriodMatrix
    rng = random.Random(bits)
    Z = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            q = [Fraction(rng.getrandbits(bits), rng.getrandbits(bits) | 1)
                 for _ in range(8)]
            Z[i][j] = Z[j][i] = TowerElem(q[:4], q[4:])
    entries = [[int(j == i) if j < g else Z[i][j - g] for j in range(2 * g)]
               for i in range(g)]
    return PeriodMatrix(g, [], [entries], intlat.standard_symplectic(g)).to_json()


# a file of 100,000 "[", nested past the JSON parser's recursion limit
DEEP = "<100,000 [>"
# a file of one flat list of 10^7 zeros, 20 MB, past cli.MAX_JSON_TEXT
ZEROS = "<10^7 zeros>"

# each placeholder stands for a file holding the JSON its function builds,
# or the text it returns
FILES = {
    DEEP: lambda: "[" * 100_000,
    ZEROS: lambda: "[" + ",".join("0" * 10 ** 7) + "]",
    FAMILY: _family,
    "<fixed 8 x 8 matrix>": lambda: SNF_8,
    "<6 x 6 Prym form>": _prym_form,
    "<seeded 16 x 16 form>": lambda: seeded_form(16),
    "<seeded 32 x 32 form>": lambda: seeded_form(32),
    "<(I | tau I) at g = 16>": lambda: _split_family(16),
    "<dense (I | Z) at g = 16>": lambda: _dense_family(16),
    "<g = 4 matrix with 150 parameters>": lambda: _many_params(150),
    "<(I | Z) at g = 6 with 1,000-bit entries>": lambda: _tall_family(6, 1000),
    "<(I | Z) at g = 4 with 4,000-bit entries>": lambda: _tall_family(4, 4000),
    "<g = 16, 32 x 32 polarization with 1,024-bit entries>":
        lambda: _tall_polarization(16, 1024),
    "<g = 8, 16 x 16 polarization with 4,000-bit entries>":
        lambda: _tall_polarization(8, 4000),
    "<32 x 32 matrix with 30-digit entries>": lambda: seeded_matrix(32, 30),
    "<4 x 4 matrix with 300-digit entries>": lambda: seeded_matrix(4, 300),
    "<32 x 32 form with 64-bit entries>": lambda: seeded_form(32, 2 ** 64 - 1),
    "<32 x 32 form with 300-digit entries>": lambda: seeded_form(32, 10 ** 300 - 1),
}

# (arguments, exit code, SHA-256 of stdout)
GOLDEN = [
    (["verify", "--json"], 0,
     "da8e6c06febbb7029b98cf809cc971171e7d05ea2974ddb885e2266c0464c367"),
    (["verify", "--json", "--prec", "512"], 0,
     "bbbc69eaf65d73a784bf8f1a5fd59346c0e5e2338d3641b5135c03af61781774"),
    (["verify", "--only", "positivity", "--prec", "2048", "--json"], 0,
     "8da40b78342e26658f43a4ac81b43cee4f73219c319fb94a63fc071177403811"),
    (["emit", "genus4", *POINT, "--format", "decimal", "--prec", "2048"], 0,
     "c8034923950a0c0e58acb2c28e2ae3e3609fdcf5ba533a015401d5ead0eab2ea"),
    (["emit", "prym", "--special", "--format", "decimal", "--prec", "300"], 0,
     "d2884929566d4e8b89b8affd41bb2ef70d13d990d1011c2c1f44da2a7ba35135"),
    (["verify", "--strict", "--json"], 1,
     "1c3430756e6296524898ddd3ca53fab7536a0beecab5aee529a0768ac9d3cc4e"),
    (["verify"], 0,
     "6b69cade9cb2c47b51257eb3104d5a16cf6eed7a425c5d33b0b6c057eb893ef4"),
    (["emit", "genus4", "--tau", "i"], 0,
     "63876732c55c7febc35741eff259cf05f2b6ad4e401efbea591661338d71c3c0"),
    (["emit", "prym", *POINT[2:]], 0,
     "e3c5e3492b1c5734b477505c7d9a7dee6adb5fdddf214ff24613b95ffcc15fbc"),
    (["tools", "riemann-check", "--file", FAMILY, *LARGE, "--prec", "2048"], 0,
     "4ed2b332789313d216255ba04221f4d5629c1bf20dfc0ebb0b847b9dbb0c4daf"),
    (["tools", "riemann-check", "--file", FAMILY,
      "--at", "tau=i", "--at", "z1=1", "--at", "z2=1"], 1,
     "0f8a9c0cb52a507db1e8e471cb5a231bdbc524ae9f917c1d2193c37e40fdeefe"),
    # minor 2 is exactly 0 here, so positivity stops at a zero minor
    (["tools", "riemann-check", "--file", FAMILY,
      "--at", "tau=i", "--at", "z1=1", "--at", "z2=0"], 1,
     "e052e57565adf56bf2b44c170e0645db10ac2a37b7e054fcba716f67d1b586ba"),
    (["tools", "snf", "--file", "<fixed 8 x 8 matrix>"], 0,
     "2f60ee4dd13833ef43a80996f1e511b120bcd0e464d7ee75949decd867065ba5"),
    (["tools", "symplectic-basis", "--file", "<6 x 6 Prym form>"], 0,
     "def3fa6d74865f434818f4b173f016f071042eb14f90d98c65aab470469fc5cc"),
    (["tools", "symplectic-basis", "--file", "<seeded 16 x 16 form>"], 0,
     "80fdb9779be807c147021d0d8073f93f19d752f2cf46694afcd1b1217d1f150f"),
    (["tools", "symplectic-basis", "--file", "<seeded 32 x 32 form>"], 0,
     "5c63b295f3001c7e6ca8ccce0ae45168c9ee5d1b3a67babc25942b89ecdec59d"),
    (["tools", "symplectic-basis", "--matrix",
      "[[0,2,0,0],[-2,0,0,0],[0,0,0,0],[0,0,0,0]]"], 2,
     # a usage error prints nothing on stdout
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _materialize(args, tmp_path):
    """args with each placeholder replaced by a file holding its JSON."""
    for k, placeholder in enumerate(FILES):
        if placeholder in args:
            path = tmp_path / f"input{k}.json"
            text = FILES[placeholder]()
            path.write_text(text if type(text) is str else json.dumps(text))
            args = [str(path) if a == placeholder else a for a in args]
    return args


def _run(args):
    """The CLI on args in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cycloperiods.cli", *args],
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("args, code, digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_output_is_byte_identical(args, code, digest, tmp_path):
    proc = _run(_materialize(args, tmp_path))
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# SHA-256 of json.dumps(..., sort_keys=True) of frozen period-matrix data in
# the entry form of PeriodMatrix.to_json: the 3 x 6 entries of each
# displayed family in (z1, z2), and the whole JSON of GENUS4.  The display
# audit lists only the [i, j] of an entry that diverges, so a slip at an
# entry that already diverges shows here and nowhere else.
CONSTANT_DIGESTS = {
    "SHIMURA_FAMILY_DISPLAY":
        "279b5a9c7353ae0a78de12bf50ec9358c533419606a6e44d34f88a9522a5e016",
    "PRYM_FAMILY_DISPLAY":
        "4adc27ea7bdb955e305f7b426582c0856f0db26b7e4120f2ca50869de2071789",
    "GENUS4":
        "e52832308ccb94bdfd1e14d95952e11b716093994d07ffb7a31910cda9aa3a50",
}


@pytest.mark.parametrize("name", CONSTANT_DIGESTS)
def test_frozen_constant_is_pinned_by_value(name):
    from cycloperiods import intlat, stcurve
    from cycloperiods.periods import PeriodMatrix
    value = getattr(stcurve, name)
    if name == "GENUS4":
        obj = value.to_json()
    else:
        obj = PeriodMatrix(3, ("z1", "z2"), value,
                           intlat.standard_symplectic(3)).to_json()["entries"]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == CONSTANT_DIGESTS[name]


# hostile inputs: (arguments, exit code), each run within HOSTILE_BUDGET_S
# seconds of wall time, interpreter start included
HOSTILE = [
    (["tools", "symplectic-basis", "--file", "<seeded 32 x 32 form>"], 0),
    (["tools", "covers", "--n", "100000000",
      "--exponents", "1,1,1,99999997"], 2),
    # 100 exponents: about 5 s at n = 10,000 were the list not bounded
    (["tools", "covers", "--n", "10000",
      "--exponents", ",".join(["1"] * 99 + ["9901"])], 2),
    # riemann-check refuses a genus above 8 or more than 8 parameters
    (["tools", "riemann-check", "--file", "<(I | tau I) at g = 16>",
      "--at", "tau=-i"], 2),
    (["tools", "riemann-check", "--file", "<dense (I | Z) at g = 16>"], 2),
    (["tools", "riemann-check", "--file", "<g = 4 matrix with 150 parameters>",
      *[a for k in range(150) for a in ("--at", f"t{k}=1")]], 2),
    # and entries past cli.MAX_RIEMANN_MATRIX_BITS: 8 and 8.5 s unbounded
    (["tools", "riemann-check", "--file", "<(I | Z) at g = 6 with 1,000-bit entries>"], 2),
    (["tools", "riemann-check", "--file", "<(I | Z) at g = 4 with 4,000-bit entries>"], 2),
    # polarizations refused by genus and by cli.MAX_MATRIX_HEIGHT_BITS before
    # from_json inverts them: unbounded 30.9 s and 10.7 s
    (["tools", "riemann-check", "--file",
      "<g = 16, 32 x 32 polarization with 1,024-bit entries>"], 2),
    (["tools", "riemann-check", "--file",
      "<g = 8, 16 x 16 polarization with 4,000-bit entries>"], 2),
    # every embed at cli.MAX_PREC
    (["verify", "--only", "positivity", "--prec", "65536"], 0),
    # a form at cli.MAX_MATRIX_HEIGHT_BITS: over 8 seeds 0.39 s median and
    # 0.53 s at most, printing 0.75 MB (2-core Xeon VM)
    (["tools", "symplectic-basis", "--file",
      "<32 x 32 form with 64-bit entries>"], 0),
    # matrices past cli.MAX_MATRIX_HEIGHT_BITS; unbounded they took over
    # 30 s, 5.3 s (minimal-pivot SNF) and 15.2 s (floor-quotient basis)
    (["tools", "snf", "--file", "<32 x 32 matrix with 30-digit entries>"], 2),
    (["tools", "snf", "--file", "<4 x 4 matrix with 300-digit entries>"], 2),
    (["tools", "symplectic-basis", "--file",
      "<32 x 32 form with 300-digit entries>"], 2),
    # the parser's RecursionError was a traceback and exit 1
    (["tools", "snf", "--file", DEEP], 2),
    (["tools", "symplectic-basis", "--file", DEEP], 2),
    (["tools", "riemann-check", "--file", DEEP], 2),
    # parsed, it took 0.99 s and peaked at 148.5 MB; refused unread past the cap
    (["tools", "snf", "--file", ZEROS], 2),
]
HOSTILE_BUDGET_S = 2.0


@pytest.mark.parametrize("args, code", HOSTILE,
                         ids=[" ".join(a) for a, _ in HOSTILE])
def test_hostile_input_finishes_within_budget(args, code, tmp_path):
    args = _materialize(args, tmp_path)
    start = time.perf_counter()
    proc = _run(args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert elapsed < HOSTILE_BUDGET_S
