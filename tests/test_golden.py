"""Golden outputs: commands whose stdout and exit code must not change.

Each command runs in a fresh interpreter, and the SHA-256 of its stdout
is compared with the digest recorded when the output was last known
good.  A deliberate change of one of these outputs updates its digest
here and says why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
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

# (arguments, exit code, SHA-256 of stdout)
GOLDEN = [
    (["verify", "--json"], 0,
     "1df2f9acb824e22b53e89f313391026e0d16e06dad6186c33b66a54ed1888347"),
    (["verify", "--json", "--prec", "512"], 0,
     "5995d8d1bdc739942c9bb761af1d3000bacae0f82fcfed320671d5053bde9a12"),
    (["verify", "--only", "positivity", "--prec", "2048", "--json"], 0,
     "8da40b78342e26658f43a4ac81b43cee4f73219c319fb94a63fc071177403811"),
    (["emit", "genus4", *POINT, "--format", "decimal", "--prec", "2048"], 0,
     "c8034923950a0c0e58acb2c28e2ae3e3609fdcf5ba533a015401d5ead0eab2ea"),
    (["emit", "prym", "--special", "--format", "decimal", "--prec", "300"], 0,
     "d2884929566d4e8b89b8affd41bb2ef70d13d990d1011c2c1f44da2a7ba35135"),
    (["verify", "--strict", "--json"], 1,
     "7a8f85098852454bee6cccb53820d26cce8679d86038e70819fb70661d278a12"),
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
]


@pytest.mark.parametrize("args, code, digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_output_is_byte_identical(args, code, digest, tmp_path):
    if FAMILY in args:
        from cycloperiods import suite
        path = tmp_path / "family.json"
        path.write_text(json.dumps(suite.SuiteContext().genus4_family.to_json()))
        args = [str(path) if a == FAMILY else a for a in args]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cycloperiods.cli", *args],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
