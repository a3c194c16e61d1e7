"""Golden outputs: commands whose stdout and exit code must not change.

Each command runs in a fresh interpreter, and the SHA-256 of its stdout
is compared with the digest recorded when the output was last known
good.  A deliberate change of one of these outputs updates its digest
here and says why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

POINT = ["--tau", "1+2*i", "--z1", "(1/4)*zeta^2", "--z2", "0.25,0"]

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
]


@pytest.mark.parametrize("args, code, digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_output_is_byte_identical(args, code, digest):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cycloperiods.cli", *args],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
