"""Reach: every function and method of cycloperiods runs on some CLI path.

A fresh interpreter imports the package under sys.setprofile and runs
each command of COMMANDS in-process through click's CliRunner, so no
cache warmed by an earlier test can hide a call.  Every named function
and method defined in src/cycloperiods, nested ones included, must then
have been entered, except the entries of ALLOWED, each with its reason.
Code that no path reaches is deleted rather than kept just in case, and
ALLOWED names exactly what is left unreached.

A second test reads the source with ast: a module-level import that its
module never reads fails it, so a deletion leaves no dead import behind.
__init__.py, which imports to re-export, is exempt.

A third installs the benchmark's tracer (bench/tracing.py) on src/ and
runs the suite once, so a deletion that leaves the tracer a name it wraps
by name to miss fails here, not only in the traced benchmark run.

Run as a script, this file prints the reach as JSON.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

# stands for the JSON of the genus-4 family, built inside the traced run
# the way the benchmark builds its riemann-check input
FAMILY = "<genus4 family JSON>"
POINT = ["--z1", "(1/4)*zeta^2", "--z2", "0.25,0"]

# (arguments, expected exit code)
COMMANDS = [
    (["verify", "--json"], 0),
    (["verify", "--strict", "--json"], 1),
    (["verify", "--prec", "16", "--only", "positivity"], 3),
    (["verify", "--only", "no-such-tag"], 2),
] + [
    (["emit", which, *tau, "--format", fmt, *where], 0)
    for which, tau in (("genus4", ["--tau", "i"]), ("prym", []))
    for fmt in ("exact-json", "decimal")
    for where in (POINT, ["--special"])
] + [
    (["tools", "snf", "--matrix", "[[2,4],[6,8]]"], 0),
    (["tools", "symplectic-basis", "--matrix", "[[0,3],[-3,0]]"], 0),
    (["tools", "covers", "--n", "6", "--exponents", "1,1,1,3"], 0),
    (["tools", "riemann-check", "--matrix", FAMILY,
      "--at", "tau=i", "--at", "z1=0", "--at", "z2=0"], 0),
]

_TRACED = ("wrapped by name in bench/tracing.py, whose --trace 1 run fails "
           "without it (test_the_benchmark_tracer_installs_on_src)")
_VIEW = ("Fraction view of the ball's integer data, read by the tests and "
         "(rad) the benchmark; the CLI reads the integers re_n, rad_n, den")

ALLOWED = {
    "balls.ComplexBall.__add__": _TRACED,
    "balls.ComplexBall.__mul__": _TRACED,
    "balls.ComplexBall.__sub__": _TRACED,
    "balls.ComplexBall.scale": _TRACED,
    "periods.PeriodMatrix.eval_ball": _TRACED,
    "balls.ComplexBall.re": _VIEW,
    "balls.ComplexBall.im": _VIEW,
    "balls.ComplexBall.rad": _VIEW,
    "intlat.DegenerateFormError.__init__": "exception constructor",
    "pel.ConventionError.__init__": "exception constructor",
    "pel.ModuleError.__init__": "exception constructor",
    "balls.ComplexBall.__repr__": "__repr__",
    "report.Check.__repr__": "__repr__",
    "exactfield.TowerElem.__setattr__": "__setattr__ (immutability guard)",
    "periods.PeriodMatrix.__setattr__": "__setattr__ (immutability guard)",
}


def _defined(package):
    """{code object: dotted name} of every named function in the package."""
    import click

    out = {}

    def add(name, fn, module):
        if isinstance(fn, click.Command):
            fn = fn.callback
        fn = inspect.unwrap(fn)
        if (not inspect.isfunction(fn) or fn.__module__ != module
                or fn.__code__ in out):
            return
        todo = [(name, fn.__code__)]
        while todo:
            name, code = todo.pop()
            out[code] = name
            todo += [(f"{name}.{c.co_name}", c) for c in code.co_consts
                     if isinstance(c, types.CodeType)
                     and c.co_name.isidentifier()]

    for info in pkgutil.iter_modules(package.__path__):
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, obj in vars(mod).items():
            if not inspect.isclass(obj):
                add(f"{info.name}.{attr}", obj, mod.__name__)
                continue
            for meth, v in vars(obj).items():
                if isinstance(v, (staticmethod, classmethod)):
                    v = v.__func__
                fns = (v.fget, v.fset) if isinstance(v, property) else (v,)
                for fn in fns:
                    if fn is not None:
                        add(f"{info.name}.{attr}.{meth}", fn, mod.__name__)
    return out


def _reach():
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    from click.testing import CliRunner

    import cycloperiods
    from cycloperiods import cli, suite

    family = json.dumps(suite.SuiteContext().genus4_family.to_json())
    runner = CliRunner()
    exits = []
    for args, _ in COMMANDS:
        r = runner.invoke(cli.main,
                          [family if a == FAMILY else a for a in args])
        ok = r.exception is None or isinstance(r.exception, SystemExit)
        exits.append(r.exit_code if ok else repr(r.exception))
    sys.setprofile(None)
    unreached = sorted(name for code, name in _defined(cycloperiods).items()
                       if code not in reached)
    return {"exits": exits, "unreached": unreached}


def test_every_function_is_reached_by_a_cli_path():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reach = json.loads(proc.stdout)
    assert reach["exits"] == [code for _, code in COMMANDS]
    unreached = set(reach["unreached"])
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, f"reached by no CLI path: {missing}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"reached now, drop from ALLOWED: {stale}"


# bench/tracing.py installed on src/, then one traced run_all; a name the
# tracer wraps by name that src/ no longer has fails the install
_TRACER_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer(1)
tracer.install()
from cycloperiods import suite
tracer.phase("round", hooks=True)
print(suite.run_all(128).exit_code(), len(tracer.spans) // tracing.FIELDS)
"""


def test_the_benchmark_tracer_installs_on_src():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACER_RUN, str(root / "bench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, spans = map(int, proc.stdout.split())
    assert code == 0 and spans > 0


def _unread_imports(path):
    """Names bound by the module-level imports of path that nothing reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_module_level_import_is_read():
    package = Path(__file__).resolve().parents[1] / "src" / "cycloperiods"
    unread = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" and (names := _unread_imports(path))}
    assert not unread, f"imported but never read: {unread}"


if __name__ == "__main__":
    print(json.dumps(_reach()))
