"""Test-session settings shared by every test module.

Hypothesis draws its examples from a fixed seed, so each run of the suite
tries the same inputs: wall times and mutant kills repeat from run to run.
Its draws also pick, now and then, a literal from the source of the
non-test modules loaded when the test runs, so every module of the package
is imported here, before any test draws.  Otherwise a test's inputs would
depend on which test files were collected: run alone, a file that loads
fewer modules would try other inputs than it does in the whole suite.
"""

import importlib
import pkgutil

from hypothesis import settings

import cycloperiods

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

for _module in pkgutil.iter_modules(cycloperiods.__path__):
    importlib.import_module(f"cycloperiods.{_module.name}")
