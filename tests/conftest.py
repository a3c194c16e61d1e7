"""Test-session settings shared by every test module.

Hypothesis draws its examples from a fixed seed, so each run of the suite
tries the same inputs: wall times and mutant kills repeat from run to run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
