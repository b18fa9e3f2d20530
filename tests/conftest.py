"""Test-session plumbing: collects the acceptance-criterion result lines
and prints them in the terminal summary so every run shows one
PASS/FAIL line per criterion.

BLAS runs on one thread, as in the benchmark and tools/stock_outputs.py,
before any test module imports numpy: the bitwise tests compare numpy's
and scipy's LAPACK builds, whose threaded kernels split work
differently and can differ in the last bits on large matrices.

Property tests run under the ``tier1`` hypothesis profile: a fixed
sequence of examples and no example database, so a run's result depends
on the commit alone, not on examples stored by earlier runs.
``pytest --hypothesis-profile=default`` runs hypothesis's built-in
random search with its database instead; both keep every
``max_examples``.
"""

import os

from hypothesis import settings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

acceptance_lines = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(acceptance_lines):
        terminalreporter.write_line(acceptance_lines[num])
