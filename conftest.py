"""Setup shared by every test directory (``tests/``, ``benchmarks/``,
``perfbench/``).

The engine the shipped backends are checked against lives in the test
tree (``tests/oracles.py``).  Importing it registers it as the
``reference`` engine backend, so any test may select the oracle by name.
It is imported here, once per test process, under the one module name
every test imports it by.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent / "tests"))

import oracles  # noqa: E402,F401  (registers the "reference" backend)
