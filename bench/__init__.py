"""End-to-end and per-layer benchmark of the LHT stack (see README.md).

Self-contained: drives the program through its public API only and is
the sole content of ``BENCHMARK.json``'s ``paths``.  Run it from the
repository root as ``python3 bench/run.py`` (or ``python -m bench.run``).
"""

import sys
from pathlib import Path

# The program under test lives in ``src/`` and is not pip-installed;
# honour an existing ``PYTHONPATH=src`` and supply it otherwise.
_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
