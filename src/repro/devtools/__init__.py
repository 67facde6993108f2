"""Correctness tooling: custom linter, runtime sanitizer, determinism harness.

This package is the reproduction's answer to a sanitizer/race-detector
layer in a training stack: mechanical enforcement of the properties every
figure in EXPERIMENTS.md silently relies on.

* :mod:`repro.devtools.lint` — the repo-specific static analysis
  (``python -m repro.devtools lint src/``): one pass that parses the
  tree once into a module/class/call-graph model and runs every rule
  over it — hermeticity of the deterministic packages (direct and
  through helper chains), no bare ``assert`` or mutable defaults in
  library code, kernel-owned storage and registry enrollment for
  substrates, kernel encapsulation, route and placement purity, DHT
  exception flow, and process-pool worker safety.
* the runtime sanitizer (``LHT_SANITIZE=1``) — re-exported here, but it
  lives in :mod:`repro.core.stats` next to the one structural check it
  shares with ``IndexInspector.verify()`` (Theorem 1 bijectivity,
  leaf-interval partition, record placement; plus bucket-size bounds
  and Theorem 2 split behaviour after every mutating index operation).
  The dependency arrow is one-way: ``devtools`` imports ``core``,
  never the reverse.
* :mod:`repro.devtools.determinism` — a same-seed trace-diff harness
  proving a workload replays bit-for-bit identically, exposed as a CLI
  subcommand and (via ``tests/conftest.py``) a pytest fixture.

See ``docs/static_analysis.md`` for the full rule catalogue and usage.
"""

from typing import Any

# Submodules are exported lazily (PEP 562): ``python -m
# repro.devtools.determinism`` must not re-import the module it is about
# to run.
_EXPORTS = {
    "DeterminismReport": "repro.devtools.determinism",
    "check_determinism": "repro.devtools.determinism",
    "run_workload": "repro.devtools.determinism",
    "trace_digest": "repro.devtools.determinism",
    "LINT_RULES": "repro.devtools.lint",
    "Violation": "repro.devtools.lint",
    "lint_paths": "repro.devtools.lint",
    "lint_source": "repro.devtools.lint",
    "build_program": "repro.devtools.lint",
    "IndexSanitizer": "repro.core.stats",
    "sanitizer_enabled": "repro.core.stats",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "DeterminismReport",
    "check_determinism",
    "run_workload",
    "trace_digest",
    "LINT_RULES",
    "Violation",
    "lint_paths",
    "lint_source",
    "build_program",
    "IndexSanitizer",
    "sanitizer_enabled",
]
