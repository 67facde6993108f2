"""Correctness tooling: custom linter, determinism harness, benchmark gate.

This package is the reproduction's answer to a sanitizer/race-detector
layer in a training stack: mechanical enforcement of the properties every
figure in EXPERIMENTS.md silently relies on.  One module per job, run
through ``python -m repro.devtools {lint,determinism,benchgate,loc}``:

* :mod:`repro.devtools.lint` — the repo-specific static analysis: one
  pass that parses the tree once into a module/class/call-graph model
  and runs every rule over it — hermeticity of the deterministic
  packages (direct and through helper chains), no bare ``assert`` in
  library code, kernel encapsulation, route and placement purity, DHT
  exception flow, process-pool worker safety, and routed reads through
  ``ReadPath``.
* :mod:`repro.devtools.determinism` — a same-seed trace-diff harness
  proving a workload replays bit-for-bit identically, exposed as a CLI
  subcommand and (via ``tests/conftest.py``) a pytest fixture.  Under
  ``LHT_SANITIZE=1`` the runtime sanitizer
  (:class:`repro.core.stats.IndexSanitizer`) sweeps the paper's
  invariants after every mutation, and a violation fails the run.
* :mod:`repro.devtools.benchgate` — the count-based benchmark gate
  over the ``BENCH_*.json`` baselines; ``--hotspots`` profiles its
  scale workload phase by phase.
* :mod:`repro.devtools.loc` — the code-line size metric.

Import names from the module that defines them.  The dependency arrow
is one-way: ``devtools`` imports ``core``, never the reverse.  See
``docs/static_analysis.md`` for the rule catalogue and usage.
"""
