"""Unified CLI for the correctness tooling: ``python -m repro.devtools``.

One subcommand per job:

* ``lint`` — the repo-specific static analysis: every rule of
  ``repro.devtools.lint.LINT_RULES`` in one pass over the tree;
* ``determinism`` — the same-seed trace-diff harness; run it under
  ``LHT_SANITIZE=1`` to sweep the invariants after every mutation — a
  violation fails the run;
* ``benchgate`` — the count-based benchmark regression gate, and
  ``benchgate --hotspots`` the per-phase profile of its scale workload;
* ``loc [PATH ...]`` — code lines per top-level package (lines carrying
  a token, minus docstrings, comments and blanks): the size metric of
  ROADMAP's "net-negative ``src/``" goal.  Default path ``src/repro``.

This is the only spelling: ``python -m repro.devtools.<job>`` exits 1
and names it.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.devtools import determinism as _determinism
from repro.devtools import lint as _lint


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in {"-h", "--help"}:
        print(__doc__)
        print("usage: python -m repro.devtools {lint,determinism,benchgate,loc} ...")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return _lint.main(rest)
    if command == "determinism":
        return _determinism.main(rest)
    if command == "benchgate":
        from repro.devtools import benchgate as _benchgate

        return _benchgate.main(rest)
    if command == "loc":
        from repro.devtools import loc as _loc

        return _loc.main(rest)
    print(f"unknown subcommand: {command!r} (expected lint, determinism, "
          f"benchgate, or loc)", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
