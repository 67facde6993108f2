"""Unified CLI for the correctness tooling: ``python -m repro.devtools``.

Subcommands:

* ``lint`` — the repo-specific static analysis: per-file, class-shape
  and call-graph rules LHT001-LHT014 (no LHT005 or LHT012) in one pass
  over the tree;
* ``determinism`` — the same-seed trace-diff harness (also
  ``python -m repro.devtools.determinism``);
* ``sanitize`` — run a seeded workload with the runtime sanitizer active
  over one of the determinism gate's stacks and report how many
  invariant sweeps passed;
* ``profile`` — the deterministic per-phase hot-spot profiler over the
  paper-scale build/lookup/range workload (also
  ``python -m repro.devtools.profile``);
* ``benchgate`` — the count/wall-clock benchmark regression gate (also
  ``python -m repro.devtools.benchgate``);
* ``loc [PATH ...]`` — code lines per top-level package (lines carrying
  a token, minus docstrings, comments and blanks): the size metric of
  ROADMAP's "net-negative ``src/``" goal.  Default path ``src/repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.devtools import determinism as _determinism
from repro.devtools import lint as _lint


def _run_sanitize(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools sanitize",
        description="Replay a seeded workload with LHT_SANITIZE semantics "
        "on and report the invariant sweeps performed.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--substrate", choices=sorted(_determinism.SUBSTRATES), default="local"
    )
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--peers", type=int, default=16)
    parser.add_argument("--theta", type=int, default=8)
    args = parser.parse_args(argv)

    from repro.core.config import IndexConfig
    from repro.core.index import LHTIndex
    from repro.dht import registry
    from repro.errors import SanitizerError
    from repro.sim.rng import RngStreams, derive_seed
    from repro.workloads.trace import generate_trace, replay

    streams = RngStreams(args.seed)
    trace = generate_trace(args.ops, streams.stream("workload"))
    dht = registry.stack(
        _determinism.SUBSTRATES[args.substrate],
        args.peers,
        derive_seed(args.seed, "substrate"),
    )
    index = LHTIndex(
        dht, IndexConfig(theta_split=args.theta, sanitize=True)
    )
    try:
        totals = replay(index, trace)
    except SanitizerError as exc:
        print(f"sanitizer FAILED: {exc}")
        return 1
    sanitizer = index.sanitizer
    if sanitizer is None:  # unreachable: sanitize=True was just set
        print("sanitizer FAILED to activate")
        return 1
    print(
        f"sanitizer ok: {sanitizer.checks_run} sweeps, "
        f"{sanitizer.splits_checked} splits and "
        f"{sanitizer.merges_checked} merges checked over "
        f"{int(sum(totals[f'n_{op}'] for op in ('insert', 'delete', 'lookup', 'range')))} ops"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in {"-h", "--help"}:
        print(__doc__)
        print(
            "usage: python -m repro.devtools "
            "{lint,determinism,sanitize,profile,benchgate,loc} ..."
        )
        return 0
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return _lint.main(rest)
    if command == "determinism":
        return _determinism.main(rest)
    if command == "sanitize":
        return _run_sanitize(rest)
    if command == "profile":
        from repro.devtools import profile as _profile

        return _profile.main(rest)
    if command == "benchgate":
        from repro.devtools import benchgate as _benchgate

        return _benchgate.main(rest)
    if command == "loc":
        from repro.devtools import loc as _loc

        return _loc.main(rest)
    print(f"unknown subcommand: {command!r} (expected lint, determinism, "
          f"sanitize, profile, benchgate, or loc)")
    return 2


if __name__ == "__main__":
    sys.exit(main())
