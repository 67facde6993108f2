"""One command for every metric: ``python3 bench/run.py``.

* no ``--workload``: every workload, untraced then traced, each in its
  own child process (clean ``peak_rss_mb``, no warmth carried from one
  workload to the next); prints both tables per workload and writes the
  whole set to ``--out`` for ``--compare``;
* ``--workload NAME [--trace 0|1]``: that one run in this process; the
  last line of stdout is the result object ``BENCHMARK.json``'s driver
  reads;
* ``--smoke``: 1/16 size, for a quick CI leg;
* ``--compare A.json B.json``: verdict per workload x end-to-end metric.

A wrong answer or a broken paper bound is not a failed operation: it
ends the run with a non-zero exit code and the offending operation on
stderr, and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

if not __package__:  # run as a script: make the ``bench`` package importable
    _ROOT = Path(__file__).resolve().parent.parent
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no src/repro under {_ROOT}; run from a full checkout")
    sys.path.insert(0, str(_ROOT))

from bench.compare import compare  # noqa: E402
from bench.layers import OUT_DIR, trace  # noqa: E402
from bench.measure import generator_overhead_us, measure  # noqa: E402
from bench.oracle import WrongAnswer  # noqa: E402
from bench.workloads import SPECS, generate  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 16  # BENCHMARK.json's run_seconds
SMOKE_SCALE = 16
SMOKE_SECONDS = 0.25
CHILD_TIMEOUT_S = 180


def _header(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def _print_table(title: str, metrics: dict[str, dict[str, Any]], hide_zero: bool) -> None:
    print(title)
    for name, metric in metrics.items():
        if hide_zero and not metric["value"]:
            continue
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")


def run_one(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process (the driver's contract)."""
    scale = SMOKE_SCALE if args.smoke else 1
    workload = generate(args.workload, args.seed, scale)
    try:
        overhead = generator_overhead_us(workload)
        result = trace(workload, args.seconds) if args.trace else measure(workload, args.seconds)
    except WrongAnswer as exc:
        print(f"bench: {args.workload}: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    header = _header(args) | {
        "workload": args.workload,
        "trace": args.trace,
        "keys": len(workload.keys),
        "ops_per_repeat": workload.trace_ops if args.trace else len(workload.ops),
        "repeats": result["repeats"],
        "generator_overhead_us_per_op": overhead,
    }
    print("# " + json.dumps(header))
    title = f"{args.workload}  [{'per-layer, traced' if args.trace else 'end-to-end'}]"
    _print_table(title, result["metrics"], hide_zero=bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"run-{args.workload}-t{args.trace}.json"
    detail.write_text(json.dumps({"header": header, **result}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both passes, one child process per run."""
    runs: dict[str, Any] = {}
    for name in SPECS:
        runs[name] = {}
        for traced in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--trace", str(traced),
                "--seed", str(args.seed), "--seconds", str(args.seconds),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
            if child.returncode != 0:
                print(f"bench: {name} (trace {traced}) exited {child.returncode}", file=sys.stderr)
                return child.returncode
            print(child.stdout.rsplit("\n", 2)[0])  # all but the result line
            detail = json.loads((OUT_DIR / f"run-{name}-t{traced}.json").read_text())
            runs[name]["per_layer" if traced else "end_to_end"] = detail
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"header": _header(args), "runs": runs}, indent=1))
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="run only this one")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help=f"measuring time per run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: 1 = traced per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="1/16 size")
    parser.add_argument("--out", help="without --workload: where to write the result set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.compare:
        return compare(*args.compare)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # CPython salts str hashes per process, so every run lays the
        # program's str-keyed dicts (the peer stores) out differently;
        # that alone spreads same-seed runs of point-kademlia by 17%.
        # Start over with the salt pinned (children inherit it).
        os.execve(
            sys.executable,
            [sys.executable, *sys.orig_argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
