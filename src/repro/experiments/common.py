"""Shared infrastructure for the experiment harness.

Every figure of the paper's §9 has one shape — sweep an x axis (data
size, ``θ_split``, span) over seeded trials, average, report an event
count — and this module is the one owner of that shape; an experiment
module keeps only its measurement.

* :func:`scale_params` is the one typed lookup into a module's
  ``_SCALES`` table (the runner reads the same tables to know which
  scales an experiment defines).
* :func:`sweep` owns the x × trial loop: the ``trial_rng(seed, tag(x),
  trial)`` stream of every cell, then :func:`summarize` — mean and 95 %
  half-width per x, assembled into one :class:`Series` per measured
  name.  Modules whose trial runs *through* the x axis (Figs. 6a, 7:
  one index per trial grows from checkpoint to checkpoint) hand their
  per-trial rows to :func:`summarize` directly.
* Three measured cells are written here once and called by every
  experiment that reports them and by ``devtools.benchgate``:
  :func:`probe_stored` (exact-match known-stored keys → PRESENT count
  and metrics delta: E22, E26, ``BENCH_avail``), :func:`zipf_probe_cost`
  (Zipf probes on stored keys → routed gets per probe, an absent answer
  is an error: E23, ``BENCH_lookup``) and :func:`hops_per_lookup` (one
  phase's routed hops per DHT-lookup on one substrate, with the
  cross-substrate cost-invariance check of footnote 5: E13, E25, the
  ``hops_per_op_*`` gates).
* :class:`ExperimentResult` owns the x × series row walk
  (:meth:`ExperimentResult.rows`) that the text table and the Markdown
  report both render.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.baselines.pht import PHTIndex
from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.core.results import MatchStatus
from repro.dht import registry as substrate_registry
from repro.dht.base import DHT
from repro.dht.metrics import MetricsSnapshot
from repro.errors import ConfigurationError, ReproError
from repro.experiments.stats import aggregate
from repro.sim.rng import derive_seed
from repro.workloads.queries import zipf_rank_choice

__all__ = [
    "Series",
    "ExperimentResult",
    "SUBSTRATES",
    "make_dht",
    "build_index",
    "scale_params",
    "trial_rng",
    "sweep",
    "summarize",
    "probe_stored",
    "zipf_probe_cost",
    "hops_per_lookup",
    "format_number",
    "count_build_time",
    "count_query_time",
    "reset_wall_clock",
    "wall_clock_totals",
]

#: Substrate factories selectable from the CLI — drawn from the
#: registry so every enrolled substrate is an experiment arm.
SUBSTRATES: dict[str, Callable[[int, int], DHT]] = substrate_registry.factories()


def make_dht(substrate: str, n_peers: int, seed: int) -> DHT:
    """Instantiate a substrate by name (delegates to the registry)."""
    return substrate_registry.make(substrate, n_peers, seed)


def scale_params(scales: Mapping[str, dict], scale: str) -> dict:
    """The row of a module's ``_SCALES`` table for ``scale`` (typed error)."""
    try:
        return scales[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r} (defined: {', '.join(scales)})"
        ) from None


def trial_rng(seed: int, experiment: str, trial: int) -> np.random.Generator:
    """Independent generator per (experiment, trial) pair."""
    return np.random.default_rng(derive_seed(seed, f"{experiment}:{trial}"))


# ----------------------------------------------------------------------
# Wall-clock accounting (experiments only — the deterministic core is
# wall-clock-free by lint rule LHT001).  Every figure's numbers stay
# count-based; these totals ride along in ExperimentResult.timings so
# the bulk-build / parallel-runner speedups are visible in every run
# without ever entering a benchgate comparison.
# ----------------------------------------------------------------------

_WALL_TOTALS = {"build_s": 0.0, "query_s": 0.0}


def reset_wall_clock() -> None:
    """Zero the per-experiment build/query wall-clock accumulators."""
    for phase in _WALL_TOTALS:
        _WALL_TOTALS[phase] = 0.0


def wall_clock_totals() -> dict[str, float]:
    """A copy of the accumulated wall-clock totals, in seconds."""
    return dict(_WALL_TOTALS)


@contextmanager
def _count_wall(phase: str) -> Iterator[None]:
    started = time.perf_counter()
    try:
        yield
    finally:
        _WALL_TOTALS[phase] += time.perf_counter() - started


#: ``with count_build_time():`` charges the block to the experiment's
#: ``build_s`` total; ``count_query_time`` likewise to ``query_s``.
count_build_time = partial(_count_wall, "build_s")
count_query_time = partial(_count_wall, "query_s")


_SCHEMES = {"lht": LHTIndex, "pht": PHTIndex}


def build_index(
    scheme: str,
    dht: DHT,
    config: IndexConfig,
    keys: np.ndarray,
    fast: bool = True,
) -> LHTIndex | PHTIndex:
    """Bulk-build an LHT or PHT index from a key array.

    Defaults to the sorted fast path (one put per final leaf) because
    most experiments only need the built *structure*.  Experiments that
    measure construction costs from the maintenance ledger (Figs. 6-7,
    Eq. 3) must pass ``fast=False`` to replay the incremental algorithm.
    """
    if scheme not in _SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    index = _SCHEMES[scheme](dht, config)
    with count_build_time():
        index.bulk_load((float(k) for k in keys), fast=fast)
    return index


@dataclass(slots=True)
class Series:
    """One labelled curve of an experiment plot."""

    label: str
    x: list[float]
    y: list[float]
    y_err: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ConfigurationError(
                f"series {self.label!r}: x and y lengths differ"
            )
        if self.y_err and len(self.y_err) != len(self.y):
            raise ConfigurationError(
                f"series {self.label!r}: y_err length differs"
            )


#: One cell's measurement: curve name -> value.
Measurement = Mapping[str, float]
X = TypeVar("X")  # a sweep's x values: sizes, thresholds, spans


def summarize(
    xs: Sequence[float], rows: Iterable[Iterable[Measurement]]
) -> dict[str, Series]:
    """One :class:`Series` per measured name from per-trial measurements.

    ``rows[i]`` holds the trials measured at ``xs[i]``; each curve is
    the per-x mean with its 95 % half-width as ``y_err`` (0.0 from a
    single trial).  Names, and their order, come from the first cell.
    """
    cells = [list(row) for row in rows]
    names = list(cells[0][0]) if cells else []
    curves: dict[str, Series] = {}
    for name in names:
        stats = [aggregate(trial[name] for trial in cell) for cell in cells]
        curves[name] = Series(
            name,
            [float(x) for x in xs],
            [agg.mean for agg in stats],
            [agg.ci95_half_width for agg in stats],
        )
    return curves


def sweep(
    seed: int,
    tag: Callable[[X], str],
    xs: Sequence[X],
    trials: int,
    measure: Callable[[X, int, np.random.Generator], Measurement],
) -> dict[str, Series]:
    """Run ``measure(x, trial, rng)`` over ``xs`` × ``range(trials)``.

    x-major, trial-minor; every cell draws from its own stream
    ``trial_rng(seed, tag(x), trial)``, so no cell's numbers depend on
    which others ran.  Returns :func:`summarize` of the measurements.
    """
    rows = [
        [measure(x, t, trial_rng(seed, tag(x), t)) for t in range(trials)]
        for x in xs
    ]
    return summarize(xs, rows)


# ----------------------------------------------------------------------
# Measured cells shared by experiments and devtools.benchgate
# ----------------------------------------------------------------------


def probe_stored(
    index: LHTIndex, sample: Iterable[float]
) -> tuple[int, MetricsSnapshot]:
    """Exact-match keys *known to be stored*: (PRESENT count, metrics spent).

    Any other status (a false ABSENT, UNREACHABLE) is an availability
    failure of the stack under ``index`` — the caller divides.
    """
    before = index.dht.metrics.snapshot()
    hits = 0
    with count_query_time():
        for key in sample:
            if index.exact_match_checked(float(key)).status is MatchStatus.PRESENT:
                hits += 1
    return hits, index.dht.metrics.since(before)


def zipf_probe_cost(
    index: LHTIndex,
    keys: Sequence[float],
    skew: float,
    n_probes: int,
    rng: np.random.Generator,
) -> tuple[float, MetricsSnapshot]:
    """Zipf-over-rank probes on stored ``keys``: (gets per probe, metrics spent).

    The read path must preserve answers exactly, so a probe answered
    absent is an error, not a data point.
    """
    probes = zipf_rank_choice(np.asarray(keys), skew, n_probes, rng)
    before = index.dht.metrics.snapshot()
    with count_query_time():
        for key in probes:
            if index.exact_match(float(key))[0] is None:
                raise ReproError(f"stored key {key!r} reported absent")
    spent = index.dht.metrics.since(before)
    return spent.gets / n_probes, spent


def hops_per_lookup(
    substrate: str,
    dht: DHT,
    phase: Callable[[], object],
    what: str,
    reference: dict[str, int],
) -> float:
    """Routed hops per DHT-lookup of ``phase()`` on one substrate.

    ``reference`` carries the index-level DHT-lookup count of ``what``
    (a phase at a network size) from the first substrate that ran it;
    every later substrate must pay exactly that (paper footnote 5), so
    the returned ratio isolates the overlay's routing cost.
    """
    before = dht.metrics.snapshot()
    phase()
    spent = dht.metrics.since(before)
    if spent.dht_lookups <= 0:
        raise ReproError(f"{what} issued no DHT-lookups on {substrate}")
    expected = reference.setdefault(what, spent.dht_lookups)
    if spent.dht_lookups != expected:
        raise ReproError(
            f"index-level cost of {what} differs on {substrate}: "
            f"{spent.dht_lookups} != {expected}"
        )
    return spent.hops / spent.dht_lookups


@dataclass(slots=True)
class ExperimentResult:
    """The regenerated data behind one paper figure or analysis."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    params: dict
    series: list[Series]
    notes: str = ""
    #: Wall-clock seconds (``build_s``, ``query_s``, ``wall_s``), stamped
    #: by the runner from the accumulators above.  Informational only:
    #: host-dependent, never part of any count-based comparison, and
    #: stripped by :meth:`canonical_json` for byte-identity checks.
    timings: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def rows(self, error_bar: Callable[[float], str]) -> list[list[str]]:
        """The x × series walk behind every rendering: one row of cells
        per distinct x, ascending; ``-`` where a series has no point at
        that x, and ``error_bar(y_err)`` appended where it has error bars."""
        table: list[list[str]] = []
        for x in sorted({x for s in self.series for x in s.x}):
            row = [format_number(x)]
            for s in self.series:
                if x not in s.x:
                    row.append("-")
                    continue
                idx = s.x.index(x)
                cell = format_number(s.y[idx])
                if s.y_err:
                    cell += error_bar(s.y_err[idx])
                row.append(cell)
            table.append(row)
        return table

    def to_table(self) -> str:
        """Render as an aligned text table, one column per series."""
        headers = [self.x_label] + [s.label for s in self.series]
        rows = self.rows(lambda err: f" ±{format_number(err)}")
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            f"{self.experiment_id}: {self.title}",
            "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  " + "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        if self.timings:
            cells = ", ".join(
                f"{name}={seconds:.2f}s"
                for name, seconds in sorted(self.timings.items())
            )
            lines.append(f"  wall: {cells}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-serializable dict of the result."""
        return asdict(self)

    def canonical_json(self) -> dict:
        """The result dict without host-dependent wall-clock timings.

        This is the byte-comparable view: two runs of the same seed must
        agree on it exactly (the ``--jobs`` determinism test compares
        it), while ``timings`` legitimately varies run to run.
        """
        data = self.to_json()
        data.pop("timings", None)
        return data

    def save(self, directory: str | Path) -> Path:
        """Write the result JSON into ``directory``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id.lower()}.json"
        path.write_text(json.dumps(self.to_json(), indent=2))
        return path

    def series_by_label(self, label: str) -> Series:
        """Fetch one series by its label."""
        for s in self.series:
            if s.label == label:
                return s
        raise ConfigurationError(f"no series labelled {label!r}")


def format_number(value: float) -> str:
    """Integers bare, everything else to four significant digits."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"
