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
  :func:`availability_cell` (one lossy ``registry.stack`` probed on
  known-stored keys through :func:`probe_stored` → PRESENT fraction
  and metrics deltas: E22, E26, ``BENCH_avail``), :func:`zipf_probe_cost`
  (Zipf probes on stored keys → routed gets per probe, an absent answer
  is an error: E23, ``BENCH_lookup``) and :func:`phase_hops` (build,
  lookup and range routed hops per DHT-lookup on one substrate, each
  phase through :func:`hops_per_lookup`'s cross-substrate
  cost-invariance check of footnote 5: E25 and the ``hops_per_op_*``
  gates).
* :class:`ExperimentResult` owns the x × series row walk
  (:meth:`ExperimentResult.rows`) that the text table and the Markdown
  report both render.

A result is a pure function of (scale, seed): the harness records
counts only.  Wall-clock is measured by the benchmark in ``bench/``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.baselines.pht import PHTIndex
from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.core.results import MatchStatus
from repro.dht import registry
from repro.dht.base import DHT
from repro.dht.metrics import MetricsSnapshot
from repro.errors import ConfigurationError, ReproError
from repro.experiments.stats import aggregate
from repro.sim.rng import derive_seed
from repro.workloads.datasets import make_keys
from repro.workloads.queries import lookup_keys, span_ranges, zipf_rank_choice

__all__ = [
    "Series",
    "ExperimentResult",
    "build_index",
    "scale_params",
    "trial_rng",
    "sweep",
    "summarize",
    "probe_stored",
    "AvailabilityCell",
    "availability_cell",
    "zipf_probe_cost",
    "hops_per_lookup",
    "phase_hops",
    "format_number",
]

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
    for key in sample:
        if index.exact_match_checked(float(key)).status is MatchStatus.PRESENT:
            hits += 1
    return hits, index.dht.metrics.since(before)


class AvailabilityCell(NamedTuple):
    """One :func:`availability_cell`: PRESENT fraction, metrics spent."""

    availability: float
    build: MetricsSnapshot
    probes: MetricsSnapshot


def availability_cell(
    substrate: str, k: int, attempts: int, drop_rate: float, n_peers: int,
    seed: int, config: IndexConfig, keys: np.ndarray, sample: np.ndarray,
) -> AvailabilityCell:
    """Exact-match availability of stored keys on one lossy stack.

    ``keys`` are fast-built into an LHT index over
    ``resilient:attempts/replicated:k/faulty:drop_rate/substrate`` (one
    root ``seed``), then ``sample`` — stored keys — is probed through
    :func:`probe_stored`.  The faults are live from construction: the
    fast build routes no get, and ``FaultyDHT`` draws only for an
    operation whose rate is non-zero, so the build is fault-free.
    """
    spec = f"resilient:{attempts}/replicated:{k}/faulty:{drop_rate}/{substrate}"
    index = LHTIndex(registry.stack(spec, n_peers, seed), config)
    before = index.dht.metrics.snapshot()
    index.bulk_load((float(key) for key in keys), fast=True)
    build = index.dht.metrics.since(before)
    hits, probes = probe_stored(index, sample)
    return AvailabilityCell(hits / len(sample), build, probes)


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


def phase_hops(
    substrate: str, n_peers: int, params: Mapping, seed: int, reference: dict
) -> dict[str, float]:
    """Hops per DHT-lookup of each phase on one overlay of ``n_peers``.

    The E25 cell, also behind the ``hops_per_op_*`` gates: one LHT index
    (``theta_split``, D = 20) is fast-built from ``size`` uniform keys,
    then serves ``n_lookups`` point lookups and ``n_ranges`` range
    queries of width ``span``.  The workload stream omits the substrate,
    so every overlay of one ``n_peers`` draws the same keys and queries,
    and :func:`hops_per_lookup` holds each phase's DHT-lookup count
    equal across them through ``reference``.
    """
    rng = trial_rng(seed, f"routing_diversity:{n_peers}", 0)
    dht = registry.make(substrate, n_peers, seed)
    keys = make_keys("uniform", params["size"], rng)
    config = IndexConfig(theta_split=params["theta_split"], max_depth=20)
    index = None

    def build() -> None:
        nonlocal index
        index = build_index("lht", dht, config, keys)

    def lookup() -> None:
        for probe in lookup_keys(params["n_lookups"], rng):
            index.lookup(float(probe))

    def range_() -> None:
        for query in span_ranges(params["n_ranges"], params["span"], rng):
            index.range_query(query.lo, query.hi)

    return {
        phase: hops_per_lookup(
            substrate, dht, step, f"{phase} at N={n_peers}", reference
        )
        for phase, step in (("build", build), ("lookup", lookup), ("range", range_))
    }


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
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-serializable dict of the result."""
        return asdict(self)

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
