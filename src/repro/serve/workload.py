"""Seeded open-loop workload generator for the serving layer.

Open-loop means arrivals do not wait for completions: request ``i``
arrives at a Poisson instant regardless of how backed up the service is,
which is what exposes queueing delay — the difference between p50 and
p99 that closed-loop (one-at-a-time) driving structurally cannot show.

Key skew reuses the E23 machinery
(:func:`repro.workloads.queries.zipf_rank_choice`): point lookups and
removes target stored keys with Zipf-over-rank popularity, so concurrent
sessions collide on hot keys — exactly the collisions the coalescer
turns into saved routed gets.  Inserts draw fresh uniform keys; range
queries pick a Zipf-hot lower bound and a fixed span.

Everything is a pure function of ``(keys, config, seed)``: the arrival
sequence is deterministic and the serving benchgate banks its counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed
from repro.workloads.queries import zipf_rank_choice
from repro.workloads.trace import Request, RequestKind

__all__ = ["Arrival", "WorkloadConfig", "generate_workload"]


@dataclass(frozen=True, slots=True)
class Arrival:
    """One request arriving at the service.

    Attributes:
        time: Simulated arrival instant (Poisson process).
        session: Originating client session id (round-robin over
            ``n_sessions``; front-ends use it to fan sessions out).
        index: Position in the generated sequence — responses are
            reported in this order.
        request: The request itself.
    """

    time: float
    session: int
    index: int
    request: Request


def _default_mix() -> dict[str, float]:
    return {"lookup": 0.76, "insert": 0.14, "remove": 0.06, "range": 0.04}


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Shape of one open-loop workload.

    Attributes:
        n_requests: Total requests to generate.
        rate: Mean arrival rate (requests per simulated second).
        skew: Zipf-over-rank exponent for stored-key popularity
            (0 = uniform).
        mix: Operation mix, weights over lookup/insert/remove/range
            (normalized; missing kinds mean weight 0).
        range_span: Span of generated range queries.
        n_sessions: Client sessions arrivals are attributed to.
    """

    n_requests: int = 512
    rate: float = 200.0
    skew: float = 1.1
    mix: dict[str, float] = field(default_factory=_default_mix)
    range_span: float = 0.05
    n_sessions: int = 8

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ConfigurationError(
                f"n_requests must be >= 0: {self.n_requests}"
            )
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0: {self.rate}")
        if self.n_sessions < 1:
            raise ConfigurationError(
                f"n_sessions must be >= 1: {self.n_sessions}"
            )
        if not 0.0 < self.range_span <= 1.0:
            raise ConfigurationError(
                f"range_span must be in (0, 1]: {self.range_span}"
            )
        weights = [self.mix.get(k.value, 0.0) for k in RequestKind]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError(f"invalid operation mix: {self.mix}")
        unknown = set(self.mix) - {k.value for k in RequestKind}
        if unknown:
            raise ConfigurationError(f"unknown mix kinds: {sorted(unknown)}")


def generate_workload(
    keys: Sequence[float],
    config: WorkloadConfig,
    seed: int = 0,
) -> list[Arrival]:
    """Generate a seeded open-loop arrival sequence over stored ``keys``.

    Independent derived streams per concern (arrivals / kinds / hot keys
    / fresh keys), so changing one knob never perturbs the others'
    draws — the same stability contract as the experiment harness.
    """
    n = config.n_requests
    if n == 0:
        return []
    arrival_rng = np.random.default_rng(derive_seed(seed, "serve:arrivals"))
    kind_rng = np.random.default_rng(derive_seed(seed, "serve:kinds"))
    hot_rng = np.random.default_rng(derive_seed(seed, "serve:hotkeys"))
    fresh_rng = np.random.default_rng(derive_seed(seed, "serve:freshkeys"))

    times = np.cumsum(arrival_rng.exponential(1.0 / config.rate, size=n))
    kinds = list(RequestKind)
    weights = np.asarray([config.mix.get(k.value, 0.0) for k in kinds])
    weights = weights / weights.sum()
    drawn = kind_rng.choice(len(kinds), size=n, p=weights)
    # One shared Zipf rank assignment for every stored-key draw: hot
    # keys are hot across lookups, removes, and range lower bounds.
    hot_keys = zipf_rank_choice(np.asarray(keys), config.skew, n, hot_rng)

    arrivals: list[Arrival] = []
    for i in range(n):
        kind = kinds[int(drawn[i])]
        if kind is RequestKind.INSERT:
            request = Request(kind, float(fresh_rng.random()), value=i)
        elif kind is RequestKind.RANGE:
            lo = min(float(hot_keys[i]), 1.0 - config.range_span)
            request = Request(kind, lo, hi=lo + config.range_span)
        else:  # lookup / remove target stored (possibly hot) keys
            request = Request(kind, float(hot_keys[i]))
        arrivals.append(
            Arrival(
                time=float(times[i]),
                session=i % config.n_sessions,
                index=i,
                request=request,
            )
        )
    return arrivals
