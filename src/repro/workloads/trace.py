"""The index's operation vocabulary and generated operation traces.

The paper's index serves four client operations — exact match, insert,
delete and range (§5–§6) — and its motivation (§1) is that peer
dynamism induces a continuous stream of insertions and deletions.
:class:`Request` / :class:`RequestKind` are the one description of such
an operation: the serving layer accepts them
(:func:`repro.serve.serial_answer` gives each its one serial meaning),
and :func:`generate_trace` emits a replayable churn-flavoured sequence of
them for E20 and the determinism harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.datasets import make_keys

__all__ = ["Request", "RequestKind", "generate_trace"]


class RequestKind(enum.Enum):
    """The index's four client operations (§5–§6): the one operation
    vocabulary of served requests and generated traces alike."""

    LOOKUP = "lookup"
    INSERT = "insert"
    REMOVE = "remove"
    RANGE = "range"


@dataclass(frozen=True, slots=True)
class Request:
    """One client request.

    ``key`` is the point key (lookup/insert/remove) or the range lower
    bound; ``hi`` is the range upper bound; ``value`` rides along with
    inserts.
    """

    kind: RequestKind
    key: float
    value: Any = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind is RequestKind.RANGE and self.hi is None:
            raise ConfigurationError("range request needs an upper bound")

    @property
    def is_read(self) -> bool:
        """Whether the request never mutates the index (coalescable)."""
        return self.kind is RequestKind.LOOKUP


def generate_trace(
    n_ops: int,
    rng: np.random.Generator,
    distribution: str = "uniform",
    mix: dict[RequestKind, float] | None = None,
    range_span: float = 0.05,
) -> list[Request]:
    """Generate a mixed request trace from ``rng``.

    ``mix`` gives the probability of each request kind (defaults to a
    churn-flavoured 45% insert / 25% remove / 20% lookup / 10% range).
    Removes and lookups target previously inserted keys where possible,
    so the trace exercises real hits, not just misses; a remove drawn
    while nothing is live becomes an insert.
    """
    if n_ops < 0:
        raise ConfigurationError(f"negative trace length: {n_ops}")
    mix = mix or {
        RequestKind.INSERT: 0.45,
        RequestKind.REMOVE: 0.25,
        RequestKind.LOOKUP: 0.20,
        RequestKind.RANGE: 0.10,
    }
    total = sum(mix.values())
    if total <= 0:
        raise ConfigurationError("operation mix must have positive mass")
    kinds = list(mix)
    probabilities = [mix[k] / total for k in kinds]

    fresh = iter(make_keys(distribution, n_ops, rng))
    live: list[float] = []
    requests: list[Request] = []
    for _ in range(n_ops):
        kind = kinds[int(rng.choice(len(kinds), p=probabilities))]
        if kind is RequestKind.INSERT or (kind is RequestKind.REMOVE and not live):
            key = float(next(fresh))
            live.append(key)
            requests.append(Request(RequestKind.INSERT, key))
        elif kind is RequestKind.REMOVE:
            idx = int(rng.integers(0, len(live)))
            requests.append(Request(RequestKind.REMOVE, live.pop(idx)))
        elif kind is RequestKind.LOOKUP:
            if live and rng.random() < 0.8:
                key = live[int(rng.integers(0, len(live)))]
            else:
                key = float(rng.random())
            requests.append(Request(RequestKind.LOOKUP, key))
        else:
            lo = float(rng.random() * (1.0 - range_span))
            requests.append(Request(RequestKind.RANGE, lo, hi=lo + range_span))
    return requests
