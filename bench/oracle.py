"""The shadow oracle: what every answer of the program must equal.

A dict of live records plus (only for workloads that ask ranges, where
it pays for itself) a sorted key list.  The driver replays the
operations *in the order the program executed them* against it after
each timed phase; the first disagreement aborts the run.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Sequence

from repro.core.naming import naming

from bench.workloads import DELETE, INSERT, KINDS, LOOKUP, MIN, RANGE, Op

__all__ = ["Oracle", "WrongAnswer", "check_splits"]


class WrongAnswer(Exception):
    """The program answered differently from the oracle, or broke one
    of the paper's bounds.  Not a failed operation: the run aborts."""


class Oracle:
    """Live records of an index that started as ``keys`` (payload None)."""

    def __init__(self, keys: Iterable[float], ordered: bool) -> None:
        self.live: dict[float, Any] = dict.fromkeys(keys)
        self.ranked: list[float] | None = sorted(self.live) if ordered else None

    def _insert(self, key: float, value: Any) -> None:
        if key not in self.live and self.ranked is not None:
            bisect.insort(self.ranked, key)
        self.live[key] = value

    def _delete(self, key: float) -> bool:
        if key not in self.live:
            return False
        del self.live[key]
        if self.ranked is not None:
            del self.ranked[bisect.bisect_left(self.ranked, key)]
        return True

    def _ranked(self) -> list[float]:
        if self.ranked is None:
            self.ranked = sorted(self.live)
        return self.ranked

    def apply(self, op: Op, answer: Any) -> None:
        """Check ``answer`` to ``op`` and advance the oracle past it.

        ``answer`` is the normalised payload: the found record (or
        None) for a lookup and for min/max, the ``deleted`` flag for a
        delete, the records for a range; an insert's is ignored.
        """
        kind, x, y = op
        if kind == LOOKUP:
            expected = x in self.live
            if (answer is not None) != expected:
                raise WrongAnswer(f"lookup {x!r}: present={expected}, got {answer!r}")
            if expected and (answer.key != x or answer.value != self.live[x]):
                raise WrongAnswer(
                    f"lookup {x!r}: stored value {self.live[x]!r}, got {answer!r}"
                )
        elif kind == INSERT:
            self._insert(x, y)
        elif kind == DELETE:
            expected = self._delete(x)
            if bool(answer) != expected:
                raise WrongAnswer(f"delete {x!r}: deleted={expected}, got {answer!r}")
        elif kind == RANGE:
            ranked = self._ranked()
            lo = bisect.bisect_left(ranked, x)
            hi = bisect.bisect_left(ranked, y)
            got = [record.key for record in answer]
            if got != ranked[lo:hi]:
                raise WrongAnswer(
                    f"range [{x!r}, {y!r}): expected {hi - lo} keys, got "
                    f"{len(got)} (first difference at position "
                    f"{_first_difference(got, ranked[lo:hi])})"
                )
        else:
            ranked = self._ranked()
            expected_key = (ranked[0] if kind == MIN else ranked[-1]) if ranked else None
            got_key = answer.key if answer is not None else None
            if got_key != expected_key:
                raise WrongAnswer(
                    f"{'min' if kind == MIN else 'max'}: expected "
                    f"{expected_key!r}, got {got_key!r}"
                )

    def replay(
        self, ops: Sequence[Op], answers: Sequence[Any], order: Iterable[int]
    ) -> None:
        """Apply ``ops[i]`` for ``i`` in ``order``; name the offender."""
        for i in order:
            try:
                self.apply(ops[i], answers[i])
            except WrongAnswer as exc:
                raise WrongAnswer(f"op {i} ({KINDS[ops[i][0]]}): {exc}") from None


def _first_difference(got: Sequence[float], expected: Sequence[float]) -> int:
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return i
    return min(len(got), len(expected))


def check_splits(splits: Iterable[Any], theta_split: int) -> None:
    """Theorem 2 on every recorded split: the local child keeps the
    parent's DHT name (so only the other child's records travel) and
    fewer than ``θ_split`` records move.  The event's own
    ``dht_lookups`` is a constant and proves nothing, so it is not read.
    """
    for event in splits:
        if naming(event.local) != naming(event.parent):
            raise WrongAnswer(
                f"split of {event.parent}: local child {event.local} is named "
                f"{naming(event.local)}, parent {naming(event.parent)}"
            )
        if not event.records_moved < theta_split:
            raise WrongAnswer(
                f"split of {event.parent}: moved {event.records_moved} "
                f"records, theta_split is {theta_split}"
            )
