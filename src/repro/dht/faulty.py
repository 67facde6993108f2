"""Fault-injection wrapper: probabilistic operation failures.

Over-DHT indexes interpret a failed DHT-get *structurally* (Alg. 2 treats
it as "this internal node does not exist"), so transient routing failures
are a genuine hazard for the whole scheme family.  This wrapper makes
that hazard testable: it drops a configurable fraction of gets and
optionally fails puts and removes.

Failure semantics, per operation:

* ``get`` / ``probe_get`` — a dropped reply returns
  :data:`~repro.dht.base.NO_REPLY`, never ``None``: a real overlay
  tells a timeout apart from an answered "not found", and so does this
  one.  Charged as a failed get in the shared
  :class:`~repro.dht.metrics.MetricsRecorder` (the network work
  happened, the reply was lost).
* ``put`` / ``remove`` — an injected failure raises the typed
  :class:`repro.errors.DHTError` (never a bare exception) and is charged
  as a ``failed_puts`` / ``failed_removes`` metric, so lost mutations are
  counted rather than silently vanishing from the cost ledgers.

The failure-injection test suite uses it to pin down the safety
contract: under dropped gets an index operation may return an *explicit*
miss, raise, or flag itself degraded, but it must never return wrong
data silently.  The resilience layer (:mod:`repro.resilience`) stacks on
top to recover from these injected faults.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dht.base import DHT, NO_REPLY
from repro.dht.kernel import DelegatingDHT
from repro.errors import ConfigurationError, DHTError

__all__ = ["FaultyDHT"]


class FaultyDHT(DelegatingDHT):
    """Wrap a substrate with seeded, probabilistic operation failures."""

    def __init__(
        self,
        inner: DHT,
        get_drop_rate: float = 0.0,
        put_fail_rate: float = 0.0,
        remove_fail_rate: float = 0.0,
        seed: int = 0,
        probe_drop_rate: float | None = None,
    ) -> None:
        rates = (get_drop_rate, put_fail_rate, remove_fail_rate)
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ConfigurationError("failure rates must be in [0, 1]")
        if probe_drop_rate is not None and not 0.0 <= probe_drop_rate <= 1.0:
            raise ConfigurationError("failure rates must be in [0, 1]")
        super().__init__(inner)
        self.get_drop_rate = get_drop_rate
        self.put_fail_rate = put_fail_rate
        self.remove_fail_rate = remove_fail_rate
        #: Drop rate for direct replica probes; ``None`` means probes
        #: share ``get_drop_rate`` (they are gets on the same lossy
        #: network).  Setting 0.0 makes failover deterministic in
        #: tests: every routed get drops, every probe answers.
        self.probe_drop_rate = probe_drop_rate
        self._rng = np.random.default_rng(seed)
        self.dropped_gets = 0
        self.failed_puts = 0
        self.failed_removes = 0

    # ------------------------------------------------------------------
    # DHT interface
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        if self.put_fail_rate and self._rng.random() < self.put_fail_rate:
            self.failed_puts += 1
            # Charge the lookup: the request was routed, the store failed.
            self.metrics.record_failed_put(1)
            raise DHTError(f"injected put failure for {key!r}")
        self.inner.put(key, value)

    def get(self, key: str) -> Any | None:
        if self.get_drop_rate and self._rng.random() < self.get_drop_rate:
            self.dropped_gets += 1
            # Charge the lookup: the network work happened, the reply
            # was lost.
            self.metrics.record_get(1, found=False)
            return NO_REPLY
        return self.inner.get(key)

    def remove(self, key: str) -> Any | None:
        if self.remove_fail_rate and self._rng.random() < self.remove_fail_rate:
            self.failed_removes += 1
            self.metrics.record_failed_remove(1)
            raise DHTError(f"injected remove failure for {key!r}")
        return self.inner.remove(key)

    # ------------------------------------------------------------------
    # Direct peer access (replica traffic crosses the same lossy network)
    # ------------------------------------------------------------------

    def probe_get(self, key: str, peer_id: int) -> Any | None:
        rate = (
            self.get_drop_rate
            if self.probe_drop_rate is None
            else self.probe_drop_rate
        )
        if rate and self._rng.random() < rate:
            self.dropped_gets += 1
            self.metrics.record_get(1, found=False)
            return NO_REPLY
        return self.inner.probe_get(key, peer_id)

    def put_at(self, key: str, value: Any, peer_id: int) -> None:
        if self.put_fail_rate and self._rng.random() < self.put_fail_rate:
            self.failed_puts += 1
            self.metrics.record_failed_put(1)
            raise DHTError(
                f"injected put failure for {key!r} at peer {peer_id}"
            )
        self.inner.put_at(key, value, peer_id)

    def remove_at(self, key: str, peer_id: int) -> Any | None:
        if self.remove_fail_rate and self._rng.random() < self.remove_fail_rate:
            self.failed_removes += 1
            self.metrics.record_failed_remove(1)
            raise DHTError(
                f"injected remove failure for {key!r} at peer {peer_id}"
            )
        return self.inner.remove_at(key, peer_id)

    # ``local_write``/``local_write_at`` and all introspection delegate
    # via DelegatingDHT: fault injection models the routed network path
    # only.
