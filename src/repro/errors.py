"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LabelError(ReproError):
    """An invalid tree-node label or an illegal label operation."""


class KeyOutOfRangeError(ReproError):
    """A data key fell outside the indexable domain ``[0, 1)``."""


class WireFormatError(ReproError):
    """A serialized bucket or node could not be decoded as written."""


class DepthExceededError(ReproError):
    """A tree path grew deeper than the configured maximum depth ``D``."""


class LookupError_(ReproError):
    """An index lookup failed to converge (inconsistent index state)."""


class DHTError(ReproError):
    """Base class for DHT-substrate errors."""


class NoSuchPeerError(DHTError):
    """An operation referenced a peer that is not part of the overlay."""


class EmptyOverlayError(DHTError):
    """An operation was attempted on an overlay with no live peers."""


class RoutingError(DHTError):
    """Overlay routing failed to reach the peer responsible for a key."""


class CircuitOpenError(DHTError):
    """An operation was rejected fast because the circuit breaker is open.

    Raised by :class:`repro.resilience.ResilientDHT` while its breaker
    shields a substrate that has produced too many consecutive failures;
    no routed operation is attempted (and none is charged).
    """


class OverloadError(ReproError):
    """A request was rejected by the serving layer's admission control.

    Raised by :mod:`repro.serve` front-ends when the bounded in-flight
    window and waiting queue are both full; nothing was routed (and
    nothing is charged beyond the rejection counter), so the client may
    retry after backing off.
    """


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class SanitizerError(ReproError):
    """The distributed state violates one of the paper's invariants.

    Raised by the one structural check in :mod:`repro.core.stats` —
    from :meth:`~repro.core.stats.IndexInspector.verify`, and from
    :class:`~repro.core.stats.IndexSanitizer` when a mutating index
    operation leaves the state inconsistent with the paper's Theorems
    1-2 or the §3.2 structural properties.
    """


class DeterminismError(SimulationError):
    """Two same-seed runs of a workload produced diverging event traces."""


class ConfigurationError(ReproError):
    """Invalid configuration parameters."""
