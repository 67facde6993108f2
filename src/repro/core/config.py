"""Configuration for LHT indexes (and shared by the PHT baseline)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["IndexConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True, slots=True)
class IndexConfig:
    """Tunable parameters of an over-DHT tree index.

    Attributes:
        theta_split: The split threshold ``θ_split`` (paper §3.2): the number
            of storage slots per leaf bucket.  One slot is occupied by the
            leaf label, so a bucket splits when it already holds
            ``θ_split - 1`` records and another insert arrives.  The paper's
            experiments default to 100.
        max_depth: The a-priori maximum tree depth ``D`` (paper §5); lookup
            paths ``μ(δ, D)`` have ``D`` bits after the ``#``.  The paper's
            experiments use 20.
        merge_enabled: Whether deletions trigger the dual merge operation
            (paper §3.2's merge rule).  Disabled for pure-insertion
            experiments, matching the paper's workloads.
        merge_threshold: Merge two sibling leaves when their combined slot
            count falls below this value.  Defaults to ``θ_split // 2`` (set
            at construction when left as 0) to provide hysteresis against
            split/merge thrashing.
        sanitize: Run the runtime sanitizer
            (:class:`repro.core.stats.IndexSanitizer`) after every
            mutating index operation.  Also switched on globally by the
            ``LHT_SANITIZE=1`` environment variable.
        cache_enabled: Front lookups with a client-side
            :class:`repro.cache.LeafCache` (see ``docs/performance.md``):
            a cache hit answers an exact-match with one *validated*
            DHT-get instead of the Alg. 2 binary search.  Off by default —
            the paper's cost figures are measured uncached.
        cache_capacity: Maximum leaf labels the cache retains (LRU
            eviction).  Each entry is one short bit string, so memory is
            negligible; the bound exists to model a constrained client.
    """

    theta_split: int = 100
    max_depth: int = 20
    merge_enabled: bool = False
    merge_threshold: int = 0
    sanitize: bool = False
    cache_enabled: bool = False
    cache_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.theta_split < 2:
            raise ConfigurationError(
                f"theta_split must be >= 2 (one slot is the label): {self.theta_split}"
            )
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1: {self.max_depth}")
        if self.merge_threshold == 0:
            object.__setattr__(self, "merge_threshold", max(2, self.theta_split // 2))
        if not 2 <= self.merge_threshold <= self.theta_split:
            raise ConfigurationError(
                f"merge_threshold {self.merge_threshold} must lie in "
                f"[2, theta_split={self.theta_split}]"
            )
        if self.cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be >= 1: {self.cache_capacity}"
            )

    @property
    def record_capacity(self) -> int:
        """Records a bucket can hold before it is full (``θ_split - 1``)."""
        return self.theta_split - 1


#: The paper's default experimental configuration (θ=100, D=20).
DEFAULT_CONFIG = IndexConfig()
