"""Baseline indexing schemes the paper compares against (or surveys).

* :mod:`repro.baselines.pht` — Prefix Hash Tree, the paper's main
  comparison point (state of the art for maintenance efficiency).
* :mod:`repro.baselines.naive` — raw-DHT placement with no index, the
  strawman the paper's introduction motivates against.
"""

from repro.baselines.naive import NaiveIndex
from repro.baselines.orderpreserving import OrderPreservingIndex
from repro.baselines.pht import PHTIndex, PHTNode

__all__ = ["NaiveIndex", "OrderPreservingIndex", "PHTIndex", "PHTNode"]
