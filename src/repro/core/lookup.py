"""LHT-lookup: binary search over named prefix classes (paper Alg. 2, §5).

Given a data key ``δ``, the target leaf label is some prefix of the path
``μ(δ, D)``.  A naive search would probe every candidate length; LHT
observes that all prefixes between ``f_n(x)`` and ``x`` share the DHT name
``f_n(x)``, so one probe rules out the whole class.  The candidate set
collapses from ``D`` labels to ``≈ D/2`` distinct names and the binary
search needs only ``log(D/2)`` DHT-gets — the paper's headline lookup
saving over PHT's ``log D``.

Probe outcomes steer the search:

* **failed get** — ``f_n(x)`` is not an internal node, so the leaf lies at
  or above it: shrink the upper bound to ``f_n(x)``'s length (not
  ``mid - 1``: the lengths in between share the probed name).
* **bucket covers δ** — found.
* **bucket does not cover δ** — the leaf lies strictly below; skip ahead
  to ``f_nn(x, μ)`` (Def. 2), the next prefix with a *new* name.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, cast

from repro.core.bucket import LeafBucket
from repro.core.config import IndexConfig
from repro.core.keys import mu_path
from repro.core.label import Label
from repro.core.naming import naming, next_naming
from repro.core.results import LookupResult
from repro.dht.base import DHT
from repro.errors import LabelError

__all__ = ["drive_plan", "lht_lookup", "lht_lookup_linear", "lookup_plan"]


def lookup_plan(
    config: IndexConfig, key: float
) -> Generator[Label, Any, LookupResult]:
    """Alg. 2 as a *probe plan*: the search logic with the I/O peeled off.

    A generator that yields the next name to probe (``f_n`` of a
    candidate prefix) and receives the fetched value via ``send``; it
    returns the final :class:`LookupResult` through ``StopIteration``.
    :func:`drive_plan` drives one plan with sequential fetches; the
    serving layer's coalescer (:mod:`repro.serve`) drives *many*
    plans in lock-step, merging each round's probes into one
    :meth:`~repro.dht.base.DHT.multi_get` — both paths execute this
    exact search, so their answers cannot diverge.
    """
    mu = mu_path(key, config.max_depth)
    shorter = 2
    longer = config.max_depth + 1
    lookups = 0
    probed: list[Label] = []

    while shorter <= longer:
        mid = (shorter + longer) // 2
        x = mu.prefix(mid)
        name = naming(x)
        bucket = yield name
        lookups += 1
        probed.append(name)
        if bucket is None:
            # f_n(x) is not internal: the leaf is at or above it.  All
            # lengths in (f_n(x).length, mid] share this name — skip them.
            longer = name.length
        elif isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return LookupResult(bucket, name, lookups, tuple(probed))
        else:
            # The probed name is internal; the leaf lies strictly below.
            # Skip to the next prefix of μ with a different name.
            try:
                shorter = next_naming(x, mu).length
            except LabelError:
                # μ continues with identical bits past x — only possible if
                # the index is inconsistent (see module docs); give up.
                break

    return LookupResult(None, None, lookups, tuple(probed))


def drive_plan(
    fetch: Callable[[str], Any], config: IndexConfig, key: float
) -> LookupResult:
    """Run one :func:`lookup_plan` to completion, one ``fetch`` per probe.

    The single-plan driver: ``fetch`` is ``dht.get`` for the routed
    lookup and ``failover_get`` for the replica re-drive, so the
    generator protocol is spelled out here and nowhere else.
    """
    plan = lookup_plan(config, key)
    try:
        name = next(plan)
        while True:
            name = plan.send(fetch(str(name)))
    except StopIteration as stop:
        return cast(LookupResult, stop.value)


def lht_lookup(dht: DHT, config: IndexConfig, key: float) -> LookupResult:
    """Locate the leaf bucket whose interval covers ``key`` (Alg. 2).

    Returns a :class:`LookupResult` whose ``name`` is ``f_n(λ(δ))`` — the
    DHT key of the covering bucket — and whose ``dht_lookups`` counts the
    binary-search probes.  A ``None`` bucket indicates an inconsistent
    index (unreachable in a quiescent system; possible transiently under
    churn).
    """
    return drive_plan(dht.get, config, key)


def lht_lookup_linear(dht: DHT, config: IndexConfig, key: float) -> LookupResult:
    """Top-down linear lookup — the ablation baseline for Alg. 2.

    Starts at the root's name class and descends one *name class* per
    probe (``x ← f_nn(x, μ)``), so it needs as many DHT-gets as there are
    name classes above the target leaf — ``O(D/2)`` worst case versus the
    binary search's ``O(log(D/2))``.  Every probe hits an existing
    internal node, so no get can fail on a consistent index.

    The ablation experiment (E16, ``repro.experiments.ablation_lookup``)
    compares the two, quantifying how much of LHT's lookup saving comes
    from the binary search versus the name-class collapse itself.
    """
    mu = mu_path(key, config.max_depth)
    x = mu.prefix(2)  # the regular root #0
    lookups = 0
    probed: list[Label] = []
    while True:
        name = naming(x)
        bucket = dht.get(str(name))
        lookups += 1
        probed.append(name)
        if isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return LookupResult(bucket, name, lookups, tuple(probed))
        if bucket is None:
            # Inconsistent index (unreachable in a quiescent system).
            return LookupResult(None, None, lookups, tuple(probed))
        try:
            x = next_naming(x, mu)
        except LabelError:
            return LookupResult(None, None, lookups, tuple(probed))
