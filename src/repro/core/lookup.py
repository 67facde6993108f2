"""LHT-lookup: binary search over named prefix classes (paper Alg. 2, §5).

Given a data key ``δ``, the target leaf label is some prefix of the path
``μ(δ, D)``.  A naive search would probe every candidate length; LHT
observes that all prefixes between ``f_n(x)`` and ``x`` share the DHT name
``f_n(x)``, so one probe rules out the whole class.  The candidate set
collapses from ``D`` labels to ``≈ D/2`` distinct names and the binary
search needs only ``log(D/2)`` DHT-gets — the paper's headline lookup
saving over PHT's ``log D``.

The search is prefix arithmetic on μ's bit string: a candidate prefix is
a slice of it, and its name is the ``f_n`` kernel of
:mod:`repro.core.naming` applied to that slice.  A plan therefore yields
*DHT keys* (``"#" + bits``) and builds one :class:`Label` only, for the
name of the bucket it converges on.

Probe outcomes steer the search:

* **failed get** — ``f_n(x)`` is not an internal node, so the leaf lies at
  or above it: shrink the upper bound to ``f_n(x)``'s length (not
  ``mid - 1``: the lengths in between share the probed name).
* **bucket covers δ** — found.
* **bucket does not cover δ** — the leaf lies strictly below; skip ahead
  to ``f_nn(x, μ)`` (Def. 2), the next prefix with a *new* name.

Because a failed get is read *structurally*, a reply the substrate
dropped must never be mistaken for one.  The substrate keeps them apart
(``None`` is an answered "not stored", :data:`~repro.dht.base.NO_REPLY`
a lost reply), and :class:`ReadPath` is the one place in ``repro.core``
and ``repro.serve`` that issues a routed read: it turns ``NO_REPLY`` —
and, where the caller degrades instead of raising, a typed substrate
error — into a replica rescue, and an unrescued one into a miss for
steering.  That is safe because a converged bucket proves itself
(``contains_key`` plus the leaf partition); a wrong turn can only end
the search unconverged, never at a wrong answer.  Lint rule LHT014
keeps every other module of those packages off the DHT's read methods.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Generator, cast

from repro.core.bucket import LeafBucket
from repro.core.config import IndexConfig
from repro.core.keys import key_bits
from repro.core.label import Label
from repro.core.naming import naming_bits, next_naming_depth
from repro.core.results import LookupResult
from repro.dht.base import DHT, NO_REPLY
from repro.dht.replicated import replica_layer
from repro.errors import DHTError

__all__ = [
    "Plan",
    "ReadPath",
    "drive_plan",
    "lht_lookup",
    "lht_lookup_linear",
    "lookup_plan",
]

#: A probe plan: yields the DHT keys to get, is sent the values, returns
#: the result.
Plan = Generator[str, Any, LookupResult]


def lookup_plan(config: IndexConfig, key: float) -> Plan:
    """Alg. 2 as a *probe plan*: the search logic with the I/O peeled off.

    A generator that yields the DHT key of the next name to probe
    (``"#" + f_n`` of a candidate prefix's bits) and receives the
    fetched value via ``send``; it returns the final
    :class:`LookupResult` through ``StopIteration``.
    :func:`drive_plan` drives one plan with sequential fetches; the
    serving layer's coalescer (:mod:`repro.serve`) drives *many*
    plans in lock-step, merging each round's probes into one
    :meth:`~repro.dht.base.DHT.multi_get` — both paths execute this
    exact search, so their answers cannot diverge.
    """
    mu = "0" + key_bits(key, config.max_depth - 1)  # μ(δ, D)'s bits
    shorter = 2
    longer = config.max_depth + 1
    probed: list[str] = []

    while shorter <= longer:
        mid = (shorter + longer) // 2
        name = "#" + naming_bits(mu[: mid - 1])  # f_n(x), x = μ.prefix(mid)
        bucket = yield name
        probed.append(name)
        if bucket is None:
            # f_n(x) is not internal: the leaf is at or above it.  All
            # lengths in (f_n(x).length, mid] share this name — skip them.
            longer = len(name)
        elif isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return LookupResult(bucket, Label(name[1:]), len(probed), tuple(probed))
        else:
            # The probed name is internal; the leaf lies strictly below.
            # Skip to the next prefix of μ with a different name, f_nn(x, μ).
            depth = next_naming_depth(mu, mid - 1)
            if not depth:
                # μ continues with identical bits past x — only possible if
                # the index is inconsistent (see module docs); give up.
                break
            shorter = depth + 1

    return LookupResult(None, None, len(probed), tuple(probed))


def drive_plan(fetch: Callable[[str], Any], plan: Plan) -> LookupResult:
    """Run one probe plan to completion, one ``fetch`` per yielded DHT key.

    The single-plan driver: ``fetch`` is :meth:`ReadPath.fetch` for the
    routed lookup (plain or cache-fronted plan alike) and
    ``failover_get`` for the replica re-drive, so the generator protocol
    is spelled out here and nowhere else.  ``fetch`` must never hand a
    plan ``NO_REPLY``: a plan reads anything but ``None`` as a node.
    """
    try:
        name = next(plan)
        while True:
            name = plan.send(fetch(name))
    except StopIteration as stop:
        return cast(LookupResult, stop.value)


def lht_lookup(dht: DHT, config: IndexConfig, key: float) -> LookupResult:
    """Locate the leaf bucket whose interval covers ``key`` (Alg. 2).

    Returns a :class:`LookupResult` whose ``name`` is ``f_n(λ(δ))`` — the
    DHT key of the covering bucket — and whose ``dht_lookups`` counts the
    binary-search probes.  A ``None`` bucket indicates an inconsistent
    index (unreachable in a quiescent system; possible transiently under
    churn) or a search a lost reply bent.
    """
    return drive_plan(ReadPath(dht, config).fetch, lookup_plan(config, key))


class ReadPath:
    """The routed read whose failure is data, shared by every query.

    A read has three outcomes (:meth:`~repro.dht.base.DHT.get`): a
    value, ``None`` — answered "not stored", final — and ``NO_REPLY``,
    which is re-asked of the replica holders (when the stack has a
    replication layer) and, unrescued, becomes a miss.  :meth:`fetch`
    lets a typed :class:`~repro.errors.DHTError` propagate (the raising
    API); :meth:`get` and :meth:`round` treat one like a lost reply (the
    degraded API).
    """

    def __init__(self, dht: DHT, config: IndexConfig) -> None:
        self.dht = dht
        self.config = config
        # Resolved once — the stack cannot change under a live index.
        self.replicas = replica_layer(dht)

    def fetch(self, name: str) -> Any | None:
        """One routed get of ``name``; a lost reply is rescued from the
        replicas or becomes a miss, a typed error propagates."""
        value = self.dht.get(name)
        return value if value is not NO_REPLY else self.rescue(name)

    def get(self, name: str) -> Any | None:
        """:meth:`fetch`, with a typed error rescued like a lost reply."""
        try:
            return self.fetch(name)
        except DHTError:
            return self.rescue(name)

    def round(self, names: list[str]) -> list[Any | None]:
        """One batched round of :meth:`get` calls: a typed error fails
        its own slot only, and only failed slots are rescued."""
        values = self.dht.multi_get(names, absorb_errors=True)
        for slot, value in enumerate(values):
            if value is NO_REPLY:
                values[slot] = self.rescue(names[slot])
        return values

    def rescue(self, name: str) -> Any | None:
        """Probe the replica holders for a name whose routed read got no
        reply.  A rescued value is one ``replica_failovers`` tick and the
        query continues undegraded; otherwise the name reads as a miss."""
        if self.replicas is None:
            return None
        try:
            value = self.replicas.failover_get(name)
        except DHTError:
            return None
        if value is not None:
            self.dht.metrics.record_replica_failover()
        return value

    def redrive(self, key: float, routed: LookupResult | None) -> LookupResult:
        """Re-drive Alg. 2 through replica probes before giving up.

        When the routed lookup could not converge (``routed``; ``None``
        if a typed error cut it short), a replication layer in the DHT
        stack (if any) still holds backup copies of every bucket on
        topology-derived peers.  This re-runs the same binary search
        with each DHT-get replaced by
        :meth:`~repro.dht.replicated.ReplicatedDHT.failover_get` —
        direct probes of all replica holders.  A convergent re-run is a
        rescued read (one ``replica_failovers`` tick); a non-convergent
        one leaves the bucket ``None`` and the caller declares the key
        unreachable.  Stacks without replicas skip all of this, so the
        k=1 path is untouched.
        """
        prior = routed.dht_lookups if routed is not None else 0
        if self.replicas is not None:
            try:
                rescued = drive_plan(
                    self.replicas.failover_get, lookup_plan(self.config, key)
                )
            except DHTError:
                return LookupResult(None, None, prior)
            if rescued.bucket is not None:
                self.dht.metrics.record_replica_failover()
                return replace(rescued, dht_lookups=prior + rescued.dht_lookups)
        return LookupResult(None, None, prior)


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
    fetch = ReadPath(dht, config).fetch
    mu = "0" + key_bits(key, config.max_depth - 1)
    depth = 1  # x = #0, the regular root
    probed: list[str] = []
    while depth:
        name = "#" + naming_bits(mu[:depth])
        bucket = fetch(name)
        probed.append(name)
        if isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return LookupResult(bucket, Label(name[1:]), len(probed), tuple(probed))
        if bucket is None:
            # Inconsistent index (unreachable in a quiescent system).
            break
        depth = next_naming_depth(mu, depth)  # x ← f_nn(x, μ); 0: none
    return LookupResult(None, None, len(probed), tuple(probed))
