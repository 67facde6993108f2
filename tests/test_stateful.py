"""One nemesis state machine owns the index's correctness.

:class:`IndexMachine` is a hypothesis ``RuleBasedStateMachine`` built
from a :func:`repro.dht.registry.stack` spec and run over every arm of
the determinism gate (``repro.devtools.determinism.SUBSTRATES``), so a
newly enrolled arm is checked automatically.  An arm whose spec has no
``faulty`` layer is built as ``faulty:0/<spec>``: the nemesis needs one
place to inject faults.

* **Client rules** — insert, delete, bulk load, ``exact_match_checked``,
  degraded range, degraded min/max, scan, and a small read batch served
  through :class:`~repro.serve.ServeEngine`.  Every answer is checked
  against the :class:`~repro.core.ReferenceTree` and the live-key list:
  with faults off it must equal the oracle's; with faults on it must
  equal it or be typed (UNREACHABLE, ``complete=False`` with gaps that
  cover every missing key, ``ERROR``/``REJECTED``).  A mutation that
  fails typed must not have happened.
* **Nemesis rules** — get-drop spells on and off, and graceful
  join/leave followed by the overlay's own maintenance, each only on
  arms that support it.
* **Invariants** — ``check_structure`` over the oracle walk (Theorem 1,
  record placement, the leaf partition), every bucket held by the peer
  its name routes to, the record count, and on the ``cached-local`` arm
  a bounded cache whose every label names a live leaf; while no fault
  has ever been on, the stored leaf set equals the oracle tree's.

Write-fault spells and crashes (``leave(graceful=False)``) are rules of
the same class, switched off in the search (``damaging``): each still
damages the tree (ROADMAP items 2 and 3).  They run in two pinned
replays and in an exhaustive mode that fails the n-th routed write of
each mutation kind; every case that breaks today is a strict xfail
naming the exact error, so the fix that mends it must also drop the
marker.  Two more pinned replays hold defects the search once found,
now mended: a sanitizer false positive and the reference tree's depth
cap.
``docs/resilience.md`` says how to replay a failure.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import IndexConfig, LHTIndex, MatchStatus, ReferenceTree
from repro.core.stats import check_structure, stored_buckets
from repro.devtools.determinism import SUBSTRATES
from repro.dht import FaultyDHT, registry
from repro.dht.kernel import DelegatingDHT, stack_layers
from repro.errors import DHTError, LookupError_, SanitizerError
from repro.serve import Arrival, Request, RequestKind, ServeConfig, ServeEngine, Status

unit_floats = st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False)
#: ``None`` draws a fresh key; an int picks a live key.
picks = st.none() | st.integers(0, 63)
#: A batch of point lookups, each a fresh or a live key.
lookups = st.lists(st.tuples(unit_floats, picks), min_size=1, max_size=6)
#: One churn batch: join (``True``) or a graceful leave of a picked bucket's holder.
churn_events = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63)), min_size=1, max_size=8
)
DROP_RATES = (0.05, 0.2, 0.5)
MACHINE_SETTINGS = settings(max_examples=10, stateful_step_count=25, deadline=None)


def build_stack(arm: str):
    """The arm's stack, with a ``faulty`` layer for the nemesis."""
    spec = SUBSTRATES[arm]
    if "faulty" not in (token.partition(":")[0] for token in spec.split("/")):
        spec = f"faulty:0/{spec}"
    return registry.stack(spec, 16, 0)


class IndexMachine(RuleBasedStateMachine):
    #: Write-fault spells and crashes: off in the search (see module docs).
    damaging = False

    def __init__(self, arm: str = "local", wrap=lambda dht: dht) -> None:
        super().__init__()
        self.dht = wrap(build_stack(arm))
        *_, self.base = layers = list(stack_layers(self.dht))
        *_, self.faulty = (layer for layer in layers if isinstance(layer, FaultyDHT))
        self.dynamic = registry.spec(SUBSTRATES[arm].rpartition("/")[2]).dynamic
        config = IndexConfig(
            theta_split=4,
            max_depth=40,
            merge_enabled=True,
            merge_threshold=4,
            cache_capacity=4 if arm == "cached-local" else None,
        )
        self.index = LHTIndex(self.dht, config)
        self.oracle = ReferenceTree(config)
        self.live: list[float] = []
        self.faults_on = bool(self.faulty.get_drop_rate)
        #: No fault has ever been on: skipped merges cannot have bent
        #: the tree's shape away from the oracle's.
        self.exact_shape = not self.faults_on
        #: Lost records leave a hole that nothing heals yet (ROADMAP
        #: item 3), so a crash ends the structural check for the run.
        self.crashed = False

    def _key(self, key: float, pick: int | None) -> float:
        if pick is None or not self.live:
            return key
        return self.live[pick % len(self.live)]

    def _typed(self, got: list[float], truth: list[float], answer) -> None:
        """A range or min/max answer is the oracle's, or declares gaps
        covering every key it misses and invents none."""
        if answer.complete:
            assert got == truth
            return
        assert self.faults_on and answer.unreachable
        assert not Counter(got) - Counter(truth)
        for key in Counter(truth) - Counter(got):
            assert any(gap.contains(key) for gap in answer.unreachable)

    # ------------------------------------------------------------------
    # Client rules
    # ------------------------------------------------------------------

    @initialize(keys=st.lists(unit_floats, min_size=8, max_size=40))
    def seed_data(self, keys: list[float]) -> None:
        for key in keys:
            self.insert(key)

    def _mutate(self, operation, *args):
        """Run a mutation.  A typed failure is legal only while faults
        are on, and means the mutation did not happen (``None``)."""
        try:
            return operation(*args)
        except (DHTError, LookupError_):
            if not self.faults_on:
                raise
            return None

    @rule(key=unit_floats)
    def insert(self, key: float) -> None:
        if self._mutate(self.index.insert, key) is not None:
            self.oracle.insert(key)
            self.live.append(key)

    @rule(key=unit_floats, pick=picks, run=st.integers(1, 16))
    def delete(self, key: float, pick: int | None, run: int = 1) -> None:
        # A run of live keys shrinks the tree far enough to merge.
        for _ in range(run if pick is not None else 1):
            target = self._key(key, pick)
            result = self._mutate(self.index.delete, target)
            if result is not None:
                assert result.deleted == (target in self.live)
                if result.deleted:
                    self.live.remove(target)
                    self.oracle.delete(target)

    @rule(keys=st.lists(unit_floats, max_size=8, unique=True))
    def bulk_load(self, keys: list[float]) -> None:
        if self._mutate(self.index.bulk_load, keys, True) is not None:
            # Byte-identical to inserting the sorted input (core.bulkbuild).
            for key in sorted(keys):
                self.oracle.insert(key)
            self.live.extend(keys)

    @rule(keys=lookups)
    def exact_match(self, keys: list[tuple[float, int | None]]) -> None:
        for key in (self._key(*k) for k in keys):
            result = self.index.exact_match_checked(key)
            if result.status is MatchStatus.UNREACHABLE:
                assert self.faults_on
            else:
                assert (result.status is MatchStatus.PRESENT) == (key in self.live)
                assert result.record is None or result.record.key == key

    @rule(a=unit_floats, b=unit_floats)
    def range_query(self, a: float, b: float) -> None:
        lo, hi = sorted((a, b))
        result = self.index.range_query(lo, hi, degraded=True)
        self._typed(result.keys, self.oracle.keys_in_range(lo, hi), result)

    @rule()
    def min_max(self) -> None:
        for query, extreme in (
            (self.index.min_query, min),
            (self.index.max_query, max),
        ):
            result = query(degraded=True)
            got = [result.record.key] if result.record is not None else []
            self._typed(got, [extreme(self.live)] if self.live else [], result)

    @precondition(lambda self: not self.faults_on)
    @rule()
    def scan(self) -> None:
        assert [r.key for r in self.index.scan()] == sorted(self.live)

    @rule(keys=lookups, a=unit_floats, b=unit_floats)
    def serve_reads(self, keys, a: float, b: float) -> None:
        lo, hi = sorted((a, b))
        requests = [Request(RequestKind.LOOKUP, self._key(*k)) for k in keys]
        requests.append(Request(RequestKind.RANGE, lo, hi=hi))
        served = ServeEngine(self.index, ServeConfig()).run(
            [Arrival(0.0, i, i, r) for i, r in enumerate(requests)]
        )
        for request, response in zip(requests, served.responses):
            if response.status is not Status.OK:
                assert self.faults_on
            elif request.kind is RequestKind.RANGE:
                truth = self.oracle.keys_in_range(lo, hi)
                assert [r.key for r in response.answer] == truth
            elif request.key in self.live:
                assert response.answer.key == request.key
            else:
                assert response.answer is None

    # ------------------------------------------------------------------
    # Nemesis rules
    # ------------------------------------------------------------------

    @rule(rate=st.sampled_from(DROP_RATES))
    def drop_spell(self, rate: float) -> None:
        self.faulty.get_drop_rate = rate
        self.faults_on = True
        self.exact_shape = False

    @precondition(lambda self: self.damaging)
    @rule(rate=st.sampled_from(DROP_RATES))
    def write_spell(self, rate: float) -> None:
        self.faulty.put_fail_rate = self.faulty.remove_fail_rate = rate
        self.faults_on = True
        self.exact_shape = False

    @rule()
    def spell_off(self) -> None:
        faulty = self.faulty
        faulty.get_drop_rate = faulty.put_fail_rate = faulty.remove_fail_rate = 0.0
        self.faults_on = False

    def _maintain(self) -> None:
        if hasattr(self.base, "stabilize_all"):
            self.base.stabilize_all()
        if hasattr(self.base, "settle"):
            self.base.settle()

    @precondition(lambda self: self.dynamic)
    @rule(events=churn_events)
    def churn(self, events: list[tuple[bool, int]]) -> None:
        base = self.base
        for join, pick in events:
            if (join and base.n_peers < 24) or base.n_peers <= 8:
                base.join()
            else:
                # A graceful leave of a peer that holds a bucket.
                names = sorted(map(str, stored_buckets(self.dht)))
                base.leave(base.peer_of(names[pick % len(names)]))
            self._maintain()

    @precondition(lambda self: self.damaging and hasattr(self.base, "fail"))
    @rule(pick=st.integers(0, 63))
    def crash(self, pick: int) -> None:
        base = self.base
        base.leave(base.node_ids[pick % base.n_peers], graceful=False)
        self._maintain()
        # One replica: the victim's records are gone, and the oracle
        # forgets them too.
        stored = Counter(r.key for b in stored_buckets(self.dht).values() for r in b)
        for key in (Counter(self.live) - stored).elements():
            self.live.remove(key)
            self.oracle.delete(key)
        self.exact_shape = False
        self.crashed = True

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def stored_state(self) -> None:
        buckets = stored_buckets(self.dht)
        cache = self.index.cache
        if not self.crashed:
            check_structure(buckets)
            # Membership changes hand every bucket to its name's new owner.
            for name in map(str, buckets):
                assert name in self.base.peers.store_of(self.base.peer_of(name))
            if cache is not None:
                # Single writer: every cached label names a live leaf.
                assert len(cache) <= cache.capacity
                assert set(cache.labels()) <= {b.label for b in buckets.values()}
        assert sum(map(len, buckets.values())) == len(self.live)
        if self.exact_shape:
            assert sorted(str(b.label) for b in buckets.values()) == sorted(
                str(label) for label in self.oracle.leaf_labels
            )


@pytest.mark.parametrize("arm", sorted(SUBSTRATES))
def test_index_machine(arm):
    run_state_machine_as_test(lambda: IndexMachine(arm), settings=MACHINE_SETTINGS)


# ----------------------------------------------------------------------
# Damage the search cannot reach yet: pinned replays and an exhaustive
# mode over the same rules
# ----------------------------------------------------------------------


def replay(machine: IndexMachine, steps) -> None:
    """Run a pinned step list of ``(rule, *args)``, damaging rules
    included, checking the invariants after each step."""
    machine.damaging = True
    machine.stored_state()
    for name, *args in steps:
        getattr(machine, name)(*args)
        machine.stored_state()


#: ROADMAP item 2: a write-fault spell, then clean inserts.
FAULT_SPELL = (
    [("insert", k / 8) for k in range(1, 8)]
    + [("write_spell", 0.5)]
    + [("insert", k / 8 + 1 / 16) for k in range(8)]
    + [("spell_off",)]
    + [("insert", k / 8 + 1 / 32) for k in range(8)]
)
#: ROADMAP item 3: a quarter of the peers crash, then inserts sweep the
#: key space.
CRASH = (
    [("insert", k / 40) for k in range(40)]
    + [("crash", k) for k in (6, 3, 6, 1)]
    + [("insert", k / 40 + 1 / 80) for k in range(40)]
)


@pytest.mark.xfail(strict=True, raises=SanitizerError)
def test_fault_spell_replay():
    replay(IndexMachine("local"), FAULT_SPELL)


@pytest.mark.xfail(strict=True, raises=LookupError_)
def test_crash_replay(monkeypatch):
    # The runtime sanitizer re-checks the structure after every
    # mutation, which a crash fails until something heals the hole; the
    # replay asks the client's question instead: do later inserts land?
    monkeypatch.delenv("LHT_SANITIZE", raising=False)
    replay(IndexMachine("chord"), CRASH)


def test_sanitized_bulk_load_replay(monkeypatch):
    """A fast bulk load that splits a leaf twice: the sanitizer measures
    the new grandchild against the old leaf's occupancy, and accepts a
    state equal to incremental inserts."""
    monkeypatch.setenv("LHT_SANITIZE", "1")
    replay(IndexMachine("local"), [("insert", 0.0)] * 4 + [("bulk_load", [0.0, 0.0])])


def test_oracle_depth_cap_replay():
    """43 equal keys: the index keeps an over-full leaf at the depth cap,
    and so does the reference tree."""
    replay(IndexMachine("local"), [("insert", 0.0)] * 43)


class NthWriteFails(DelegatingDHT):
    """Fails the ``countdown``-th routed write (put or remove) from now."""

    countdown = 0

    def _write(self, key: str) -> None:
        self.countdown -= 1
        if self.countdown == 0:
            raise DHTError(f"injected failure of the routed write to {key!r}")

    def put(self, key, value):
        self._write(key)
        self.inner.put(key, value)

    def remove(self, key):
        self._write(key)
        return self.inner.remove(key)


#: Mutation kind -> (setup steps, the mutating step, its routed writes),
#: at θ_split = 4 and merge threshold 4.
MUTATIONS = {
    "insert": ([("insert", 0.1)], ("insert", 0.3), 1),
    "delete": ([("insert", 0.1)], ("delete", 0.1, None), 1),
    "split": ([("insert", k) for k in (0.1, 0.2, 0.6)], ("insert", 0.3), 2),
    "merge": (
        [("insert", k) for k in (0.1, 0.2, 0.6, 0.7)] + [("delete", 0.7, None)],
        ("delete", 0.6, None),
        2,
    ),
    "bulk-load": ([], ("bulk_load", [0.1, 0.2, 0.3, 0.6, 0.7]), 2),
}


#: The cells that damage the tree today (ROADMAP item 2): the moving
#: child's put, the absorbed sibling's remove, a later leaf's put.
BROKEN = {("split", 2), ("merge", 2), ("bulk-load", 2)}

#: Every cell on ``local``; the one-write mutations also on the deploy
#: stack, whose byte layer and replica fan-out carry that one write.
CELLS = [
    ("local", kind, n) for kind, (*_, w) in MUTATIONS.items() for n in range(1, w + 2)
]
CELLS += [("deploy-local", kind, n) for kind in ("insert", "delete") for n in (1, 2)]


@pytest.mark.parametrize(
    "arm, kind, n",
    [
        pytest.param(
            arm,
            kind,
            n,
            marks=[pytest.mark.xfail(strict=True, raises=SanitizerError)]
            if (kind, n) in BROKEN
            else [],
            id=f"{kind}-{n}" if arm == "local" else f"{kind}-{n}-{arm}",
        )
        for arm, kind, n in CELLS
    ],
)
def test_nth_routed_write_fails(arm, kind, n):
    """Exhaustive mode: the n-th routed write of one mutation fails.  A
    typed failure must leave the index as it was; past the last write
    nothing fails and the mutation lands."""
    setup, (rule_name, *args), writes = MUTATIONS[kind]
    machine = IndexMachine(arm, wrap=NthWriteFails)
    for name, *setup_args in setup:
        getattr(machine, name)(*setup_args)
    machine.dht.countdown = n
    machine.faults_on = True
    getattr(machine, rule_name)(*args)
    assert machine.dht.countdown == max(n - writes, 0)
    machine.stored_state()
