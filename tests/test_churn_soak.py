"""Standing churn soak: long seeded membership + data churn, invariants
checked after *every* step.

Tier-2 (``-m soak``) runs long join/leave/fail sequences across every
registered substrate; an unmarked tier-1 smoke runs the same driver
briefly so the invariants stay exercised on every CI run (including the
sanitized leg).

Invariants after each step:

* **PeerStore coherence** — ``node_ids`` sorted and duplicate-free,
  ``n_peers`` consistent, ``peer_loads()`` keyed exactly by the live
  peers, and the per-peer loads summing to the stored key count;
* **overlay structure** — Chord's ring closes (``check_ring``), CAN's
  zones partition the space (``check_partition``), and OneHop's tables
  stay well-formed (``check_tables``) after every membership event; the
  OneHop soak deliberately disseminates only one round per step so
  routes run against *stale* tables (the quarantine/forwarding path),
  then settles and requires exact table convergence at the end;
* **routing liveness** — ``peer_of`` always names a live peer;
* **data** — every tracked key resolves to its last written value
  (after a crash-fail, lost keys are re-put first: a crash may lose
  data, but the overlay must keep routing and accepting writes).

Static substrates (kademlia / koorde / pastry / tapestry / local) have
no membership API; they soak under data churn alone, which still
exercises the kernel's store bookkeeping on every step.

The substrate list comes from ``repro.dht.registry`` — a newly enrolled
substrate soaks automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht import CANDHT, ChordDHT, OneHopDHT
from repro.dht.registry import make as make_dht, names as substrate_names

PUTS_PER_STEP = 4

SMOKE_PEERS = 12
SMOKE_STEPS = 6

#: The tier-2 soak runs at more than double the smoke's ring size and
#: step count — large enough that the kernel's incremental sorted-id
#: index sees hundreds of splices per run on every dynamic overlay.
SOAK_PEERS = 28
SOAK_STEPS = 240


def assert_peer_store_coherent(dht):
    ids = dht.node_ids
    assert list(ids) == sorted(ids)
    assert len(ids) == len(set(ids)) == dht.n_peers
    loads = dht.peer_loads()
    assert set(loads) == set(ids)
    assert sum(loads.values()) == len(list(dht.keys()))
    for probe in ("soak-probe-a", "soak-probe-b"):
        assert dht.peer_of(probe) in ids


def membership_step(dht, rng, n_peers: int) -> bool:
    """One membership event where the overlay supports it.

    Returns True when the event may have destroyed data (crash-fail),
    so the driver knows to repair before asserting key presence.
    """
    if isinstance(dht, ChordDHT):
        op = str(rng.choice(["join", "leave", "fail"]))
        if dht.n_peers <= 5:
            op = "join"
        elif dht.n_peers >= 2 * n_peers:
            op = str(rng.choice(["leave", "fail"]))
        lost = False
        if op == "join":
            joined = dht.join()
            assert joined in dht.node_ids
        elif op == "leave":
            victim = dht.node_ids[int(rng.integers(dht.n_peers))]
            dht.leave(victim, graceful=True)
            assert victim not in dht.node_ids
        else:
            victim = dht.node_ids[int(rng.integers(dht.n_peers))]
            dht.fail(victim)
            assert victim not in dht.node_ids
            lost = True
        dht.stabilize_all(rounds=1)
        dht.check_ring()
        return lost
    if isinstance(dht, OneHopDHT):
        op = str(rng.choice(["join", "leave", "fail"]))
        if dht.n_peers <= 5:
            op = "join"
        elif dht.n_peers >= 2 * n_peers:
            op = str(rng.choice(["leave", "fail"]))
        lost = False
        if op == "join":
            joined = dht.join()
            assert joined in dht.node_ids
        else:
            victim = dht.node_ids[int(rng.integers(dht.n_peers))]
            dht.leave(victim, graceful=(op == "leave"))
            assert victim not in dht.node_ids
            lost = op == "fail"
        # One round per step on purpose: events queue faster than they
        # land, so routing runs against stale tables (probe/forward
        # corrections) while remaining exact — the invariants below
        # still hold on every step.
        dht.disseminate(rounds=1)
        dht.check_tables()
        return lost
    if isinstance(dht, CANDHT):
        if dht.n_peers <= 5 or (
            dht.n_peers < 2 * n_peers and rng.random() < 0.5
        ):
            joined = dht.join()
            assert joined in dht.node_ids
        else:
            # CAN leaves need a mergeable zone; scan in random order and
            # take the first victim the overlay accepts.
            order = rng.permutation(len(dht.node_ids))
            for pick in order:
                victim = dht.node_ids[int(pick)]
                if dht.leave(victim):
                    assert victim not in dht.node_ids
                    break
        dht.check_partition()
        return False
    return False  # static overlay: data churn only


def run_soak(name: str, steps: int, seed: int, n_peers: int) -> None:
    dht = make_dht(name, n_peers, seed)
    rng = np.random.default_rng(seed)
    expected: dict[str, tuple[int, int]] = {}

    for step in range(steps):
        for j in range(PUTS_PER_STEP):
            key = f"soak-{step}-{j}"
            dht.put(key, (step, j))
            expected[key] = (step, j)
        if expected and rng.random() < 0.3:
            victim_key = sorted(expected)[int(rng.integers(len(expected)))]
            removed = dht.remove(victim_key)
            assert removed == expected.pop(victim_key)

        data_may_be_lost = membership_step(dht, rng, n_peers)
        if data_may_be_lost:
            # A crash loses the victim's keys; the overlay must still
            # accept the re-puts that repair them.
            for key, value in expected.items():
                dht.put(key, value)

        assert_peer_store_coherent(dht)
        for key, value in expected.items():
            assert dht.get(key) == value

    if isinstance(dht, OneHopDHT):
        # Quiesce the event queue: every table must converge exactly,
        # and converged routing must be back to single-hop.
        dht.settle()
        dht.check_tables()
        assert dht.converged
        for key in list(expected)[:5]:
            owner, hops = dht.route(key)
            assert hops == 1
            assert owner == dht.peer_of(key)


@pytest.mark.parametrize("name", substrate_names())
def test_churn_smoke(name):
    """Tier-1: a short soak on every substrate, every CI run."""
    run_soak(name, steps=SMOKE_STEPS, seed=23, n_peers=SMOKE_PEERS)


@pytest.mark.soak
@pytest.mark.parametrize("name", substrate_names())
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_churn_soak_long(name, seed):
    """Tier-2: long seeded churn sequences (``-m soak``)."""
    run_soak(name, steps=SOAK_STEPS, seed=seed, n_peers=SOAK_PEERS)
