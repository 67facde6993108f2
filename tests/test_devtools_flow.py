"""Call-graph rule tests: the program builder + rules LHT007-LHT011, LHT013.

Every fixture is a *multi-module* tree written into tmp_path, because
these rules' whole reason to exist is seeing across file boundaries.
Each rule gets at least one positive (seeded violation detected) and one
negative (legitimate pattern stays clean), and the transitive-hermeticity
positives additionally prove that a single-file scan misses them.  The
per-file and class-shape rules of the same pass live in
``tests/test_devtools_lint.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import LINT_RULES, build_program, lint_paths, main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: The rules that need the call graph (the rest of the catalogue is
#: exercised in tests/test_devtools_lint.py).
CALL_GRAPH_RULES = ("LHT007", "LHT008", "LHT009", "LHT010", "LHT011", "LHT013")


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        file = tmp_path / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(source)
    return tmp_path


def codes(violations) -> list[str]:
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# Shared fixture trees
# ----------------------------------------------------------------------

TRANSITIVE_SINK = {
    # util/ is not a deterministic package; the sink hides two calls deep.
    "util/timing.py": (
        "import time\n\n"
        "def helper():\n"
        "    return deeper()\n\n"
        "def deeper():\n"
        "    return time.perf_counter()\n"
    ),
    # core/ is deterministic; the frontier call is helper().
    "core/engine.py": (
        "from util.timing import helper\n\n"
        "def run():\n"
        "    return helper()\n"
    ),
}


class TestCallGraphBuilder:
    """The builder itself: resolution, sinks, and what stays opaque."""

    def test_direct_sink_recorded_on_owning_function(self, tmp_path):
        write_tree(tmp_path, TRANSITIVE_SINK)
        program = build_program([tmp_path])
        deeper = program.functions["util.timing.deeper"]
        assert [(kind, dotted) for _, _, kind, dotted in deeper.sinks] == [
            ("wall-clock", "time.perf_counter")
        ]
        helper = program.functions["util.timing.helper"]
        assert helper.sinks == []  # one hop away: a call edge, not a sink

    def test_cross_module_call_edge_resolves(self, tmp_path):
        write_tree(tmp_path, TRANSITIVE_SINK)
        program = build_program([tmp_path])
        run = program.functions["core.engine.run"]
        targets = [c.target for c in run.calls if c.project]
        assert targets == ["util.timing.helper"]

    def test_self_method_resolves_through_base_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/base.py": (
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                ),
                "pkg/child.py": (
                    "from pkg.base import Base\n\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                ),
            },
        )
        program = build_program([tmp_path])
        run = program.functions["pkg.child.Child.run"]
        assert [c.target for c in run.calls if c.project] == [
            "pkg.base.Base.helper"
        ]

    def test_dynamic_dispatch_stays_unresolved(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/dyn.py": (
                    "def slow():\n"
                    "    return 1\n\n"
                    "TABLE = {'slow': slow}\n\n"
                    "def run(name):\n"
                    "    return TABLE[name]()\n"
                ),
            },
        )
        program = build_program([tmp_path])
        run = program.functions["pkg.dyn.run"]
        assert all(not c.project for c in run.calls)

    def test_syntax_error_becomes_e999_not_a_crash(self, tmp_path):
        write_tree(tmp_path, {"pkg/broken.py": "def broken(:\n"})
        assert codes(lint_paths([tmp_path])) == ["E999"]


class TestTransitiveHermeticity:
    """LHT007: sinks reachable through helper chains."""

    def test_two_hop_sink_detected_and_lint_misses_it(self, tmp_path):
        write_tree(tmp_path, TRANSITIVE_SINK)
        violations = lint_paths([tmp_path])
        assert codes(violations) == ["LHT007"]
        violation = violations[0]
        assert violation.path.endswith("core/engine.py")
        assert "time.perf_counter" in violation.message
        assert "util.timing.helper" in violation.message
        # The acceptance case: scanning the file alone provably misses this.
        assert codes(lint_paths([tmp_path / "core" / "engine.py"])) == []

    def test_global_randomness_sink_detected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/draws.py": (
                    "import random\n\n"
                    "def jitter():\n"
                    "    return random.random()\n"
                ),
                "sim/model.py": (
                    "from util.draws import jitter\n\n"
                    "def step(x):\n"
                    "    return x + jitter()\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT007"])
        assert codes(violations) == ["LHT007"]
        assert "global-randomness" in violations[0].message

    def test_noqa_on_frontier_call_suppresses(self, tmp_path):
        files = dict(TRANSITIVE_SINK)
        files["core/engine.py"] = (
            "from util.timing import helper\n\n"
            "def run():\n"
            "    return helper()  # noqa: LHT007\n"
        )
        write_tree(tmp_path, files)
        assert codes(lint_paths([tmp_path])) == []

    def test_dynamic_dispatch_is_not_a_false_positive(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/dyn.py": (
                    "import time\n\n"
                    "def slow():\n"
                    "    return time.time()\n\n"
                    "TABLE = {'slow': slow}\n"
                ),
                "core/user.py": (
                    "from util.dyn import TABLE\n\n"
                    "def run():\n"
                    "    return TABLE['slow']()\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT007"])) == []

    def test_seeded_generator_helper_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/rand.py": (
                    "import numpy as np\n\n"
                    "def gen(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
                "core/user.py": (
                    "from util.rand import gen\n\n"
                    "def make(seed):\n"
                    "    return gen(seed)\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path])) == []

    def test_direct_sink_in_det_package_is_lint_not_flow_territory(
        self, tmp_path
    ):
        # A sink spelled directly inside core/ is LHT001's finding;
        # LHT007 only owns the cross-module frontier, so it must not
        # double-report.
        write_tree(
            tmp_path,
            {
                "core/direct.py": (
                    "import time\n\n"
                    "def now():\n"
                    "    return time.time()\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path])) == ["LHT001"]


class TestKernelEncapsulation:
    """LHT008: PeerStore surfaces are layered."""

    def test_storage_surface_outside_kernel_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/probe.py": (
                    "def probe(index):\n"
                    "    return index.dht.peers.store_of(0)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT008"])
        assert codes(violations) == ["LHT008"]
        assert "store_of" in violations[0].message

    def test_membership_outside_dht_package_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/member.py": (
                    "def grow(dht):\n"
                    "    dht.peers.add_peer(99)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT008"])
        assert codes(violations) == ["LHT008"]
        assert "add_peer" in violations[0].message

    def test_key_handoff_outside_dht_package_flagged(self, tmp_path):
        # move_keys/adopt are the kernel's key hand-off: a substrate's
        # join/leave may call them, an experiment may not.
        write_tree(
            tmp_path,
            {
                "experiments/shuffle.py": (
                    "def shuffle(dht):\n"
                    "    dht.peers.move_keys(0, 1, lambda key: True)\n"
                    "    dht.peers.adopt(1, {})\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT008"])
        assert codes(violations) == ["LHT008", "LHT008"]
        assert "move_keys" in violations[0].message
        assert "adopt" in violations[1].message

    def test_peerstore_construction_outside_dht_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": "class PeerStore:\n    pass\n",
                "experiments/mk.py": (
                    "from dht.kernel import PeerStore\n\n"
                    "def make():\n"
                    "    return PeerStore()\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT008"])
        assert codes(violations) == ["LHT008"]
        assert "constructed outside" in violations[0].message

    def test_membership_inside_dht_package_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/sub.py": (
                    "class Sub:\n"
                    "    def join(self, peer_id):\n"
                    "        self.peers.add_peer(peer_id)\n"
                    "        return self.peers.sorted_ids()\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT008"])) == []

    def test_kernel_module_itself_is_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": (
                    "class SubstrateBase:\n"
                    "    def put(self, key, value):\n"
                    "        self.peers.store_of(0)[key] = value\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT008"])) == []


SUBSTRATE_HEADER = "from dht.kernel import SubstrateBase\n\n"


class TestRoutePurity:
    """LHT009: route paths never store, charge, or touch stores."""

    def test_route_charging_metrics_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/bad.py": SUBSTRATE_HEADER + (
                    "class BadSub(SubstrateBase):\n"
                    "    def route(self, key):\n"
                    "        self.metrics.record_get(1, found=True)\n"
                    "        return 0, 1\n"
                    "    def peer_of(self, key):\n"
                    "        return 0\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT009"])
        assert codes(violations) == ["LHT009"]
        assert "charges metrics" in violations[0].message

    def test_route_helper_reading_stores_flagged_one_hop_away(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/hop.py": SUBSTRATE_HEADER + (
                    "class HopSub(SubstrateBase):\n"
                    "    def route(self, key):\n"
                    "        return self._peek_store(key), 1\n"
                    "    def _peek_store(self, key):\n"
                    "        if key in self.peers.store_of(0):\n"
                    "            return 0\n"
                    "        return 1\n"
                    "    def peer_of(self, key):\n"
                    "        return 0\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT009"])
        assert codes(violations) == ["LHT009"]
        assert "_peek_store" in violations[0].message

    def test_route_calling_kernel_storage_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/selfget.py": SUBSTRATE_HEADER + (
                    "class SelfGetSub(SubstrateBase):\n"
                    "    def route(self, key):\n"
                    "        if self.get(key) is None:\n"
                    "            return 1, 1\n"
                    "        return 0, 1\n"
                    "    def peer_of(self, key):\n"
                    "        return 0\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT009"])
        assert codes(violations) == ["LHT009"]
        assert "self.get" in violations[0].message

    def test_pure_route_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/clean.py": SUBSTRATE_HEADER + (
                    "class CleanSub(SubstrateBase):\n"
                    "    def route(self, key):\n"
                    "        ids = self.peers.sorted_ids()\n"
                    "        return ids[0], len(ids)\n"
                    "    def peer_of(self, key):\n"
                    "        return 0\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT009"])) == []

    def test_maintenance_methods_may_move_keys(self, tmp_path):
        # join/leave legitimately move keys (through the kernel's
        # move_keys) — only *route* paths are bound by the purity contract.
        write_tree(
            tmp_path,
            {
                "dht/joiner.py": SUBSTRATE_HEADER + (
                    "class JoinSub(SubstrateBase):\n"
                    "    def route(self, key):\n"
                    "        return 0, 1\n"
                    "    def peer_of(self, key):\n"
                    "        return 0\n"
                    "    def join(self, peer_id):\n"
                    "        self.peers.add_peer(peer_id)\n"
                    "        self.keys_transferred += self.peers.move_keys(\n"
                    "            0, peer_id, lambda key: True\n"
                    "        )\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT008", "LHT009"])) == []


POLICY_HEADER = "from dht.kernel import PlacementPolicy\n\n"


class TestPlacementPurity:
    """LHT013: placement policies are pure reads of topology."""

    def test_policy_charging_metrics_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": "class PlacementPolicy:\n    pass\n",
                "dht/bad.py": POLICY_HEADER + (
                    "class ChargingPolicy(PlacementPolicy):\n"
                    "    def replicas_for(self, key, owner, k):\n"
                    "        self.metrics.record_get(1, found=True)\n"
                    "        return [owner]\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT013"])
        assert codes(violations) == ["LHT013"]
        assert "charges metrics" in violations[0].message

    def test_policy_mutating_store_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": "class PlacementPolicy:\n    pass\n",
                "dht/bad.py": POLICY_HEADER + (
                    "class WritingPolicy(PlacementPolicy):\n"
                    "    def replicas_for(self, key, owner, k):\n"
                    "        store = self.substrate.peers.store_of(owner)\n"
                    "        store[key] = 'replica'\n"
                    "        return [owner]\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT013"])
        # Two offenses: the store_of() read and the subscript mutation.
        assert set(codes(violations)) == {"LHT013"}
        assert len(violations) == 2

    def test_policy_randomness_flagged_one_helper_away(self, tmp_path):
        # Stricter than LHT009: hermeticity sinks are placement
        # offenses even when reached through a helper.
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": "class PlacementPolicy:\n    pass\n",
                "dht/bad.py": POLICY_HEADER + (
                    "import random\n\n"
                    "def pick(ids):\n"
                    "    return random.choice(ids)\n\n"
                    "class SamplingPolicy(PlacementPolicy):\n"
                    "    def replicas_for(self, key, owner, k):\n"
                    "        return [owner, pick([1, 2, 3])]\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT013"])
        assert codes(violations) == ["LHT013"]
        assert "sink" in violations[0].message

    def test_pure_membership_read_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": "class PlacementPolicy:\n    pass\n",
                "dht/good.py": POLICY_HEADER + (
                    "class RingPolicy(PlacementPolicy):\n"
                    "    def replicas_for(self, key, owner, k):\n"
                    "        ring = self.substrate.peers.sorted_ids()\n"
                    "        idx = ring.index(owner)\n"
                    "        n = len(ring)\n"
                    "        return [ring[(idx + i) % n] "
                    "for i in range(min(k, n))]\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT013"])) == []

    def test_abstract_base_is_exempt(self, tmp_path):
        # The ABC itself (simple name PlacementPolicy) is skipped; only
        # concrete policies are checked.
        write_tree(
            tmp_path,
            {
                "dht/kernel.py": (
                    "class PlacementPolicy:\n"
                    "    def replicas_for(self, key, owner, k):\n"
                    "        raise NotImplementedError\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT013"])) == []


class TestExceptionFlow:
    """LHT010: no broad or silent swallows of typed DHT errors."""

    def test_broad_except_around_routed_call_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/fetch.py": (
                    "def fetch(dht, key):\n"
                    "    try:\n"
                    "        return dht.get(key)\n"
                    "    except Exception:\n"
                    "        return None\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT010"])
        assert codes(violations) == ["LHT010"]
        assert "except Exception" in violations[0].message

    def test_typed_handler_with_silent_pass_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/drop.py": (
                    "from repro.errors import DHTError\n\n"
                    "def drop(dht, key):\n"
                    "    try:\n"
                    "        return dht.get(key)\n"
                    "    except DHTError:\n"
                    "        pass\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT010"])
        assert codes(violations) == ["LHT010"]
        assert "silently discards" in violations[0].message

    def test_degraded_result_handling_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/checked.py": (
                    "from repro.errors import DHTError\n\n"
                    "def fetch(dht, key):\n"
                    "    try:\n"
                    "        return dht.get(key), 'PRESENT'\n"
                    "    except DHTError:\n"
                    "        return None, 'UNREACHABLE'\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT010"])) == []

    def test_broad_except_reraising_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/annotate.py": (
                    "def fetch(dht, key):\n"
                    "    try:\n"
                    "        return dht.get(key)\n"
                    "    except Exception:\n"
                    "        raise\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT010"])) == []

    def test_broad_except_around_benign_code_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/parse.py": (
                    "def parse(text):\n"
                    "    try:\n"
                    "        return float(text)\n"
                    "    except Exception:\n"
                    "        return 0.0\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT010"])) == []

    def test_internally_handled_callee_does_not_propagate_risk(
        self, tmp_path
    ):
        # checked() absorbs DHTError itself, so wrapping *it* in a broad
        # handler swallows nothing typed — must stay clean.
        write_tree(
            tmp_path,
            {
                "core/safe.py": (
                    "from repro.errors import DHTError\n\n"
                    "def checked(dht, key):\n"
                    "    try:\n"
                    "        return dht.get(key)\n"
                    "    except DHTError:\n"
                    "        return None\n\n"
                    "def caller(dht, key):\n"
                    "    try:\n"
                    "        return checked(dht, key)\n"
                    "    except Exception:\n"
                    "        return 0\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT010"])) == []

    def test_risk_propagates_transitively_through_helpers(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/layers.py": (
                    "def inner(dht, key):\n"
                    "    return dht.get(key)\n\n"
                    "def outer(dht, key):\n"
                    "    try:\n"
                    "        return inner(dht, key)\n"
                    "    except Exception:\n"
                    "        return None\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT010"])
        assert codes(violations) == ["LHT010"]


POOL_PREFIX = (
    "import multiprocessing\n\n"
    "def fan_out(worker, cells):\n"
    "    ctx = multiprocessing.get_context('spawn')\n"
    "    with ctx.Pool(2) as pool:\n"
    "        return list(pool.imap(worker, cells))\n"
)


class TestParallelSafety:
    """LHT011: pool workers are module-level and state-clean."""

    def test_lambda_worker_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "jobs/lam.py": (
                    "def run(pool, cells):\n"
                    "    return pool.imap(lambda c: c, cells)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT011"])
        assert codes(violations) == ["LHT011"]
        assert "lambda" in violations[0].message

    def test_bound_method_worker_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "jobs/bound.py": (
                    "class Engine:\n"
                    "    def work(self, cell):\n"
                    "        return cell\n"
                    "    def run(self, pool, cells):\n"
                    "        return pool.imap(self.work, cells)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT011"])
        assert codes(violations) == ["LHT011"]
        assert "bound method" in violations[0].message

    def test_closure_worker_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "jobs/clos.py": (
                    "def run(pool, cells):\n"
                    "    def local(cell):\n"
                    "        return cell\n"
                    "    return pool.imap(local, cells)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT011"])
        assert codes(violations) == ["LHT011"]
        assert "locally defined" in violations[0].message

    def test_worker_rebinding_global_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "jobs/state.py": (
                    "TOTAL = 0\n\n"
                    "def worker(cell):\n"
                    "    global TOTAL\n"
                    "    TOTAL += 1\n"
                    "    return cell\n"
                ),
                "jobs/driver.py": (
                    "from jobs.state import worker\n\n"
                    "def run(pool, cells):\n"
                    "    return pool.imap(worker, cells)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT011"])
        assert codes(violations) == ["LHT011"]
        assert "global" in violations[0].message

    def test_worker_mutating_foreign_module_state_flagged(self, tmp_path):
        # The mutation hides one helper call below the shipped worker and
        # targets *another* module's accumulator.
        write_tree(
            tmp_path,
            {
                "jobs/acc.py": "TOTALS = []\n",
                "jobs/work.py": (
                    "from jobs import acc\n\n"
                    "def helper(x):\n"
                    "    acc.TOTALS.append(x)\n\n"
                    "def worker(cell):\n"
                    "    helper(cell)\n"
                    "    return cell\n"
                ),
                "jobs/run.py": (
                    "from jobs.work import worker\n\n"
                    "def run(pool, cells):\n"
                    "    return pool.imap(worker, cells)\n"
                ),
            },
        )
        violations = lint_paths([tmp_path], select=["LHT011"])
        assert codes(violations) == ["LHT011"]
        assert "jobs.acc.TOTALS" in violations[0].message

    def test_module_level_worker_with_local_accumulator_is_clean(
        self, tmp_path
    ):
        # The sanctioned pattern (repro.experiments.common): the worker
        # mutates only its *own* module's accumulator through that
        # module's accessors, which spawn re-initializes per process.
        write_tree(
            tmp_path,
            {
                "jobs/good.py": (
                    "_CACHE = {}\n\n"
                    "def worker(cell):\n"
                    "    _CACHE[cell] = True\n"
                    "    return cell\n\n"
                    "def run(pool, cells):\n"
                    "    return pool.imap(worker, cells)\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path], select=["LHT011"])) == []


class TestDriver:
    def test_json_output_includes_wall_time_and_counts(self, tmp_path, capsys):
        write_tree(tmp_path, TRANSITIVE_SINK)
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro.devtools.lint"
        assert payload["counts"] == {"LHT007": 1}
        assert payload["violations"][0]["code"] == "LHT007"
        assert isinstance(payload["analysis_wall_s"], float)
        assert payload["files"] == 2

    def test_clean_tree_json_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/ok.py": "X = 1\n"})
        assert main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []

    def test_select_and_ignore(self, tmp_path):
        files = dict(TRANSITIVE_SINK)
        files["experiments/probe.py"] = (
            "def probe(index):\n    return index.dht.peers.store_of(0)\n"
        )
        write_tree(tmp_path, files)
        everything = set(codes(lint_paths([tmp_path])))
        assert everything == {"LHT007", "LHT008"}
        assert codes(lint_paths([tmp_path], select=["LHT008"])) == [
            "LHT008"
        ]
        assert codes(lint_paths([tmp_path], ignore=["LHT008"])) == [
            "LHT007"
        ]

    def test_unknown_rule_code_rejected(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        target = tmp_path / "mod.py"
        target.write_text("X = 1\n")
        with pytest.raises(ConfigurationError, match="unknown rule code"):
            lint_paths([target], select=["LHT099"])
        assert main([str(target), "--select", "LHT099"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_an_error_not_a_green_gate(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no such file"):
            lint_paths([tmp_path / "nope"])
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in CALL_GRAPH_RULES:
            assert code in out

    def test_test_files_are_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/test_probe.py": (
                    "def test_probe(index):\n"
                    "    return index.dht.peers.store_of(0)\n"
                ),
            },
        )
        assert codes(lint_paths([tmp_path])) == []


class TestRepoGate:
    def test_repo_source_tree_is_clean(self):
        """The acceptance gate: the repo's own src/ has zero violations."""
        violations = lint_paths([REPO_SRC])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, TRANSITIVE_SINK)
        assert main([str(tmp_path)]) == 1
        assert "LHT007" in capsys.readouterr().out

    @pytest.mark.parametrize("code", CALL_GRAPH_RULES)
    def test_rule_catalogue_documented(self, code):
        assert LINT_RULES[code]

    def test_devtools_package_exports(self):
        import repro.devtools as devtools

        assert devtools.LINT_RULES is LINT_RULES
        assert devtools.lint_paths is lint_paths
        assert devtools.build_program is build_program
        for gone in ("ANALYZER_RULES", "analyze_paths"):
            assert not hasattr(devtools, gone)
