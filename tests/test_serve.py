"""Serving-layer tests: serve-vs-direct equivalence, coalescing bounds,
admission control, metrics wiring, and workload determinism.

The central claim: pushing a seeded concurrent session mix through
:mod:`repro.serve` must leave the index in exactly the state — and give
exactly the answers — that serially replaying the same requests in the
service's executed order produces.  Mixed sessions are checked through
the one dispatcher behind all three front-ends
(``test_mixed_ops_replay_in_executed_order``,
``TestOneCoreThreeFrontends``); served read batches under faults and
churn are the nemesis machine's (``tests/test_stateful.py``).
Coalescing must only ever *save* routed gets relative to the direct
arm, never spend more.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.core.results import MatchStatus
from repro.dht.faulty import FaultyDHT
from repro.dht.kernel import DelegatingDHT
from repro.dht.local import LocalDHT
from repro.dht.replicated import ReplicatedDHT
from repro.errors import (
    ConfigurationError,
    OverloadError,
    ReproError,
    RoutingError,
)
from repro.serve import (
    Arrival,
    AsyncFrontend,
    Request,
    RequestKind,
    ServeConfig,
    ServeEngine,
    Status,
    ThreadedFrontend,
    WorkloadConfig,
    execute_batch,
    generate_workload,
    serial_answer,
)

SEED = 11
N_KEYS = 512
THETA = 50


def build_index(seed: int = SEED) -> tuple[LHTIndex, list[float]]:
    """One deterministic index build; call twice for identical twins."""
    dht = LocalDHT(n_peers=16, seed=seed)
    index = LHTIndex(dht, IndexConfig(theta_split=THETA, max_depth=20))
    rng = np.random.default_rng(seed + 1)
    keys = [float(k) for k in rng.random(N_KEYS)]
    index.bulk_load(keys)
    return index, keys


def make_workload(keys, n=200, rate=300.0, seed=SEED, **kwargs):
    return generate_workload(
        keys, WorkloadConfig(n_requests=n, rate=rate, **kwargs), seed=seed
    )


def index_fingerprint(index: LHTIndex):
    """Canonical view of the stored index: every DHT key and the exact
    record tuple of every stored bucket."""
    state = {}
    for key in sorted(index.dht.keys()):
        bucket = index.dht.peek(key)
        state[key] = getattr(bucket, "records", bucket)
    return index.leaf_count, state


class TestServeVsDirectEquivalence:
    def test_coalescing_saves_at_concurrency_8(self):
        """At a full window of skewed concurrent lookups the dedup must
        fire: strictly fewer routed gets than the serial replay."""
        index, keys = build_index()
        workload = make_workload(
            keys, n=240, rate=400.0, skew=1.2, mix={"lookup": 1.0}
        )
        result = ServeEngine(
            index, ServeConfig(max_in_flight=8, max_queue=64)
        ).run(workload)
        direct, _ = build_index()
        for i in result.executed_order:
            serial_answer(direct, workload[i].request)
        assert index.dht.metrics.gets < direct.dht.metrics.gets
        assert index.dht.metrics.serve_coalesced_gets == (
            direct.dht.metrics.gets - index.dht.metrics.gets
        )

    def test_rejected_requests_route_nothing(self):
        index, keys = build_index()
        workload = make_workload(keys, n=60, rate=10_000.0)
        result = ServeEngine(
            index, ServeConfig(max_in_flight=1, max_queue=0)
        ).run(workload)
        rejected = [
            r for r in result.responses if r.status is Status.REJECTED
        ]
        assert rejected, "overloaded run produced no rejections"
        assert all(r.dht_lookups == 0 for r in rejected)
        snap = index.dht.metrics.snapshot()
        assert snap.serve_rejections == len(rejected)


class TestAdmissionAndMetrics:
    def test_metrics_wiring(self):
        index, keys = build_index()
        workload = make_workload(keys, n=120, rate=500.0)
        result = ServeEngine(
            index, ServeConfig(max_in_flight=4, max_queue=8)
        ).run(workload)
        metrics = index.dht.metrics
        statuses = [r.status for r in result.responses]
        completed = len(statuses) - statuses.count(Status.REJECTED)
        assert metrics.serve_requests == completed
        assert metrics.serve_rejections == statuses.count(Status.REJECTED)
        assert len(metrics.request_latencies) == completed
        assert 1 <= metrics.serve_batches <= completed
        assert metrics.queue_depth_peak >= 1
        p = metrics.latency_percentiles()
        assert 0.0 < p["p50"] <= p["p90"] <= p["p99"]

    def test_percentiles_empty_sample_is_zero(self):
        index, _ = build_index()
        assert index.dht.metrics.latency_percentiles() == {
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
        }

    def test_snapshot_carries_serve_counters(self):
        index, keys = build_index()
        before = index.dht.metrics.snapshot()
        ServeEngine(index, ServeConfig()).run(
            make_workload(keys, n=40, rate=100.0)
        )
        spent = index.dht.metrics.snapshot() - before
        assert spent.serve_requests > 0
        assert spent.serve_batches > 0

    def test_overload_error_is_typed(self):
        assert issubclass(OverloadError, ReproError)


class TestBatchShape:
    def test_empty_batch_rejected(self):
        index, _ = build_index()
        with pytest.raises(ConfigurationError):
            execute_batch(index, [])

    def test_mixed_batch_rejected(self):
        index, _ = build_index()
        batch = [
            Request(RequestKind.LOOKUP, 0.5),
            Request(RequestKind.INSERT, 0.25, value=1),
        ]
        with pytest.raises(ConfigurationError):
            execute_batch(index, batch)

    def test_single_write_batch_allowed(self):
        index, _ = build_index()
        result = execute_batch(
            index, [Request(RequestKind.INSERT, 0.25, value=1)]
        )
        assert result.responses[0].status is Status.OK

    def test_unsorted_arrivals_rejected(self):
        index, keys = build_index()
        workload = make_workload(keys, n=10, rate=100.0)
        shuffled = [workload[1], workload[0], *workload[2:]]
        with pytest.raises(ConfigurationError):
            ServeEngine(index, ServeConfig()).run(shuffled)

    def test_range_request_needs_upper_bound(self):
        with pytest.raises(ConfigurationError):
            Request(RequestKind.RANGE, 0.1)


class TestAsyncFrontend:
    def test_concurrent_sessions_match_direct_answers(self):
        async def drive():
            index, keys = build_index()
            config = ServeConfig(max_in_flight=4, max_queue=256)
            async with AsyncFrontend(index, config) as frontend:
                async def session(session_keys):
                    return [
                        await frontend.submit(Request(RequestKind.LOOKUP, k))
                        for k in session_keys
                    ]

                sessions = [keys[i::8][:12] for i in range(8)]
                results = await asyncio.gather(*map(session, sessions))
            return sessions, results, frontend

        sessions, results, frontend = asyncio.run(drive())
        direct, _ = build_index()
        for session_keys, responses in zip(sessions, results):
            for key, response in zip(session_keys, responses):
                assert response.status is Status.OK
                record, _ = direct.exact_match(key)
                assert response.answer == record
        submitted = sum(len(s) for s in sessions)
        assert sorted(frontend.executed_order) == list(range(submitted))

    def test_mixed_ops_replay_in_executed_order(self):
        async def drive():
            index, keys = build_index()
            requests = [
                Request(RequestKind.INSERT, 0.123456, value="x"),
                Request(RequestKind.LOOKUP, keys[0]),
                Request(RequestKind.LOOKUP, 0.123456),
                Request(RequestKind.REMOVE, keys[1]),
                Request(RequestKind.LOOKUP, keys[1]),
                Request(RequestKind.RANGE, 0.2, hi=0.25),
            ]
            config = ServeConfig(max_in_flight=4, max_queue=64)
            async with AsyncFrontend(index, config) as frontend:
                responses = await asyncio.gather(
                    *(frontend.submit(r) for r in requests)
                )
            return index, requests, responses, frontend

        index, requests, responses, frontend = asyncio.run(drive())
        direct, _ = build_index()
        executed = [requests[i] for i in frontend.executed_order]
        expected = [serial_answer(direct, r) for r in executed]
        by_index = dict(zip(frontend.executed_order, expected))
        for i, response in enumerate(responses):
            assert response.status is Status.OK
            assert response.answer == by_index[i]
        assert index_fingerprint(index) == index_fingerprint(direct)

    def test_overload_raises_typed_error(self):
        async def drive():
            index, keys = build_index()
            config = ServeConfig(max_in_flight=1, max_queue=1)
            rejected = 0
            async with AsyncFrontend(index, config) as frontend:
                tasks = [
                    asyncio.ensure_future(
                        frontend.submit(Request(RequestKind.LOOKUP, k))
                    )
                    for k in keys[:12]
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            for outcome in outcomes:
                if isinstance(outcome, OverloadError):
                    rejected += 1
                else:
                    assert outcome.status is Status.OK
            return rejected, index

        rejected, index = asyncio.run(drive())
        assert rejected > 0
        assert index.dht.metrics.serve_rejections == rejected

    def test_submit_before_enter_rejected(self):
        async def drive():
            index, keys = build_index()
            frontend = AsyncFrontend(index)
            with pytest.raises(ConfigurationError):
                await frontend.submit(Request(RequestKind.LOOKUP, keys[0]))

        asyncio.run(drive())


class TestThreadedFrontend:
    def test_concurrent_sessions_match_direct_answers(self):
        index, keys = build_index()
        config = ServeConfig(max_in_flight=4, max_queue=256)
        sessions = [keys[i::8][:12] for i in range(8)]
        out: dict[int, list] = {}
        with ThreadedFrontend(index, config) as frontend:
            def run_session(i):
                out[i] = [
                    frontend.submit(Request(RequestKind.LOOKUP, k))
                    for k in sessions[i]
                ]

            threads = [
                threading.Thread(target=run_session, args=(i,))
                for i in range(len(sessions))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        direct, _ = build_index()
        for i, session_keys in enumerate(sessions):
            for key, response in zip(session_keys, out[i]):
                assert response.status is Status.OK
                record, _ = direct.exact_match(key)
                assert response.answer == record
        submitted = sum(len(s) for s in sessions)
        assert sorted(frontend.executed_order) == list(range(submitted))

    def test_overload_raises_typed_error(self):
        # A gate holds the dispatcher inside its first batch until every
        # session thread has attempted admission, so the tiny window
        # (1 in flight + 1 queued) deterministically rejects the burst.
        gate = threading.Event()

        class GatedDHT(LocalDHT):
            def get(self, key):
                gate.wait()
                return super().get(key)

        dht = GatedDHT(n_peers=16, seed=SEED)
        index = LHTIndex(dht, IndexConfig(theta_split=THETA, max_depth=20))
        rng = np.random.default_rng(SEED + 1)
        keys = [float(k) for k in rng.random(N_KEYS)]
        gate.set()
        index.bulk_load(keys)
        gate.clear()

        config = ServeConfig(max_in_flight=1, max_queue=1)
        outcomes: list[object] = []
        lock = threading.Lock()
        with ThreadedFrontend(index, config) as frontend:
            def run_session(key):
                try:
                    response = frontend.submit(
                        Request(RequestKind.LOOKUP, key)
                    )
                except OverloadError as exc:
                    with lock:
                        outcomes.append(exc)
                else:
                    with lock:
                        outcomes.append(response)

            threads = [
                threading.Thread(target=run_session, args=(k,))
                for k in keys[:12]
            ]
            for t in threads:
                t.start()
            # Open the gate only once all 12 sessions have either been
            # admitted (and are blocked awaiting a response) or rejected.
            while True:
                with lock:
                    rejected_so_far = sum(
                        1 for o in outcomes if isinstance(o, OverloadError)
                    )
                if rejected_so_far + frontend._submitted >= 12:
                    break
            gate.set()
            for t in threads:
                t.join()
        rejected = sum(1 for o in outcomes if isinstance(o, OverloadError))
        served = [o for o in outcomes if not isinstance(o, OverloadError)]
        assert all(r.status is Status.OK for r in served)
        assert rejected + len(served) == 12
        # Window 1 + queue 1: at most 2 admitted while the gate was shut.
        assert rejected >= 10
        assert index.dht.metrics.serve_rejections == rejected

    def test_submit_before_enter_rejected(self):
        index, keys = build_index()
        frontend = ThreadedFrontend(index)
        with pytest.raises(ConfigurationError):
            frontend.submit(Request(RequestKind.LOOKUP, keys[0]))


# ----------------------------------------------------------------------
# One session's script through each front-end.  A script item is one
# request (submitted, then awaited) or a list (a burst admitted before
# any batch forms).  Every wait is bounded: a dead or stuck dispatcher
# fails the test instead of hanging it.
# ----------------------------------------------------------------------

TIMEOUT = 5.0
REJECTED = "rejected"
FRONTENDS = ["engine", "async", "threaded"]


def _bursts(script):
    return [item if isinstance(item, list) else [item] for item in script]


def bounded(fn, *args):
    """Call ``fn`` on a daemon thread; fail rather than hang."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except Exception as exc:  # handed back to the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "submit never returned"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _drive_engine(index, config, script):
    arrivals = []
    for step, burst in enumerate(_bursts(script)):
        for request in burst:
            # Steps are spaced far beyond any service time, so each one
            # completes before the next arrives (a closed-loop session).
            arrivals.append(
                Arrival(100.0 * (step + 1), 0, len(arrivals), request)
            )
    result = ServeEngine(index, config).run(arrivals)
    outcomes = [
        REJECTED if r.status is Status.REJECTED else r
        for r in result.responses
    ]
    return outcomes, result.executed_order


def _drive_async(index, config, script):
    async def one(frontend, request):
        try:
            return await frontend.submit(request)
        except OverloadError:
            return REJECTED

    async def session():
        outcomes = []
        async with AsyncFrontend(index, config) as frontend:
            for burst in _bursts(script):
                outcomes += await asyncio.wait_for(
                    asyncio.gather(*(one(frontend, r) for r in burst)),
                    TIMEOUT,
                )
        return outcomes, frontend.executed_order

    return asyncio.run(session())


def _drive_threaded(index, config, script):
    outcomes = []
    with ThreadedFrontend(index, config) as frontend:
        for burst in _bursts(script):
            if len(burst) == 1:
                outcomes.append(bounded(frontend.submit, burst[0]))
                continue
            # A burst is admitted under the front-end's own lock, so the
            # dispatcher cannot split it — the threaded spelling of "all
            # arrive before the next batch forms".
            waiting = []
            with frontend._work:
                for request in burst:
                    try:
                        waiting.append(
                            frontend.admit(request, threading.Event())
                        )
                    except OverloadError:
                        waiting.append(None)
                frontend._work.notify_all()
            for pending in waiting:
                if pending is None:
                    outcomes.append(REJECTED)
                    continue
                assert pending.waiter.wait(TIMEOUT), "dispatcher stuck"
                outcomes.append(pending.response)
    return outcomes, frontend.executed_order


def serve_script(kind, index, config, script):
    """Returns (outcome per script position, executed script positions)."""
    drive = {
        "engine": _drive_engine,
        "async": _drive_async,
        "threaded": _drive_threaded,
    }[kind]
    outcomes, order = drive(index, config, script)
    if kind != "engine":
        # Front-ends number admissions; map back to script positions.
        admitted = [i for i, o in enumerate(outcomes) if o is not REJECTED]
        order = [admitted[j] for j in order]
    return outcomes, list(order)


class TestMalformedRequests:
    """A request the index refuses is answered, never a dead dispatcher."""

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_out_of_range_key_is_an_error_response(self, kind):
        index, keys = build_index()
        script = [
            Request(RequestKind.LOOKUP, keys[0]),
            Request(RequestKind.LOOKUP, 1.5),
            Request(RequestKind.LOOKUP, keys[1]),
            Request(RequestKind.INSERT, 1.5, value="x"),
            Request(RequestKind.LOOKUP, keys[2]),
        ]
        outcomes, order = serve_script(kind, index, ServeConfig(), script)
        assert [o.status for o in outcomes] == [
            Status.OK, Status.ERROR, Status.OK, Status.ERROR, Status.OK,
        ]
        assert all("KeyOutOfRangeError" in outcomes[i].error for i in (1, 3))
        assert outcomes[1].dht_lookups == outcomes[3].dht_lookups == 0
        assert [outcomes[i].answer.key for i in (0, 2, 4)] == keys[:3]
        assert order == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_non_finite_range_bound_is_an_error_response(self, kind):
        index, keys = build_index()
        script = [
            Request(RequestKind.RANGE, float("nan"), hi=0.5),
            Request(RequestKind.RANGE, 0.2, hi=float("inf")),
            Request(RequestKind.RANGE, 0.6, hi=0.5),
            Request(RequestKind.LOOKUP, keys[0]),
        ]
        outcomes, order = serve_script(kind, index, ServeConfig(), script)
        assert [o.status for o in outcomes] == [Status.ERROR] * 3 + [Status.OK]
        assert all("LabelError" in o.error for o in outcomes[:3])
        assert order == [0, 1, 2, 3]

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_bad_key_does_not_disturb_its_read_batch(self, kind):
        index, keys = build_index()
        burst = [
            Request(RequestKind.LOOKUP, keys[0]),
            Request(RequestKind.LOOKUP, 1.5),
            Request(RequestKind.LOOKUP, keys[1]),
        ]
        outcomes, _ = serve_script(kind, index, ServeConfig(), [burst])
        assert [o.status for o in outcomes] == [
            Status.OK, Status.ERROR, Status.OK,
        ]
        assert index.dht.metrics.serve_batches == 1
        # Nothing was routed for the refused request.
        clean, _ = build_index()
        serve_script(kind, clean, ServeConfig(), [[burst[0], burst[2]]])
        assert index.dht.metrics.gets == clean.dht.metrics.gets


class TestServedLookupsRunTheIndexPath:
    """A served lookup is the index's own plan and typed finish: its
    leaf cache is consulted and its replicas rescue a dropped read."""

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_cached_index_serves_hits_with_equal_answers(self, kind):
        def lookup(key):
            return Request(RequestKind.LOOKUP, key)

        runs = {}
        for cached in (True, False):
            dht = LocalDHT(n_peers=16, seed=SEED)
            config = IndexConfig(
                theta_split=4, max_depth=20, cache_capacity=1024 if cached else None
            )
            index = LHTIndex(dht, config)
            keys = [i / 64 for i in range(64)]
            for key in keys:
                index.insert(key)
            hot = keys[:8]
            script = [
                *(lookup(key) for key in hot),  # primes the cache
                [lookup(key) for key in hot],
                Request(RequestKind.INSERT, 0.0101, value="x"),  # splits
                [lookup(key) for key in hot] + [lookup(0.0101)],
            ]
            before = dht.metrics.snapshot()
            outcomes, order = serve_script(kind, index, ServeConfig(), script)
            assert all(o.status is Status.OK for o in outcomes)
            runs[cached] = (
                [o.answer for o in outcomes],
                order,
                dht.metrics.since(before),
            )
        assert runs[True][:2] == runs[False][:2]
        spent, plain = runs[True][2], runs[False][2]
        assert plain.cache_hits == 0
        assert spent.cache_hits >= 16  # both hot bursts hit
        assert spent.gets < plain.gets

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_replicas_rescue_served_lookups(self, kind):
        dht = FaultyDHT(ReplicatedDHT(LocalDHT(16, 0), 3), seed=7)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        keys = [i / 64 for i in range(64)]
        for key in keys:
            index.insert(key)
        dht.get_drop_rate = 1.0  # every routed get drops; probes answer
        probes = keys[:4] + [0.0101]
        direct = [index.exact_match_checked(key) for key in probes]
        script = [[Request(RequestKind.LOOKUP, key) for key in probes]]
        outcomes, _ = serve_script(kind, index, ServeConfig(), script)
        assert [o.status for o in outcomes] == [Status.OK] * len(probes)
        assert [o.answer for o in outcomes] == [r.record for r in direct]
        assert [o.dht_lookups for o in outcomes] == [
            r.dht_lookups for r in direct
        ]

    def test_unreachable_is_an_error_response(self):
        dht = FaultyDHT(LocalDHT(16, 0), seed=7)
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        for i in range(64):
            index.insert(i / 64)
        dht.get_drop_rate = 1.0  # and no replica layer to ask
        outcomes, _ = serve_script(
            "engine", index, ServeConfig(), [Request(RequestKind.LOOKUP, 0.5)]
        )
        assert outcomes[0].status is Status.ERROR
        assert "unreachable" in outcomes[0].error
        assert (
            index.exact_match_checked(0.5).status is MatchStatus.UNREACHABLE
        )


class OneNameFailsDHT(DelegatingDHT):
    """Raises a typed routing failure for one name, answers the rest."""

    failing: str | None = None

    def get(self, key):
        if key == self.failing:
            raise RoutingError(f"cannot route {key!r}")
        return self.inner.get(key)


class TestRoundsFailPerKey:
    def test_one_failing_name_fails_only_its_own_plans(self):
        """A typed error on one name of a lock-stepped round is that
        name's failure alone: every request not waiting on it gets the
        direct path's answer at the direct path's cost."""
        dht = OneNameFailsDHT(LocalDHT(16, 0))
        index = LHTIndex(dht, IndexConfig(theta_split=4, max_depth=20))
        for i in range(64):
            index.insert(i / 64)
        keys = [(i + 0.5) / 8 for i in range(8)]
        probed = [{str(name) for name in index.lookup(k).probed} for k in keys]
        owners = {}
        for slot, names in enumerate(probed):
            for name in names:
                owners.setdefault(name, []).append(slot)
        dht.failing, (victim,) = next(
            (name, slots) for name, slots in owners.items() if len(slots) == 1
        )
        direct = [index.exact_match_checked(k) for k in keys]
        result = execute_batch(
            index, [Request(RequestKind.LOOKUP, k) for k in keys]
        )
        others = [slot for slot in range(8) if slot != victim]
        served = result.responses
        assert [served[i].status for i in others] == [Status.OK] * 7
        assert [served[i].answer for i in others] == [
            direct[i].record for i in others
        ]
        assert [served[i].dht_lookups for i in others] == [
            direct[i].dht_lookups for i in others
        ]
        assert all(direct[i].status is MatchStatus.PRESENT for i in others)


class BuggyDHT(LocalDHT):
    """A substrate with an arming switch for a non-ReproError bug."""

    armed = False

    def multi_get(self, keys, *, absorb_errors=False):
        if self.armed:
            raise RuntimeError("injected bug")
        return super().multi_get(keys, absorb_errors=absorb_errors)


def build_buggy_index():
    dht = BuggyDHT(n_peers=16, seed=SEED)
    index = LHTIndex(dht, IndexConfig(theta_split=THETA, max_depth=20))
    index.bulk_load([i / 64 for i in range(64)])
    return index, Request(RequestKind.LOOKUP, 0.5)


class TestBugsReachTheirSubmitters:
    """Anything that is not a ReproError is a bug: the batch's
    submitters get the exception and the front-end stops admitting."""

    def test_engine(self):
        index, lookup = build_buggy_index()
        engine = ServeEngine(index)
        index.dht.armed = True
        with pytest.raises(RuntimeError, match="injected bug"):
            engine.run([Arrival(1.0, 0, 0, lookup)])
        with pytest.raises(ConfigurationError):
            engine.run([Arrival(2.0, 0, 0, lookup)])

    def test_async(self):
        async def drive():
            index, lookup = build_buggy_index()
            async with AsyncFrontend(index) as frontend:
                ok = await asyncio.wait_for(frontend.submit(lookup), TIMEOUT)
                assert ok.status is Status.OK
                index.dht.armed = True
                with pytest.raises(RuntimeError, match="injected bug"):
                    await asyncio.wait_for(frontend.submit(lookup), TIMEOUT)
                with pytest.raises(ConfigurationError):
                    await asyncio.wait_for(frontend.submit(lookup), TIMEOUT)

        asyncio.run(drive())

    def test_threaded(self):
        index, lookup = build_buggy_index()
        with ThreadedFrontend(index) as frontend:
            assert bounded(frontend.submit, lookup).status is Status.OK
            index.dht.armed = True
            with pytest.raises(RuntimeError, match="injected bug"):
                bounded(frontend.submit, lookup)
            with pytest.raises(ConfigurationError):
                bounded(frontend.submit, lookup)


class TestOneCoreThreeFrontends:
    """The policy-cannot-drift property: one session's script yields the
    same answers, order, rejections and counters through every
    front-end, because all three run the one dispatcher."""

    @staticmethod
    def _script(keys):
        def lookup(key):
            return Request(RequestKind.LOOKUP, key)

        return [
            lookup(keys[0]),
            Request(RequestKind.INSERT, 0.123456, value="x"),
            # Overload burst: window 4 + queue 4 admit eight, refuse four.
            [lookup(keys[i % 3]) for i in range(12)],
            Request(RequestKind.REMOVE, keys[1]),
            [
                lookup(keys[1]),
                lookup(0.123456),
                Request(RequestKind.INSERT, 0.654321, value="y"),
                lookup(keys[2]),
                Request(RequestKind.RANGE, 0.2, hi=0.25),
                lookup(keys[3]),
            ],
            lookup(0.654321),
        ]

    def test_same_script_same_everything(self):
        config = ServeConfig(max_in_flight=4, max_queue=4)
        runs, latencies = {}, {}
        for kind in FRONTENDS:
            index, keys = build_index()
            outcomes, order = serve_script(
                kind, index, config, self._script(keys)
            )
            runs[kind] = (
                [
                    o if o is REJECTED else (o.status, o.answer, o.dht_lookups)
                    for o in outcomes
                ],
                order,
                index.dht.metrics.snapshot(),
                index.dht.metrics.queue_depth_peak,
                index_fingerprint(index),
            )
            latencies[kind] = index.dht.metrics.request_latencies
        answers, order, snapshot, *_ = runs["engine"]
        assert answers.count(REJECTED) == 4
        assert snapshot.serve_rejections == 4
        assert snapshot.serve_coalesced_gets > 0
        assert len(order) == len(answers) - 4
        assert all(a[0] is Status.OK for a in answers if a is not REJECTED)
        assert runs["async"] == runs["engine"]
        assert runs["threaded"] == runs["engine"]
        # Same simulated latencies too; the engine's clock idles forward
        # between steps, so the float deltas agree to rounding only.
        assert latencies["async"] == pytest.approx(latencies["engine"])
        assert latencies["threaded"] == pytest.approx(latencies["engine"])


class TestWorkloadGenerator:
    def test_same_seed_same_workload(self):
        _, keys = build_index()
        a = make_workload(keys, n=100, seed=3)
        b = make_workload(keys, n=100, seed=3)
        assert a == b

    def test_different_seed_different_workload(self):
        _, keys = build_index()
        a = make_workload(keys, n=100, seed=3)
        b = make_workload(keys, n=100, seed=4)
        assert a != b

    def test_arrivals_sorted_and_indexed(self):
        _, keys = build_index()
        workload = make_workload(keys, n=100)
        assert [a.index for a in workload] == list(range(100))
        times = [a.time for a in workload]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_sessions_round_robin(self):
        _, keys = build_index()
        workload = make_workload(keys, n=16, n_sessions=4)
        assert [a.session for a in workload] == [i % 4 for i in range(16)]

    def test_skew_repeats_hot_keys(self):
        _, keys = build_index()
        flat = make_workload(keys, n=300, skew=0.0, mix={"lookup": 1.0})
        skewed = make_workload(keys, n=300, skew=1.5, mix={"lookup": 1.0})
        assert len({a.request.key for a in skewed}) < len(
            {a.request.key for a in flat}
        )

    def test_mix_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mix={"lookup": 0.0})
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mix={"nonsense": 1.0})
        with pytest.raises(ConfigurationError):
            WorkloadConfig(rate=0.0)

    def test_empty_workload(self):
        _, keys = build_index()
        assert make_workload(keys, n=0) == []
