"""Unit and acceptance tests for the resilience layer.

Covers the retry policy algebra, the circuit-breaker state machine, the
``ResilientDHT`` wrapper's recovery semantics (including what must NOT
feed the breaker), degraded-mode query results, and the headline
acceptance criterion: at a 0.2 get-drop rate the default retry budget
lifts a seeded exact-match workload from well under 85% success to at
least 99%.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexConfig, LHTIndex, MatchStatus
from repro.dht import NO_REPLY, FaultyDHT, LocalDHT, ReplicatedDHT
from repro.errors import CircuitOpenError, ConfigurationError, DHTError
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    DEFAULT_RETRY_POLICY,
    NO_RETRY_POLICY,
    RetryPolicy,
    ResilientDHT,
)
from repro.sim.clock import Clock


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 5
        assert policy.max_retries == 4
        assert NO_RETRY_POLICY.max_retries == 0
        assert DEFAULT_RETRY_POLICY == RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"max_delay": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"timeout_budget": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff(r, rng) for r in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff(r, np.random.default_rng(7)) for r in range(4)]
        b = [policy.backoff(r, np.random.default_rng(7)) for r in range(4)]
        assert a == b
        base = RetryPolicy(jitter=0.0)
        rng = np.random.default_rng(7)
        for retry, delay in enumerate(a):
            ceiling = base.backoff(retry, rng)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_residual_failure(self):
        assert RetryPolicy(max_attempts=5).residual_failure(0.2) == pytest.approx(
            0.2**5
        )
        assert NO_RETRY_POLICY.residual_failure(0.2) == pytest.approx(0.2)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third in a row trips
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows()
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # streak was broken

    def test_half_open_after_cooldown(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance_to(9.0)
        assert not breaker.allows()
        clock.advance_to(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allows()

    def test_half_open_trial_outcomes(self):
        clock = Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance_to(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.record_failure()  # failed trial re-opens
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        clock.advance_to(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=0.0)


# ----------------------------------------------------------------------
# ResilientDHT
# ----------------------------------------------------------------------


def _stack(
    drop: float = 0.0,
    put_fail: float = 0.0,
    policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    seed: int = 0,
) -> tuple[ResilientDHT, FaultyDHT]:
    faulty = FaultyDHT(
        LocalDHT(8, 0),
        get_drop_rate=drop,
        put_fail_rate=put_fail,
        seed=seed,
    )
    return ResilientDHT(faulty, policy=policy, breaker=breaker, seed=seed), faulty


class TestResilientDHT:
    def test_transparent_when_fault_free(self):
        dht, _ = _stack()
        dht.put("k", 1)
        assert dht.get("k") == 1
        assert dht.remove("k") == 1
        # Successful operations never retry, and neither does a miss:
        # ``None`` is an answer ("not stored"), not a lost reply.
        assert dht.get("k") is None
        assert dht.metrics.retries == 0
        assert dht.exhausted_gets == 0

    def test_get_retries_recover_dropped_replies(self):
        dht, faulty = _stack(drop=0.5, seed=3)
        dht.put("k", "v")
        recovered = 0
        for _ in range(200):
            if dht.get("k") == "v":
                recovered += 1
        # residual unanswered = 0.5^5 ≈ 3% per call
        assert recovered >= 185
        assert dht.exhausted_gets == 200 - recovered
        assert faulty.dropped_gets > 0
        # A lost reply is asked again unless it used up its get's budget.
        assert dht.metrics.retries == faulty.dropped_gets - dht.exhausted_gets > 0

    def test_genuine_miss_stays_a_miss(self):
        dht, faulty = _stack(drop=0.3, seed=1)
        for _ in range(50):
            assert dht.get("never-stored") is None
        # Only the lost replies were asked again: one retry per drop,
        # and every miss ended on its first answered attempt.
        assert dht.metrics.retries == faulty.dropped_gets > 0
        assert dht.exhausted_gets == 0
        assert dht.breaker.state is BreakerState.CLOSED
        assert dht.metrics.breaker_trips == 0

    def test_lost_replies_never_feed_the_breaker(self):
        policy = RetryPolicy(max_attempts=2, timeout_budget=None)
        dht, faulty = _stack(drop=1.0, policy=policy)
        for _ in range(20):
            assert dht.get("k") is NO_REPLY
        assert dht.exhausted_gets == 20
        assert faulty.dropped_gets == 40  # every attempt was routed
        assert dht.breaker.consecutive_failures == 0
        assert dht.breaker.state is BreakerState.CLOSED

    def test_put_retries_then_raises(self):
        policy = RetryPolicy(max_attempts=3, timeout_budget=None)
        dht, faulty = _stack(put_fail=1.0, policy=policy)
        with pytest.raises(DHTError):
            dht.put("k", 1)
        assert faulty.failed_puts == 3  # every attempt reached the substrate
        assert dht.metrics.retries == 2
        assert dht.metrics.failed_puts == 3

    def test_breaker_trips_and_fails_fast(self):
        policy = RetryPolicy(max_attempts=2, timeout_budget=None)
        breaker = CircuitBreaker(failure_threshold=4, reset_timeout=1e9)
        dht, faulty = _stack(put_fail=1.0, policy=policy, breaker=breaker)
        with pytest.raises(DHTError):
            dht.put("a", 1)  # 2 failures
        with pytest.raises(DHTError):
            dht.put("b", 2)  # 2 more: trips at 4
        assert dht.breaker.state is BreakerState.OPEN
        assert dht.metrics.breaker_trips == 1
        routed = faulty.failed_puts
        with pytest.raises(CircuitOpenError):
            dht.put("c", 3)
        assert faulty.failed_puts == routed  # rejected without routing
        assert dht.metrics.breaker_rejections == 1
        # An open breaker also rejects gets and removes.
        with pytest.raises(CircuitOpenError):
            dht.get("a")
        with pytest.raises(CircuitOpenError):
            dht.remove("a")

    def test_breaker_recovers_via_half_open(self):
        policy = RetryPolicy(max_attempts=1, timeout_budget=None)
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0)
        dht, faulty = _stack(put_fail=1.0, policy=policy, breaker=breaker)
        assert dht.clock is breaker.clock  # wrapper adopts the breaker's clock
        for key in ("a", "b"):
            with pytest.raises(DHTError):
                dht.put(key, 0)
        assert not dht.breaker.allows()
        # While the fault persists: fast rejections, with one half-open
        # trial per cool-down that fails and re-opens the breaker.
        # One virtual second per operation walks the clock forward.
        for _ in range(15):
            with pytest.raises(DHTError):  # CircuitOpenError or trial failure
                dht.put("c", 0)
        assert dht.metrics.breaker_rejections > 0
        assert dht.clock.now >= breaker.reset_timeout
        # The fault heals: the next half-open trial succeeds and closes.
        faulty.put_fail_rate = 0.0
        for _ in range(15):
            try:
                dht.put("d", 4)
                break
            except CircuitOpenError:
                continue
        assert dht.breaker.state is BreakerState.CLOSED
        assert dht.get("d") == 4

    def test_timeout_budget_caps_attempts(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            multiplier=2.0,
            max_delay=100.0,
            jitter=0.0,
            timeout_budget=4.0,
        )
        dht, faulty = _stack(put_fail=1.0, policy=policy)
        with pytest.raises(DHTError):
            dht.put("k", 1)
        # delays 1, 2 spend 3.0; the next (4.0) would exceed the budget.
        assert faulty.failed_puts == 3

    def test_stacks_over_replication(self):
        chord = LocalDHT(8, 0)
        faulty = FaultyDHT(chord, get_drop_rate=0.4, seed=5)
        stack = ResilientDHT(ReplicatedDHT(faulty, 2), seed=5)
        stack.put("k", "v")
        hits = sum(stack.get("k") == "v" for _ in range(100))
        assert hits >= 99
        # All layers share one recorder.
        assert stack.metrics is faulty.metrics is chord.metrics

    def test_deterministic_replay(self):
        def run() -> tuple:
            dht, _ = _stack(drop=0.4, seed=11)
            dht.put("k", 1)
            outcomes = tuple(dht.get("k") for _ in range(50))
            return outcomes, dht.metrics.retries, dht.exhausted_gets, dht.clock.now

        assert run() == run()

    def test_nested_fast_rejection_is_never_retried_by_any_op(self):
        """One retry loop: an inner wrapper's open breaker rejects fast,
        and the outer wrapper passes that on at once — same for get,
        put and remove — without retrying it or feeding its breaker."""
        inner_breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1e9)
        once = RetryPolicy(max_attempts=1, timeout_budget=None)
        inner, faulty = _stack(put_fail=1.0, policy=once, breaker=inner_breaker)
        with pytest.raises(DHTError):
            inner.put("trip", 0)
        assert not inner.breaker.allows()
        outer = ResilientDHT(inner, seed=1)
        routed = faulty.failed_puts
        before = outer.metrics.snapshot()
        for rejected, operation in enumerate(
            (
                lambda: outer.get("k"),
                lambda: outer.put("k", 1),
                lambda: outer.remove("k"),
            ),
            start=1,
        ):
            with pytest.raises(CircuitOpenError):
                operation()
            # One attempt, no retry.
            assert outer.metrics.since(before).breaker_rejections == rejected
        assert outer.metrics.since(before).retries == 0
        assert outer.breaker.consecutive_failures == 0
        assert outer.breaker.state is BreakerState.CLOSED
        assert faulty.failed_puts == routed  # nothing reached the substrate

    def test_oracle_access_is_never_shielded(self):
        dht, faulty = _stack(drop=1.0)
        dht.put("k", 7)
        before = dht.metrics.snapshot()
        assert dht.peek("k") == 7
        assert "k" in list(dht.keys())
        assert (dht.metrics.snapshot() - before).gets == 0
        assert dht.n_peers == faulty.n_peers


# ----------------------------------------------------------------------
# Degraded-mode queries
# ----------------------------------------------------------------------


def _lossy_index(
    drop: float, seed: int = 0, n_keys: int = 300
) -> tuple[LHTIndex, FaultyDHT, list[float]]:
    faulty = FaultyDHT(LocalDHT(8, 0), seed=seed)
    index = LHTIndex(faulty, IndexConfig(theta_split=8))
    keys = [float(k) for k in np.random.default_rng(seed).random(n_keys)]
    index.bulk_load(keys)
    faulty.get_drop_rate = drop
    return index, faulty, keys


class TestDegradedQueries:
    def test_exact_match_checked_trichotomy(self):
        index, faulty, keys = _lossy_index(0.0)
        present = index.exact_match_checked(keys[0])
        assert present.status is MatchStatus.PRESENT
        assert present.found and present.decided
        assert present.record is not None and present.record.key == keys[0]
        absent = index.exact_match_checked(0.123456789)
        assert absent.status is MatchStatus.ABSENT
        assert absent.decided and not absent.found
        faulty.get_drop_rate = 1.0
        lost = index.exact_match_checked(keys[0])
        assert lost.status is MatchStatus.UNREACHABLE
        assert not lost.decided
        assert index.dht.metrics.degraded_responses > 0

    def test_clean_range_query_is_complete(self):
        index, _, keys = _lossy_index(0.0)
        result = index.range_query(0.2, 0.7, degraded=True)
        assert result.complete and result.unreachable == ()
        assert result.keys == sorted(k for k in keys if 0.2 <= k < 0.7)

    def test_non_degraded_still_raises(self):
        index, faulty, _ = _lossy_index(1.0, seed=6)
        with pytest.raises(Exception):
            while True:  # pragma: no branch - raises on first failed get
                index.range_query(0.0, 1.0)


# ----------------------------------------------------------------------
# Acceptance criterion (ISSUE 2)
# ----------------------------------------------------------------------


class TestAcceptance:
    def test_availability_at_drop_020(self):
        """Default retry budget ≥99% vs ≤85% without retries at p=0.2."""
        rates = {}
        for label, policy in (
            ("with", DEFAULT_RETRY_POLICY),
            ("without", NO_RETRY_POLICY),
        ):
            faulty = FaultyDHT(LocalDHT(16, 0), seed=42)
            dht = ResilientDHT(faulty, policy=policy, seed=42)
            index = LHTIndex(dht, IndexConfig(theta_split=8))
            keys = [float(k) for k in np.random.default_rng(42).random(400)]
            index.bulk_load(keys)
            faulty.get_drop_rate = 0.2
            hits = sum(
                index.exact_match_checked(k).status is MatchStatus.PRESENT
                for k in keys
            )
            rates[label] = hits / len(keys)
        assert rates["with"] >= 0.99, rates
        assert rates["without"] <= 0.85, rates
