"""Self-check of the benchmark itself (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths`` is ``tests``): this checks the
measuring instrument, not the program — that its output keeps the
contract, that its counts are a function of the seed alone, that the
span wrapper is invisible to every counter, and that the correctness
gate really trips.  Everything runs at smoke size.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import stacks  # importing bench puts src/ on the path if PYTHONPATH does not
from bench.compare import verdict
from bench.layers import PER_LAYER, trace
from bench.measure import END_TO_END, measure, run_phase
from bench.oracle import Oracle, WrongAnswer, check_splits
from bench.run import DEFAULT_SECONDS, SMOKE_SCALE
from bench.spans import SpanDHT, Tracer
from bench.workloads import LOOKUP, RANGE, SPECS, generate
from repro.core.label import Label
from repro.core.results import SplitEvent
from repro.dht import FaultyDHT, ReplicatedDHT, registry, replica_layer
from repro.dht.placement import SuccessorListPolicy

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_UNITS = ("count", "B")


def smoke(name: str, seed: int = 1):
    return generate(name, seed, SMOKE_SCALE)


# ----------------------------------------------------------------------
# BENCHMARK.json and the output contract
# ----------------------------------------------------------------------


def test_manifest_is_what_the_code_reports():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == DEFAULT_SECONDS
    assert manifest["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in SPECS.values()
    ]
    assert manifest["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
    ]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert "setup_s" in {m["name"] for m in manifest["end_to_end"]}


@pytest.mark.parametrize("traced", (0, 1))
def test_result_line_keeps_the_contract(traced):
    done = subprocess.run(
        RUN + ["--workload", "mixed-deploy", "--smoke", "--seed", "5", "--trace", str(traced)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = (
        {name: unit for name, unit, _ in PER_LAYER}
        if traced
        else {name: unit for name, unit, _, _ in END_TO_END}
    )
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Determinism: counts are a function of the seed, tracing changes none
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
def test_counts_repeat_under_one_seed_and_under_tracing(name):
    first = measure(smoke(name), seconds=0)
    again = measure(smoke(name), seconds=0)
    assert first["failed"] == again["failed"] == 0
    for metric, _, _, _ in END_TO_END:
        if first["metrics"][metric]["unit"] in COUNT_UNITS:
            assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"]

    # trace() itself raises if the traced stack's counters differ from
    # the plain stack's on the shared prefix.
    layers = trace(smoke(name), seconds=0)
    relayers = trace(smoke(name), seconds=0)
    assert layers["failed"] == 0
    for metric, unit, _ in PER_LAYER:
        if unit in COUNT_UNITS:
            assert layers["metrics"][metric]["value"] == relayers["metrics"][metric]["value"], metric
    assert layers["metrics"]["trace.coverage_ratio"]["value"] > 0.9
    spans = json.loads((ROOT / "bench" / "out" / f"trace-{name}.json").read_text())
    assert spans["columns"] == ["name", "layer", "op_id", "parent", "start_ns", "end_ns"]
    assert spans["spans"]


@pytest.mark.parametrize("name", SPECS)
def test_another_seed_is_another_op_stream(name):
    assert smoke(name, 1).ops == smoke(name, 1).ops
    assert smoke(name, 1).ops != smoke(name, 2).ops


def test_point_kademlia_asks_a_prefix_of_point_local():
    local, kademlia = smoke("point-local"), smoke("point-kademlia")
    assert kademlia.keys == local.keys
    assert kademlia.ops == local.ops[: len(kademlia.ops)]


# ----------------------------------------------------------------------
# The span wrapper is invisible to the program
# ----------------------------------------------------------------------


def _exercise(dht, peers):
    """Every kind of call once or more; what came back, and the bill."""
    dht.put("a", 1)
    dht.multi_put([("b", 2), ("c", 3)])
    dht.put_at("a", 1, peers[0])
    dht.local_write("c", 4)
    answers = [
        dht.get("a"),
        dht.get("zz"),
        dht.multi_get(["a", "b", "nope"], absorb_errors=True),
        dht.probe_get("a", peers[0]),
        dht.remove_at("a", peers[0]),
        dht.remove("b"),
        dht.remove("b"),
        dht.peek("c"),
    ]
    return answers, dht.metrics.snapshot()


@pytest.mark.parametrize("substrate", ("local", "kademlia"))
def test_spans_leave_every_counter_alone(substrate):
    def stack(tracer):
        base = registry.make(substrate, 16, seed=3)
        peers = base.node_ids
        inner = base if tracer is None else SpanDHT(base, tracer, "dht.kernel")
        faulty = FaultyDHT(inner, get_drop_rate=0.3, seed=3)  # some gets drop
        top = faulty if tracer is None else SpanDHT(faulty, tracer, "dht.faulty")
        return top, peers

    tracer = Tracer()
    plain_answers, plain_bill = _exercise(*stack(None))
    traced_answers, traced_bill = _exercise(*stack(tracer))
    assert traced_answers == plain_answers
    assert traced_bill == plain_bill and plain_bill.dht_lookups >= 12
    spans = tracer.spans()
    assert {span.layer for span in spans} == {"dht.kernel", "dht.faulty"}
    assert {span.name for span in spans} >= {
        "put", "get", "remove", "multi_get", "multi_put", "probe_get",
        "put_at", "remove_at", "local_write", "peek",
    }


def test_replica_machinery_resolves_through_spans():
    tracer = Tracer()
    base = registry.make("local", 16, seed=3)
    replicated = ReplicatedDHT(SpanDHT(base, tracer, "dht.kernel"), n_replicas=3)
    top = SpanDHT(replicated, tracer, "dht.replicated")
    assert replica_layer(top) is replicated
    policy = registry.placement_for(top)
    assert isinstance(policy, SuccessorListPolicy) and policy.substrate is base
    assert isinstance(replicated.policy, SuccessorListPolicy)


# ----------------------------------------------------------------------
# The correctness gate trips
# ----------------------------------------------------------------------


def test_oracle_rejects_a_corrupted_answer():
    workload = smoke("point-local")
    index = stacks.build("local", workload.seed).index
    index.bulk_load(workload.keys, fast=True)
    run_phase(workload, index, workload.ops[:50])  # the honest program passes

    victim = workload.ops[0][1]
    index.delete(victim)  # behind the oracle's back: the next answer is wrong
    with pytest.raises(WrongAnswer, match=r"op 0 \(lookup\)"):
        run_phase(workload, index, workload.ops[:50])


def test_oracle_checks_ranges_and_splits():
    oracle = Oracle([0.1, 0.2, 0.3], ordered=True)
    records = [type("R", (), {"key": k, "value": None})() for k in (0.1, 0.2)]
    oracle.apply((RANGE, 0.05, 0.25), records)
    with pytest.raises(WrongAnswer, match="range"):
        oracle.apply((RANGE, 0.05, 0.35), records)
    with pytest.raises(WrongAnswer, match="present=False"):
        oracle.apply((LOOKUP, 0.15, None), records[0])

    parent = Label("011")
    good = SplitEvent(parent, parent.right_child, parent.left_child, 0.5, 49, 1)
    check_splits([good], theta_split=100)
    with pytest.raises(WrongAnswer, match="is named"):  # the wrong child stayed
        check_splits([SplitEvent(parent, parent.left_child, parent.right_child, 0.5, 49, 1)], 100)
    with pytest.raises(WrongAnswer, match="moved 100"):
        check_splits([SplitEvent(parent, parent.right_child, parent.left_child, 0.5, 100, 1)], 100)


def test_a_wrong_answer_exits_non_zero_without_a_result(monkeypatch, capsys):
    from bench import run
    from repro.core import LHTIndex

    honest = LHTIndex.exact_match
    monkeypatch.setattr(LHTIndex, "exact_match", lambda self, key: (None, honest(self, key)[1]))
    assert run.main(["--workload", "point-local", "--smoke", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    assert "WRONG ANSWER" in captured.err and "op " in captured.err
    assert '"correct"' not in captured.out


# ----------------------------------------------------------------------
# --compare verdicts
# ----------------------------------------------------------------------


def _metric(samples, unit="us"):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "unit": unit, "samples": samples}


def test_compare_verdicts():
    steady = _metric([100, 101, 99, 100, 100])
    assert verdict(steady, _metric([104, 105, 103, 104, 104]), "lower", 0.10)[1] == "ok"
    assert verdict(steady, _metric([120, 121, 119, 120, 120]), "lower", 0.10)[1] == "worse"
    assert verdict(steady, _metric([80, 81, 79, 80, 80]), "higher", 0.10)[1] == "worse"
    assert verdict(steady, _metric([80, 81, 79, 80, 80]), "lower", 0.10)[1] == "ok"
    noisy = _metric([100, 140, 70, 100, 125])
    assert verdict(steady, noisy, "lower", 0.10)[1] == "unresolved"
    count = _metric([2.5], "count")
    assert verdict(count, _metric([2.5], "count"), "lower", 0.05)[1] == "ok"
    assert verdict(count, _metric([2.5001], "count"), "lower", 0.05)[1] == "worse"
