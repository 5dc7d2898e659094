"""Smoke test of the end-to-end benchmark at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_smoke.py

Each workload runs one timed and one traced iteration.  The negative
cases tamper with an expected answer and require every checked
operation to fail, which shows the checks are not vacuous.
"""

from __future__ import annotations

import json
import os

import pytest

import harness
from compare import verdict
from daemon import DaemonMix
from run import spread, summarize, workload_classes
from workloads import CorpusRegister, RewriteMix, Synth

SPEC_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                         "BENCHMARK.json")
with open(SPEC_PATH, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TINY = {
    "corpus_register": lambda: CorpusRegister(0, modules=1, module_ops=20),
    "synth_10k": lambda: Synth(0, n_ops=2000),
    "rewrite_mix": lambda: RewriteMix(0, functions=4, chain=3, xor_pairs=2),
    "daemon_mix": lambda: DaemonMix(0),
}


def _tamper_daemon(workload: DaemonMix) -> None:
    kind, params, expected, ops = workload.plans[0][0]
    workload.plans[0][0] = (kind, params, {"ops": -1}, ops)


#: One wrong expected answer per workload.
TAMPER = {
    "corpus_register":
        lambda w: w.expected_ops.__setitem__("arith",
                                             w.expected_ops["arith"] + 1),
    "synth_10k": lambda w: w.mutants.__setitem__(0, w.mutants[0] + 1),
    "rewrite_mix": lambda w: w.folded.__setitem__(0, w.folded[0] + 1),
    "daemon_mix": _tamper_daemon,
}


@pytest.fixture(autouse=True)
def one_warmup_and_one_timed_iteration(monkeypatch):
    monkeypatch.setattr(harness, "WARMUP_SECONDS", 0)
    monkeypatch.setattr(harness, "MIN_SAMPLES", 1)


def test_every_workload_is_covered_and_the_spec_lists_only_workloads():
    assert sorted(TINY) == sorted(workload_classes())
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_record(name, tmp_path):
    trace_out = str(tmp_path / "trace.json")
    record = TINY[name]().run(seconds=0, trace=True, trace_out=trace_out)

    assert record["failures"] == []
    assert record["error_rate"] == 0
    assert record["attempted"] >= 2
    assert sorted(record["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in record["metrics"].values())
    assert {m["name"] for m in SPEC["per_layer"]} <= set(record["counters"])
    assert record["layers"]
    for row in record["layers"].values():
        assert sorted(row) == ["calls", "self_s", "share"]
        assert 0 <= row["share"] <= 1
    with open(trace_out, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all("iteration" in e["args"] for e in spans)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tampered_answer_fails_every_check(name):
    workload = TINY[name]()
    TAMPER[name](workload)
    record = workload.run(seconds=0, trace=True)
    if name == "daemon_mix":
        # Only the tampered request fails: once in the timed round of
        # the first client, once in its traced round.
        assert record["failed"] == 2
    else:
        assert record["error_rate"] == 1


def test_daemon_rounds_hit_and_miss_the_dialect_cache():
    counters = TINY["daemon_mix"]().run(seconds=0, trace=True)["counters"]
    # Per tenant: 2 first registrations, then a warm and a cold one in
    # each of the timed and traced rounds.  The first tenant's first
    # registrations miss, the second's hit.
    assert counters["server.cache.hit_ratio"] == 0.5
    assert (counters["server.client.register_hit_ms"]
            < counters["server.client.register_miss_ms"])


def test_driver_counts_cover_only_the_traced_iteration(monkeypatch):
    counts = []
    for timed in (1, 3):
        monkeypatch.setattr(harness, "MIN_SAMPLES", timed)
        record = TINY["rewrite_mix"]().run(seconds=0, trace=True)
        counts.append(record["counters"]["rewriting.driver.rewrites_applied"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("base, current, noise, runs, expected", [
    (1.0, 1.05, 0.01, ([1.0], [1.05]), "same"),
    (1.0, 1.20, 0.01, ([1.0], [1.2]), "worse"),
    (1.0, 0.80, 0.01, ([1.0], [0.8]), "better"),
    (1.0, 1.20, 0.50, ([0.9, 1.1], [1.0, 1.4]), "unresolved"),
    (1.0, 1.50, 0.50, ([0.9, 1.1], [1.4, 1.6]), "worse"),
    (1.0, 0.50, 0.50, ([0.9, 1.1], [0.4, 0.6]), "better"),
    # Every run slower, but the median moved less than the bound.
    (1.0, 1.05, 0.50, ([0.9, 1.0], [1.04, 1.06]), "unresolved"),
])
def test_compare_verdicts(base, current, noise, runs, expected):
    _, word = verdict(base, current, 0.1, True, noise, *runs)
    assert word == expected


@pytest.mark.parametrize("current, expected", [
    (1.05, "same"), (1.5, "unresolved"), (0.5, "unresolved"),
])
def test_one_run_has_no_known_spread(current, expected):
    assert spread([1.0]) is None and spread([1.0, 2.0]) is None
    _, word = verdict(1.0, current, 0.1, True, None, [1.0], [current])
    assert word == expected


def test_one_bad_run_of_several_counts():
    def record(failed):
        return {"metrics": {"wall_s": 1.0}, "samples": 3, "ops": 1,
                "layers": {}, "counters": {}, "attempted": 10,
                "failed": failed, "error_rate": failed / 10}

    entry = summarize([record(0), record(2), record(0), record(0),
                       record(0)], ["wall_s"])
    assert entry["error_rate"] == 2 / 50
    assert entry["runs"]["error_rate"] == [0, 0.2, 0, 0, 0]
    _, word = verdict(0.0, entry["error_rate"], 0.0, True, 0.0,
                      [0.0] * 5, entry["runs"]["error_rate"])
    assert word == "worse"
