"""Tests of the benchmark itself: metric catalogue, span wrappers, runs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import workload  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

TINY_REQUESTS = 24


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- metric catalogue -------------------------------------------------------


def test_metric_names_and_units_use_the_allowed_charset():
    document = _benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.match(name), name
    for entry in document["end_to_end"] + document["per_layer"]:
        assert spec.UNIT_PATTERN.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in document["workloads"]:
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_benchmark_json_matches_the_catalogue():
    document = _benchmark_json()
    assert [w["name"] for w in document["workloads"]] == list(spec.WORKLOADS)
    assert {w["name"]: w["why"] for w in document["workloads"]} == {
        name: w.why for name, w in spec.WORKLOADS.items()
    }
    assert {
        e["name"]: (e["unit"], e["better"], e["bound"]) for e in document["end_to_end"]
    } == spec.END_TO_END
    assert {
        e["name"]: (e["unit"], e["better"]) for e in document["per_layer"]
    } == spec.per_layer_metrics()
    bounds = {e["name"]: e["bound"] for e in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert spec.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_has_a_stated_target():
    layers = {name.split(".", 1)[0] for name in spec.per_layer_metrics()}
    assert layers <= set(spec.LAYER_TARGETS)


# -- span wrappers ------------------------------------------------------------


class _Base:
    def inherited(self, value):
        return value + 1


class _Owner(_Base):
    def own(self, value):
        return "x" * (self.inherited(value) * 2)


def test_wrappers_are_restored_exactly():
    module = types.ModuleType("fake_module")
    module.function = lambda value: value
    originals = (module.function, vars(_Owner)["own"])
    tracer = LayerTracer()
    tracer.install("fake.function", [(module, "function")])
    tracer.install("fake.methods", [(_Owner, "own"), (_Owner, "inherited")])
    tracer.measure("fake.size", _Owner, "own")
    assert module.function is not originals[0]
    assert "inherited" in vars(_Owner)
    tracer.restore()
    assert module.function is originals[0]
    assert vars(_Owner)["own"] is originals[1]
    assert "inherited" not in vars(_Owner)
    assert _Owner().own(1) == "xxxx"


def test_self_times_add_up_to_the_outermost_span():
    tracer = LayerTracer()
    tracer.install("inner", [(_Owner, "inherited")])
    tracer.install("outer", [(_Owner, "own")])
    tracer.measure("size", _Owner, "own")
    try:
        root = tracer.wrap("root", lambda: [_Owner().own(n) for n in range(50)])
        tracer.start()
        started = time.perf_counter()
        root()
        elapsed = time.perf_counter() - started
        tracer.stop()
    finally:
        tracer.restore()
    assert tracer.calls == {"inner": 50, "outer": 50, "root": 1}
    assert tracer.sizes["size"] == sum(2 * (n + 1) for n in range(50))
    assert all(seconds >= 0 for seconds in tracer.self_seconds.values())
    # Self times partition the root span, which the outer clock encloses.
    assert sum(tracer.self_seconds.values()) <= elapsed


def test_wrappers_pass_through_outside_the_recording_window():
    tracer = LayerTracer()
    tracer.install("outer", [(_Owner, "own")])
    try:
        assert _Owner().own(3) == "x" * 8
    finally:
        tracer.restore()
    assert tracer.calls == {}


# -- tiny runs of every workload ------------------------------------------------


def _entry_points():
    """Own attributes of every module and class the traced run wraps."""
    from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
    from repro.rest.codec import BinaryCodec, JsonCodec
    from repro.simnet.clock import EventLoop

    owners = [RealCryptoProvider, SimCryptoProvider, BinaryCodec, JsonCodec, EventLoop]
    for targets in spec.SPANS.values():
        for target in targets:
            if not target.startswith("{"):
                owners.append(workload._resolve(target, {})[0])
    return {id(owner): dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_run_is_correct_and_deterministic(name):
    first = workload.run(spec.WORKLOADS[name], 5, TINY_REQUESTS, traced=False)
    second = workload.run(spec.WORKLOADS[name], 5, TINY_REQUESTS, traced=False)
    assert first["failed"] == 0 and first["sent"] >= TINY_REQUESTS
    assert len(first["latencies_ms"]) == TINY_REQUESTS
    for key in ("latencies_ms", "sent", "succeeded", "events", "shuffle", "checks"):
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_traced_run_restores_entry_points(name):
    before = _entry_points()
    result = workload.run(spec.WORKLOADS[name], 6, TINY_REQUESTS, traced=True)
    assert _entry_points() == before
    spans = result["spans"]
    assert set(spans) == set(spec.SPANS) | {spec.ROOT_SPAN}
    total = sum(span["self_s"] for span in spans.values())
    assert total == pytest.approx(result["wall_s"], rel=0.01)
    assert set(result["vstage_p50_ms"]) == {
        name.split(".")[1] for name in spec.LAYER_COUNTERS if name.startswith("vstage.")
    }
    assert result["failed"] == 0


def test_a_violation_ends_with_a_named_verdict(monkeypatch, capsys):
    # Far below any round trip: every attempt times out, so warm-up fails.
    monkeypatch.setattr(workload, "REQUEST_TIMEOUT", 0.01)
    code = workload.main(["--workload", "writes-fleet", "--seed", "2", "--requests", "8"])
    assert code == 1
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["verdict"] == "WARMUP_FAILED"


# -- run.py ------------------------------------------------------------------------


def _run_benchmark(trace, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", "writes-fleet", "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_as_json(trace):
    completed = _run_benchmark(trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec.END_TO_END if trace == 0 else spec.per_layer_metrics()
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run_benchmark(0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
