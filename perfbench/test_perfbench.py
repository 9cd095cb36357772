"""Tests of the benchmark itself: tracer arithmetic, bounded runs, the
missing-program exit, and the attribution self-check.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The attribution self-check injects a fixed busy-wait into one wrapped
layer function and shows that the matching per-layer metric and the
predicted end-to-end metric move on the workload that uses the layer,
while the workload that bypasses it does not move.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent


# -- tracer ---------------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Layered:
    """Two nested 'layers' that advance a fake clock."""

    def __init__(self, clock: _FakeClock) -> None:
        self.clock = clock

    def outer(self) -> int:
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        return 7

    def inner(self) -> None:
        self.clock.now += 4.0

    def process(self):
        self.clock.now += 1.0
        received = yield "first"
        self.clock.now += 8.0
        return received * 2


def _traced_layered() -> tuple[Tracer, _FakeClock, _Layered]:
    clock = _FakeClock()
    tracer = Tracer(keep_spans=10, clock=clock)
    tracer.patch(_Layered, "outer", "outer")
    tracer.patch(_Layered, "inner", "inner")
    tracer.patch(_Layered, "process", "process")
    return tracer, clock, _Layered(clock)


def test_self_time_excludes_child_spans() -> None:
    tracer, _, layered = _traced_layered()
    try:
        assert layered.outer() == 7
    finally:
        tracer.uninstall()
    assert tracer.self_s["outer"] == pytest.approx(3.0)
    assert tracer.self_s["inner"] == pytest.approx(4.0)
    assert tracer.covered_s == pytest.approx(7.0)
    assert tracer.calls == {"outer": 1, "inner": 1}
    (inner_id, inner_parent, inner_root, name, start, end), outer = tracer.spans
    assert (name, start, end) == ("inner", 1.0, 5.0)
    assert outer[3:] == ("outer", 0.0, 7.0)
    assert inner_parent == outer[0] == inner_root == outer[2]
    assert outer[1] == 0  # a root span has no parent


def test_generator_spans_cover_resumptions_only() -> None:
    tracer, clock, layered = _traced_layered()
    try:
        process = layered.process()
        assert next(process) == "first"
        clock.now += 100.0  # waiting between resumptions is not charged
        with pytest.raises(StopIteration) as stop:
            process.send(21)
    finally:
        tracer.uninstall()
    assert stop.value.value == 42
    assert tracer.calls["process"] == 1
    assert tracer.self_s["process"] == pytest.approx(9.0)


def test_uninstall_restores_originals() -> None:
    original = _Layered.__dict__["outer"]
    tracer, _, _ = _traced_layered()
    assert _Layered.__dict__["outer"] is not original
    tracer.uninstall()
    assert _Layered.__dict__["outer"] is original


def test_renamed_entry_point_fails_loudly() -> None:
    with pytest.raises(KeyError):
        Tracer().patch(_Layered, "no_such_method", "missing")


# -- bounded runs and the missing program -----------------------------------------


def test_hung_run_is_killed_and_counted_as_failed() -> None:
    # A busy-wait far longer than the timeout inside every kernel step
    # stands in for a hung peer: the run must come back bounded.
    started = time.monotonic()
    result = run.run_child(["--workload", "ps_session", "--seed", "1",
                            "--seconds", "1", "--trace", "1",
                            "--delay", "simenv.run=1000"], timeout=8.0)
    assert time.monotonic() - started < 30.0
    assert result["error"].startswith("hung")
    assert result["attempted"] >= 1


def test_hung_run_report_names_the_workload(monkeypatch) -> None:
    monkeypatch.setattr(run, "BUDGET_S", 8.0)
    report = run.measure("ps_session", 1, 1.0, True,
                         delays=["simenv.step=1000"])
    assert report["correct"] is False
    assert report["failed"] >= 1 and report["failed"] <= report["attempted"]
    assert any("ps_session traced run: hung" in line
               for line in report["lines"])


def test_missing_program_exits_nonzero_without_result(tmp_path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ps_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_traced_run_writes_spans(tmp_path) -> None:
    path = tmp_path / "spans.jsonl"
    result = run.run_child(["--workload", "ps_tcp", "--seed", "1",
                            "--seconds", "0.5", "--trace", "1",
                            "--spans", str(path)], timeout=60.0)
    assert "error" not in result, result.get("error")
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    ids = {span["id"] for span in spans}
    for span in spans:
        assert set(span) == {"id", "parent", "root", "name", "start", "end"}
        assert span["start"] <= span["end"]
        assert span["parent"] == 0 or span["parent"] in ids
    assert {"net.serialize_into", "net.feed"} <= {span["name"] for span in spans}


def test_benchmark_json_matches_the_code() -> None:
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()


# -- attribution self-check ----------------------------------------------------------

#: Injected busy-waits: long enough to dominate run-to-run noise.
NEIGHBORS_DELAY_S = 20e-6
ENCODE_DELAY_S = 100e-6
SECONDS = "3"
#: Label suffix -> injected delay.
DELAYS = {"": None,
          "+neighbors": f"radio.neighbors={NEIGHBORS_DELAY_S}",
          "+encode": f"net.serialize_into={ENCODE_DELAY_S}"}
#: Every configuration runs this many times, interleaved with the others,
#: and each check takes the median over the repeats of a base run and the
#: slowed run made right after it: a shared host's speed can shift by
#: 1.6x for seconds at a time, more than one pair of runs tolerates.
REPEATS = 3


def _traced(workload: str, delay: str | None = None) -> dict:
    arguments = ["--workload", workload, "--seed", "1", "--seconds", SECONDS,
                 "--trace", "1"]
    if delay:
        arguments += ["--delay", delay]
    result = run.run_child(arguments, timeout=120.0)
    assert "error" not in result, result.get("error")
    assert not result["problems"], result["problems"]
    return result


@pytest.fixture(scope="module")
def attribution_runs() -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for _ in range(REPEATS):
        for workload, label in (("crowd_discovery", "crowd"), ("ps_tcp", "tcp")):
            for suffix, delay in DELAYS.items():
                runs.setdefault(label + suffix, []).append(
                    _traced(workload, delay))
    return runs


Pairs = list[tuple[dict, dict]]


def _pairs(runs: dict[str, list[dict]], base: str, slowed: str) -> Pairs:
    return list(zip(runs[base], runs[slowed], strict=True))


def _median(values) -> float:
    return statistics.median(list(values))


def _layer(pairs: Pairs, name: str) -> float:
    """Median of a per-layer metric over the base runs."""
    return _median(base["layers"][name] for base, _ in pairs)


def _ratio(pairs: Pairs, metric: str) -> float:
    """Median of slowed / base for an end-to-end metric."""
    return _median(slowed[metric] / base[metric] for base, slowed in pairs)


def _predicted_ops_ratio(pairs: Pairs, injected_per_op: float) -> float:
    """Median of slowed ops_per_s over the rate predicted from the base
    run when every op takes ``injected_per_op`` longer."""
    return _median(slowed["ops_per_s"]
                   / (1.0 / (1.0 / base["ops_per_s"] + injected_per_op))
                   for base, slowed in pairs)


def _self_time_moves(pairs: Pairs, metric: str, injected_per_op: float,
                     neighbours: tuple[str, ...]) -> None:
    """The slowed layer absorbs the injected time; the layers next to it
    in the call tree, which would absorb misattributed time, do not."""
    grown = _median(slowed["layers"][metric] - base["layers"][metric]
                    for base, slowed in pairs)
    assert grown == pytest.approx(injected_per_op, rel=0.25)
    for name in neighbours:
        moved = _median(abs(slowed["layers"][name] - base["layers"][name])
                        for base, slowed in pairs)
        assert moved < 0.15 * injected_per_op, name


def test_neighbor_delay_moves_crowd_only(attribution_runs) -> None:
    pairs = _pairs(attribution_runs, "crowd", "crowd+neighbors")
    calls = _layer(pairs, "radio.neighbor_queries")
    assert calls > 100
    injected = calls * NEIGHBORS_DELAY_S
    # Scans call the neighbour query, which calls the sweep.
    _self_time_moves(pairs, "radio.neighbor_s", injected,
                     ("peerhood.scan_s", "radio.sweep_s", "mobility.query_s"))
    # Predicted op time = base op time + injected; ops_per_s follows.
    assert _predicted_ops_ratio(pairs, injected) == pytest.approx(1.0, rel=0.2)
    assert _ratio(pairs, "ops_per_s") < 0.8
    assert _ratio(pairs, "ops_per_ref_s") < 0.8
    # ps_tcp never queries the radio: nothing to slow, nothing moves.
    tcp = _pairs(attribution_runs, "tcp", "tcp+neighbors")
    assert all(slowed["layers"]["radio.neighbor_queries"] == 0
               for _, slowed in tcp)
    assert _ratio(tcp, "ops_per_s") == pytest.approx(1.0, rel=0.3)
    assert _ratio(tcp, "ops_per_ref_s") == pytest.approx(1.0, rel=0.3)
    assert _ratio(tcp, "op_p50_us") == pytest.approx(1.0, rel=0.3)


def test_encode_delay_moves_tcp_only(attribution_runs) -> None:
    pairs = _pairs(attribution_runs, "tcp", "tcp+encode")
    encodes = _layer(pairs, "net.encodes")
    assert encodes == pytest.approx(2.0)  # request + reply per op
    injected = encodes * ENCODE_DELAY_S
    # The server encodes right after the handler and the decoder.
    _self_time_moves(pairs, "net.encode_s", injected,
                     ("community.handle_s", "net.decode_s", "net.feed_s"))
    # One thread serves both closed-loop connections, so each op also
    # waits for the other connection's op: latency grows by twice the
    # injected time per op (Little's law), throughput by the time once.
    grown_us = _median(slowed["op_p50_us"] - base["op_p50_us"]
                       for base, slowed in pairs)
    assert grown_us == pytest.approx(2 * 1e6 * injected, rel=0.35)
    assert _predicted_ops_ratio(pairs, injected) == pytest.approx(1.0, rel=0.2)
    # The simulated crowd moves payloads without the wire encoder.
    crowd = _pairs(attribution_runs, "crowd", "crowd+encode")
    assert all(slowed["layers"]["net.encodes"] == 0 for _, slowed in crowd)
    assert _ratio(crowd, "ops_per_s") == pytest.approx(1.0, rel=0.3)
