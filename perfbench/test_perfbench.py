"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import spans
from spans import Recorder, Span, self_times, wrapped
from stats import percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = {m["name"]: m["bound"] for m in
          json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_respects_cap():
    assert tail_percentile(10**6, cap=99.0) == 99.0
    assert tail_percentile(10**6, cap=90.0) == 90.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 99.9) == 100.0
    assert percentile([7.0], 99) == 7.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_only_direct_children():
    trace = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.5, 1, "r"),
        Span("b", 6.0, 8.0, 0, "r"),
    ]
    assert self_times(trace) == pytest.approx([5.0, 1.5, 1.5, 2.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    trace = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 5.0, 0, "r"),
        Span("c", 9.0, 12.0, 0, "r"),
    ]
    # Covered: [1, 5] and [9, 10].
    assert self_times(trace)[0] == pytest.approx(5.0)


def test_recorder_nests_spans_and_tags_the_run():
    recorder = Recorder("run-1")
    with recorder.span("outer"):
        with recorder.span("inner", items=3):
            pass
        with recorder.span("inner"):
            pass
    names = [(s.name, s.parent, s.run) for s in recorder.spans]
    assert names == [("outer", -1, "run-1"), ("inner", 0, "run-1"),
                     ("inner", 0, "run-1")]
    assert recorder.spans[1].attrs == {"items": 3}
    assert all(s.end >= s.start for s in recorder.spans)


def test_wrapped_records_calls_and_restores_the_binding():
    def work(x, scale=1):
        return x * scale

    owner = types.SimpleNamespace(work=work)
    recorder = Recorder("r")
    hooks = [(owner, "work", "layer.work",
              lambda args, kwargs, result: {"result": result})]
    with wrapped(recorder, hooks):
        assert owner.work(2, scale=3) == 6
    assert owner.work is work
    assert [(s.name, s.attrs) for s in recorder.spans] == \
        [("layer.work", {"result": 6})]


def test_wrapped_rejects_a_name_the_owner_does_not_define():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(KeyError):
        with wrapped(Recorder("r"), [(Child, "run", "x", None)]):
            pass
    assert "run" not in vars(Child)


def test_every_layer_hook_binds_where_its_caller_looks():
    recorder = Recorder("r")
    hooks = layers.layer_hooks()
    originals = [vars(owner)[attr] for owner, attr, _, _ in hooks]
    with wrapped(recorder, hooks):
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, _, _), original in zip(hooks, originals))
    assert all(vars(owner)[attr] is original
               for (owner, attr, _, _), original in zip(hooks, originals))


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# Slowdown injection
# ----------------------------------------------------------------------
def _pass(workload: str, inputs, recorder=None) -> tuple[float, list]:
    ops = layers.Ops(recorder or spans.NullRecorder())
    start = time.perf_counter()
    if recorder is None:
        layers.WORKLOADS[workload](inputs, ops)
    else:
        with wrapped(recorder, layers.layer_hooks()):
            layers.WORKLOADS[workload](inputs, ops)
    assert not ops.failures
    return time.perf_counter() - start, getattr(recorder, "spans", [])


def _self_s(trace: list[Span], name: str) -> float:
    return sum(own for span, own in zip(trace, self_times(trace))
               if span.name == name)


@pytest.mark.slow
def test_a_slower_materialize_moves_its_layer_and_only_its_workload(
        monkeypatch):
    bound = BOUNDS["wall_s"]
    inputs = {w: layers.setup(w, 5, spans.NullRecorder())
              for w in layers.WORKLOADS}
    base_wall, base_spans = _pass("service-churn", inputs["service-churn"],
                                  Recorder("base"))
    base = layers.layer_metrics([], base_spans)
    others = {w: _pass(w, inputs[w])[0] for w in layers.WORKLOADS
              if w != "service-churn"}

    calls = base["database.materialize.calls"]
    delay = 2.0 * bound * base_wall / calls
    materialize = layers.GraphMutationLog.materialize

    def slow_materialize(self, *args, **kwargs):
        time.sleep(delay)
        return materialize(self, *args, **kwargs)

    monkeypatch.setattr(layers.GraphMutationLog, "materialize",
                        slow_materialize)
    slow_wall, slow_spans = _pass("service-churn", inputs["service-churn"],
                                  Recorder("slow"))
    slow = layers.layer_metrics([], slow_spans)

    assert slow["database.materialize.calls"] == calls
    slow_self = _self_s(slow_spans, "database.materialize")
    assert slow_self >= calls * delay
    assert slow_self > _self_s(base_spans, "database.materialize") * (1 + bound)
    assert slow_wall > base_wall * (1.0 + bound)
    for workload, wall in others.items():
        slowed = _pass(workload, inputs[workload])[0]
        assert abs(slowed / wall - 1.0) <= bound, workload
