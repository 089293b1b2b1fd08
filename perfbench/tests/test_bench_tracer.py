"""Span recorder: self-time arithmetic, ancestry, and wrapped names that are gone."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer  # noqa: E402


def span(name, layer, parent, start, end, outer=None, op=0):
    s = tracer.Span(name, layer, parent, op, start, end)
    s.outer = end - start if outer is None else outer
    return s


def test_self_times_of_a_nested_tree():
    # op 0..10 -> a 1..4 (0.2 s of tracer work around it) -> b 2..3; op -> c 5..9
    spans = [
        span("bench.op", "bench", None, 0.0, 10.0),
        span("speedscan.scan_speeds", "speedscan", 0, 1.0, 4.0, outer=3.2),
        span("stcwt.tuned_spatial", "kernels", 1, 2.0, 3.0),
        span("speedscan.forward_fft3", "stcwt", 0, 5.0, 9.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.8, 2.0, 1.0, 4.0])
    rows = list(zip(spans, tracer.self_times(spans), [False] * 4, [False] * 4))
    m = tracer._times(rows, 1)
    assert m["speedscan.self_s"] == pytest.approx(2.0)
    assert m["kernels.self_s"] == pytest.approx(1.0)
    assert m["stcwt.fft_s"] == pytest.approx(4.0)
    assert m["trace.overhead_s"] == pytest.approx(0.2)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracer.OP_LAYERS)
    # Layers, harness and tracer overhead add up to the op's duration.
    assert layer_sum + m["trace.harness_self_s"] + m["trace.overhead_s"] == pytest.approx(10.0)


def test_under_marks_every_descendant():
    spans = [
        span("speedscan.scan_speeds", "speedscan", None, 0, 5),
        span("speedscan.golden_section_maximize", "speedscan", 0, 1, 4),
        span("speedscan.tuned_energy", "stcwt", 1, 1, 2),
        span("stcwt.tuned_filter_factors", "stcwt", 2, 1, 2),
        span("speedscan.tuned_energy_detail", "stcwt", 0, 4, 5),
    ]
    assert tracer.under(spans, "speedscan.golden_section_maximize") == [
        False, False, True, True, False]


def test_recorded_spans_add_up_to_the_op():
    rec = tracer.Recorder()

    def leaf(x):
        return [x] * 3

    def middle(x):
        return traced_leaf(x) + traced_leaf(x + 1)

    traced_leaf = rec.wrap(leaf, "stcwt.tuned_spatial", "kernels")
    traced_middle = rec.wrap(middle, "speedscan.scan_speeds", "speedscan")
    root = rec.wrap(lambda: traced_middle(1), "bench.op", "bench")
    rec.op = 7
    root()
    assert [s.name for s in rec.spans] == [
        "bench.op", "speedscan.scan_speeds", "stcwt.tuned_spatial", "stcwt.tuned_spatial"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1]
    assert {s.op for s in rec.spans} == {7}
    selfs = tracer.self_times(rec.spans)
    overhead = sum(s.outer - s.duration for s in rec.spans if s.parent is not None)
    assert sum(selfs) + overhead == pytest.approx(rec.spans[0].duration, abs=1e-12)


def test_missing_wrapped_names_are_absent_not_fatal(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "perfbench_fake_layer", fake)
    original = fake.present
    rec = tracer.Recorder()
    rec.install((
        ("perfbench_fake_layer", "present", "kernels", None),
        ("perfbench_fake_layer", "renamed_away", "frames", None),
        ("perfbench_no_such_module", "main", "cli", None),
    ))
    assert rec.absent == ["perfbench_fake_layer.renamed_away", "perfbench_no_such_module.main"]
    rec.op = 0
    assert fake.present(1) == 2
    rec.uninstall()
    assert fake.present is original

    m = tracer.layer_metrics(rec, n_ops=1, count_ops=1)
    assert m["trace.absent_names"] == 2
    assert m["frames.self_s"] == 0.0 and m["cli.self_s"] == 0.0
    assert m["kernels.gc_calls"] == 0.0 and m["frames.polish_evals"] == 0.0
    assert m["kernels.self_s"] > 0.0


def test_counter_failure_is_recorded_and_the_call_still_returns():
    rec = tracer.Recorder()

    def bad_counter(args, kwargs, out):
        raise KeyError("path")

    wrapped = rec.wrap(lambda: 5, "stvio.read_stv", "stvio", bad_counter)
    assert wrapped() == 5
    assert "stvio.read_stv" in rec.counter_errors
    assert rec.spans[0].counts == {}


def test_benchmark_lists_exactly_the_layer_metrics_of_the_map():
    rec = tracer.Recorder()
    names = set(tracer.layer_metrics(rec, 1, 1))
    assert set(tracer.PER_LAYER) <= names and set(tracer.COUNT_METRICS) <= set(tracer.PER_LAYER)
    listed = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in listed["per_layer"]] == [
        (n, tracer.unit(n)) for n in tracer.PER_LAYER]
