import importlib
import types

from bvdesk import boolalg, bvu

import tracing
from tracing import covered, layer_report, self_times


def span(sid, parent, name, start, end, item=0, tag=None):
    return (sid, parent, item, name, start, end, tag)


def test_covered_merges_overlaps_and_clips():
    assert covered([(10, 30), (30, 50)], 0, 100) == 40  # back to back
    assert covered([(10, 40), (30, 50)], 0, 100) == 40  # overlapping
    assert covered([(-5, 10), (90, 120)], 0, 100) == 20  # clipped to the parent
    assert covered([], 0, 100) == 0


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        span(0, -1, "bench.item", 0, 100),
        span(1, 0, "cli.main", 10, 30),
        span(2, 0, "bvu.descent", 30, 50),      # starts where its sibling ends
        span(3, 1, "acceptance.run_all", 15, 20),  # grandchild of the item
    ]
    own = self_times(spans)
    assert own == {0: 60, 1: 15, 2: 20, 3: 5}
    assert sum(own.values()) == 100  # self times add up to the root's duration


def test_layer_report_counts_crossings_and_criterion_busy_time():
    spans = [
        span(0, -1, "bench.item", 0, 100),
        span(1, 0, "acceptance.run_all", 0, 90),
        span(2, 1, "acceptance.criterion_01", 0, 40),
        span(3, 1, "acceptance.criterion_02", 40, 90),
        span(4, 3, "bvu.truth_eq", 50, 60),
        span(5, 3, "bvu.truth_eq", 60, 70),
        span(6, 0, "refinement.refine_report", 90, 95, tag=10),
    ]
    rep = layer_report(spans)
    assert rep["calls"]["acceptance"] == 1  # criterion spans are not crossings
    assert rep["calls"]["bvu"] == 2
    assert rep["self_ns"]["acceptance"] == 70
    assert rep["self_ns"]["bvu"] == 20
    assert rep["self_ns"]["bench"] == 5
    assert rep["busy_ns"] == {"acceptance.criterion_01": 40, "acceptance.criterion_02": 50}
    assert rep["tagged_ns"] == {"refinement.refine_report": {10: [5]}}
    assert sum(rep["self_ns"].values()) == rep["roots_ns"] == 100


def test_install_wraps_cross_module_calls_only_and_undoes_itself():
    modules = {layer: importlib.import_module(f"bvdesk.{layer}") for layer in tracing.LAYERS}
    caller = types.ModuleType("caller")
    caller.bvu = bvu
    original_is_partition = bvu.is_partition
    rec = tracing.Recorder()
    uninstall = tracing.install(rec, modules, [caller])
    try:
        assert caller.bvu is not bvu
        assert bvu.is_partition is not original_is_partition
        algebra = boolalg.FiniteBooleanAlgebra(2)
        family = [bvu.standard_name(algebra, k) for k in range(2)]
        with rec.span("bench.item"):
            assert caller.bvu.escher_check(algebra, family).ok
    finally:
        uninstall()
    assert caller.bvu is bvu
    assert bvu.is_partition is original_is_partition
    names = [s[3] for s in rec.spans]
    assert names.count("bvu.escher_check") == 1
    assert "bvu.descent" not in names  # a call inside bvu is not split
    assert "boolalg.is_partition" in names  # bvu -> boolalg is a crossing
    rep = layer_report(rec.spans)
    assert sum(rep["self_ns"].values()) == rep["roots_ns"]


def test_written_file_round_trips(tmp_path):
    rec = tracing.Recorder()
    with rec.span("bench.run"):
        with rec.span("bench.item"):
            pass
    path = tmp_path / "trace.json"
    rec.write(str(path))
    assert tracing.load(str(path)) == sorted(rec.spans)
