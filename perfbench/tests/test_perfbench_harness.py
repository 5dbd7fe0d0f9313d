"""Tests of the benchmark harness itself (not of the program it measures)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_trace  # noqa: E402
from bench_trace import (  # noqa: E402
    LAYER_UNITS,
    TARGETS,
    SpanRecorder,
    Target,
    install,
    layer_metrics,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    # a[0,10] { b[1,4] { c[2,3] }  c[5,9] }  then d[12,13] at top level
    rec.enter("a")
    clock.now = 1
    rec.enter("b")
    clock.now = 2
    rec.enter("c")
    clock.now = 3
    rec.exit()
    clock.now = 4
    rec.exit()
    clock.now = 5
    rec.enter("c")
    clock.now = 9
    rec.exit()
    clock.now = 10
    rec.exit()
    clock.now = 12
    rec.enter("d")
    clock.now = 13
    rec.exit()

    assert rec.stats["a"].total_s == 10 and rec.stats["a"].self_s == 10 - 3 - 4
    assert rec.stats["b"].total_s == 3 and rec.stats["b"].self_s == 2
    assert rec.stats["c"].calls == 2
    assert rec.stats["c"].total_s == 5 and rec.stats["c"].self_s == 5
    assert rec.covered_s == 11  # a and d are the outermost spans
    assert rec.inside[("a", "c")] == 5 and rec.inside[("b", "c")] == 1
    assert rec.layer_self("a") == 0.0  # no key starts with "a."


def test_reentrant_key_folds_into_outer_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enter("protocols.plan")
    clock.now = 1
    rec.enter("protocols.plan")  # plan_omnc -> plan_omnc_detailed
    clock.now = 3
    rec.exit()
    clock.now = 4
    rec.exit()
    stats = rec.stats["protocols.plan"]
    assert (stats.calls, stats.total_s, stats.self_s) == (1, 4, 4)


def test_layer_self_sums_keys_of_a_layer():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enter("emulator.run")
    clock.now = 2
    rec.enter("emulator.mac")
    clock.now = 3
    rec.exit()
    rec.enter("coding.decode")
    clock.now = 6
    rec.exit()
    clock.now = 7
    rec.exit()
    assert rec.layer_self("emulator") == 7 - 3  # coding time is not emulator time
    assert rec.layer_self("coding") == 3


def test_metric_names_and_units_follow_the_character_set():
    import run

    for name, unit in list(LAYER_UNITS.items()) + list(run.END_TO_END_UNITS.items()):
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.EXPECTED_SPANS)


@pytest.mark.parametrize("name", ["campaign_flow", "multisession_exact", "adaptive_drift"])
def test_same_seed_gives_identical_inputs(name):
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name]
    first = workload.input_digest(workload.setup(3))
    assert workload.input_digest(workload.setup(3)) == first
    assert workload.input_digest(workload.setup(4)) != first


def _bound_attributes():
    """Every (owner, attribute) -> object the targets can reach, by-name sites included."""
    import importlib

    bound = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        *path, attr = target.name.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr] if path else getattr(module, attr)
        sites = [(owner, attr)] if path else bench_trace._import_sites(original)
        for site, name in sites:
            bound[(id(site), name)] = (site, name, original)
    return bound


def test_wrappers_cover_import_sites_and_are_restored():
    from repro.protocols import omnc
    from repro.routing import node_selection

    bound = _bound_attributes()
    original_select = node_selection.select_forwarders
    installation = install(TARGETS, SpanRecorder())
    try:
        assert not installation.missing
        assert omnc.select_forwarders is not original_select
        assert omnc.select_forwarders is node_selection.select_forwarders
        for site, name, original in bound.values():
            assert getattr(site, name) is not original, name
    finally:
        installation.restore()
    for site, name, original in bound.values():
        value = vars(site)[name] if isinstance(site, type) else getattr(site, name)
        assert value is original, name
    assert omnc.select_forwarders is original_select


def test_missing_target_is_reported_and_its_metrics_absent():
    targets = (
        Target("coding.decode", "repro.no_such_module", "decode"),
        Target("coding.encode", "repro.coding.encoder", "SourceEncoder.no_such_method"),
        Target("routing.select", "repro.routing.node_selection", "select_forwarders"),
    )
    recorder = SpanRecorder()
    installation = install(targets, recorder)
    installation.restore()
    assert [t.key for t in installation.missing] == ["coding.decode", "coding.encode"]
    values = layer_metrics(recorder, installation.present, lambda _name: 0.0)
    assert "routing.select_s" in values
    assert "coding.decode_s" not in values and "coding.encode_calls" not in values
    assert "coding.mb_per_s" not in values
    assert values["emulator.transmissions"] == 0.0  # counter-only metrics stay
