"""Outside-in layer tracer for the benchmark's traced run.

The program under test is not edited: this module wraps public functions
and methods of each ``repro`` layer from the outside, records one span
per call, and restores every original afterwards.

* A *target* names a module and an attribute path — a module-level
  function (``"select_forwarders"``) or a method defined on a class
  (``"IdealMacScheduler.schedule_arrays"``) — plus the span key it
  feeds (``"routing.select"``).  Several targets may share a key.
* Module-level functions are also re-bound at every by-name import site
  (``from repro.routing.node_selection import select_forwarders`` in
  ``repro.protocols.omnc`` holds its own reference), found by identity
  across the loaded ``repro`` modules.
* A target whose module or attribute no longer exists is reported as
  missing instead of failing, so metrics derived only from missing
  targets are left out of the report.
* Only the outermost call of a key counts: when ``plan_omnc`` calls
  ``plan_omnc_detailed`` (both ``protocols.plan``) one span is recorded.

Self time of a span is its duration minus the durations of its direct
child spans; a layer's self time sums the self time of its keys.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

CountHook = Callable[[Tuple[Any, ...], Any], Dict[str, float]]


@dataclass
class KeyStats:
    """Aggregate of the outermost spans of one key."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """In-memory span aggregation with self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, KeyStats] = {}
        self.counts: Dict[str, float] = {}
        # (ancestor key, key) -> seconds of ``key`` spans run inside an
        # ``ancestor`` span.
        self.inside: Dict[Tuple[str, str], float] = {}
        self.covered_s = 0.0  # time inside outermost (stack-bottom) spans
        # Open frames: [key, start, child seconds]; None marks a
        # re-entrant call of a key already open.
        self._stack: List[Optional[list]] = []
        self._open: set = set()

    def enter(self, key: str) -> None:
        """Open a span of ``key`` (re-entrant calls fold into the outer)."""
        if key in self._open:
            self._stack.append(None)
            return
        self._open.add(key)
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span."""
        frame = self._stack.pop()
        if frame is None:
            return
        key, started, child_s = frame
        duration = self.clock() - started
        self._open.discard(key)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = KeyStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        parent = None
        seen = set()
        for outer in reversed(self._stack):
            if outer is None:
                continue
            if parent is None:
                parent = outer
            if outer[0] not in seen:
                seen.add(outer[0])
                pair = (outer[0], key)
                self.inside[pair] = self.inside.get(pair, 0.0) + duration
        if parent is None:
            self.covered_s += duration
        else:
            parent[2] += duration

    def add_counts(self, increments: Dict[str, float]) -> None:
        """Accumulate named counts reported by a target's count hook."""
        for name, value in increments.items():
            self.counts[name] = self.counts.get(name, 0.0) + value

    def total(self, key: str) -> float:
        stats = self.stats.get(key)
        return stats.total_s if stats else 0.0

    def calls(self, key: str) -> int:
        stats = self.stats.get(key)
        return stats.calls if stats else 0

    def layer_self(self, layer: str) -> float:
        """Self seconds summed over every key of ``layer``."""
        prefix = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))


@dataclass(frozen=True)
class Target:
    """One wrap point: ``module``'s ``name`` feeds span ``key``."""

    key: str
    module: str
    name: str
    count: Optional[CountHook] = None


def _wrap(fn: Callable, key: str, recorder: SpanRecorder, count: Optional[CountHook]):
    enter, leave = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if count is not None:
            recorder.add_counts(count(args, result))
        return result

    return wrapper


class Installation:
    """Wrappers installed for one traced run; ``restore()`` undoes them."""

    def __init__(self) -> None:
        self.patched: List[Tuple[Any, str, Any]] = []  # (owner, attr, original)
        self.present: set = set()  # keys with at least one wrapped target
        self.missing: List[Target] = []

    def restore(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


def _import_sites(original: Callable) -> List[Tuple[Any, str]]:
    """Every (module, attribute) of a loaded repro module bound to ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


def install(targets: Sequence[Target], recorder: SpanRecorder) -> Installation:
    """Wrap every resolvable target; unresolvable ones land in ``missing``."""
    installation = Installation()
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            installation.missing.append(target)
            continue
        *owner_path, attr = target.name.split(".")
        owner: Any = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None:
            installation.missing.append(target)
            continue
        if owner_path:  # a method: patch the defining class only
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                installation.missing.append(target)
                continue
            sites = [(owner, attr)]
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                installation.missing.append(target)
                continue
            sites = _import_sites(original)
        wrapper = _wrap(original, target.key, recorder, target.count)
        for site, name in sites:
            installation.patched.append((site, name, original))
            setattr(site, name, wrapper)
        installation.present.add(target.key)
    return installation


def _runtime_visits(args: Tuple[Any, ...], _result: Any) -> Dict[str, float]:
    return {"emulator.runtime_visits": len(args[0].runtimes)}


def _iterations(args: Tuple[Any, ...], _result: Any) -> Dict[str, float]:
    return {"optimization.iterations": args[0].iteration}


def _targets(key: str, module: str, *names: str, count: Optional[CountHook] = None):
    return [Target(key, module, name, count) for name in names]


#: The public entry points of each layer that the traced run wraps.
TARGETS: Tuple[Target, ...] = tuple(
    _targets("exec.execute", "repro.exec.engine", "execute_jobs")
    + _targets("exec.job", "repro.experiments.common", "execute_session_job")
    + _targets("experiments.select", "repro.experiments.common", "pick_sessions")
    + _targets("experiments.select", "repro.experiments.fig6_multisession", "fig6_endpoints")
    + _targets("scenario.session", "repro.scenario.runner", "run_adaptive_session")
    + _targets(
        "protocols.plan", "repro.protocols.omnc",
        "plan_omnc", "plan_omnc_detailed", "plan_omnc_multi",
    )
    + _targets("protocols.plan", "repro.protocols.more", "plan_more")
    + _targets("protocols.plan", "repro.protocols.oldmore", "plan_oldmore")
    + _targets("protocols.plan", "repro.protocols.etx_routing", "plan_etx_route")
    + _targets("protocols.plan", "repro.protocols.intersession", "plan_intersession_pairs")
    + _targets(
        "protocols.plan", "repro.protocols.adaptive",
        "AdaptiveOmncPlanner.plan", "AdaptiveMorePlanner.plan",
        "AdaptiveOldMorePlanner.plan", "AdaptiveEtxPlanner.plan",
    )
    + _targets("routing.select", "repro.routing.node_selection", "select_forwarders")
    + _targets(
        "optimization.solve", "repro.optimization.rate_control",
        "RateControlAlgorithm.run", count=_iterations,
    )
    + _targets(
        "optimization.solve", "repro.optimization.multi_session",
        "MultiSessionRateControl.run", count=_iterations,
    )
    + _targets("optimization.replan_cost", "repro.optimization.replanning", "replan_cost")
    + _targets("topology.build", "repro.topology.random_network", "random_network")
    + _targets(
        "topology.dynamics", "repro.topology.dynamics",
        "perturb_link_qualities", "quality_drift",
    )
    + _targets(
        "emulator.session", "repro.emulator.session",
        "run_coded_session", "run_unicast_session",
    )
    + _targets("emulator.session", "repro.emulator.multisession", "run_multi_session")
    + _targets("emulator.run", "repro.emulator.engine", "EmulationEngine.run")
    + _targets("emulator.run", "repro.emulator.shard", "ShardedSession.run")
    + _targets(
        "emulator.step", "repro.emulator.engine", "EmulationEngine.step",
        count=_runtime_visits,
    )
    + _targets(
        "emulator.rebuild", "repro.emulator.engine",
        "EmulationEngine.advance_idle", "EmulationEngine.set_network",
        "EmulationEngine.rebuild_runtime_structures",
    )
    + _targets(
        "emulator.mac", "repro.emulator.scheduler",
        "IdealMacScheduler.schedule", "IdealMacScheduler.schedule_arrays",
        "IdealMacScheduler.grant_from_keyed",
    )
    + _targets(
        "emulator.channel", "repro.emulator.channel",
        "LossyBroadcastChannel.broadcast",
        "LossyBroadcastChannel.broadcast_prefiltered",
        "LossyBroadcastChannel.unicast",
    )
    + _targets(
        "coding.encode", "repro.coding.encoder",
        "SourceEncoder.next_packet", "SourceEncoder.next_packets",
    )
    + _targets(
        "coding.reencode", "repro.coding.encoder",
        "RelayReEncoder.accept", "RelayReEncoder.next_packet",
        "RelayReEncoder.next_packets",
    )
    + _targets("coding.finite_length", "repro.coding.finite_length", "optimal_blocks")
    + _targets(
        "coding.decode", "repro.coding.decoder",
        "ProgressiveDecoder.add_packet", "ProgressiveDecoder.add_packets",
        "ProgressiveDecoder.add_row", "ProgressiveDecoder.add_rows",
        "ProgressiveDecoder.decode",
    )
)

#: Span keys each per-layer metric is derived from; a metric is reported
#: only when at least one of its keys has a wrapped target.
_SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "emulator.run_s": ("emulator.run",),
    "emulator.self_s": ("emulator.run",),
    "emulator.us_per_slot": ("emulator.run",),
    "emulator.runtime_visits": ("emulator.step",),
    "emulator.visits_per_slot": ("emulator.step",),
    "emulator.mac_s": ("emulator.mac",),
    "emulator.mac_calls": ("emulator.mac",),
    "emulator.channel_s": ("emulator.channel",),
    "emulator.channel_calls": ("emulator.channel",),
    "coding.encode_s": ("coding.encode",),
    "coding.encode_calls": ("coding.encode",),
    "coding.reencode_s": ("coding.reencode",),
    "coding.reencode_calls": ("coding.reencode",),
    "coding.decode_s": ("coding.decode",),
    "coding.decode_calls": ("coding.decode",),
    "coding.mb_per_s": ("coding.encode", "coding.reencode", "coding.decode"),
    "optimization.solves": ("optimization.solve",),
    "optimization.solve_s": ("optimization.solve",),
    "optimization.iterations": ("optimization.solve",),
    "optimization.us_per_iteration": ("optimization.solve",),
    "protocols.plans": ("protocols.plan",),
    "protocols.plan_s": ("protocols.plan",),
    "routing.selects": ("routing.select",),
    "routing.select_s": ("routing.select",),
    "topology.build_s": ("topology.build",),
    "topology.dynamics_s": ("topology.dynamics",),
    "scenario.replan_share": ("scenario.session", "protocols.plan"),
    "exec.jobs": ("exec.job",),
    "exec.overhead_s": ("exec.execute", "exec.job"),
    "experiments.select_s": ("experiments.select",),
}

#: Units of every per-layer metric, in report order.
LAYER_UNITS: Dict[str, str] = {
    "emulator.slots": "count",
    "emulator.run_s": "s",
    "emulator.self_s": "s",
    "emulator.us_per_slot": "us",
    "emulator.runtime_visits": "count",
    "emulator.visits_per_slot": "count",
    "emulator.mac_s": "s",
    "emulator.mac_calls": "count",
    "emulator.channel_s": "s",
    "emulator.channel_calls": "count",
    "emulator.transmissions": "count",
    "emulator.deliveries": "count",
    "emulator.blanked": "count",
    "emulator.deliveries_per_tx": "ratio",
    "coding.encode_s": "s",
    "coding.encode_calls": "count",
    "coding.reencode_s": "s",
    "coding.reencode_calls": "count",
    "coding.decode_s": "s",
    "coding.decode_calls": "count",
    "coding.rows_eliminated": "count",
    "coding.bytes_processed": "B",
    "coding.mb_per_s": "MB/s",
    "coding.innovative_ratio": "ratio",
    "optimization.solves": "count",
    "optimization.solve_s": "s",
    "optimization.iterations": "count",
    "optimization.us_per_iteration": "us",
    "protocols.plans": "count",
    "protocols.plan_s": "s",
    "routing.selects": "count",
    "routing.select_s": "s",
    "topology.build_s": "s",
    "topology.dynamics_s": "s",
    "scenario.replans": "count",
    "scenario.failed_replans": "count",
    "scenario.stall_slots": "count",
    "scenario.replan_share": "ratio",
    "exec.jobs": "count",
    "exec.jobs_failed": "count",
    "exec.overhead_s": "s",
    "experiments.select_s": "s",
    "emulator.share": "ratio",
    "coding.share": "ratio",
    "optimization.share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "host.wall_s": "s",
    "host.probe_ms": "ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    present: set,
    counter: Callable[[str], float],
) -> Dict[str, float]:
    """Per-layer values from the spans and the ``repro.obs`` counters.

    ``present`` holds the span keys that had a wrapped target;
    ``counter(name)`` reads a counter of the traced run's registry.
    The ``trace.*`` and ``host.*`` entries are the caller's to add.
    """
    r = recorder
    slots = counter("emulator.slots")
    transmissions = counter("emulator.transmissions")
    coding_s = r.total("coding.encode") + r.total("coding.reencode") + r.total("coding.decode")
    innovative = counter("decoder.innovative")
    iterations = r.counts.get("optimization.iterations", 0.0)
    visits = r.counts.get("emulator.runtime_visits", 0.0)
    values = {
        "emulator.slots": slots,
        "emulator.run_s": r.total("emulator.run"),
        "emulator.self_s": r.layer_self("emulator"),
        "emulator.us_per_slot": 1e6 * _ratio(r.total("emulator.run"), slots),
        "emulator.runtime_visits": visits,
        "emulator.visits_per_slot": _ratio(visits, slots),
        "emulator.mac_s": r.total("emulator.mac"),
        "emulator.mac_calls": r.calls("emulator.mac"),
        "emulator.channel_s": r.total("emulator.channel"),
        "emulator.channel_calls": r.calls("emulator.channel"),
        "emulator.transmissions": transmissions,
        "emulator.deliveries": counter("emulator.deliveries"),
        "emulator.blanked": counter("emulator.blanked"),
        "emulator.deliveries_per_tx": _ratio(counter("emulator.deliveries"), transmissions),
        "coding.encode_s": r.total("coding.encode"),
        "coding.encode_calls": r.calls("coding.encode"),
        "coding.reencode_s": r.total("coding.reencode"),
        "coding.reencode_calls": r.calls("coding.reencode"),
        "coding.decode_s": r.total("coding.decode"),
        "coding.decode_calls": r.calls("coding.decode"),
        "coding.rows_eliminated": counter("decoder.rows_eliminated"),
        "coding.bytes_processed": counter("codec.bytes_processed"),
        "coding.mb_per_s": 1e-6 * _ratio(counter("codec.bytes_processed"), coding_s),
        "coding.innovative_ratio": _ratio(
            innovative, innovative + counter("decoder.redundant")
        ),
        "optimization.solves": r.calls("optimization.solve"),
        "optimization.solve_s": r.total("optimization.solve"),
        "optimization.iterations": iterations,
        "optimization.us_per_iteration": 1e6 * _ratio(r.total("optimization.solve"), iterations),
        "protocols.plans": r.calls("protocols.plan"),
        "protocols.plan_s": r.total("protocols.plan"),
        "routing.selects": r.calls("routing.select"),
        "routing.select_s": r.total("routing.select"),
        "topology.build_s": r.total("topology.build"),
        "topology.dynamics_s": r.total("topology.dynamics"),
        "scenario.replans": counter("scenario.replans"),
        "scenario.failed_replans": counter("scenario.failed_replans"),
        "scenario.stall_slots": counter("scenario.stall_slots"),
        "scenario.replan_share": _ratio(
            r.inside.get(("scenario.session", "protocols.plan"), 0.0),
            r.total("scenario.session"),
        ),
        "exec.jobs": r.calls("exec.job"),
        "exec.jobs_failed": counter("exec.jobs_failed"),
        "exec.overhead_s": r.total("exec.execute")
        - r.inside.get(("exec.execute", "exec.job"), 0.0),
        "experiments.select_s": r.total("experiments.select"),
    }
    return {
        name: float(value)
        for name, value in values.items()
        if all(key in present for key in _SPAN_METRICS.get(name, ()))
    }
