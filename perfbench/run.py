"""End-to-end benchmark of the OMNC reproduction.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload campaign_flow --seed 1 --seconds 25 --trace 0

Workloads (see ``bench_workloads.py``): ``campaign_flow``,
``multisession_exact`` and ``adaptive_drift``.  Everything runs serially
in this process (``jobs=1``, no shards).

With ``--trace 0`` the run

1. times the set-up (interpreter start, imports, topology build and
   endpoint selection) in fresh child processes and reports their
   median as ``setup_s``, scaled to the reference host speed by
   ``REFERENCE_PROBE_MS`` over the run's mean probe time (host speed
   drifts over minutes, and raw set-up medians of whole sets of runs
   moved with it by up to 23%);
2. runs every unit of the workload once, then re-runs units from the
   first one until ``--seconds`` have elapsed (at least two re-runs),
   timing the probe between consecutive units.  ``wall_norm`` sums each
   unit's median of wall time over the mean of its two neighbouring
   probe times; the raw host seconds are printed as ``wall_s``;
3. checks that every operation completed and that every re-run
   reproduced its unit's digest, and reports ``goodput_Bps``,
   ``peak_rss_mb`` and ``completed_frac`` (1 - ``failed_frac``).

With ``--trace 1`` it runs every unit once untraced, then once more with
the layer wrappers of ``bench_trace.py`` and the ``repro.obs`` registry
on, checks that both produce the same digest and that each layer the
workload exercises fired, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the checkout
holds no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables that would change what the program computes.
CLEARED_ENV = ("OMNC_GF_BACKEND", "OMNC_FULL_SCALE")

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Probe time that defines the reference host speed of ``setup_s``.
REFERENCE_PROBE_MS = 5.0

#: End-to-end metric units, in report order.
END_TO_END_UNITS = {
    "wall_norm": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_Bps": "B/s",
    "completed_frac": "ratio",
}

#: Span keys each workload must exercise in the traced run.
EXPECTED_SPANS = {
    "campaign_flow": (
        "exec.execute", "exec.job", "experiments.select", "topology.build",
        "protocols.plan", "routing.select", "optimization.solve",
        "emulator.session", "emulator.run", "emulator.step", "emulator.mac",
        "emulator.channel",
    ),
    "multisession_exact": (
        "experiments.select", "topology.build", "protocols.plan",
        "routing.select", "optimization.solve", "emulator.session",
        "emulator.run", "emulator.step", "emulator.mac", "emulator.channel",
        "coding.encode", "coding.reencode", "coding.decode",
    ),
    "adaptive_drift": (
        "experiments.select", "topology.build", "scenario.session",
        "protocols.plan", "routing.select", "optimization.solve",
        "topology.dynamics", "emulator.run", "emulator.step", "emulator.mac",
        "emulator.channel",
    ),
}

#: Layers whose self time is reported as a share of the traced wall time.
SHARE_LAYERS = ("emulator", "coding", "optimization")

#: Span keys that must never fire on a workload (flow fidelity codes nothing).
FORBIDDEN_SPANS = {
    "campaign_flow": ("coding.encode", "coding.reencode", "coding.decode"),
}


def _parse(argv: List[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's inputs, print their digest and exit "
        "(the child process behind setup_s)",
    )
    return parser.parse_args(argv)


class Failure(Exception):
    """A correctness check failed."""


def time_setup(workload: str, seed: int) -> Tuple[float, str]:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload, "--seed", str(seed),
    ]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=120)
    if code != 0:
        raise Failure(f"set-up child exited with {code}")
    return elapsed, line


@dataclass
class Measured:
    """Per-unit samples of one measured phase."""

    walls: List[List[float]]  # per unit: wall seconds of each execution
    norms: List[List[float]]  # per unit: wall / neighbouring probe time
    summary: Any  # the workload's PassSummary of the first executions
    repeats: int  # executions beyond the first pass
    mismatches: int  # repeats whose digest differed from the first run

    def total(self, per_unit: List[List[float]]) -> float:
        """Sum over units of each unit's median sample."""
        return sum(statistics.median(samples) for samples in per_unit)


def run_units(
    workload: Any, inputs: Any, units: List[Any], probe: Any,
    budget_s: float = 0.0, min_repeats: int = 0,
) -> Measured:
    """Run every unit once, then cycle from the first unit again until
    ``budget_s`` has elapsed (and at least ``min_repeats`` re-runs).

    The probe is timed between consecutive units; a unit's normalised
    cost is its wall time over the mean of the probes either side.  A
    re-run must reproduce its unit's digest.
    """
    count = len(units)
    walls: List[List[float]] = [[] for _ in units]
    norms: List[List[float]] = [[] for _ in units]
    outcomes: List[Any] = [None] * count
    digests: List[str] = [""] * count
    mismatches = 0
    executed = 0
    started = time.perf_counter()
    before = probe.sample()
    while executed < count + min_repeats or time.perf_counter() - started < budget_s:
        index = executed % count
        began = time.perf_counter()
        try:
            outcome = units[index]()
        except Exception as error:  # a failed operation fails the run
            raise Failure(
                f"{workload.name}: unit {index} raised {type(error).__name__}: {error}"
            ) from error
        wall = time.perf_counter() - began
        after = probe.sample()
        walls[index].append(wall)
        norms[index].append(wall / (0.5 * (before + after)))
        before = after
        digest = workload.unit_digest(outcome)
        if executed < count:
            outcomes[index], digests[index] = outcome, digest
        elif digest != digests[index]:
            mismatches += 1
        executed += 1
    return Measured(
        walls=walls,
        norms=norms,
        summary=workload.summarize(inputs, outcomes),
        repeats=executed - count,
        mismatches=mismatches,
    )


def _emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]):
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def measure(args: argparse.Namespace, workload: Any, inputs: Any, digest: str) -> int:
    """The untraced run: end-to-end metrics."""
    from bench_probe import HostProbe

    setup_times = []
    for _ in range(SETUP_SAMPLES):
        elapsed, child_digest = time_setup(workload.name, args.seed)
        if child_digest != digest:
            raise Failure("set-up child generated different inputs for the same seed")
        setup_times.append(elapsed)

    probe = HostProbe()
    units = workload.units(inputs, traced=False)
    run = run_units(workload, inputs, units, probe, budget_s=args.seconds, min_repeats=2)
    summary = run.summary
    attempted = summary.attempted + run.repeats * workload.ops_per_unit
    failed = summary.failed
    metrics = {
        "wall_norm": run.total(run.norms),
        "setup_s": statistics.median(setup_times) * REFERENCE_PROBE_MS / probe.mean_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "goodput_Bps": summary.payload_bytes / summary.emulated_s,
        "completed_frac": 1.0 - failed / attempted,
    }
    print(
        f"{workload.name} seed {args.seed}: {len(units)} units + {run.repeats} "
        f"re-runs; codec backend {_backend()}"
    )
    print(f"  host seconds: wall_s {run.total(run.walls):.4f}, set-up "
          f"{statistics.median(setup_times):.4f}; host.probe_ms {probe.mean_ms():.3f}")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if run.mismatches:
        problems.append(f"{run.mismatches} re-runs changed their unit's digest")
    if summary.payload_bytes <= 0:
        problems.append("no payload was delivered")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    _emit(
        not problems, attempted, failed,
        {n: (metrics[n], END_TO_END_UNITS[n]) for n in END_TO_END_UNITS},
    )
    return 1 if problems else 0


def trace(args: argparse.Namespace, workload: Any, inputs: Any, digest: str) -> int:
    """The traced run: per-layer metrics."""
    from bench_probe import HostProbe
    from bench_trace import LAYER_UNITS, TARGETS, SpanRecorder, install, layer_metrics

    from repro import obs

    probe = HostProbe()
    plain = run_units(workload, inputs, workload.units(inputs, traced=False), probe)
    recorder = SpanRecorder()
    registry = obs.enable(obs.MetricsRegistry())
    installation = install(TARGETS, recorder)
    try:
        traced_inputs = workload.setup(args.seed)
        traced_digest = workload.input_digest(traced_inputs)
        covered_before = recorder.covered_s
        self_before = {layer: recorder.layer_self(layer) for layer in SHARE_LAYERS}
        traced = run_units(
            workload, traced_inputs, workload.units(traced_inputs, traced=True), probe
        )
    finally:
        installation.restore()
        obs.disable()
    covered = recorder.covered_s - covered_before

    def counter(name: str) -> float:
        return float(registry.value(name) or 0.0)

    values = layer_metrics(recorder, installation.present, counter)
    traced_wall = traced.total(traced.walls)
    for layer in SHARE_LAYERS:
        if any(key.startswith(layer + ".") for key in installation.present):
            values[f"{layer}.share"] = (
                recorder.layer_self(layer) - self_before[layer]
            ) / traced_wall
    values["trace.coverage"] = covered / traced_wall
    values["trace.overhead"] = traced.total(traced.norms) / plain.total(plain.norms)
    values["host.wall_s"] = plain.total(plain.walls)
    values["host.probe_ms"] = probe.mean_ms()

    problems = []
    if traced_digest != digest:
        problems.append("traced set-up generated different inputs")
    if plain.summary.digest != traced.summary.digest:
        problems.append("traced and untraced passes produced different digests")
    failed = plain.summary.failed + traced.summary.failed
    if failed:
        problems.append(f"{failed} operations failed")
    for key in EXPECTED_SPANS[workload.name]:
        if key in installation.present and recorder.calls(key) == 0:
            problems.append(f"expected span {key} never fired")
    for key in FORBIDDEN_SPANS.get(workload.name, ()):
        if recorder.calls(key):
            problems.append(f"span {key} fired {recorder.calls(key)} times")
    if workload.name in FORBIDDEN_SPANS and counter("codec.bytes_processed"):
        problems.append("the codec processed bytes on a flow-fidelity workload")
    for target in installation.missing:
        print(f"perfbench: {target.module}.{target.name} is gone; "
              f"metrics of {target.key} reported absent", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: traced pass of {len(traced.walls)} units; "
          f"backend {_backend()}")
    _emit(
        not problems,
        plain.summary.attempted + traced.summary.attempted,
        failed,
        {n: (values[n], u) for n, u in LAYER_UNITS.items() if n in values},
    )
    return 1 if problems else 0


def _backend() -> str:
    from repro.coding import backends

    return backends.active_backend_name()


def main(argv: List[str] | None = None) -> int:
    args = _parse(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.setup(args.seed)
    digest = workload.input_digest(inputs)
    if args.setup_only:
        print(digest, flush=True)
        return 0
    try:
        return (trace if args.trace else measure)(args, workload, inputs, digest)
    except Failure as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
