"""The benchmark's three workloads, built from a seed.

Each workload splits into

* ``setup(seed)`` — topology build and endpoint selection (timed as
  ``setup_s``), returning the generated inputs;
* ``units(inputs)`` — a list of short callables, each one campaign job,
  multi-session run or adaptive session (the measured phase);
* ``unit_digest(outcome)`` — a digest of one unit's outcome, which a
  re-run of the unit must reproduce;
* ``summarize(inputs, outcomes)`` — operation counts, delivered payload
  and a digest of everything the units produced.

Each workload runs on a fixed family of meshes and draws from the seed
what varies between runs (endpoint pairs, emulation random streams):
with seed-drawn meshes the mesh draw, not the program, set most of the
run-to-run spread of wall time and goodput.

The program is reached only through public entry points, looked up on
their modules at call time so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import obs
from repro.emulator import multisession as ms
from repro.emulator import session as emu_session
from repro.exec import engine as exec_engine
from repro.exec import job as exec_job
from repro.experiments import common
from repro.experiments import fig6_multisession as fig6
from repro.protocols import adaptive, intersession, omnc
from repro.scenario import controller, runner, spec
from repro.util.rng import RngFactory

#: GF(2^8) generation shape of the paper's Sec. 5 (n=40 x 1024 B).
BLOCKS = 40
BLOCK_SIZE = 1024


def _sha(parts: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _seeds(seed: int, label: str, count: int) -> List[int]:
    """``count`` input seeds of one workload, a pure function of ``seed``."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


@dataclass(frozen=True)
class PassSummary:
    """What one pass over a workload's units produced."""

    digest: str
    attempted: int  # session emulations attempted
    failed: int
    payload_bytes: float  # payload delivered end to end
    emulated_s: float  # emulated seconds, summed over emulations


def _delivered(result: Any) -> float:
    """Payload bytes a SessionResult delivered end to end."""
    return float(result.packets_delivered) * BLOCK_SIZE


class CampaignFlow:
    """Fig. 2-shaped campaign: four protocols per pair at flow fidelity.

    A fixed family of 120-node lossy meshes each offers a fixed list of
    candidate endpoint pairs (Fig. 2's 4-10 ETX hops); the seed draws
    which of them run.  Meshes differ enough in density and quality that
    seed-drawn meshes would let the mesh draw set the run-to-run spread.
    """

    name = "campaign_flow"
    ops_per_unit = 4  # ETX, OMNC, MORE, oldMORE: one emulation each
    mesh_seeds = tuple(range(1, 17))
    candidates_per_mesh = 18
    sessions_per_mesh = 8
    nodes = 120
    session_seconds = 30.0

    def setup(self, seed: int) -> List[Tuple[Any, List[Tuple[int, int, Any]]]]:
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for mesh_seed in self.mesh_seeds:
            config = common.CampaignConfig(
                node_count=self.nodes,
                sessions=self.candidates_per_mesh,
                session_seconds=self.session_seconds,
                target_generations=0,
                coding_fidelity="flow",
                seed=mesh_seed,
            )
            _rng, network = common.build_network(config)
            candidates = common.pick_sessions(config, network)
            chosen = sorted(rng.sample(range(len(candidates)), self.sessions_per_mesh))
            inputs.append((config, [candidates[index] for index in chosen]))
        return inputs

    def input_digest(self, inputs: Any) -> str:
        return _sha(
            [repr((c.seed, [(s, d) for s, d, _ in pairs])) for c, pairs in inputs]
        )

    def units(self, inputs: Any, traced: bool) -> List[Callable[[], Any]]:
        policy = exec_engine.ExecutionPolicy(jobs=1)
        units: List[Callable[[], Any]] = []
        for config, pairs in inputs:
            for spec_ in common.campaign_jobs(config, pairs, collect_metrics=traced):
                units.append(
                    lambda spec_=spec_: exec_engine.execute_jobs([spec_], policy)[0]
                )
        return units

    def unit_digest(self, outcome: Any) -> str:
        if not isinstance(outcome, exec_job.JobResult):
            return f"failed: {outcome.error}"
        records = [outcome.value.record]
        return common.CampaignResult(config=None, network=None, records=records).digest()

    def summarize(self, inputs: Any, outcomes: Sequence[Any]) -> PassSummary:
        registry = obs.get_registry()
        digests, payload, emulated, failed = [], 0.0, 0.0, 0
        position = 0
        for config, pairs in inputs:
            records = []
            for outcome in outcomes[position:position + len(pairs)]:
                if not isinstance(outcome, exec_job.JobResult):
                    failed += self.ops_per_unit
                    continue
                output = outcome.value
                if output.metrics is not None and registry.enabled:
                    registry.merge_snapshot(output.metrics)
                records.append(output.record)
                for result in output.record.results.values():
                    payload += _delivered(result)
                    emulated += result.duration
            position += len(pairs)
            campaign = common.CampaignResult(
                config=config, network=None, records=records
            )
            digests.append(campaign.digest())
        return PassSummary(
            digest=_sha(digests),
            attempted=self.ops_per_unit * len(outcomes),
            failed=failed,
            payload_bytes=payload,
            emulated_s=emulated,
        )


class MultisessionExact:
    """Four opposing OMNC sessions per run, joint planning, XOR relays,
    exact GF(2^8) coding.

    The runs share a fixed family of Fig. 6-shaped reference meshes; the
    seed draws every run's emulation seed.  Four sessions on one small
    mesh make a run's goodput swing several-fold from mesh to mesh, so
    seed-drawn meshes would let the topology draw, not the program, set
    the run-to-run spread.
    """

    name = "multisession_exact"
    ops_per_unit = 4  # concurrent sessions per run
    mesh_seeds = tuple(range(1, 13))
    runs_per_mesh = 3
    seconds = 60.0

    def setup(self, seed: int) -> List[Tuple[int, Any, Tuple[Tuple[int, int], ...]]]:
        run_seeds = iter(_seeds(seed, self.name, len(self.mesh_seeds) * self.runs_per_mesh))
        inputs = []
        for mesh_seed in self.mesh_seeds:
            network = fig6.fig6_network(fig6.Fig6Config(topology_seed=mesh_seed))
            endpoints = fig6.fig6_endpoints(network, self.ops_per_unit, layout="opposing")
            for _ in range(self.runs_per_mesh):
                inputs.append((next(run_seeds), network, endpoints))
        return inputs

    def input_digest(self, inputs: Any) -> str:
        return _sha([repr((s, e)) for s, _network, e in inputs])

    def _run(self, run_seed: int, network: Any, endpoints: Any) -> Any:
        chosen = {sid: endpoints[sid - 1] for sid in range(1, self.ops_per_unit + 1)}
        plans = dict(omnc.plan_omnc_multi(network, chosen).plans)
        return ms.run_multi_session(
            network,
            plans,
            config=emu_session.SessionConfig(
                max_seconds=self.seconds,
                blocks=BLOCKS,
                block_size=BLOCK_SIZE,
                coding_fidelity="exact",
            ),
            rng=RngFactory(run_seed).spawn("multisession"),
            xor_pairs=intersession.plan_intersession_pairs(plans),
            protocol_label="omnc",
        )

    def units(self, inputs: Any, traced: bool) -> List[Callable[[], Any]]:
        return [
            lambda args=args: self._run(*args) for args in inputs
        ]

    def unit_digest(self, outcome: Any) -> str:
        return ms.multi_session_digest(outcome)

    def summarize(self, inputs: Any, outcomes: Sequence[Any]) -> PassSummary:
        payload = sum(
            _delivered(r) for outcome in outcomes for r in outcome.sessions.values()
        )
        return PassSummary(
            digest=_sha([ms.multi_session_digest(o) for o in outcomes]),
            attempted=sum(len(o.sessions) for o in outcomes),
            failed=0,
            payload_bytes=payload,
            emulated_s=sum(o.duration for o in outcomes),
        )


class AdaptiveDrift:
    """Adaptive OMNC sessions under the built-in ``drift`` scenario.

    Sessions run on a fixed family of 80-node lossy meshes and endpoint
    pairs; the seed draws every session's random streams (the drift
    noise, MAC and channel).  A session's goodput varies about as much
    as its mean from pair to pair, so seed-drawn meshes would let the
    pair draw set the run-to-run spread.
    """

    name = "adaptive_drift"
    ops_per_unit = 1
    mesh_seeds = tuple(range(1, 13))
    sessions_per_mesh = 7
    nodes = 80
    min_hops = 3
    max_hops = 6
    duration = 80.0
    epoch_seconds = 10.0
    policies = ("periodic:2", "drift:0.02")

    def setup(self, seed: int) -> List[Tuple[Any, int, int, str, int]]:
        session_seeds = iter(
            _seeds(seed, self.name, len(self.mesh_seeds) * self.sessions_per_mesh)
        )
        inputs = []
        for mesh_seed in self.mesh_seeds:
            config = common.CampaignConfig(
                node_count=self.nodes,
                sessions=self.sessions_per_mesh,
                min_hops=self.min_hops,
                max_hops=self.max_hops,
                seed=mesh_seed,
            )
            _rng, network = common.build_network(config)
            for index, (source, destination, _plan) in enumerate(
                common.pick_sessions(config, network)
            ):
                policy = self.policies[index % len(self.policies)]
                inputs.append((network, source, destination, policy, next(session_seeds)))
        return inputs

    def input_digest(self, inputs: Any) -> str:
        return _sha([repr(args[1:]) for args in inputs])

    def _run(
        self, network: Any, source: int, destination: int, policy: str, session_seed: int
    ) -> Any:
        return runner.run_adaptive_session(
            network,
            adaptive.make_planner("omnc", source, destination),
            controller.make_policy(policy),
            spec.builtin_scenario(
                "drift", duration=self.duration, epoch_seconds=self.epoch_seconds
            ),
            config=emu_session.SessionConfig(max_seconds=self.duration),
            rng=RngFactory(session_seed),
            coding_controller=adaptive.make_coding_controller("adaptive", blocks=BLOCKS),
        )

    def units(self, inputs: Any, traced: bool) -> List[Callable[[], Any]]:
        return [lambda args=args: self._run(*args) for args in inputs]

    @staticmethod
    def unit_digest(result: Any) -> str:
        session = result.session
        return _sha([repr((
            session.source, session.destination, session.throughput_bps,
            session.packets_delivered, session.generations_decoded,
            session.ack_times, result.replans, result.failed_replans,
            result.replan_seconds, result.replan_times, result.planner_iterations,
        ))])

    def summarize(self, inputs: Any, outcomes: Sequence[Any]) -> PassSummary:
        return PassSummary(
            digest=_sha([self.unit_digest(o) for o in outcomes]),
            attempted=len(outcomes),
            failed=0,
            payload_bytes=sum(_delivered(o.session) for o in outcomes),
            emulated_s=sum(o.session.duration for o in outcomes),
        )


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (CampaignFlow(), MultisessionExact(), AdaptiveDrift())
}
