"""Resilient numeric xPic: checkpoint/restart of the real physics.

:func:`run_resilient` runs the *numeric* simulation: actual physics
state (particles, fields, moments) is captured into SCR buddy
checkpoints at its true byte size, a node failure wipes the in-memory
state, and the run resumes from the restored payload — on a spare node
— producing *bit-identical* physics to an uninterrupted run.  The
*modeled* partitioned drivers run under fault injection through
:mod:`.supervisor` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...hardware.machine import Machine
from ...mpi.datatypes import payload_nbytes
from ...perfmodel import field_kernel, particle_kernel, time_on_node
from ...resiliency import SCR, CheckpointLevel
from .config import XpicConfig
from .simulation import XpicSimulation

__all__ = [
    "capture_state",
    "restore_state",
    "run_resilient",
    "ResilientRunResult",
]


def capture_state(sim: XpicSimulation) -> Dict:
    """Snapshot everything needed to restart the simulation."""
    return {
        "step_count": sim.step_count,
        "E": sim.fields.E.copy(),
        "B": sim.fields.B.copy(),
        "E_theta": sim.fields.E_theta.copy(),
        "rho": sim.rho.copy(),
        "J": sim.J.copy(),
        "species": [
            {"x": sp.x.copy(), "y": sp.y.copy(), "v": sp.v.copy(),
             "weight": sp.weight}
            for sp in sim.species
        ],
    }


def restore_state(sim: XpicSimulation, state: Dict) -> None:
    """Load a captured snapshot back into a (fresh) simulation."""
    sim.step_count = state["step_count"]
    sim.fields.E = state["E"].copy()
    sim.fields.B = state["B"].copy()
    sim.fields.E_theta = state["E_theta"].copy()
    sim.rho = state["rho"].copy()
    sim.J = state["J"].copy()
    if len(state["species"]) != len(sim.species):
        raise ValueError("species mismatch between snapshot and simulation")
    for sp, saved in zip(sim.species, state["species"]):
        sp.x = saved["x"].copy()
        sp.y = saved["y"].copy()
        sp.v = saved["v"].copy()
        sp.weight = saved["weight"]


@dataclass
class ResilientRunResult:
    """Outcome of a resilient run."""

    fingerprint: Dict[str, float]
    steps_completed: int
    checkpoints_written: int
    failed: bool
    restarted_from_step: Optional[int]
    wall_time_s: float
    checkpoint_nbytes: int


def run_resilient(
    machine: Machine,
    config: XpicConfig,
    ckpt_every: int = 5,
    fail_at_step: Optional[int] = None,
) -> ResilientRunResult:
    """Run the numeric simulation with SCR buddy checkpointing.

    The physics executes for real; per-step wall time is charged from
    the kernel cost model on the executing Booster node.  If
    ``fail_at_step`` is set, the node dies right after that step: the
    run restarts on a spare node from the newest buddy checkpoint and
    continues to completion.
    """
    if ckpt_every < 1:
        raise ValueError("ckpt_every must be >= 1")
    if fail_at_step is not None and not 0 < fail_at_step < config.steps:
        raise ValueError("fail_at_step must fall inside the run")
    nodes = machine.booster[:2]  # rank 0 + its buddy
    spare = machine.booster[2]
    scr = SCR(machine.sim, nodes, machine.fabric)
    sim_app = XpicSimulation(config)
    step_cost = time_on_node(
        nodes[0], particle_kernel(config.total_particles)
    ) + time_on_node(nodes[0], field_kernel(config.cells))
    state = {
        "failed": False,
        "restart_step": None,
        "ckpts": 0,
        "nbytes": 0,
    }

    def job(sim):
        nonlocal sim_app
        step = 0
        while step < config.steps:
            yield sim.timeout(step_cost)
            sim_app.step()
            step += 1
            if step % ckpt_every == 0:
                payload = capture_state(sim_app)
                nbytes = payload_nbytes(payload)
                state["nbytes"] = nbytes
                yield from scr.checkpoint(
                    0, step=step, nbytes=nbytes,
                    level=CheckpointLevel.BUDDY, payload=payload,
                )
                state["ckpts"] += 1
            if fail_at_step is not None and step == fail_at_step and not state["failed"]:
                # the node dies: in-memory state and local NVMe gone
                nodes[0].fail()
                state["failed"] = True
                sim_app = XpicSimulation(config)  # cold process on spare
                restart_step = scr.latest_restartable_step([0])
                if restart_step is None:
                    raise RuntimeError("failure before the first checkpoint")
                yield from scr.restart(0, step=restart_step, onto=spare)
                restore_state(sim_app, scr.last_restored_payload)
                scr.replace_node(0, spare)
                state["restart_step"] = restart_step
                step = restart_step

        return sim_app.state_fingerprint()

    t0 = machine.sim.now
    fp = machine.sim.run_process(job(machine.sim))
    return ResilientRunResult(
        fingerprint=fp,
        steps_completed=config.steps,
        checkpoints_written=state["ckpts"],
        failed=state["failed"],
        restarted_from_step=state["restart_step"],
        wall_time_s=machine.sim.now - t0,
        checkpoint_nbytes=state["nbytes"],
    )
