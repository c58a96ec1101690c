"""The modeled-xPic supervisor: crash/recovery epochs under fault injection.

:func:`run_supervised_experiment` drives the partitioned xPic ranks of
:mod:`.driver` through *epochs*, after DEEP-ER's SCR multi-level
checkpoint/restart with a job that survives node loss
(arXiv:1904.07725).  A :class:`~repro.resiliency.inject.FaultInjector`
replays a fault plan or streams Poisson node crashes at a system MTBF;
a crash of a job node aborts every rank (ParaStation-style global job
abort); the supervisor charges the work lost since the newest step
every rank can restore, hands the job to its :class:`RecoveryPolicy`,
and relaunches the remaining steps where the policy says.  Two policies
exist:

* :class:`HealOrDegrade` — the static script: swap spares in (or reboot
  dead nodes) under the same SCR manager, and degrade a C+B job to a
  homogeneous Cluster run when its Booster side is unreachable;
* :class:`Retune` — online malleability: re-tune the partition over the
  surviving machine (:func:`repro.resiliency.malleable.retune`) and
  re-slice the checkpoint at the new width into a new SCR manager.

With no fault the first epoch completes and the run is event-identical
to :func:`~.driver.run_experiment` plus any checkpoint rounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ...hardware.machine import Machine
from ...io.beegfs import BeeGFS
from ...mpi import FaultTolerancePolicy, MPIRuntime
from ...mpi.errors import TransportError
from ...nam.device import NAMDevice
from ...network.fabric import NodeFailedError, NoRouteError
from ...partition import Partition
from ...perfmodel.calibration import PARTICLE_STATE_BYTES
from ...resiliency import SCR, FaultInjector, FaultPlan, optimal_interval
from ...resiliency.malleable import MalleabilityPolicy, retune
from ...sim import Interrupt
from ...sim.events import AllOf
from .config import XpicConfig
from .driver import Layout, aggregate, launch_app, place
from .workload import build_workload

__all__ = [
    "HealOrDegrade",
    "RecoveryPolicy",
    "ResilienceHooks",
    "Retune",
    "SupervisedJob",
    "run_supervised_experiment",
]

#: a rank hitting any of these mid-epoch is a *recoverable* job abort
ABORT_EXCEPTIONS = (
    Interrupt,
    TransportError,
    NodeFailedError,
    nx.exception.NetworkXNoPath,
)

#: transport fault tolerance of a supervised run built without a runtime
TRANSPORT_POLICY = FaultTolerancePolicy(max_retries=2, backoff_base_s=1e-4)

#: epochs a job may take before the supervisor gives up on it
MAX_EPOCHS = 200


class ResilienceHooks:
    """Per-epoch glue between the modeled drivers and the SCR manager.

    Handed to the :mod:`.driver` apps as their ``resil`` argument: it
    tells each rank where to resume (``start_step``), decides — once
    per step, for all ranks consistently — whether the Young/Daly
    cadence calls for a checkpoint, and wraps rank generators so that
    faults turn into collectable abort markers instead of simulator
    crashes.  With no checkpoint interval configured,
    :meth:`maybe_checkpoint` yields nothing at all.
    """

    def __init__(self, scr: SCR, start_step: int, ckpt_nbytes: int):
        self.scr = scr
        self.start_step = start_step
        self.ckpt_nbytes = ckpt_nbytes
        #: step -> whether that step ends with a checkpoint (the first
        #: rank to reach the step decides for everyone, so checkpoint
        #: sets stay aligned across ranks)
        self._decisions: Dict[int, bool] = {}
        #: step -> slowest rank's checkpoint duration (job-level cost)
        self.round_costs: Dict[int, float] = {}
        #: sim times at which wrapped ranks aborted
        self.abort_times: List[float] = []

    def maybe_checkpoint(self, ctx, step: int):
        """Checkpoint this rank at the end of ``step`` if it is time."""
        if self.scr.checkpoint_interval_s is None:
            return
        decision = self._decisions.get(step)
        if decision is None:
            decision = self.scr.need_checkpoint()
            self._decisions[step] = decision
        if not decision:
            return
        rank = ctx.world.rank
        t0 = ctx.sim.now
        yield from self.scr.checkpoint(
            rank, step=step + 1, nbytes=self.ckpt_nbytes
        )
        cost = ctx.sim.now - t0
        self.round_costs[step + 1] = max(
            self.round_costs.get(step + 1, 0.0), cost
        )

    def wrap(self, app_fn):
        """Fail-soft wrapper: returns ``("ok", result)`` or
        ``("aborted", exception)`` instead of crashing the simulator."""

        def wrapped(ctx):
            try:
                result = yield from app_fn(ctx)
            except ABORT_EXCEPTIONS as exc:
                self.abort_times.append(ctx.sim.now)
                # without its traceback: the frames would hold the
                # machine in a reference cycle until a full gc pass
                return ("aborted", exc.with_traceback(None))
            return ("ok", result)

        return wrapped


def _ckpt_cost_s(scr: SCR, nbytes: int) -> float:
    """Analytic cost of one buddy checkpoint (feeds Young/Daly)."""
    node = scr.nodes[0]
    cost = node.nvme.write_time(nbytes) if node.nvme else nbytes / 1e9
    if len(scr.nodes) > 1:
        buddy = scr.nodes[1]
        cost += scr.fabric.transfer_time(
            node.node_id, buddy.node_id, nbytes
        )
        if buddy.nvme:
            cost += buddy.nvme.write_time(nbytes)
    return cost


def _drain(sim, rt, injector) -> None:
    """Run the event loop to quiescence, absorbing transport failures.

    Library helper processes (e.g. the collective isends a communicator
    spawns internally) are not registered with the runtime, so when a
    node crash kills their transfer mid-flight the failure escapes
    ``sim.run`` instead of reaching a supervised rank.  The epoch is
    lost either way: absorb the failure, abort any ranks still live,
    and keep draining until the queue is quiet.
    """
    while True:
        try:
            sim.run()
            return
        except ABORT_EXCEPTIONS:
            injector.stop()
            for p in rt.live_processes():
                p.interrupt(cause="epoch aborted")


class SupervisedJob:
    """What one supervised run carries across its epochs.

    The recovery policies read and update it: the current ``layout``
    and its workload, the current ``scr`` manager (every one the run
    created stays in ``scrs`` for the report), the node ids whose crash
    aborts the job (``fault_scope``), and the recovery counters.
    """

    def __init__(self, machine: Machine, config: XpicConfig, layout: Layout,
                 load_balanced: bool, imbalance_alpha: Optional[float]):
        self.machine = machine
        self.sim = machine.sim
        self.config = config
        self._knobs = (load_balanced, imbalance_alpha)
        self.ckpt_interval_s: Optional[float] = None
        self.scrs: List[SCR] = []
        self.use(layout)
        self.scr = self.new_scr()
        #: the nodes the first SCR manager was set up over: never spares
        self.home_nodes = list(self.scr.nodes)
        self.fault_scope: set = set()
        self.injector: Optional[FaultInjector] = None
        self.stats = {
            "restarts": 0,
            "reboots": 0,
            "node_replacements": 0,
            "lost_work_s": 0.0,
            "restart_costs": [],
            "restored_steps": [],
            "degraded_mode": False,
        }
        #: the re-tune's event log and survivor-signature memo
        self.repartitions: List[dict] = []
        self.retune_memo: Dict[tuple, tuple] = {}
        self.retune_memo_hits = 0

    def use(self, layout: Layout) -> None:
        """Make ``layout`` the job's layout, with its workload and
        per-rank restart state (particle state + field/moment arrays)."""
        self.layout = layout
        self.wl = build_workload(self.config, layout.ranks, *self._knobs)
        self.ckpt_nbytes = int(
            self.wl.particles_per_rank * PARTICLE_STATE_BYTES
            + self.wl.io_snapshot_nbytes
        )

    def new_scr(self) -> SCR:
        """An SCR manager over the layout's launch nodes, plus a buddy
        spare of the same kind for a one-node job."""
        lay = self.layout
        nodes = list(lay.primary)
        if len(nodes) == 1:
            buddy = next(
                (
                    nd
                    for nd in self.machine.nodes_of_kind(nodes[0].kind)
                    if nd not in nodes and nd not in lay.spawn
                    and not nd.failed
                ),
                None,
            )
            if buddy is not None:
                nodes.append(buddy)
        machine = self.machine
        fs = BeeGFS(machine) if machine.storage else None
        nam = NAMDevice(machine, machine.nams[0]) if machine.nams else None
        scr = SCR(self.sim, nodes, machine.fabric, fs=fs, nam=nam,
                  checkpoint_interval_s=self.ckpt_interval_s)
        self.scrs.append(scr)
        return scr

    def settle(self, gens, what: str) -> None:
        """Run the generators as processes to quiescence; all must
        succeed."""
        procs = [self.sim.process(g) for g in gens]
        self.sim.run()
        for p in procs:
            if not p.triggered or not p.ok:
                raise RuntimeError(f"checkpoint {what} failed")

    def follow(self, layout: Layout) -> None:
        """Point the fault domain at ``layout``: its crashes abort the
        job and the injector's MTBF stream targets its launch nodes."""
        self.fault_scope.clear()
        self.fault_scope.update(
            nd.node_id for nd in layout.primary + layout.spawn
        )
        self.injector.targets = [nd.node_id for nd in layout.primary]


class RecoveryPolicy:
    """How the supervisor resumes a job after an aborted epoch."""

    def recover(self, job: SupervisedJob, restart_step: Optional[int],
                abort_time: float, epoch: int) -> Tuple[Layout, SCR]:
        """Decide where the job resumes and read checkpoint
        ``restart_step`` back there (``None``: no common checkpoint,
        start over); return the next epoch's layout and SCR manager.

        Runs between epochs, once the lost work of the aborted epoch
        (number ``epoch``, aborted at ``abort_time``) is charged.
        """
        raise NotImplementedError

    def report(self, job: SupervisedJob, initial: Partition,
               resiliency: dict) -> dict:
        """The policy's section of the run report (``{}``: none)."""
        return {}


def _reachable(machine: Machine, lay: Layout) -> bool:
    try:
        machine.fabric.directed_route(
            lay.spawn[0].node_id, lay.primary[0].node_id
        )
    except NoRouteError:
        return False
    return True


@dataclass(frozen=True)
class HealOrDegrade(RecoveryPolicy):
    """The static script: heal the layout in place, same SCR manager.

    Every dead node gets a healthy spare of its kind from outside the
    job, or — with ``allow_reboot`` — is rebooted (its NVMe contents
    stay lost).  A C+B job whose Booster side cannot be healed, or can
    no longer be reached, degrades to a homogeneous Cluster run on its
    field-solver nodes.  The fault domain stays the original allocation.
    Nested layouts are out of scope: they need :class:`Retune`.
    """

    allow_reboot: bool = True

    def _heal(self, job: SupervisedJob, nodes: List,
              scr: Optional[SCR] = None) -> bool:
        """Heal dead nodes of one side's list in place (re-homing SCR
        ranks when ``scr`` is given); False if impossible."""
        lay = job.layout
        for rank, node in enumerate(nodes):
            if not node.failed:
                continue
            spare = next(
                (
                    nd
                    for nd in job.machine.nodes_of_kind(node.kind)
                    if not nd.failed
                    and nd not in lay.primary
                    and nd not in lay.spawn
                    and nd not in job.home_nodes
                ),
                None,
            )
            if spare is not None:
                nodes[rank] = spare
                if scr is not None:
                    scr.replace_node(rank, spare)
                job.stats["node_replacements"] += 1
            elif self.allow_reboot:
                job.machine.fabric.restore_node(node.node_id)
                job.stats["reboots"] += 1
            else:
                return False
        return True

    def recover(self, job, restart_step, abort_time, epoch):
        lay, scr = job.layout, job.scr
        if lay.partition.is_nested:
            raise ValueError(
                f"{lay.partition.label()!r} is nested: only the Retune "
                "policy recovers nested layouts"
            )
        healed = self._heal(job, lay.primary, scr)
        if lay.spawn:
            healed = self._heal(job, lay.spawn) and healed
        if lay.spawn and (not healed or not _reachable(job.machine, lay)):
            job.stats["degraded_mode"] = True
            if not self._heal(job, lay.spawn):
                raise RuntimeError("no healthy Cluster nodes to degrade onto")
            lay = Layout(
                Partition(lay.ranks, 0), lay.spawn, [], lay.ranks, True
            )
            for rank, node in enumerate(lay.primary):
                scr.replace_node(rank, node)
        elif not healed:
            raise RuntimeError("no healthy nodes left to restart the job on")
        if restart_step is not None:
            job.settle(
                [scr.restart(rank, restart_step, onto=node)
                 for rank, node in enumerate(lay.primary)],
                "restore",
            )
        return lay, scr


@dataclass(frozen=True)
class Retune(RecoveryPolicy):
    """Online malleability: resume on the best surviving partition.

    Each recovery re-tunes over the surviving machine (memoized per
    survivor signature), reads the old-width checkpoint back round-robin
    onto the new launch nodes, and re-slices it as a fresh checkpoint at
    the new width in a new SCR manager, so later faults restore at the
    new shape.  The fault domain follows the job onto its new nodes.
    """

    policy: MalleabilityPolicy = MalleabilityPolicy()

    def recover(self, job, restart_step, abort_time, epoch):
        if len(job.repartitions) >= self.policy.max_repartitions:
            raise RuntimeError(
                f"exceeded max_repartitions={self.policy.max_repartitions}"
            )
        old_scr, old_part = job.scr, job.layout.partition
        old_ranks = job.layout.ranks
        new_part, predicted_s, n_cands, hit = retune(
            job.machine, job.config, self.policy, job.retune_memo
        )
        job.retune_memo_hits += int(hit)
        job.use(place(job.machine, new_part))
        lay, scr = job.layout, job.new_scr()
        if restart_step is not None:
            job.settle(
                [old_scr.restart(rank, restart_step,
                                 onto=lay.primary[rank % lay.ranks])
                 for rank in range(old_ranks)],
                "restore",
            )
            job.settle(
                [scr.checkpoint(rank, step=restart_step,
                                nbytes=job.ckpt_nbytes)
                 for rank in range(lay.ranks)],
                "redistribution",
            )
        job.follow(lay)
        job.repartitions.append(
            {
                "epoch": epoch,
                "time_s": abort_time,
                "from": old_part.to_dict(),
                "from_label": old_part.label(),
                "to": new_part.to_dict(),
                "to_label": new_part.label(),
                "changed": new_part != old_part,
                "restart_step": restart_step,
                "candidates": n_cands,
                "predicted_step_s": predicted_s,
                "recover_s": job.sim.now - abort_time,
            }
        )
        return lay, scr

    def report(self, job, initial, resiliency):
        events = job.repartitions
        final = job.layout.partition
        return {
            "enabled": True,
            "policy": self.policy.to_dict(),
            "initial_partition": initial.to_dict(),
            "initial_label": initial.label(),
            "final_partition": final.to_dict(),
            "final_label": final.label(),
            "repartitions": [dict(e) for e in events],
            "repartitions_count": sum(1 for e in events if e["changed"]),
            "recoveries": len(events),
            "time_to_recover_s": sum(e["recover_s"] for e in events),
            "retune_memo_hits": job.retune_memo_hits,
            "post_fault_steps_per_s": resiliency["post_fault"]["steps_per_s"],
        }


def run_supervised_experiment(
    machine: Machine,
    config: XpicConfig,
    partition,
    *,
    recovery: RecoveryPolicy,
    fault_plan: Optional[FaultPlan] = None,
    mtbf_s: Optional[float] = None,
    fault_seed: int = 20180521,
    ckpt_interval_s: Optional[float] = None,
    tracer=None,
    load_balanced: bool = False,
    imbalance_alpha: Optional[float] = None,
    runtime: Optional[MPIRuntime] = None,
):
    """Run one modeled xPic experiment under fault injection.

    ``partition`` (a :class:`~repro.partition.Partition` or its dict
    form) is placed on the machine by :func:`~.driver.place`.  The
    injector replays ``fault_plan`` or, with ``mtbf_s``, streams
    Poisson node crashes over the job's launch nodes, seeded by
    ``fault_seed``.  ``ckpt_interval_s`` defaults to the Young/Daly
    optimum when an MTBF is known; without either, nothing is
    checkpointed and every restart starts over.  ``recovery`` decides
    where each aborted epoch resumes.

    Returns ``(RunResult, resiliency, malleability)``.  The resiliency
    dict quantifies faults, retries, checkpoints by level, restarts and
    lost work seconds; ``malleability`` is the recovery policy's report
    (``{}`` for :class:`HealOrDegrade`).  A faulted run reports the
    full wall time from launch to completion.
    """
    initial = Partition.coerce(partition)
    sim = machine.sim
    rt = runtime if runtime is not None else MPIRuntime(
        machine, fault_tolerance=TRANSPORT_POLICY
    )
    if rt.machine is not machine:
        raise ValueError("runtime belongs to a different machine")
    job = SupervisedJob(
        machine, config, place(machine, initial), load_balanced,
        imbalance_alpha,
    )
    if ckpt_interval_s is None and mtbf_s is not None:
        ckpt_interval_s = optimal_interval(
            _ckpt_cost_s(job.scr, job.ckpt_nbytes), mtbf_s
        )
    job.ckpt_interval_s = job.scr.checkpoint_interval_s = ckpt_interval_s
    injector = job.injector = FaultInjector(
        machine, plan=fault_plan, mtbf_s=mtbf_s, seed=fault_seed
    )
    job.follow(job.layout)
    crash_time: Optional[float] = None
    fault_scope = job.fault_scope  # updated in place by follow()

    def _on_fault(ev):
        # a dead job node dooms the whole job (ParaStation aborts all
        # ranks); faults elsewhere are survived by retry/reroute
        nonlocal crash_time
        if ev.kind != "node_crash" or ev.target not in fault_scope:
            return
        if crash_time is None:
            crash_time = sim.now
        for p in rt.live_processes():
            p.interrupt(cause=f"node {ev.target} crashed")

    injector.on_fault(_on_fault)

    stats = job.stats
    round_costs: Dict[int, float] = {}
    start_step = 0
    epoch = 0
    job_start = sim.now
    while True:
        epoch += 1
        if epoch > MAX_EPOCHS:
            raise RuntimeError(
                f"job did not complete within {MAX_EPOCHS} epochs"
            )
        hooks = ResilienceHooks(job.scr, start_step, job.ckpt_nbytes)
        epoch_start = sim.now
        crash_time = None
        lay = job.layout
        app = hooks.wrap(launch_app(config, job.wl, lay, tracer, hooks))
        procs = rt.launch(app, lay.primary, nprocs=lay.ranks)
        injector.start()
        settled = AllOf(sim, procs)
        settled.callbacks.append(lambda _ev: injector.stop())
        _drain(sim, rt, injector)
        if not all(p.triggered for p in procs) or rt.live_processes():
            # partial abort (e.g. one rank died of a transport error and
            # its peers are blocked on it): abort the stragglers too
            injector.stop()
            for p in rt.live_processes():
                p.interrupt(cause="epoch aborted")
            _drain(sim, rt, injector)
        for step, cost in hooks.round_costs.items():
            round_costs[step] = max(round_costs.get(step, 0.0), cost)
        values = [p.value for p in procs]
        if all(tag == "ok" for tag, _ in values):
            break

        # ---- recovery ----------------------------------------------------
        abort_time = crash_time
        if abort_time is None:
            abort_time = min(hooks.abort_times, default=sim.now)
        restart_step = job.scr.latest_restartable_step(range(lay.ranks))
        ref = None
        if restart_step is not None:
            ref = max(
                (rec.time for rec in job.scr.database
                 if rec.step == restart_step),
                default=None,
            )
        if ref is None or ref < epoch_start:
            ref = epoch_start
        stats["lost_work_s"] += max(0.0, abort_time - ref)
        t0 = sim.now
        job.layout, job.scr = recovery.recover(
            job, restart_step, abort_time, epoch
        )
        if restart_step is not None:
            stats["restart_costs"].append(sim.now - t0)
            stats["restored_steps"].append(restart_step)
        start_step = restart_step if restart_step is not None else 0
        stats["restarts"] += 1

    injector.stop()
    _drain(sim, rt, injector)  # drain any pending injector interrupt
    end = sim.now

    result = aggregate(job.layout, config.steps, [v for _tag, v in values])
    if epoch > 1:
        # faulted job: report the full wall time, launch to completion
        # (lost work, restart reads and re-run epochs included) — the
        # barrier-to-end window of the last epoch would hide the cost
        result = dataclasses.replace(result, total_runtime=end - job_start)
    resiliency = _resiliency_report(
        job, injector, rt, mtbf_s, ckpt_interval_s, round_costs, epoch,
        post_fault_steps=config.steps - start_step,
        window_s=end - epoch_start,
    )
    return result, resiliency, recovery.report(job, initial, resiliency)


def _resiliency_report(job, injector, rt, mtbf_s, ckpt_interval_s,
                       round_costs, epochs, post_fault_steps, window_s):
    """The resiliency section of a supervised run's report."""
    stats = job.stats
    ckpt_costs = list(round_costs.values())
    restart_costs = stats["restart_costs"]
    level_counts: Dict[str, int] = {}
    for scr in job.scrs:
        for level, count in scr.level_counts().items():
            level_counts[level] = level_counts.get(level, 0) + count
    return {
        "enabled": True,
        "mtbf_s": mtbf_s,
        "ckpt_interval_s": ckpt_interval_s,
        "faults": injector.metrics(),
        "transport": rt.transport_metrics(),
        "checkpoints": level_counts,
        "checkpoints_total": sum(len(s.database) for s in job.scrs),
        "degraded_checkpoints": sum(
            s.degraded_checkpoints for s in job.scrs
        ),
        "checkpoint_rounds": len(ckpt_costs),
        "checkpoint_cost_s": (
            sum(ckpt_costs) / len(ckpt_costs) if ckpt_costs else 0.0
        ),
        "checkpoint_time_s": sum(ckpt_costs),
        "restarts": stats["restarts"],
        "restart_cost_s": (
            sum(restart_costs) / len(restart_costs) if restart_costs else 0.0
        ),
        "restart_time_s": sum(restart_costs),
        "restored_steps": stats["restored_steps"],
        "lost_work_s": stats["lost_work_s"],
        "node_replacements": stats["node_replacements"],
        "reboots": stats["reboots"],
        "degraded_mode": stats["degraded_mode"],
        "epochs": epochs,
        # throughput over the completing epoch: after the last recovery
        # (or the whole run when nothing failed) — the denominator of
        # the malleable-vs-static recovery comparison
        "post_fault": {
            "steps": post_fault_steps,
            "window_s": window_s,
            "steps_per_s": (
                post_fault_steps / window_s if window_s > 0 else 0.0
            ),
        },
    }
