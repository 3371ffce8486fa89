"""Task life cycle and supervision of the PISCES 2 VM (sections 6, 11).

:class:`TaskLifecycle` is a base class of :class:`~repro.core.vm.PiscesVM`:
starting a task in a free slot, its body vehicle, termination and KILL,
and the failure semantics a dead PE or task sets off (re-routed initiate
requests, RESTART, ``TASK_DIED``).  Its methods read the VM's state
through ``self``.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional, Tuple, Union

from ..errors import MessageError, NoSuchCluster, UnknownTask
from ..mmos.process import drive_kernel_ops
from .cluster import ClusterRuntime, PendingInitiate, Slot
from .controllers import (Controller, MSG_INITIATE, MSG_TASK_DIED,
                          MSG_TERMINATED)
from .messages import release_message
from .sizes import COST_TASK_TERMINATE
from .supervision import Supervision
from .task import Task, TaskContext
from .taskid import ANY, TaskId, USER_TERMINAL_ID
from .tracing import TraceEventType


class TaskLifecycle:
    """Start, end and supervise tasks (a base class of ``PiscesVM``)."""

    def start_task_in_slot(self, cluster: ClusterRuntime, slot: Slot,
                           tasktype_name: str, args: Tuple[Any, ...],
                           parent: TaskId,
                           req_id: Optional[int] = None,
                           supervision: Optional[Supervision] = None,
                           restarts: int = 0) -> Task:
        """Called by a task controller to place a task into a free slot."""
        ttype = self.registry.get(tasktype_name)
        tid = slot.claim()
        task = Task(self, ttype, tid, parent, cluster, args,
                    supervision=supervision, restarts=restarts)
        slot.task = task
        self.tasks[tid] = task
        self.counts.tasks_started[cluster.number, ttype.name].value += 1
        task.initiated_at = self.engine.now()
        m = self.metrics
        if m.enabled:
            m.gauge("slot_occupancy", cluster=cluster.number).set(
                cluster.n_slots - cluster.free_slot_count())
        # Declared SHARED COMMON blocks and LOCK variables are allocated
        # at initiation ("allocated statically in shared memory").
        for name, spec in ttype.shared.items():
            task.shared_state.declare_common(name, spec)
        for lname in ttype.locks:
            task.shared_state.declare_lock(lname)
        task.alive = True
        task.process = self.kernel.create_process(
            f"{ttype.name}@{tid}", cluster.primary_pe,
            self._make_task_target(task))
        # Cleanup runs via on_exit so it happens even when the task is
        # killed before its first slice ever runs.
        task.process.on_exit = lambda proc: self._task_cleanup(task)
        if req_id is not None:
            self.initiations[req_id] = tid
        task.trace(TraceEventType.TASK_INIT,
                   info=f"type={ttype.name}", other=parent)
        return task

    def _make_task_target(self, task: Task) -> Callable[[], Any]:
        """Choose the process target for a task body.

        A generator-function body is a *coroutine body*: it ``yield
        from``s the ctx operations, so the whole task suspends at the
        KernelOp seam, with no worker thread at all.  Under the
        "callable" vehicle the identical op stream is instead driven
        through the engine's blocking calls on a worker thread -- the
        oracle leg of the body-form equivalence suite.  A plain
        callable body keeps the classic path unchanged.
        """
        if inspect.isgeneratorfunction(task.ttype.fn):
            if self.task_bodies == "callable":
                return lambda: drive_kernel_ops(
                    self.engine, self._task_body_gen(task))

            def target():
                # Inlined _task_body_gen: one less delegation frame on
                # every resume of the per-dispatch hot path.
                ctx = TaskContext(task, self.engine.current(),
                                  coroutine=True)
                task.result = yield from task.ttype.fn(ctx, *task.args)
                return task.result
            return target
        return lambda: self._task_body(task)

    def _task_body(self, task: Task) -> Any:
        ctx = TaskContext(task, self.engine.current())
        task.result = task.ttype.fn(ctx, *task.args)
        return task.result

    def _task_body_gen(self, task: Task):
        ctx = TaskContext(task, self.engine.current(), coroutine=True)
        task.result = yield from task.ttype.fn(ctx, *task.args)
        return task.result

    def _task_cleanup(self, task: Task) -> None:
        """Terminate a task: free its messages and shared storage, then
        notify the task controller (which frees the slot).

        Must not yield -- it also runs while unwinding a killed task.
        """
        if not task.alive:
            return
        task.alive = False
        task.terminated_at = self.engine.now()
        self.counts.tasks_finished[task.cluster.number,
                                   task.ttype.name].value += 1
        m = self.metrics
        if m.enabled:
            m.histogram("task_lifetime_ticks", tasktype=task.ttype.name
                        ).observe(task.terminated_at - task.initiated_at)
        heap = self.machine.shared
        for m in task.inq.remove_type(None):
            release_message(heap, m)
        task.shared_state.release_all()
        # A task whose process was killed died abnormally -- unless the
        # whole engine is being reaped, which is a normal end of run.
        died = bool(task.process is not None and task.process.killed
                    and not self.engine.shutting_down)
        reason = task.died_reason or ("killed" if died else "")
        term_info = f"type={task.ttype.name}"
        if died:
            # Aborted tasks say so in their TASK_TERM record, so span
            # derivation closes their lifetime with status=aborted
            # instead of leaking an open span (reason tokens stay
            # whitespace-free: the info field is token=value pairs).
            term_info += f" status=aborted reason={reason.replace(' ', '-')}"
        task.trace(TraceEventType.TASK_TERM, info=term_info)
        self.engine.charge(COST_TASK_TERMINATE) if self.engine.in_process() else None
        if died:
            self.counts.tasks_died[task.ttype.name].value += 1
        tc = self.task_controllers[task.cluster.number]
        if tc.cluster.failed:
            # The home controller died with its PE; a surviving
            # controller (lowest live cluster) cleans up on its behalf.
            live = sorted(n for n, c in self.clusters.items() if not c.failed)
            if not live:
                return  # nobody left to notify; the run is over
            tc = self.task_controllers[live[0]]
        # The slot is NOT freed here: the task controller frees it when
        # it processes @TERMINATED, which keeps held initiate requests
        # strictly FIFO with later ones (section 6).
        try:
            self._deliver(tc.inq, tc.cluster.number, tc.process,
                          MSG_TERMINATED, (task.tid, died, reason),
                          sender=task.tid,
                          sender_cluster=task.cluster.number)
        except Exception:
            pass  # heap exhaustion during unwind must not mask the cause

    def kill_task(self, tid: TaskId, reason: str = "killed") -> bool:
        """KILL A TASK (monitor option 2).  Returns False if not live."""
        task = self.tasks.get(tid)
        if task is None or not task.alive:
            return False
        self.stats.tasks_killed += 1
        task.died_reason = reason
        if task.force is not None:
            for p in task.force.member_procs.values():
                self.engine.kill(p)
        if task.process is not None:
            self.engine.kill(task.process)
        return True

    def find_task(self, tid: TaskId) -> Task:
        task = self.tasks.get(tid)
        if task is None:
            raise UnknownTask(f"no task {tid} was ever initiated")
        return task

    # ------------------------------------------------- failure semantics --

    def on_pe_failure(self, pe_number: int, reason: str = "pe-crash") -> None:
        """A processing element dies (fault injection, or a hang the
        monitor declares dead).

        Consequences, in deterministic order: the PE is marked failed;
        every cluster whose *primary* PE it was goes down with it (its
        held initiate requests are re-routed to survivors); every live
        task of a failed cluster is killed (``ProcessKilled`` unwinds
        it mid-statement); any remaining kernel process pinned to the
        PE -- controller daemons, force members placed there -- is
        killed too.
        """
        pe = self.machine.pe(pe_number)
        if pe.failed:
            return
        self.machine.fail_pe(pe_number)
        if self.faults is not None:
            self.faults.record("pe_crash",
                               f"pe={pe_number} reason={reason}",
                               pe=pe_number)
        rerouted: List[PendingInitiate] = []
        for num in sorted(self.clusters):
            cr = self.clusters[num]
            if cr.primary_pe == pe_number and not cr.failed:
                cr.failed = True
                while cr.pending:
                    rerouted.append(cr.pending.popleft())
        doomed = sorted(
            (t for t in self.tasks.values()
             if t.alive and t.cluster.failed),
            key=lambda t: (t.tid.cluster, t.tid.slot, t.tid.unique))
        for task in doomed:
            self.kill_task(task.tid, reason=reason)
        for p in sorted(self.engine.live_processes(), key=lambda q: q.pid):
            if p.pe == pe_number and not p.killed:
                self.engine.kill(p)
        survivors = sorted(n for n, c in self.clusters.items()
                           if not c.failed)
        for req in rerouted:
            if not survivors:
                break
            target = self._least_loaded(survivors)
            tc = self.task_controllers[target]
            tc.cluster.inflight_initiates += 1
            self._deliver(tc.inq, tc.cluster.number, tc.process,
                          MSG_INITIATE,
                          (None, req.tasktype, req.args, req.parent,
                           req.supervision, req.restarts),
                          sender=req.parent, sender_cluster=target)
            if self.faults is not None:
                self.faults.record(
                    "initiate_rerouted",
                    f"type={req.tasktype} to=cluster{target}")

    def handle_task_death(self, tid: TaskId, reason: str,
                          origin: Union[Controller, None] = None) -> None:
        """Apply the dead task's supervision policy (called by the task
        controller that processed its abnormal ``@TERMINATED``).

        RESTART with budget left re-initiates the tasktype with the
        original arguments on a surviving cluster (backed off by the
        policy's ``backoff_ticks`` per prior incarnation).  Otherwise
        the parent is notified with a system ``TASK_DIED <taskid,
        reason>`` message -- re-routed to USER when the parent is the
        terminal or itself dead -- and, under NOTIFY, USER always
        hears about it too.
        """
        task = self.tasks.get(tid)
        if task is None:
            return
        sup = task.supervision
        if sup is not None and sup.restarts \
                and task.restarts_used < sup.max_restarts:
            try:
                incarnation = task.restarts_used + 1
                extra = sup.backoff_ticks * incarnation
                if sup.jitter and extra:
                    # Jitter from the seeded run RNG: consumed at a
                    # virtual-time-ordered point, so determinism holds.
                    spread = int(extra * sup.jitter)
                    if spread:
                        extra = max(0, extra + self.run_rng.randrange(
                            -spread, spread + 1))
                self.request_initiate(
                    task.ttype.name, task.args, parent=task.parent,
                    placement=ANY, supervision=sup, restarts=incarnation,
                    extra_latency=extra)
            except NoSuchCluster:
                pass  # nowhere left to restart; fall through to notify
            else:
                self.counts.tasks_restarted[task.ttype.name].value += 1
                if self.faults is not None:
                    self.faults.record(
                        "restart",
                        f"type={task.ttype.name} of={tid} "
                        f"incarnation={incarnation}",
                        task=tid)
                return
        if self.faults is not None:
            self.faults.record("task_died", f"task={tid} reason={reason}",
                               task=tid)
        notify = []
        parent_task = self.tasks.get(task.parent)
        if task.parent != USER_TERMINAL_ID and parent_task is not None \
                and parent_task.alive:
            notify.append(task.parent)
        else:
            notify.append(USER_TERMINAL_ID)
        if sup is not None and sup.policy == "notify" \
                and USER_TERMINAL_ID not in notify:
            notify.append(USER_TERMINAL_ID)
        for dest in notify:
            try:
                self.send_message(dest, MSG_TASK_DIED, (tid, reason),
                                  origin=origin)
            except MessageError:
                pass  # the notification must never take the system down
