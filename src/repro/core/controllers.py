"""Controller tasks: the PISCES operating system (section 5).

"The operating system is represented as a set of 'controller' tasks
that run in slots in the clusters":

* **task controllers** -- one per cluster; initiate, terminate and
  monitor user tasks in their cluster;
* **user controllers** -- control communication with user terminals
  directly accessible from their cluster;
* **file controllers** -- control access to files on disks directly
  accessible from their cluster (hypothetical on the diskless NASA
  FLEX; here they front the simulated file store).

Controllers are static daemon processes created at boot; user tasks are
dynamic.  All communication with controllers uses the same asynchronous
message mechanism as user-to-user traffic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import UnknownTask, WindowError
from ..mmos.process import KernelProcess, co_block, co_preempt
from .cluster import ClusterRuntime, PendingInitiate
from .messages import InQueue, Message, release_message
from .sizes import COST_CONTROLLER_INITIATE
from .taskid import (
    FILE_CONTROLLER_SLOT,
    TASK_CONTROLLER_SLOT,
    TaskId,
    USER_CONTROLLER_SLOT,
)
from .tracing import TraceEvent, TraceEventType
from .windows import ArrayStore, Window, make_window

if TYPE_CHECKING:  # pragma: no cover
    from .vm import PiscesVM

#: System message types (the leading @ keeps them out of user namespaces).
MSG_INITIATE = "@INITIATE"
MSG_TERMINATED = "@TERMINATED"
MSG_KILL = "@KILL"
MSG_FILE_WINDOW = "@FWINDOW"
MSG_FILE_WINDOW_REPLY = "@FWINDOW_R"
#: Failure notification delivered to a dead task's PARENT.  No ``@``
#: prefix: user tasks ACCEPT it like any other message type
#: (``ctx.accept("TASK_DIED")`` -> args ``(taskid, reason)``).
MSG_TASK_DIED = "TASK_DIED"


class Controller:
    """Base: a daemon process with a taskid and an in-queue."""

    slot_number: int = TASK_CONTROLLER_SLOT
    kind = "controller"

    def __init__(self, vm: "PiscesVM", cluster: ClusterRuntime):
        self.vm = vm
        self.cluster = cluster
        self.tid = TaskId(cluster.number, self.slot_number, 1)
        self.inq = InQueue(self.tid)
        self.inq.metrics = vm.metrics
        self.inq.metric_labels = {"cluster": cluster.number,
                                  "kind": self.kind}
        self.process: Optional[KernelProcess] = None

    def start(self) -> None:
        self.process = self.vm.engine.spawn(
            f"{self.kind}@{self.tid}", self.cluster.primary_pe,
            self._serve_forever, daemon=True)

    # ---------------------------------------------------------- main loop --

    def _serve_forever(self):
        # A coroutine body: controllers suspend at the KernelOp seam,
        # so a booted VM runs its whole operating system with zero
        # controller threads.
        while True:
            msg = yield from self._next_message()
            try:
                self.handle(msg)
            finally:
                release_message(self.vm.machine.shared, msg)

    def _next_message(self):
        eng = self.vm.engine
        while True:
            yield co_preempt(0)
            now = eng.now()
            # The queue is in (arrival_time, seq) order, so the head is
            # both the first deliverable message and the earliest
            # possible deadline -- no per-poll copy of the queue.
            m = self.inq.peek()
            if m is not None and m.arrival_time <= now:
                self.inq.remove(m)
                det = self.vm.race_detector
                if det is not None:
                    # Controller pop is the accept side of the HB edge
                    # for INITIATE and other control messages, so
                    # initiate -> task start is ordered through the
                    # controller's subsequent spawn.
                    det.on_accept(m)
                return m
            yield co_block(f"{self.kind}-wait",
                           deadline=None if m is None else m.arrival_time)

    def handle(self, msg: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class TaskController(Controller):
    """Initiates, terminates and monitors user tasks in its cluster
    (section 5 kind 1)."""

    slot_number = TASK_CONTROLLER_SLOT
    kind = "tcontr"

    def handle(self, msg: Message) -> None:
        if msg.mtype == MSG_INITIATE:
            req_id, tasktype_name, args, parent, supervision, restarts = \
                msg.args
            self._initiate(req_id, tasktype_name, tuple(args), parent,
                           supervision, restarts)
        elif msg.mtype == MSG_TERMINATED:
            tid, died, reason = msg.args
            self._task_terminated(tid, died, reason)
        elif msg.mtype == MSG_KILL:
            (tid,) = msg.args
            self.vm.kill_task(tid)
        # Unknown types addressed to a controller are ignored (dropped).

    def _initiate(self, req_id: int, tasktype_name: str,
                  args: Tuple[Any, ...], parent: TaskId,
                  supervision=None, restarts: int = 0) -> None:
        self.cluster.inflight_initiates = max(
            0, self.cluster.inflight_initiates - 1)
        slot = self.cluster.free_slot()
        if slot is None:
            # "If no slots are available in the cluster, the task
            # controller will hold the initiate request until another
            # task terminates."
            self.cluster.pending.append(PendingInitiate(
                tasktype=tasktype_name, args=args, parent=parent,
                requested_at=self.vm.engine.now(),
                supervision=supervision, restarts=restarts))
            self.vm.counts.initiates_held[()].value += 1
            return
        self.vm.engine.charge(COST_CONTROLLER_INITIATE)
        self.vm.start_task_in_slot(self.cluster, slot, tasktype_name, args,
                                   parent, req_id=req_id,
                                   supervision=supervision, restarts=restarts)

    def _task_terminated(self, tid: TaskId, died: bool = False,
                         reason: str = "") -> None:
        # Normally ``tid`` is one of ours; after a PE crash the cleanup
        # is re-routed to a *surviving* controller, which frees the slot
        # in the failed cluster on its behalf.
        cluster = self.vm.clusters.get(tid.cluster, self.cluster)
        cluster.tasks_terminated += 1
        # Free the slot (terminating tasks leave that to us, so held
        # requests stay FIFO with respect to later arrivals).
        slot = cluster.slots[tid.slot - 1]
        if slot.task is not None and slot.task.tid == tid:
            slot.release()
        metrics = self.vm.metrics
        if metrics.enabled:
            metrics.gauge("slot_occupancy", cluster=cluster.number).set(
                cluster.n_slots - cluster.free_slot_count())
        # Pump held initiate requests into the freed slot (never into a
        # failed cluster: its requests were re-routed at crash time).
        while (not cluster.failed and cluster.pending
               and cluster.free_slot() is not None):
            req = cluster.pending.popleft()
            slot = cluster.free_slot()
            self.vm.engine.charge(COST_CONTROLLER_INITIATE)
            self.vm.start_task_in_slot(cluster, slot, req.tasktype,
                                       req.args, req.parent,
                                       supervision=req.supervision,
                                       restarts=req.restarts)
        if died:
            # Failure semantics: restart under a RESTART policy, else
            # notify the parent (and USER, under NOTIFY).
            self.vm.handle_task_death(tid, reason, origin=self)


class UserController(Controller):
    """Forwards messages addressed to USER to the terminal (section 5
    kind 2).  Every received message becomes a console line and an entry
    in ``vm.user_messages`` for programmatic inspection."""

    slot_number = USER_CONTROLLER_SLOT
    kind = "ucontr"

    def handle(self, msg: Message) -> None:
        text = ", ".join(repr(a) for a in msg.args)
        self.vm.kernel.write_terminal(
            f"TO USER from {msg.sender}: {msg.mtype}({text})")
        self.vm.user_messages.append(
            (msg.mtype, msg.args, msg.sender, msg.arrival_time))


class FileController(Controller):
    """Controls access to file-system arrays (section 5 kind 3, section 8).

    The "owner" of a file window is this controller; it serves window
    reads/writes out of the VM's file store, serializing overlapping
    requests (the engine's one-at-a-time admission makes each transfer
    atomic, which is exactly the management the paper asks of it).
    Window *creation* is also available by message (@FWINDOW), giving
    the asynchronous protocol of section 8, but the common path is the
    synchronous ``ctx.file_window``.
    """

    slot_number = FILE_CONTROLLER_SLOT
    kind = "fcontr"

    def __init__(self, vm: "PiscesVM", cluster: ClusterRuntime):
        super().__init__(vm, cluster)
        self.arrays = ArrayStore(self.tid)
        self.arrays.metrics = vm.metrics
        # One disk by default; vm.configure_file_disks() swaps in a
        # striped array (the PISCES 3 parallel-I/O direction).
        from .fileio import DiskArray
        self.disks = DiskArray(1)
        self.disks.metrics = vm.metrics
        #: Transfers still occupying the disks: (window, is_write,
        #: completion tick).  Used to serialize conflicting overlapping
        #: requests (section 8); pruned as they land.
        self._inflight: List[Tuple[Window, bool, int]] = []

    def export_file(self, name: str, array,
                    cacheable: bool = True) -> None:
        self.arrays.export(name, array, cacheable=cacheable)

    def window_for(self, name: str, *, region=None,
                   rows=None, cols=None) -> Window:
        """A window on (a region of) a file-store array.

        The region is the keyword ``region=`` or the ``rows=``/``cols=``
        selectors."""
        base = self.arrays.get(name)
        return make_window(self.tid, name, base, region,
                           rows=rows, cols=cols)

    # -------------------------------------- overlapping-access contract --

    def conflicting_transfer(self, w: Window, write: bool,
                             now: int) -> Optional[int]:
        """Latest completion tick among in-flight transfers conflicting
        with ``w`` (overlap where either side writes), or None."""
        self._inflight = [e for e in self._inflight if e[2] > now]
        worst = None
        for other, other_write, done in self._inflight:
            if (write or other_write) and other.overlaps(w):
                if worst is None or done > worst:
                    worst = done
        return worst

    def note_transfer(self, w: Window, write: bool, done: int) -> None:
        if done > self.vm.engine.now():
            self._inflight.append((w, write, done))

    def handle(self, msg: Message) -> None:
        if msg.mtype == MSG_FILE_WINDOW:
            name, *sel = msg.args
            try:
                w = self.window_for(name, rows=sel[0] if sel else None,
                                    cols=sel[1] if len(sel) > 1 else None)
                self.vm.send_message(msg.sender, MSG_FILE_WINDOW_REPLY, (w,),
                                     origin=self)
            except WindowError as e:
                self.vm.send_message(msg.sender, MSG_FILE_WINDOW_REPLY,
                                     (str(e),), origin=self)
