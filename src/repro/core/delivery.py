"""Message delivery of the PISCES 2 VM.

:class:`MessageDelivery` is a base class of :class:`~repro.core.vm.PiscesVM`:
SEND and broadcast, destination resolution, the one delivery primitive
(where a fault plan's message policy applies), receiver wake-up and
DELETE MESSAGES.  Its methods read the VM's state through ``self``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from ..errors import MessageError, NoSuchCluster, SendFailed, UnknownTask
from ..mmos.process import ProcState
from .controllers import Controller
from .messages import (InQueue, Message, allocate_message, payload_checksum,
                       release_message)
from .sizes import (COST_PER_PACKET, COST_SEND, MSG_LATENCY_INTER_CLUSTER,
                    MSG_LATENCY_INTRA_CLUSTER, message_bytes)
from .task import TaskContext
from .taskid import Broadcast, SendTarget, TaskId, TContr, USER_TERMINAL_ID
from .tracing import TraceEventType


class MessageDelivery:
    """Send, deliver and delete messages (a base class of ``PiscesVM``)."""

    def send_message(self, dest, mtype: str, args: Tuple[Any, ...],
                     origin: Union[TaskContext, Controller, None],
                     require_delivery: bool = False) -> int:
        """Deliver a message; returns the number of deliveries made.

        ``origin`` identifies the sender: a task context, a controller,
        or None for the user at the terminal (the monitor's SEND A
        MESSAGE).  ``require_delivery=True`` raises
        :class:`~repro.errors.SendFailed` instead of silently dropping
        a send to a dead taskid.
        """
        sender, sender_cluster = self._origin_identity(origin)
        if self.engine.in_process():
            _, npackets = message_bytes(args)
            self.engine.charge(COST_SEND + npackets * COST_PER_PACKET)
        targets = self._resolve_dest(dest, origin,
                                     require_delivery=require_delivery)
        n = 0
        for inq, rcluster, proc, rtid in targets:
            self._deliver(inq, rcluster, proc, mtype, args,
                          sender=sender, sender_cluster=sender_cluster,
                          receiver=rtid)
            n += 1
        if isinstance(dest, Broadcast):
            self.stats.broadcast_deliveries += n
        return n

    def _origin_identity(self, origin) -> Tuple[TaskId, int]:
        if origin is None:
            return USER_TERMINAL_ID, self.config.effective_user_cluster()
        if isinstance(origin, TaskContext):
            return origin.task.tid, origin.task.cluster.number
        if isinstance(origin, Controller):
            return origin.tid, origin.cluster.number
        raise MessageError(f"bad message origin {origin!r}")

    def _resolve_dest(self, dest, origin, require_delivery: bool = False
                      ) -> List[Tuple[InQueue, int, Any, TaskId]]:
        """Resolve a destination to (in-queue, cluster, process, tid) list."""
        if isinstance(dest, SendTarget):
            if dest is SendTarget.USER:
                uc = self.user_controller
                return [(uc.inq, uc.cluster.number, uc.process, uc.tid)]
            if not isinstance(origin, TaskContext):
                raise MessageError(f"{dest.value} is only valid inside a task")
            if dest is SendTarget.PARENT:
                tid = origin.parent
            elif dest is SendTarget.SELF:
                tid = origin.self_id
            elif dest is SendTarget.SENDER:
                if origin.sender is None:
                    raise MessageError("SENDER: no message received yet")
                tid = origin.sender
            else:  # pragma: no cover - enum is exhaustive
                raise MessageError(f"bad send target {dest}")
            dest = tid
        if isinstance(dest, TContr):
            if dest.cluster not in self.task_controllers:
                raise NoSuchCluster(f"TCONTR {dest.cluster}: no such cluster")
            tc = self.task_controllers[dest.cluster]
            return [(tc.inq, tc.cluster.number, tc.process, tc.tid)]
        if isinstance(dest, Broadcast):
            if dest.cluster is None:
                members = sorted(self.clusters)
            elif dest.cluster in self.clusters:
                members = [dest.cluster]
            else:
                raise NoSuchCluster(f"broadcast to unknown cluster "
                                    f"{dest.cluster}")
            sender_tid, _ = self._origin_identity(origin)
            out = []
            for n in members:
                for task in self.clusters[n].running_tasks():
                    if task.alive and task.tid != sender_tid:
                        out.append((task.inq, n, task.process, task.tid))
            return out
        if isinstance(dest, TaskId):
            if dest == USER_TERMINAL_ID:
                uc = self.user_controller
                return [(uc.inq, uc.cluster.number, uc.process, uc.tid)]
            ctrl = self.controllers.get(dest)
            if ctrl is not None:
                return [(ctrl.inq, ctrl.cluster.number, ctrl.process,
                         ctrl.tid)]
            task = self.tasks.get(dest)
            if task is None:
                raise UnknownTask(f"send to unknown taskid {dest}")
            if not task.alive:
                # Stale taskid (the unique number exists for this): the
                # message is undeliverable and silently dropped -- unless
                # the sender opted into strict delivery (per-send, or a
                # fault plan's ``strict_sends`` for all task origins).
                self.stats.messages_to_dead += 1
                strict = (self.faults is not None
                          and self.faults.plan.strict_sends
                          and isinstance(origin, TaskContext))
                if require_delivery or strict:
                    self.stats.send_failures += 1
                    if self.faults is not None:
                        self.faults.record("send_failed", f"dest={dest}",
                                           task=dest)
                    raise SendFailed(dest)
                return []
            return [(task.inq, task.cluster.number, task.process, task.tid)]
        raise MessageError(f"bad send destination {dest!r}")

    def _deliver(self, inq: InQueue, receiver_cluster: int, receiver_proc,
                 mtype: str, args: Tuple[Any, ...], *, sender: TaskId,
                 sender_cluster: int,
                 receiver: Optional[TaskId] = None,
                 extra_latency: int = 0) -> Optional[Message]:
        """Allocate, enqueue and wake; the single delivery primitive.

        With a fault plan active, eligible deliveries pass through the
        injector here: a dropped message is never allocated (returns
        None), a delayed one arrives late, a corrupted one carries a
        payload that fails its checksum at accept, a duplicated one is
        enqueued twice.
        """
        now = self.engine.now()
        latency = (MSG_LATENCY_INTRA_CLUSTER
                   if sender_cluster == receiver_cluster
                   else MSG_LATENCY_INTER_CLUSTER) + extra_latency
        faults = self.faults
        action = None
        if faults is not None:
            action = faults.on_message(mtype)
            if action is not None:
                to = receiver or inq.owner
                faults.record(action, f"type={mtype} from={sender} to={to}")
                if action == "drop":
                    return None
                if action == "delay":
                    latency += faults.delay_ticks
        msg = allocate_message(self.machine.shared, mtype, tuple(args),
                               sender=sender,
                               receiver=receiver or inq.owner,
                               send_time=now, arrival_time=now + latency)
        if faults is not None and faults.checksums \
                and faults.message_eligible(mtype):
            msg.checksum = payload_checksum(mtype, msg.args)
            if action == "corrupt":
                # Mutate the payload *after* allocation: the heap bytes
                # are unchanged (a bit flip, not a resize) and the stale
                # checksum makes the damage detectable at accept.
                from ..faults.injector import corrupt_args
                msg.args = corrupt_args(msg.args)
        inq.enqueue(msg)
        det = self.race_detector
        if det is not None:
            det.on_send(msg)
        counts = self.counts
        sent = counts.messages_sent[
            receiver_cluster,
            "intra" if sender_cluster == receiver_cluster else "inter"]
        sent.value += 1
        sent_bytes = counts.message_bytes_sent[receiver_cluster]
        sent_bytes.value += msg.nbytes
        if self.metrics.enabled:
            self.msg_traffic[self._metric_name_of(sender),
                              self._metric_name_of(msg.receiver),
                              mtype].value += 1
        sender_task = self.tasks.get(sender)
        if sender_task is not None:
            sender_task.trace(TraceEventType.MSG_SEND,
                              info=f"type={mtype} bytes={msg.nbytes}",
                              other=inq.owner)
        self._wake_receiver(receiver_proc, msg.arrival_time)
        if action == "duplicate":
            # At-least-once transport: a second identical copy arrives
            # right behind the first (same latency, later queue seq).
            dup = allocate_message(self.machine.shared, mtype, msg.args,
                                   sender=sender, receiver=msg.receiver,
                                   send_time=now,
                                   arrival_time=msg.arrival_time)
            dup.checksum = msg.checksum
            inq.enqueue(dup)
            if det is not None:
                det.on_send(dup)
            sent.value += 1
            sent_bytes.value += dup.nbytes
            self._wake_receiver(receiver_proc, dup.arrival_time)
        return msg

    def _wake_receiver(self, proc, arrival: int) -> None:
        """Wake a receiver blocked in accept/controller-wait, unless its
        own deadline fires before the message would arrive.

        Processes blocked for any *other* reason (barrier, critical,
        force-join, disk I/O) must NOT be woken by message arrival --
        the message waits in the in-queue until the next ACCEPT.
        """
        if proc is None:
            return
        if proc.state is not ProcState.BLOCKED:
            return
        if not (proc.blocked_on.startswith("accept(")
                or proc.blocked_on.endswith("-wait")):
            return
        if proc.deadline is not None and proc.deadline < arrival:
            return  # let the earlier timeout fire; message stays queued
        self.engine.wake(proc, at_time=arrival)

    def delete_messages(self, tid: TaskId, mtype: Optional[str] = None) -> int:
        """DELETE MESSAGES (monitor option 4); returns messages dropped."""
        task = self.find_task(tid)
        dropped = task.inq.remove_type(mtype)
        for m in dropped:
            release_message(self.machine.shared, m)
        self.stats.messages_deleted += len(dropped)
        return len(dropped)
