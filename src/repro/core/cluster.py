"""Clusters and slots (section 5).

A cluster is "an abstract group of processing resources"; on the FLEX
the basic mapping is one primary PE plus optional secondary PEs for
force members.  Each cluster provides a finite set of slots in which
tasks run; when all slots are full an initiate request waits until a
slot is free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, TYPE_CHECKING, Tuple

from ..flex.memory import Allocation
from .taskid import TaskId

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task


@dataclass
class Slot:
    """One task slot: a place a user task can run in a cluster."""

    cluster: int
    number: int
    task: Optional["Task"] = None
    #: Next unique number for a task initiated into this slot; the
    #: unique number "distinguishes tasks that have run at different
    #: times in the same slot" (section 6).
    next_unique: int = 1

    @property
    def free(self) -> bool:
        return self.task is None

    def claim(self) -> TaskId:
        """Reserve the slot and mint the taskid for its next occupant."""
        if not self.free:
            raise RuntimeError(f"slot {self.cluster}.{self.number} is occupied")
        tid = TaskId(self.cluster, self.number, self.next_unique)
        self.next_unique += 1
        return tid

    def release(self) -> None:
        self.task = None


@dataclass
class PendingInitiate:
    """An initiate request held by the task controller until a slot frees."""

    tasktype: str
    args: Tuple[Any, ...]
    parent: TaskId
    requested_at: int
    #: Supervision policy riding along with the request (None: default).
    supervision: Any = None
    #: How many times this task has already been restarted.
    restarts: int = 0


class ClusterRuntime:
    """Run-time state of one cluster."""

    def __init__(self, number: int, primary_pe: int,
                 secondary_pes: Tuple[int, ...], n_slots: int):
        self.number = number
        self.primary_pe = primary_pe
        self.secondary_pes = tuple(secondary_pes)
        self.slots: List[Slot] = [Slot(number, i) for i in range(1, n_slots + 1)]
        #: FIFO of initiate requests waiting for a free slot (section 6:
        #: "the task controller will hold the initiate request until
        #: another task terminates").
        self.pending: Deque[PendingInitiate] = deque()
        #: Shared-memory extent of this cluster's system-table section.
        self.table_alloc: Optional[Allocation] = None
        #: @TERMINATED messages this cluster's controller processed
        #: (tasks it started are ``vm.counts.tasks_started``).
        self.tasks_terminated = 0
        #: Initiate requests sent to this cluster's controller but not
        #: yet processed; the ANY/OTHER placement policy counts these so
        #: a burst of initiates spreads instead of dog-piling.
        self.inflight_initiates = 0
        #: Set when the cluster's primary PE has crashed (fault
        #: injection): its controller is dead, its slots unusable, and
        #: placement policies skip it.
        self.failed = False

    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def force_size(self) -> int:
        """Members of a force split in this cluster: the primary member
        plus one per secondary PE (section 9; example item e: no
        secondary PEs means FORCESPLIT causes no parallel splitting)."""
        return 1 + len(self.secondary_pes)

    def free_slot(self) -> Optional[Slot]:
        for s in self.slots:
            if s.free:
                return s
        return None

    def free_slot_count(self) -> int:
        return sum(1 for s in self.slots if s.free)

    def running_tasks(self) -> List["Task"]:
        return [s.task for s in self.slots if s.task is not None]

    def describe(self) -> str:
        occ = ", ".join(
            f"{s.number}:{s.task.ttype.name if s.task else '<free>'}"
            for s in self.slots)
        sec = ",".join(map(str, self.secondary_pes)) or "-"
        failed = " FAILED," if self.failed else ""
        return (f"cluster {self.number}:{failed} PE {self.primary_pe}, "
                f"force PEs [{sec}], slots {{{occ}}}, "
                f"{len(self.pending)} pending")
