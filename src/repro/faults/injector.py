"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
against one running VM, deterministically.

Determinism contract (same as the dispatcher identity suite): the same
program, configuration, seed and plan produce bit-identical fault event
streams and virtual-time traces across runs.  Two mechanisms keep that
true:

* timed faults fire from the engine's dispatch loop -- the injector's
  :meth:`FaultInjector.pump` runs *before* a slice whose start time has
  passed a fault's ``at``, so a crash lands at the same point of the
  dispatch order every run;
* message faults consume exactly one ``random.Random(seed)`` variate
  per eligible delivery, regardless of outcome, so the stream position
  is a pure function of the delivery sequence.

Every injected fault (and every failure-semantics action taken in
response) is recorded as a :class:`FaultEvent`, emitted as a ``FAULT``
trace event, and counted once, in the ``faults_injected{kind}``
run-count family; ``RunStats.faults_injected`` is that family less the
:data:`FAILURE_KINDS`.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, TYPE_CHECKING, Union

from ..core.taskid import TaskId, USER_TERMINAL_ID
from ..core.tracing import TraceEvent, TraceEventType
from .plan import (ALWAYS_PROTECTED, FaultPlan, HostKill, MessagePolicy,
                   PECrash, TaskKill)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.vm import PiscesVM

#: Message-fault actions returned by :meth:`FaultInjector.on_message`.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CORRUPT = "corrupt"

#: Marker value substituted into a corrupted payload.
CORRUPTION_MARKER = "<CORRUPTED>"

#: Failure-*semantics* kinds: actions taken in response to a fault (a
#: detection, a restart, a reroute) that belong in the event stream but
#: are not themselves injected faults.
FAILURE_KINDS = frozenset({"corrupt_detected", "initiate_rerouted",
                           "restart", "task_died", "send_failed"})


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or failure-semantics action."""

    at: int       # virtual time the event was applied
    seq: int      # per-run injection order
    kind: str     # pe_crash | task_kill | drop | duplicate | ... | restart
    detail: str

    def line(self) -> str:
        """Deterministic JSONL rendering (the chaos-suite artifact)."""
        return json.dumps({"at": self.at, "seq": self.seq,
                           "kind": self.kind, "detail": self.detail},
                          sort_keys=True)


def corrupt_args(args: Tuple) -> Tuple:
    """Deterministically mutate a payload (stale-checksum corruption)."""
    if args:
        return (CORRUPTION_MARKER,) + tuple(args[1:])
    return (CORRUPTION_MARKER,)


class FaultInjector:
    """Executes one plan against one VM.

    A fresh injector (fresh ``Random(seed)``, fresh timed-event heap)
    is built per VM, so re-running the same plan is bit-identical.
    """

    def __init__(self, vm: "PiscesVM", plan: FaultPlan):
        self.vm = vm
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.events: List[FaultEvent] = []
        #: Fire :class:`HostKill` events?  ``restore_vm`` disarms them
        #: so a recovered run does not re-die at the same tick.  A
        #: disarmed host kill is a *total* no-op -- no variates, no
        #: recorded events -- bit-identical to a plan without it.
        self.arm_host_kills = True
        #: min-heap of (at, order, event) still to fire.
        self._timed: List[
            Tuple[int, int, Union[PECrash, TaskKill, HostKill]]] = []
        for i, ev in enumerate(plan.timed_events()):
            heapq.heappush(self._timed, (ev.at, i, ev))
        self._timed_total = len(self._timed)
        mp = plan.messages
        self._policy: Optional[MessagePolicy] = (
            mp if mp is not None and mp.any_faults else None)
        if self._policy is not None:
            p = self._policy
            self._cum_drop = p.drop
            self._cum_dup = self._cum_drop + p.duplicate
            self._cum_delay = self._cum_dup + p.delay
            self._cum_corrupt = self._cum_delay + p.corrupt
            self._protected = frozenset(ALWAYS_PROTECTED) | set(p.protected)

    # -------------------------------------------------------- recording --

    def record(self, kind: str, detail: str, *,
               task: Optional[TaskId] = None, pe: int = 0) -> FaultEvent:
        """Log one fault event (+ trace + count)."""
        vm = self.vm
        now = vm.engine.now()
        ev = FaultEvent(at=now, seq=len(self.events), kind=kind,
                        detail=detail)
        self.events.append(ev)
        vm.counts.faults_injected[kind].value += 1
        vm.tracer.emit(TraceEvent(
            etype=TraceEventType.FAULT,
            task=task if task is not None else USER_TERMINAL_ID,
            pe=pe, ticks=now, info=f"{kind}: {detail}"))
        return ev

    def export_jsonl(self) -> str:
        """All fault events as JSON lines (the CI chaos artifact)."""
        return "\n".join(ev.line() for ev in self.events)

    def write_jsonl(self, path) -> Path:
        p = Path(path)
        text = self.export_jsonl()
        p.write_text(text + "\n" if text else "")
        return p

    # ------------------------------------------------------ timed faults --

    def pump(self, upto: Optional[int]) -> bool:
        """Fire pending timed faults.

        ``upto`` is the start time of the slice the engine is about to
        dispatch: every fault scheduled at or before it fires first.
        ``upto=None`` means the engine found nothing runnable (it would
        declare deadlock); the earliest pending fault fires so a run
        blocked on a doomed PE still crashes rather than deadlocks.
        Returns True when anything fired.
        """
        fired = False
        while self._timed:
            at = self._timed[0][0]
            if upto is not None and at > upto:
                break
            _, _, ev = heapq.heappop(self._timed)
            self._fire(ev)
            fired = True
            if upto is None:
                break
        return fired

    def cursor_state(self) -> dict:
        """Where this injector is in its plan (stamped into export and
        checkpoint manifests so a bundle identifies the exact point of
        the run it was taken at)."""
        import zlib
        return {
            "timed_fired": self._timed_total - len(self._timed),
            "timed_pending": len(self._timed),
            "events_recorded": len(self.events),
            "rng_digest": zlib.adler32(repr(self.rng.getstate())
                                       .encode("utf-8")),
        }

    def _fire(self, ev: Union[PECrash, TaskKill, HostKill]) -> None:
        vm = self.vm
        if isinstance(ev, HostKill):
            if not self.arm_host_kills:
                return
            import os
            import signal
            # The chaos event checkpoint/restore exists for: die like a
            # node reclaim would -- no cleanup, no flush, no atexit.
            self.record("host_kill", f"at={ev.at} pid={os.getpid()}")
            os.kill(os.getpid(), signal.SIGKILL)
            return
        if isinstance(ev, PECrash):
            vm.on_pe_failure(ev.pe, reason=f"pe{ev.pe}-crash")
            return
        # TaskKill: the nth live task of the tasktype, in taskid order.
        victims = sorted(
            (t for t in vm.tasks.values()
             if t.alive and t.ttype.name == ev.tasktype),
            key=lambda t: (t.tid.cluster, t.tid.slot, t.tid.unique))
        if len(victims) < ev.nth:
            self.record("task_kill_miss",
                        f"type={ev.tasktype} nth={ev.nth} "
                        f"live={len(victims)}")
            return
        victim = victims[ev.nth - 1]
        self.record("task_kill", f"task={victim.tid} type={ev.tasktype}",
                    task=victim.tid, pe=victim.cluster.primary_pe)
        vm.kill_task(victim.tid, reason="fault-injected kill")

    # ---------------------------------------------------- message faults --

    def on_message(self, mtype: str) -> Optional[str]:
        """Decide the fate of one delivery; one variate per eligible call.

        Returns one of DROP/DUPLICATE/DELAY/CORRUPT or None (deliver
        normally).  System messages (``@`` types), failure notifications
        and explicitly protected types are never eligible and consume
        no randomness.
        """
        if self._policy is None or not self.message_eligible(mtype):
            return None
        u = self.rng.random()
        if u < self._cum_drop:
            return DROP
        if u < self._cum_dup:
            return DUPLICATE
        if u < self._cum_delay:
            return DELAY
        if u < self._cum_corrupt:
            return CORRUPT
        return None

    def message_eligible(self, mtype: str) -> bool:
        if self._policy is None:
            return False
        return not mtype.startswith("@") and mtype not in self._protected

    @property
    def delay_ticks(self) -> int:
        return self._policy.delay_ticks if self._policy is not None else 0

    @property
    def checksums(self) -> bool:
        """Stamp integrity checksums on eligible messages?  Only when
        the plan can corrupt payloads -- detection costs an adler32 per
        eligible message, pointless otherwise."""
        return self._policy is not None and self._policy.corrupt > 0
