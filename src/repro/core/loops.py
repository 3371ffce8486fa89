"""Parallel loop scheduling and parallel segments (section 7e, 7f).

PRESCHED: "in a force of N members, each member should take 1/N of the
loop iterations.  The Ith force member takes iterations I, N+I, 2*N+I,
etc."  (Cyclic/interleaved preschedule.)

SELFSCHED: "each force member takes the 'next' iteration when it
arrives at the loop.  After completing one iteration, a force member
takes the 'next' iteration of those remaining, etc., until all
iterations are complete."

PARSEG: parallel segments -- "The Ith force member executes the Ith,
N+I, 2*N+I, etc. statement sequences, just as for a PRESCHED DO loop."
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterator, List, Sequence, TYPE_CHECKING, Union

from ..mmos.process import co_preempt
from ..mmos.scheduler import Engine
from .sizes import COST_SELFSCHED_FETCH

if TYPE_CHECKING:  # pragma: no cover
    from .forces import Force, ForceContext


def _materialize(iterations: Union[int, range, Sequence]) -> Sequence:
    if isinstance(iterations, int):
        return range(iterations)
    return iterations


def presched(member: "ForceContext",
             iterations: Union[int, range, Sequence]) -> Iterator:
    """Prescheduled partition: member m of N takes m, m+N, m+2N, ...

    (0-based; the paper's statement is the same rule 1-based.)
    """
    seq = _materialize(iterations)
    n = member.force.size
    det = member.force.task.vm.race_detector
    if det is not None:
        det.on_presched_claim(member.member, len(seq), n)
    for i in range(member.member, len(seq), n):
        yield seq[i]


class SelfSchedCounter:
    """Shared "next iteration" counter for one SELFSCHED loop.

    All members executing the same (textual) loop share one counter; the
    force hands them out by per-member loop ordinal, which is well
    defined because every member executes the same program text.
    """

    def __init__(self, total: int):
        self.total = total
        self.next_index = 0
        #: member -> number of iterations it executed (load-balance stats).
        self.executed: dict[int, int] = {}

    def fetch(self, member_index: int) -> int:
        """Grab the next index; -1 when exhausted."""
        if self.next_index >= self.total:
            return -1
        i = self.next_index
        self.next_index += 1
        self.executed[member_index] = self.executed.get(member_index, 0) + 1
        return i


def selfsched(engine: Engine, member: "ForceContext",
              iterations: Union[int, range, Sequence]) -> Iterator:
    """Self-scheduled loop: members dynamically grab the next iteration.

    Each fetch charges :data:`~repro.core.sizes.COST_SELFSCHED_FETCH`
    ticks (the shared-counter critical section); the engine's one-at-a-
    time admission makes the counter update atomic, as the run-time
    library's lock would on the real machine.
    """
    seq = _materialize(iterations)
    counter = member.force.selfsched_counter(member, len(seq))
    vm = member.force.task.vm
    while True:
        engine.charge(COST_SELFSCHED_FETCH)
        engine.preempt(0)
        i = counter.fetch(member.member)
        det = vm.race_detector
        if det is not None:
            # The shared counter is a read-modify-write chain: each
            # fetch is ordered after every earlier fetch (the run-time
            # library's internal lock), which is exactly what makes
            # "my claimed iterations are mine alone" sound.
            det.on_selfsched_fetch(counter, i, member.member)
        if i < 0:
            return
        sh = vm.sched_hook
        if sh is not None:
            sh.take("S", (member.member, i))
        yield seq[i]


def selfsched_do(engine: Engine, member: "ForceContext",
                 iterations: Union[int, range, Sequence],
                 body: Callable[[Any], Any]):
    """SELFSCHED as a KernelOp generator: run ``body(item)`` for each
    dynamically claimed iteration; returns this member's results in
    claim order.

    This is the form coroutine members use (``yield from
    m.selfsched_do(n, body)``) -- a Python ``for`` over the
    :func:`selfsched` iterator cannot carry the fetch's KernelOps out
    of the body.  ``body`` may be a generator function when an
    iteration needs to suspend.  Per fetch the op stream is identical
    to :func:`selfsched`: one counter charge and one preemption point.
    """
    seq = _materialize(iterations)
    counter = member.force.selfsched_counter(member, len(seq))
    vm = member.force.task.vm
    body_is_gen = inspect.isgeneratorfunction(body)
    out: List[Any] = []
    while True:
        engine.charge(COST_SELFSCHED_FETCH)
        yield co_preempt(0)
        i = counter.fetch(member.member)
        det = vm.race_detector
        if det is not None:
            det.on_selfsched_fetch(counter, i, member.member)
        if i < 0:
            return out
        sh = vm.sched_hook
        if sh is not None:
            sh.take("S", (member.member, i))
        if body_is_gen:
            out.append((yield from body(seq[i])))
        else:
            out.append(body(seq[i]))


def parseg(member: "ForceContext",
           segments: Sequence[Callable[[], Any]]):
    """PARSEG: run this member's share of the segments; returns their
    results in segment order (for this member's segments only).

    A KernelOp generator so that segments written as generator
    functions can suspend; plain segments run synchronously, making
    the classic all-plain case yield no ops at all.
    """
    n = member.force.size
    out: List[Any] = []
    for i in range(member.member, len(segments), n):
        seg = segments[i]
        if inspect.isgeneratorfunction(seg):
            out.append((yield from seg()))
        else:
            out.append(seg())
    return out
