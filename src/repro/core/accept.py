"""ACCEPT statement semantics (section 6).

An ACCEPT names message types and how many messages to take:

* ``ACCEPT <n> OF t1, t2, ...`` -- a *total* of n messages across the
  listed types;
* per-type counts -- "the statement may specify counts for each message
  type individually";
* ``ALL`` -- "all messages of that type that have been received" (a
  drain of what is already queued; never waits for more);
* a ``DELAY <time>`` clause bounding the wait, with an optional handler
  statement sequence; without a DELAY clause a system-provided timeout
  value is used.

Python binding::

    ctx.accept("DONE")                          # 1 message of type DONE
    ctx.accept("A", "B", count=3)               # 3 of types A/B combined
    ctx.accept(("A", 2), ("B", ALL_RECEIVED))   # per-type counts
    ctx.accept("GO", delay=500, on_timeout=f)   # DELAY 500 THEN f()

Each accepted message is *processed*: a type with a declared HANDLER has
its handler subroutine called with the message arguments; any other type
is a SIGNAL and is simply counted.  Either way the message's
shared-memory bytes are released.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import MessageError
from .messages import Message


class _AllReceived:
    """Sentinel: accept every already-received message of the type."""

    def __repr__(self) -> str:
        return "ALL_RECEIVED"


#: The ``ALL`` count of the paper's ACCEPT statement.
ALL_RECEIVED = _AllReceived()


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout escalation for ACCEPT: retry the wait before failing.

    When the (explicit or system) delay expires unsatisfied, the accept
    waits again up to ``retries`` more times, each wait ``backoff``
    times longer than the previous one, before the timeout is finally
    surfaced (handler / partial result / AcceptTimeout).  ``retries=0``
    is the paper's single-wait behaviour.
    """

    retries: int = 0
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise MessageError("RetryPolicy.retries must be >= 0")
        if self.backoff < 1.0:
            raise MessageError("RetryPolicy.backoff must be >= 1")

    def wait_ticks(self, base_delay: int, attempt: int) -> int:
        """Length of the ``attempt``-th wait (0 = the initial one)."""
        return max(1, int(base_delay * self.backoff ** attempt))


@dataclass
class AcceptSpec:
    """Normalized accept specification."""

    #: type name -> wanted count (None means ALL_RECEIVED drain).
    per_type: Dict[str, Optional[int]]
    #: total-count mode: n messages across all listed types.
    total: Optional[int] = None

    @property
    def mtypes(self) -> List[str]:
        return list(self.per_type)


def normalize_specs(specs: Sequence[Union[str, Tuple[str, Any]]],
                    count: Optional[int]) -> AcceptSpec:
    """Turn the user-facing argument forms into an :class:`AcceptSpec`."""
    if not specs:
        raise MessageError("ACCEPT needs at least one message type")
    per_type: Dict[str, Optional[int]] = {}
    saw_tuple = False
    for s in specs:
        if isinstance(s, str):
            per_type[s] = 1
        elif isinstance(s, tuple) and len(s) == 2 and isinstance(s[0], str):
            saw_tuple = True
            t, c = s
            if c is ALL_RECEIVED:
                per_type[t] = None
            else:
                c = int(c)
                if c < 0:
                    raise MessageError(f"negative accept count for {t!r}")
                per_type[t] = c
        else:
            raise MessageError(f"bad accept spec {s!r}")
    if count is not None:
        if saw_tuple:
            raise MessageError("cannot mix a total count with per-type counts")
        if count < 0:
            raise MessageError("negative total accept count")
        return AcceptSpec(per_type={t: None for t in per_type}, total=count)
    if saw_tuple:
        return AcceptSpec(per_type=per_type)
    # Plain type names: each wants one message -- equivalent to per-type
    # count 1, which also covers the single-type ACCEPT 1 OF T case.
    return AcceptSpec(per_type=per_type)


@dataclass
class AcceptResult:
    """What an ACCEPT took: the processed messages, in accept order."""

    messages: List[Message] = field(default_factory=list)
    timed_out: bool = False

    @property
    def count(self) -> int:
        return len(self.messages)

    def by_type(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.messages:
            out[m.mtype] = out.get(m.mtype, 0) + 1
        return out

    def of_type(self, mtype: str) -> List[Message]:
        return [m for m in self.messages if m.mtype == mtype]

    @property
    def args(self) -> Tuple[Any, ...]:
        """Arguments of the first accepted message (common 1-message case)."""
        if not self.messages:
            raise MessageError("accept processed no messages")
        return self.messages[0].args

    @property
    def sender(self):
        if not self.messages:
            raise MessageError("accept processed no messages")
        return self.messages[-1].sender


class AcceptState:
    """Progress tracker used by the accept loop in the task context."""

    def __init__(self, spec: AcceptSpec):
        self.spec = spec
        self.taken: Dict[str, int] = {t: 0 for t in spec.per_type}
        self.result = AcceptResult()
        #: Cache for :meth:`wanted_now`, invalidated by :meth:`take` --
        #: the accept wait loop probes the in-queue many times between
        #: takes and must not rebuild the type collection per probe.
        self._wanted_cache: Optional[Tuple[str, ...]] = None

    def wanted_now(self) -> Tuple[str, ...]:
        """Types the accept would take one more message of, right now.

        Returns a stable tuple (no duplicates: spec types are dict
        keys), built once per take rather than once per in-queue poll;
        :meth:`InQueue.first_matching` iterates it directly without
        constructing a set.
        """
        w = self._wanted_cache
        if w is None:
            w = self._wanted_cache = tuple(
                t for t in self.spec.per_type if self.wants(t))
        return w

    def wants(self, mtype: str) -> bool:
        """Would the accept take one more message of this type?"""
        if mtype not in self.spec.per_type:
            return False
        if self.spec.total is not None:
            return len(self.result.messages) < self.spec.total
        want = self.spec.per_type[mtype]
        if want is None:       # ALL: always take what has arrived
            return True
        return self.taken[mtype] < want

    def take(self, msg: Message) -> None:
        self.taken[msg.mtype] += 1
        self.result.messages.append(msg)
        self._wanted_cache = None

    def satisfied(self) -> bool:
        """True when the accept need not wait for more messages."""
        if self.spec.total is not None:
            return len(self.result.messages) >= self.spec.total
        return all(c is None or self.taken[t] >= c
                   for t, c in self.spec.per_type.items())

    def wanted_types_open(self) -> List[str]:
        """Types for which the accept is still waiting on future arrivals."""
        if self.satisfied():
            return []
        if self.spec.total is not None:
            return list(self.spec.per_type)
        return [t for t, c in self.spec.per_type.items()
                if c is not None and self.taken[t] < c]
