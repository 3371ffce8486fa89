"""Messages and in-queues.

Section 6/11: communication is asynchronous; messages are queued in an
in-queue for the receiver in order of arrival; the shared-memory message
area is a heap with explicit allocation (at send) and deallocation (at
accept).  A message consists of a header and a list of packets holding
the arguments; "whenever a task receives a message from another task,
the taskid of the sender is included as part of the message".
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..flex.memory import Allocation, HeapAllocator
from .sizes import MSG_HEADER_BYTES, PACKET_HEADER_BYTES, PACKET_PAYLOAD_BYTES, message_bytes
from .taskid import TaskId

_seq = itertools.count(1)


@dataclass(eq=False)
class Message:
    """One in-flight or queued message.

    Identity equality (``eq=False``): every message is a distinct heap
    extent with a globally unique ``seq``, and identity comparison keeps
    queue removal a pointer scan instead of field-wise comparison.
    """

    mtype: str
    args: Tuple[Any, ...]
    sender: TaskId
    receiver: TaskId
    send_time: int
    arrival_time: int
    seq: int = field(default_factory=lambda: next(_seq))
    #: Shared-memory extent backing this message (header + packets as
    #: one block, since packet count is fixed at send time).
    allocation: Optional[Allocation] = None
    #: Total bytes of the allocation (kept after free for statistics).
    nbytes: int = 0
    npackets: int = 0
    #: Payload integrity checksum (see :func:`payload_checksum`).  None
    #: on the normal path: the field is only populated by the fault
    #: injector so corrupted payloads are detectable at accept; the
    #: zero-fault cost is one ``is None`` test per accepted message.
    checksum: Optional[int] = None

    def key(self) -> Tuple[int, int]:
        """Queue ordering: arrival time, then global send sequence."""
        return (self.arrival_time, self.seq)

    def verify(self) -> bool:
        """True when no checksum is carried or the payload matches it."""
        if self.checksum is None:
            return True
        return payload_checksum(self.mtype, self.args) == self.checksum

    def describe(self) -> str:
        return (f"{self.mtype}({len(self.args)} args, {self.nbytes}B) "
                f"from {self.sender} arr={self.arrival_time}")


def _checksum_bytes(value: Any) -> bytes:
    """Stable byte rendering of one message argument for checksumming."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if hasattr(value, "tobytes"):    # Grids, and numpy values a task sends
        try:
            return value.tobytes()
        except Exception:
            pass
    return repr(value).encode("utf-8", "backslashreplace")


def payload_checksum(mtype: str, args: Tuple[Any, ...]) -> int:
    """Adler-32 over a stable rendering of ``(mtype, args)``.

    Cheap enough to compute per message while a fault plan is active,
    and order/type sensitive enough that the injector's payload
    mutations are always detected.
    """
    crc = zlib.adler32(mtype.encode("utf-8"))
    for a in args:
        crc = zlib.adler32(_checksum_bytes(a), crc)
    return crc & 0xFFFFFFFF


def allocate_message(heap: HeapAllocator, mtype: str, args: Tuple[Any, ...],
                     sender: TaskId, receiver: TaskId,
                     send_time: int, arrival_time: int,
                     tag: str = "message") -> Message:
    """Build a message, claiming its bytes from the shared-memory heap.

    Raises :class:`~repro.errors.OutOfMemory` when the message area is
    exhausted -- the failure mode section 13 warns about when "large
    numbers of messages ... are sent and left waiting in a task's
    in-queue without being accepted".
    """
    nbytes, npackets = message_bytes(args)
    alloc = heap.alloc(nbytes, tag=tag)
    return Message(mtype=mtype, args=args, sender=sender, receiver=receiver,
                   send_time=send_time, arrival_time=arrival_time,
                   allocation=alloc, nbytes=nbytes, npackets=npackets)


def release_message(heap: HeapAllocator, msg: Message) -> None:
    """Return a message's bytes to the heap (done at accept/cleanup)."""
    if msg.allocation is not None:
        heap.free(msg.allocation)
        msg.allocation = None


class InQueue:
    """A task's in-queue: messages in arrival order, indexed by type.

    The receiver scans it with ACCEPT; messages not matching the accept
    specification stay queued (and keep their heap bytes) until a later
    ACCEPT names their type or the task terminates.

    Two structures are kept in lockstep:

    * ``_q`` -- every queued message in global ``(arrival_time, seq)``
      order (the paper's arrival-ordered in-queue, used by displays and
      the monitor's queue dump);
    * ``_by_type`` -- one deque per message type, each in the same key
      order, so :meth:`first_matching` / :meth:`earliest_arrival` peek
      at per-type heads instead of scanning the unmatched backlog (the
      section-13 "messages left waiting in the in-queue" scenario made
      the scan quadratic).

    ``live_bytes`` is maintained incrementally at enqueue/remove.
    """

    def __init__(self, owner: TaskId):
        self.owner = owner
        self._q: List[Message] = []
        self._by_type: Dict[str, Deque[Message]] = {}
        self._live_bytes = 0
        self.total_received = 0
        #: Observability hook: a :class:`~repro.obs.metrics.MetricsRegistry`
        #: plus the label set identifying this queue (wired by the owner:
        #: Task / Controller construction).  None means unmetered.
        self.metrics = None
        self.metric_labels: dict = {}
        #: (depth family, bytes family, label key), bound on the first
        #: metered enqueue.
        self._meters: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._q)

    def enqueue(self, msg: Message) -> None:
        """Insert in (arrival_time, seq) order.

        Appends are the common case because dispatch times are
        non-decreasing; the sort key guards the rare same-time races.
        """
        key = msg.key()
        q = self._q
        i = len(q)
        while i > 0 and q[i - 1].key() > key:
            i -= 1
        q.insert(i, msg)
        d = self._by_type.get(msg.mtype)
        if d is None:
            d = self._by_type[msg.mtype] = deque()
        if not d or d[-1].key() <= key:
            d.append(msg)
        else:
            j = len(d)
            while j > 0 and d[j - 1].key() > key:
                j -= 1
            d.insert(j, msg)
        self._live_bytes += msg.nbytes
        self.total_received += 1
        m = self.metrics
        if m is not None and m.enabled:
            meters = self._meters
            if meters is None:
                meters = self._meters = (
                    m.histogram_family("inqueue_depth"),
                    m.counter_family("inqueue_bytes"),
                    tuple(sorted(self.metric_labels.items())))
            depths, nbytes, key = meters
            depths[key].observe(len(q))
            nbytes[key].value += msg.nbytes

    def peek(self) -> Optional[Message]:
        """Earliest queued message of any type (None when empty)."""
        return self._q[0] if self._q else None

    def first_matching(self, mtypes: Iterable[str],
                       not_after: Optional[int] = None) -> Optional[Message]:
        """Earliest queued message whose type is in ``mtypes``.

        ``not_after`` bounds the arrival time (a receiver at virtual
        time *t* only sees messages that have already arrived).  Cost is
        O(len(mtypes)): each per-type deque is in key order, so only its
        head can be the answer.
        """
        best = None
        best_key = None
        for t in mtypes:
            d = self._by_type.get(t)
            if not d:
                continue
            m = d[0]
            if not_after is not None and m.arrival_time > not_after:
                continue
            k = m.key()
            if best_key is None or k < best_key:
                best, best_key = m, k
        return best

    def earliest_arrival(self, mtypes: Iterable[str],
                         after: int) -> Optional[int]:
        """Arrival time of the first matching message later than ``after``."""
        best = None
        for t in mtypes:
            d = self._by_type.get(t)
            if not d:
                continue
            # In-flight matches sit behind any already-arrived backlog
            # of the same type; key order makes the first one past
            # ``after`` the earliest for this type.
            for m in d:
                if m.arrival_time > after:
                    if best is None or m.arrival_time < best:
                        best = m.arrival_time
                    break
        return best

    def remove(self, msg: Message) -> None:
        self._q.remove(msg)
        d = self._by_type[msg.mtype]
        if d[0] is msg:
            d.popleft()
        else:
            d.remove(msg)
        if not d:
            del self._by_type[msg.mtype]
        self._live_bytes -= msg.nbytes

    def remove_type(self, mtype: Optional[str] = None) -> List[Message]:
        """Drop all messages (of one type, or every type); returns them.

        Implements the monitor's DELETE MESSAGES operation; caller frees
        the heap bytes.
        """
        if mtype is None:
            dropped, self._q = self._q, []
            self._by_type.clear()
            self._live_bytes = 0
            return dropped
        d = self._by_type.pop(mtype, None)
        if not d:
            return []
        dropped = list(d)    # already in queue (key) order
        self._q = [m for m in self._q if m.mtype != mtype]
        for m in dropped:
            self._live_bytes -= m.nbytes
        return dropped

    def messages(self) -> List[Message]:
        return list(self._q)

    def live_bytes(self) -> int:
        return self._live_bytes

    def describe(self) -> str:
        if not self._q:
            return f"in-queue of {self.owner}: empty"
        lines = [f"in-queue of {self.owner}: {len(self._q)} messages, "
                 f"{self.live_bytes()} bytes"]
        for m in self._q:
            lines.append("  " + m.describe())
        return "\n".join(lines)
