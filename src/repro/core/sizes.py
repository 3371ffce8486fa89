"""Struct sizes and run-time call costs.

The section-13 storage measurements are *measured*, not asserted: the
run-time library allocates its shared-memory structures with these
C-struct-like sizes, chosen to be plausible for a 32-bit machine of the
FLEX/32 era (NS32032).  The paper gives the layout (section 11):

* a system table "with entries for each cluster and each slot within
  each cluster", each running task represented by a record holding task
  state, in-queue pointers, free-space lists and trace flags;
* a message area kept "as a heap with explicit allocation/deallocation";
  messages are "a header and a list of packets containing the arguments";
* a statically-allocated SHARED COMMON area.

Tick costs are arbitrary units; only relative magnitudes matter for the
shape of the benchmark results (process creation >> send >> lock).
"""

from __future__ import annotations

import sys
from typing import Any

from .grid import Grid

# ------------------------------------------------------------- sizes ------

#: A taskid is <cluster number, slot number, unique number> (section 6).
TASKID_BYTES = 12
#: A window value holds the owner taskid, the array address, and a
#: descriptor for the subarray (section 8): 12 + 4 + 16.
WINDOW_BYTES = 32

#: Message header: sender taskid, type code, packet-list pointer,
#: arrival link, timestamp, argument count.
MSG_HEADER_BYTES = 48
#: Each argument packet carries up to this many payload bytes.
PACKET_PAYLOAD_BYTES = 64
#: Per-packet link/size overhead.
PACKET_HEADER_BYTES = 8

#: Per-cluster entry in the system table.
CLUSTER_ENTRY_BYTES = 64
#: Per-slot entry (status word, links).
SLOT_ENTRY_BYTES = 32
#: Task state record: state info, in-queue pointers, free-space list
#: heads, trace flags (section 11 item 1).
TASK_RECORD_BYTES = 96

#: Resident size of the PISCES run-time system per PE.  18 KB of code
#: plus 6 KB of static data = 24 KB, i.e. 2.34% of a 1 MB local memory,
#: matching "less than 2.5% of each PE's local memory".
PISCES_SYSTEM_CODE_BYTES = 18 * 1024
PISCES_SYSTEM_DATA_BYTES = 6 * 1024
#: The MMOS kernel itself (not counted as PISCES overhead).
MMOS_KERNEL_BYTES = 64 * 1024
#: Fallback size for a tasktype whose source cannot be inspected.
DEFAULT_TASKTYPE_CODE_BYTES = 2 * 1024

#: A lock variable.
LOCK_BYTES = 4

# ------------------------------------------------------------- costs ------

COST_SEND = 30              # run-time work to post a message
COST_PER_PACKET = 2         # copying each argument packet
COST_ACCEPT = 15            # scan/accept bookkeeping
COST_HANDLER_DISPATCH = 10  # invoking a HANDLER subroutine
COST_INITIATE_REQUEST = 25  # sending the initiate request to a controller
COST_CONTROLLER_INITIATE = 150   # controller creating the task
COST_TASK_TERMINATE = 60
COST_FORCESPLIT_BASE = 100
COST_FORCESPLIT_PER_MEMBER = 50
COST_BARRIER = 10
COST_LOCK = 5
COST_UNLOCK = 5
COST_SELFSCHED_FETCH = 8    # grabbing the "next" iteration index
COST_WINDOW_REQUEST = 40
COST_WINDOW_PER_BYTE_SHIFT = 7   # 1 tick per 128 bytes moved (memory
                                 # path; disks are ~8x slower per byte)

#: Message transit latency, in ticks.
MSG_LATENCY_INTRA_CLUSTER = 10
MSG_LATENCY_INTER_CLUSTER = 40

#: System-provided ACCEPT timeout when no DELAY clause is given.
DEFAULT_ACCEPT_DELAY = 1_000_000


def window_transfer_cost(nbytes: int) -> int:
    """Ticks to move ``nbytes`` through a window read/write."""
    return COST_WINDOW_REQUEST + (nbytes >> COST_WINDOW_PER_BYTE_SHIFT)


def packed_size(value: Any) -> int:
    """Bytes a value occupies when packed into message argument packets.

    Mirrors a Fortran-era marshalling: numbers are 8 bytes, logicals 4,
    character strings their length (rounded up to 4), taskids and
    windows their struct sizes, arrays their raw bytes, sequences the sum
    of their elements.
    """
    from .taskid import TaskId          # local import to avoid a cycle
    from .windows import Window, WindowTxn, WindowTxnReply

    if isinstance(value, WindowTxn):
        # The window descriptor, op/generation words, and the payload.
        return (WINDOW_BYTES + 16
                + (int(value.data.nbytes) if value.data is not None else 0))
    if isinstance(value, WindowTxnReply):
        return 16 + (int(value.data.nbytes) if value.data is not None else 0)
    if isinstance(value, bool):
        return 4
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, complex):
        return 16
    if isinstance(value, str):
        return max(4, (len(value) + 3) & ~3)
    if isinstance(value, bytes):
        return max(4, (len(value) + 3) & ~3)
    if isinstance(value, TaskId):
        return TASKID_BYTES
    if isinstance(value, Window):
        return WINDOW_BYTES
    if isinstance(value, (list, tuple)):
        return sum(packed_size(v) for v in value)
    if isinstance(value, dict):
        return sum(packed_size(k) + packed_size(v) for k, v in value.items())
    if value is None:
        return 4
    if isinstance(value, Grid):
        return value.nbytes
    # A value cannot be a numpy array or scalar unless numpy is loaded
    # (a task may still send its own numpy values).
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return int(value.nbytes)
        if isinstance(value, (np.integer, np.floating)):
            return 8
    # Anything else: approximate by its repr length (keeps accounting total).
    return max(4, (len(repr(value)) + 3) & ~3)


def message_bytes(args: tuple) -> tuple[int, int]:
    """(total bytes, packet count) a message with ``args`` occupies.

    The header is one allocation; the arguments are split into packets
    of :data:`PACKET_PAYLOAD_BYTES` each with a small packet header.
    """
    payload = sum(packed_size(a) for a in args)
    npackets = (payload + PACKET_PAYLOAD_BYTES - 1) // PACKET_PAYLOAD_BYTES
    total = MSG_HEADER_BYTES + npackets * (PACKET_HEADER_BYTES + PACKET_PAYLOAD_BYTES)
    return total, npackets


def slot_table_bytes(n_user_slots: int, n_controller_slots: int) -> int:
    """Static system-table bytes for one cluster."""
    n = n_user_slots + n_controller_slots
    return CLUSTER_ENTRY_BYTES + n * (SLOT_ENTRY_BYTES + TASK_RECORD_BYTES)
