"""Run-stable state snapshot and restore validation.

The snapshot is a *digest* of everything the VM's schedule position
pins down: per-PE clocks, kernel-process scheduling state, task
liveness and restart budgets, in-queue contents, SHARED COMMON and
window-array checksums, lock / barrier / force counters, and the RNG
states.  A restored run replays the recorded schedule prefix and must
land on exactly this snapshot before it is allowed to continue live --
any divergence means the rebuilt VM is not the VM that was
checkpointed (wrong registry, changed task code, edited bundle) and
continuing would silently produce garbage.

Two stability rules govern what may appear here:

* Never raw ``pid`` or ``Message.seq`` -- both come from process-global
  counters that differ between the original process and a restored one
  (e.g. the restorer constructs objects the original never did).  Use
  ``spawn_ordinal``, names, taskid strings, and message *field*
  tuples instead.
* JSON-stable types only: string keys, lists not tuples.  Comparison
  round-trips both sides through JSON so an in-memory snapshot and one
  parsed back from a bundle digest identically.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Optional

from ..errors import CheckpointError


def _inq_digest(q) -> List[list]:
    """In-queue contents as run-stable field tuples, in queue order.

    ``Message.seq`` is deliberately excluded (process-global counter);
    queue *order* already encodes the (arrival_time, seq) sort.
    """
    return [[m.mtype, str(m.sender), str(m.receiver),
             int(m.send_time), int(m.arrival_time), int(m.nbytes)]
            for m in q._q]


def _rng_digest(rng) -> int:
    return zlib.adler32(repr(rng.getstate()).encode("utf-8"))


#: RunStats counters that describe host-side work, not virtual state:
#: checkpoint accounting (the original run and a restored continuation
#: legitimately differ in how many bundles each process wrote) and the
#: window data plane's transfer and cache counters (they depend on the
#: window path, a host-level choice -- a bundle written on the legacy
#: ``batched`` path or the ``reference`` oracle restores onto ``fast``).
_HOST_STATS = frozenset({
    "checkpoints_written", "checkpoint_bytes", "window_bytes_moved",
    "window_txns", "window_cache_hits", "window_cache_misses"})


def _run_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in stats.items() if k not in _HOST_STATS}


def snapshot_state(vm) -> Dict[str, Any]:
    """Capture the run-stable state digest of a VM between dispatches."""
    eng = vm.engine
    ordinal_of = {p.pid: p.spawn_ordinal for p in eng._by_ordinal}

    tasks = []
    for tid in sorted(vm.tasks, key=str):
        t = vm.tasks[tid]
        tasks.append({
            "tid": str(tid),
            "ttype": t.ttype.name,
            "alive": bool(t.alive),
            "restarts_used": int(t.restarts_used),
            "inq": _inq_digest(t.inq),
            "shared": t.shared_state.snapshot(ordinal_of.get),
            "arrays": t.arrays.snapshot(),
            "force": None if t.force is None else t.force.snapshot(),
        })

    controllers = {str(tid): _inq_digest(c.inq)
                   for tid, c in sorted(vm.controllers.items(), key=lambda kv: str(kv[0]))}

    state: Dict[str, Any] = {
        "now": int(eng.now()),
        "dispatch_seq": int(eng._dispatch_seq),
        "clocks": {str(pe): int(clk.ticks)
                   for pe, clk in sorted(eng._clockmap.items())},
        "procs": [p.sched_snapshot() for p in eng._by_ordinal],
        "tasks": tasks,
        "controllers": controllers,
        "rng": {"run": _rng_digest(vm.run_rng)},
        "stats": _run_stats(vm.stats.as_dict()),
    }
    if vm.file_controller is not None:
        state["file_store"] = vm.file_controller.arrays.snapshot()
    if vm.faults is not None:
        state["rng"]["faults"] = _rng_digest(vm.faults.rng)
        state["fault_cursor"] = vm.faults.cursor_state()
    return state


def _normalize(x: Any) -> Any:
    """JSON round-trip so in-memory and bundle-parsed snapshots compare
    equal (int dict keys become strings, tuples become lists)."""
    return json.loads(json.dumps(x, sort_keys=True))


def verify_snapshot(vm, expected: Dict[str, Any]) -> None:
    """Compare the VM's current state digest against a checkpoint's.

    Raises :class:`~repro.errors.CheckpointError` naming the mismatched
    top-level keys; used at the replay-to-live switch to prove the
    restored VM reconverged on the checkpointed state.
    """
    actual = _normalize(snapshot_state(vm))
    expected = _normalize(expected)
    if "stats" in expected:     # bundles written before _HOST_STATS grew
        expected["stats"] = _run_stats(expected["stats"])
    if actual == expected:
        return
    keys = sorted(set(actual) | set(expected))
    bad = [k for k in keys if actual.get(k) != expected.get(k)]
    raise CheckpointError(
        "restored run diverged from checkpoint at the replay/live switch; "
        f"mismatched snapshot sections: {', '.join(bad) or '<structure>'} "
        "(wrong task registry, changed task code, or edited bundle?)")
