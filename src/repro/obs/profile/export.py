"""Profile exporters: folded stacks and Chrome trace with wait slices.

Two external formats plus the bundle writer:

* **folded stacks** (``PE;process;frame count`` lines) feed any
  flamegraph renderer.  The *virtual* variant counts ticks and includes
  the attributed wait states as child frames, so the flame shows where
  blocked time went; the *wall* variant counts microseconds of real
  slice execution (the host work inside compute charges), work only.
* **Chrome trace** (``chrome://tracing`` / Perfetto JSON): one complete
  ``X`` event per slice on its PE row, and one colored ``X`` event per
  attributed wait interval -- wait categories map to stable ``cname``
  colors so a barrier-bound run is visibly one color.

Writers are deterministic: same run, same bytes (the wall-folded file
excepted, since wall times are measured).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ...util.durable import durable_write
from .critical_path import CriticalPath, extract_critical_path
from .profiler import CausalProfiler, profile_report

#: Chrome trace-viewer reserved color names per wait category.
WAIT_COLORS = {
    "lock-wait": "terrible",
    "barrier-wait": "bad",
    "accept-wait": "good",
    "window-wait": "thread_state_iowait",
    "dispatch-queue-wait": "grey",
    "fault-recovery": "black",
}


def folded_stacks(prof: CausalProfiler, mode: str = "virtual") -> List[str]:
    """Flamegraph input lines, sorted for deterministic output.

    ``virtual``: one frame stack ``PE<i>;<process>;work`` per slice
    (ticks) and ``PE<i>;<process>;wait;<category>`` per attributed wait
    (ticks).  ``wall``: work frames only, weighted by measured slice
    microseconds.
    """
    if mode not in ("virtual", "wall"):
        raise ValueError(f"folded_stacks mode {mode!r}: "
                         "must be 'virtual' or 'wall'")
    agg: Dict[str, int] = {}
    for r in prof.processes():
        for s in r.slices:
            key = f"PE{s.pe};{s.name};work"
            weight = s.cost if mode == "virtual" else int(s.wall * 1e6)
            if weight > 0:
                agg[key] = agg.get(key, 0) + weight
        if mode == "virtual":
            for w in r.waits:
                key = f"PE{w.pe};{w.name};wait;{w.category}"
                if w.ticks > 0:
                    agg[key] = agg.get(key, 0) + w.ticks
    return [f"{k} {v}" for k, v in sorted(agg.items())]


def chrome_profile_trace(prof: CausalProfiler) -> List[Dict[str, Any]]:
    """Chrome-trace event list: slices as ``X`` events, waits as
    colored ``X`` events, grouped per PE (pid) and process (tid)."""
    events: List[Dict[str, Any]] = []
    pes = sorted({s.pe for r in prof.processes() for s in r.slices}
                 | {w.pe for r in prof.processes() for w in r.waits})
    for pe in pes:
        events.append({"ph": "M", "name": "process_name", "pid": pe,
                       "args": {"name": f"PE {pe}"}})
    for r in prof.processes():
        for s in r.slices:
            events.append({
                "ph": "X", "name": s.name.partition("@")[0], "cat": "work",
                "pid": s.pe, "tid": s.name,
                "ts": s.start, "dur": s.cost,
                "args": {"state_after": s.new_state},
            })
        for w in r.waits:
            ev = {
                "ph": "X", "name": w.category, "cat": "wait",
                "pid": w.pe, "tid": w.name,
                "ts": w.start, "dur": w.ticks,
                "args": {"reason": w.reason},
            }
            color = WAIT_COLORS.get(w.category)
            if color:
                ev["cname"] = color
            events.append(ev)
    events.sort(key=lambda e: (e.get("ts", -1), e["pid"],
                               str(e.get("tid", "")), e["name"]))
    return events


def write_profile(prof: CausalProfiler,
                  directory: Union[str, Path],
                  prefix: str = "profile",
                  elapsed: Optional[int] = None,
                  critical_path: Optional[CriticalPath] = None,
                  ) -> Dict[str, Path]:
    """Write the full profile bundle into ``directory``:

    ``<prefix>.folded.txt``         virtual-time folded stacks
    ``<prefix>.wall.folded.txt``    wall-time folded stacks
    ``<prefix>.chrome.json``        Chrome trace with wait slices
    ``<prefix>.critical_path.json`` path segments + efficiency summary
    ``<prefix>.txt``                the human-readable report panel
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if critical_path is None:
        critical_path = extract_critical_path(prof, elapsed=elapsed)
    paths = {
        "folded": directory / f"{prefix}.folded.txt",
        "wall_folded": directory / f"{prefix}.wall.folded.txt",
        "chrome": directory / f"{prefix}.chrome.json",
        "critical_path": directory / f"{prefix}.critical_path.json",
        "report": directory / f"{prefix}.txt",
    }
    durable_write(paths["folded"],
                  "\n".join(folded_stacks(prof, "virtual")) + "\n")
    durable_write(paths["wall_folded"],
                  "\n".join(folded_stacks(prof, "wall")) + "\n")
    durable_write(paths["chrome"], json.dumps(
        {"traceEvents": chrome_profile_trace(prof),
         "displayTimeUnit": "ns"}, indent=1))
    durable_write(paths["critical_path"],
                  json.dumps(critical_path.as_dict(), indent=1))
    durable_write(paths["report"],
                  profile_report(prof, elapsed=elapsed) + "\n")
    return paths
