"""Schedule record/replay: the ``.psched`` artifact.

A recorded run captures the dispatcher's complete decision stream:

* **P** -- process spawns ``ordinal:name`` (ordinals are per-engine and
  per-run stable; kernel pids are process-global and are not);
* **D** -- dispatches ``ordinal:start`` in dispatch order (the start
  tick doubles as a virtual-time checksum);
* **S** -- SELFSCHED grabs ``member:index`` in fetch order;
* **L** -- lock grants ``member:lockname`` in acquisition order;
* **A** -- accept matches ``receiver:sender:mtype`` in match order
  (message seq numbers are process-global, so matches are identified
  by their per-run-stable task ids).

The artifact is plain text: a ``#psched 1`` magic line, one ``meta``
line, then chunked record lines (16 tokens each) -- compact, diffable
and stable under round-trips.

Replay is the engine's second dispatcher (``PISCES_REPLAY_SCHEDULE=``
a ``.psched`` path, or a ``schedule=`` argument): the engine *peeks* the next D record to drive selection and the
:class:`Schedule` verifies every decision as the hooks consume it,
raising :class:`~repro.errors.ReplayDivergence` on the first mismatch.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReplayDivergence, ScheduleFormatError
from ..util.durable import durable_write

MAGIC = "#psched 1"
_TOKENS_PER_LINE = 16


class ScheduleRecorder:
    """Accumulates the decision stream of one run (the ``sched_hook``).

    Hook methods never touch engine state and charge no virtual time:
    a recorded run is bit-identical to an unrecorded one.
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 meta: Optional[Dict[str, str]] = None):
        #: When set, :meth:`save` runs automatically at engine shutdown.
        self.autosave_path = None if path is None else Path(path)
        self.meta: Dict[str, str] = dict(meta or {})
        self.spawns: List[Tuple[int, str]] = []
        self.dispatches: List[Tuple[int, int]] = []
        self.selfsched: List[Tuple[int, int]] = []
        self.lock_grants: List[Tuple[int, str]] = []
        self.accepts: List[Tuple[str, str, str]] = []
        self._saved = False

    # ------------------------------------------------------------ hooks --

    def on_spawn(self, ordinal: int, name: str) -> None:
        self.spawns.append((ordinal, name))

    def on_dispatch(self, ordinal: int, start: int, name: str) -> None:
        self.dispatches.append((ordinal, start))

    def on_selfsched(self, member: int, index: int) -> None:
        self.selfsched.append((member, index))

    def on_lock_grant(self, member: int, lock: str) -> None:
        self.lock_grants.append((member, lock))

    def on_accept_match(self, receiver: str, sender: str, mtype: str) -> None:
        self.accepts.append((receiver, sender, mtype))

    # ----------------------------------------------------------- output --

    def dumps(self) -> str:
        lines = [MAGIC]
        meta = dict(self.meta)
        meta.setdefault("spawns", str(len(self.spawns)))
        meta.setdefault("dispatches", str(len(self.dispatches)))
        lines.append("meta " + " ".join(
            f"{k}={v}" for k, v in sorted(meta.items())))

        def chunk(tag: str, tokens: List[str]) -> None:
            for i in range(0, len(tokens), _TOKENS_PER_LINE):
                lines.append(tag + " " + " ".join(
                    tokens[i:i + _TOKENS_PER_LINE]))

        chunk("P", [f"{o}:{n}" for o, n in self.spawns])
        chunk("D", [f"{o}:{s}" for o, s in self.dispatches])
        chunk("S", [f"{m}:{i}" for m, i in self.selfsched])
        chunk("L", [f"{m}:{lk}" for m, lk in self.lock_grants])
        chunk("A", [f"{r}:{s}:{t}" for r, s, t in self.accepts])
        return "\n".join(lines) + "\n"

    def save(self, path: Union[str, Path, None] = None) -> Path:
        """Write the artifact (idempotent for the autosave path)."""
        target = Path(path) if path is not None else self.autosave_path
        if target is None:
            raise ValueError("ScheduleRecorder.save: no path given and no "
                             "autosave path configured")
        durable_write(target, self.dumps())
        self._saved = True
        return target

    def autosave(self) -> None:
        """Engine-shutdown hook: flush to the autosave path once."""
        if self.autosave_path is not None and not self._saved:
            self.save()

    def as_schedule(self) -> "Schedule":
        """An in-memory :class:`Schedule` over this recording."""
        return Schedule(spawns=list(self.spawns),
                        dispatches=list(self.dispatches),
                        selfsched=list(self.selfsched),
                        lock_grants=list(self.lock_grants),
                        accepts=list(self.accepts), meta=dict(self.meta))

    def position(self) -> Dict[str, int]:
        """Per-stream record counts (the run's schedule position --
        stamped into export/checkpoint manifests)."""
        return {"P": len(self.spawns), "D": len(self.dispatches),
                "S": len(self.selfsched), "L": len(self.lock_grants),
                "A": len(self.accepts)}

    def consumed_streams(self) -> Dict[str, list]:
        """Everything recorded so far, keyed by stream tag (the uniform
        prefix interface shared with :meth:`Schedule.consumed_streams`:
        for a live recorder the whole recording *is* the prefix)."""
        return {"P": list(self.spawns), "D": list(self.dispatches),
                "S": list(self.selfsched), "L": list(self.lock_grants),
                "A": list(self.accepts)}


class Schedule:
    """A parsed ``.psched`` stream plus the replay verification cursors.

    Installed as the replaying engine's ``sched_hook``: each ``on_*``
    call *consumes* the next record of its stream and raises
    :class:`~repro.errors.ReplayDivergence` if the live decision
    differs.  :meth:`peek_dispatch` additionally lets the replay
    dispatcher drive selection without consuming.
    """

    def __init__(self, spawns: List[Tuple[int, str]],
                 dispatches: List[Tuple[int, int]],
                 selfsched: List[Tuple[int, int]],
                 lock_grants: List[Tuple[int, str]],
                 accepts: List[Tuple[str, str, str]],
                 meta: Optional[Dict[str, str]] = None):
        self.spawns = spawns
        self.dispatches = dispatches
        self.selfsched = selfsched
        self.lock_grants = lock_grants
        self.accepts = accepts
        self.meta = dict(meta or {})
        self._names: Dict[int, str] = dict(spawns)
        self._cursor = {"P": 0, "D": 0, "S": 0, "L": 0, "A": 0}

    # ------------------------------------------------------------ parse --

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != MAGIC:
            raise ScheduleFormatError(
                f"not a .psched artifact (expected {MAGIC!r} header)")
        meta: Dict[str, str] = {}
        streams: Dict[str, list] = {"P": [], "D": [], "S": [], "L": [], "A": []}
        for ln in lines[1:]:
            tag, _, rest = ln.partition(" ")
            if tag == "meta":
                for tok in rest.split():
                    k, _, v = tok.partition("=")
                    meta[k] = v
                continue
            if tag not in streams:
                raise ScheduleFormatError(f"unknown record tag {tag!r}")
            for tok in rest.split():
                try:
                    if tag == "P":
                        o, _, n = tok.partition(":")
                        streams[tag].append((int(o), n))
                    elif tag == "D":
                        o, _, s = tok.partition(":")
                        streams[tag].append((int(o), int(s)))
                    elif tag == "S":
                        m, _, i = tok.partition(":")
                        streams[tag].append((int(m), int(i)))
                    elif tag == "L":
                        m, _, lk = tok.partition(":")
                        streams[tag].append((int(m), lk))
                    else:  # A: receiver:sender:mtype (mtype may hold ':')
                        r, _, rest2 = tok.partition(":")
                        s, _, t = rest2.partition(":")
                        streams[tag].append((r, s, t))
                except ValueError as e:
                    raise ScheduleFormatError(
                        f"bad {tag} token {tok!r}: {e}") from None
        return cls(spawns=streams["P"], dispatches=streams["D"],
                   selfsched=streams["S"], lock_grants=streams["L"],
                   accepts=streams["A"], meta=meta)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Schedule":
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    # ----------------------------------------------------------- replay --

    def reset(self) -> None:
        for k in self._cursor:
            self._cursor[k] = 0

    def name_of(self, ordinal: int) -> str:
        return self._names.get(ordinal, f"<spawn #{ordinal}>")

    def peek_dispatch(self) -> Optional[Tuple[int, int]]:
        """The next recorded dispatch (ordinal, start), not consumed."""
        i = self._cursor["D"]
        if i >= len(self.dispatches):
            return None
        return self.dispatches[i]

    @property
    def exhausted(self) -> bool:
        return self._cursor["D"] >= len(self.dispatches)

    def remaining(self, stream: str) -> int:
        """Records of ``stream`` ("P"/"D"/"S"/"L"/"A") not yet consumed."""
        records = {"P": self.spawns, "D": self.dispatches,
                   "S": self.selfsched, "L": self.lock_grants,
                   "A": self.accepts}[stream]
        return len(records) - self._cursor[stream]

    def position(self) -> Dict[str, int]:
        """Per-stream *consumed* counts (replay cursor position)."""
        return dict(self._cursor)

    def consumed_streams(self) -> Dict[str, list]:
        """The already-verified prefix of each stream (what a checkpoint
        taken mid-replay must carry)."""
        return {"P": self.spawns[:self._cursor["P"]],
                "D": self.dispatches[:self._cursor["D"]],
                "S": self.selfsched[:self._cursor["S"]],
                "L": self.lock_grants[:self._cursor["L"]],
                "A": self.accepts[:self._cursor["A"]]}

    def progress(self) -> str:
        c = self._cursor
        return (f"dispatch {c['D']}/{len(self.dispatches)}, "
                f"spawn {c['P']}/{len(self.spawns)}, "
                f"selfsched {c['S']}/{len(self.selfsched)}, "
                f"lock {c['L']}/{len(self.lock_grants)}, "
                f"accept {c['A']}/{len(self.accepts)}")

    def _next(self, stream: str, records: list, live: tuple,
              what: str) -> None:
        i = self._cursor[stream]
        if i >= len(records):
            raise ReplayDivergence(
                f"replay ran past the recorded schedule: live run produced "
                f"an extra {what} {live!r} (after {self.progress()})")
        rec = records[i]
        if rec != live:
            raise ReplayDivergence(
                f"replay diverged at {what} #{i}: recorded {rec!r}, "
                f"live run produced {live!r} ({self.progress()})")
        self._cursor[stream] = i + 1

    # The sched_hook interface: consume == verify.

    def on_spawn(self, ordinal: int, name: str) -> None:
        self._next("P", self.spawns, (ordinal, name), "spawn")

    def on_dispatch(self, ordinal: int, start: int, name: str) -> None:
        self._next("D", self.dispatches, (ordinal, start),
                   f"dispatch of {name!r}")

    def on_selfsched(self, member: int, index: int) -> None:
        self._next("S", self.selfsched, (member, index), "SELFSCHED grab")

    def on_lock_grant(self, member: int, lock: str) -> None:
        self._next("L", self.lock_grants, (member, lock), "lock grant")

    def on_accept_match(self, receiver: str, sender: str, mtype: str) -> None:
        self._next("A", self.accepts, (receiver, sender, mtype),
                   "accept match")

    def check_complete(self) -> None:
        """Assert every recorded decision was replayed (end-of-run)."""
        for stream, records in (("P", self.spawns), ("D", self.dispatches),
                                ("S", self.selfsched),
                                ("L", self.lock_grants),
                                ("A", self.accepts)):
            if self._cursor[stream] != len(records):
                raise ReplayDivergence(
                    f"replay ended early: {self.progress()}")
