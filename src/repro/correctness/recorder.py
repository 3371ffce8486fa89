"""Schedule record/replay: the ``.psched`` artifact.

A run's decision stream is five streams of records:

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

One :class:`Schedule` serves recording, replay and checkpoint restore:
the engine passes every decision to :meth:`Schedule.take`, which
verifies it against the next recorded one while any remain and, past
the end, appends it (``live_tail``) or raises
:class:`~repro.errors.ReplayDivergence`.  An empty schedule records a
run; a parsed ``.psched`` replays one strictly; a checkpoint's prefix
with ``live_tail`` replays to the snapshot point and records from
there.  Replay never steers the engine: its own picker chooses every
dispatch, and the D stream checks each choice.  Under the determinism
contract a recording holds exactly the choices the picker makes, so a
hand-edited ``.psched`` that reorders two dispatches diverges, even
when the reordering would have been a feasible schedule.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import ReplayDivergence, ScheduleFormatError
from ..util.durable import durable_write

MAGIC = "#psched 1"
_TOKENS_PER_LINE = 16

#: Stream tag -> the field types of its records, in artifact order.
_FIELDS = {"P": (int, str), "D": (int, int), "S": (int, int),
           "L": (int, str), "A": (str, str, str)}

#: Stream tag -> what a record is, for divergence messages.
_WHAT = {"P": "spawn", "D": "dispatch", "S": "SELFSCHED grab",
         "L": "lock grant", "A": "accept match"}


class Schedule:
    """The decision stream of one run, with a cursor per stream.

    Installed as the engine's ``sched_hook``.  Taking a decision never
    touches engine state and charges no virtual time: a recorded or
    replayed run is bit-identical to a bare one.
    """

    def __init__(self, streams: Optional[Dict[str, list]] = None, *,
                 meta: Optional[Dict[str, str]] = None,
                 live_tail: bool = True,
                 path: Union[str, Path, None] = None):
        #: Tag -> records; missing tags start empty.
        self.streams: Dict[str, list] = {
            tag: list((streams or {}).get(tag, ())) for tag in _FIELDS}
        self.meta: Dict[str, str] = dict(meta or {})
        #: Past the recorded decisions, append (True) or diverge (False).
        self.live_tail = live_tail
        #: When set, :meth:`save` runs automatically at engine shutdown.
        self.autosave_path = None if path is None else Path(path)
        self._saved = False
        self.reset()

    # ------------------------------------------------------------ parse --

    @classmethod
    def parse(cls, text: str, live_tail: bool = False) -> "Schedule":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != MAGIC:
            raise ScheduleFormatError(
                f"not a .psched artifact (expected {MAGIC!r} header)")
        meta: Dict[str, str] = {}
        streams: Dict[str, list] = {tag: [] for tag in _FIELDS}
        for ln in lines[1:]:
            tag, _, rest = ln.partition(" ")
            if tag == "meta":
                for tok in rest.split():
                    k, _, v = tok.partition("=")
                    meta[k] = v
                continue
            if tag not in streams:
                raise ScheduleFormatError(f"unknown record tag {tag!r}")
            types = _FIELDS[tag]
            for tok in rest.split():
                # The last field takes the rest (names may hold ':').
                parts = tok.split(":", len(types) - 1)
                try:
                    if len(parts) != len(types):
                        raise ValueError(f"expected {len(types)} fields")
                    streams[tag].append(
                        tuple(t(v) for t, v in zip(types, parts)))
                except ValueError as e:
                    raise ScheduleFormatError(
                        f"bad {tag} token {tok!r}: {e}") from None
        return cls(streams, meta=meta, live_tail=live_tail)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Schedule":
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    # ----------------------------------------------------------- output --

    def dumps(self, prefix: bool = False) -> str:
        """The artifact text.  ``prefix=True`` writes only the decisions
        taken so far, with only the count meta: a checkpoint's embedded
        prefix."""
        streams = {tag: records[:self._cursor[tag]] if prefix else records
                   for tag, records in self.streams.items()}
        meta = {} if prefix else dict(self.meta)
        meta["spawns"] = str(len(streams["P"]))
        meta["dispatches"] = str(len(streams["D"]))
        lines = [MAGIC, "meta " + " ".join(
            f"{k}={v}" for k, v in sorted(meta.items()))]
        for tag, records in streams.items():
            tokens = [":".join(map(str, rec)) for rec in records]
            for i in range(0, len(tokens), _TOKENS_PER_LINE):
                lines.append(tag + " " + " ".join(
                    tokens[i:i + _TOKENS_PER_LINE]))
        return "\n".join(lines) + "\n"

    def save(self, path: Union[str, Path, None] = None) -> Path:
        """Write the artifact (idempotent for the autosave path)."""
        target = Path(path) if path is not None else self.autosave_path
        if target is None:
            raise ValueError("Schedule.save: no path given and no "
                             "autosave path configured")
        durable_write(target, self.dumps())
        self._saved = True
        return target

    def autosave(self) -> None:
        """Engine-shutdown hook: flush to the autosave path once."""
        if self.autosave_path is not None and not self._saved:
            self.save()

    # ------------------------------------------------------------ take --

    def reset(self) -> None:
        """Rewind every cursor: the whole stream is to be verified."""
        self._cursor = {tag: 0 for tag in _FIELDS}
        self._end = {tag: len(records)
                     for tag, records in self.streams.items()}

    def take(self, tag: str, record: tuple, name: str = "") -> None:
        """One decision of stream ``tag``: verify it against the next
        recorded one, or past the end append it (``live_tail``) or
        raise :class:`~repro.errors.ReplayDivergence`.  ``name`` only
        labels a divergence."""
        i = self._cursor[tag]
        if i < self._end[tag]:
            rec = self.streams[tag][i]
            if rec != record:
                raise ReplayDivergence(
                    f"replay diverged at {self._what(tag, name)} #{i}: "
                    f"recorded {rec!r}, live run produced {record!r} "
                    f"({self.progress()})")
        elif self.live_tail:
            self.streams[tag].append(record)
        else:
            raise ReplayDivergence(
                f"replay ran past the recorded schedule: live run produced "
                f"an extra {self._what(tag, name)} {record!r} "
                f"(after {self.progress()})")
        self._cursor[tag] = i + 1

    @staticmethod
    def _what(tag: str, name: str) -> str:
        return f"{_WHAT[tag]} of {name!r}" if name else _WHAT[tag]

    def position(self) -> Dict[str, int]:
        """Per-stream decisions taken (stamped into export/checkpoint
        manifests)."""
        return dict(self._cursor)

    def progress(self) -> str:
        c, n = self._cursor, self._end
        return (f"dispatch {c['D']}/{n['D']}, spawn {c['P']}/{n['P']}, "
                f"selfsched {c['S']}/{n['S']}, lock {c['L']}/{n['L']}, "
                f"accept {c['A']}/{n['A']}")

    def check_complete(self) -> None:
        """Assert every recorded decision was replayed (end-of-run)."""
        if any(self._cursor[tag] < self._end[tag] for tag in _FIELDS):
            raise ReplayDivergence(f"replay ended early: {self.progress()}")
