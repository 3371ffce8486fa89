"""Fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a declarative, *seeded* schedule of faults for
one run.  It contains:

* timed faults in virtual time -- :class:`PECrash` (a processing
  element dies; every kernel process pinned there is killed) and
  :class:`TaskKill` (one task of a named tasktype dies mid-statement);
* a :class:`MessagePolicy` -- per-delivery probabilities of dropping,
  duplicating, delaying or corrupting an eligible user message, drawn
  from a ``random.Random(seed)`` stream that consumes exactly one
  variate per eligible delivery, so the same seed and plan reproduce
  the same faults tick-for-tick;
* ``strict_sends`` -- turn silent sends-to-dead-tasks into typed
  :class:`~repro.errors.SendFailed` errors (task origins only).

Plans are plain frozen data: build them programmatically or load them
from the same style of text file as configurations (section 9)::

    # pisces fault plan
    seed 42
    crash pe 7 at 120000
    kill JWORKER nth 1 at 50000
    messages drop 0.02 duplicate 0.01 delay 0.05 corrupt 0.01 delay_ticks 800
    protect ROWS SWEPT
    strict_sends on
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..util.durable import durable_write

PLAN_HEADER = "# pisces fault plan"

#: Message types the injector never touches, on top of the system
#: ``@``-prefixed types: failure notifications must survive the faults
#: they report.
ALWAYS_PROTECTED = ("TASK_DIED",)


@dataclass(frozen=True)
class PECrash:
    """A processing element crashes/hangs at virtual time ``at``."""

    at: int
    pe: int


@dataclass(frozen=True)
class TaskKill:
    """The ``nth`` (1-based, taskid order) live task of ``tasktype``
    dies mid-statement at virtual time ``at``."""

    at: int
    tasktype: str
    nth: int = 1


@dataclass(frozen=True)
class HostKill:
    """The *host* Python process is SIGKILLed at virtual time ``at``.

    The chaos event checkpoint/restore exists for: unlike
    :class:`PECrash`/:class:`TaskKill` (simulated failures inside the
    virtual machine), this one kills the real interpreter mid-run --
    no cleanup, no atexit, exactly what a node reclaim or OOM kill
    does.  A restored VM disarms host kills
    (``FaultInjector.arm_host_kills``) so the recovered run does not
    re-die at the same tick; disarmed host kills are total no-ops
    (no RNG variates, no recorded events), keeping the recovered run
    bit-identical to one executed under a plan without the kill.
    """

    at: int


@dataclass(frozen=True)
class MessagePolicy:
    """Per-delivery fault probabilities for eligible user messages.

    Exactly one uniform variate is drawn per eligible delivery and
    compared against the cumulative probabilities in the fixed order
    drop, duplicate, delay, corrupt -- adding a fault class never
    perturbs which deliveries an earlier class hits.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    #: Extra virtual-time latency added to a delayed (reordered) message.
    delay_ticks: int = 500
    #: Message types exempt from faults (on top of system types).
    protected: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"message fault probability {name}={p} outside [0, 1]")
        if self.drop + self.duplicate + self.delay + self.corrupt > 1.0:
            raise ConfigurationError(
                "message fault probabilities sum to more than 1")
        if self.delay_ticks < 0:
            raise ConfigurationError("delay_ticks must be >= 0")

    @property
    def any_faults(self) -> bool:
        return (self.drop + self.duplicate + self.delay + self.corrupt) > 0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one run."""

    seed: int = 0
    crashes: Tuple[PECrash, ...] = ()
    kills: Tuple[TaskKill, ...] = ()
    messages: Optional[MessagePolicy] = None
    #: Sends from *tasks* to dead taskids raise ``SendFailed`` instead
    #: of being silently dropped (controllers keep the lenient default).
    strict_sends: bool = False
    #: Host-process SIGKILLs (crash-recovery chaos; see
    #: :class:`HostKill`).
    host_kills: Tuple[HostKill, ...] = ()
    name: str = "unnamed"

    def timed_events(self) -> List[Union[PECrash, TaskKill, HostKill]]:
        """All timed faults ordered by (time, declaration order)."""
        evs: List[Tuple[int, int, Union[PECrash, TaskKill, HostKill]]] = []
        for i, c in enumerate(self.crashes):
            evs.append((c.at, i, c))
        for i, k in enumerate(self.kills):
            evs.append((k.at, len(self.crashes) + i, k))
        for i, h in enumerate(self.host_kills):
            evs.append((h.at, len(self.crashes) + len(self.kills) + i, h))
        evs.sort(key=lambda e: (e[0], e[1]))
        return [e[2] for e in evs]

    @property
    def empty(self) -> bool:
        """True when the plan changes nothing about a run (a VM given an
        empty plan installs no injector at all)."""
        return (not self.crashes and not self.kills
                and not self.host_kills
                and not self.strict_sends
                and (self.messages is None or not self.messages.any_faults))

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


# ------------------------------------------------------------- text I/O --

def dumps(plan: FaultPlan) -> str:
    """Serialize a plan to the one-directive-per-line text format."""
    out = [PLAN_HEADER, f"name {plan.name}", f"seed {plan.seed}"]
    for c in plan.crashes:
        out.append(f"crash pe {c.pe} at {c.at}")
    for k in plan.kills:
        out.append(f"kill {k.tasktype} nth {k.nth} at {k.at}")
    for h in plan.host_kills:
        out.append(f"hostkill at {h.at}")
    mp = plan.messages
    if mp is not None:
        out.append(f"messages drop {mp.drop} duplicate {mp.duplicate} "
                   f"delay {mp.delay} corrupt {mp.corrupt} "
                   f"delay_ticks {mp.delay_ticks}")
        if mp.protected:
            out.append("protect " + " ".join(mp.protected))
    if plan.strict_sends:
        out.append("strict_sends on")
    return "\n".join(out) + "\n"


def loads(text: str) -> FaultPlan:
    """Parse the text format back into a :class:`FaultPlan`."""
    kw: dict = {}
    crashes: List[PECrash] = []
    kills: List[TaskKill] = []
    host_kills: List[HostKill] = []
    msg_kw: Optional[dict] = None
    protected: Tuple[str, ...] = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "name":
                kw["name"] = " ".join(toks[1:]) or "unnamed"
            elif toks[0] == "seed":
                kw["seed"] = int(toks[1])
            elif toks[0] == "crash":
                f = dict(zip(toks[1::2], toks[2::2]))
                crashes.append(PECrash(at=int(f["at"]), pe=int(f["pe"])))
            elif toks[0] == "kill":
                f = dict(zip(toks[2::2], toks[3::2]))
                kills.append(TaskKill(at=int(f["at"]), tasktype=toks[1],
                                      nth=int(f.get("nth", 1))))
            elif toks[0] == "hostkill":
                f = dict(zip(toks[1::2], toks[2::2]))
                host_kills.append(HostKill(at=int(f["at"])))
            elif toks[0] == "messages":
                f = dict(zip(toks[1::2], toks[2::2]))
                msg_kw = {k: (int(v) if k == "delay_ticks" else float(v))
                          for k, v in f.items()}
            elif toks[0] == "protect":
                protected = tuple(toks[1:])
            elif toks[0] == "strict_sends":
                kw["strict_sends"] = toks[1].lower() in ("on", "true", "1")
            else:
                raise ConfigurationError(
                    f"line {lineno}: unknown fault directive {toks[0]!r}")
        except (IndexError, KeyError, ValueError) as e:
            raise ConfigurationError(
                f"fault plan line {lineno}: {raw!r}: {e}") from e
    if msg_kw is not None or protected:
        kw["messages"] = MessagePolicy(protected=protected, **(msg_kw or {}))
    return FaultPlan(crashes=tuple(crashes), kills=tuple(kills),
                     host_kills=tuple(host_kills), **kw)


def save(plan: FaultPlan, path: Union[str, Path]) -> Path:
    """Write a fault-plan file (conventionally ``*.pfault``)."""
    durable_write(path, dumps(plan))
    return Path(path)


def load(path: Union[str, Path]) -> FaultPlan:
    """Read a fault-plan file saved by :func:`save`."""
    return loads(Path(path).read_text())
