"""The run spec: what a tenant submits to the run service.

A :class:`RunSpec` is the JSON-shaped description of one PISCES run --
which app (a name from the service :mod:`~repro.service.catalog`, or
``"fortran"`` with inline Pisces Fortran source), its parameters, and
the run toggles the service honours (fault plan, tracing, periodic
checkpointing, run seed).

The spec is deliberately *data*, never code: everything in it is
JSON-stable, so the store can persist it, the REST layer can carry it,
and -- crucially -- the service can rebuild the identical task registry
and configuration in a fresh process after a crash, which is what makes
checkpoint-resume of an interrupted run possible at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..config.configuration import map_legacy_axes
from ..errors import ConfigurationError, InvalidRunSpec

#: Fields a spec dict may carry (anything else is refused loudly --
#: a typo'd field name must not silently change nothing).
SPEC_FIELDS = ("app", "params", "fault_plan", "trace", "checkpoint_every",
               "run_seed")

#: Execution-axis fields older specs (and stored run records) carry.
#: Every choice was bit-identical in virtual time, so they are checked
#: against the values any build wrote and then dropped.
LEGACY_FIELDS = ("exec_core", "window_path", "task_bodies")


def _is_int(v: Any) -> bool:
    # bool is an int subclass, but true/false is never a tick count.
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunSpec:
    """One runnable request, JSON round-trippable."""

    #: App name from the service catalog ("jacobi", "chaos_jacobi",
    #: "fortran", ...).
    app: str
    #: App-specific parameters (sizes, worker counts; for "fortran":
    #: ``source``, ``tasktype``, ``args``).  Values must be JSON-stable.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Section-9-style ``.pfault`` plan text (see :mod:`repro.faults`),
    #: or None for a fault-free run.
    fault_plan: Optional[str] = None
    #: Keep the full trace stream in memory and archive it with the run
    #: (the stream is the service's bit-identity evidence).
    trace: bool = True
    #: Periodic checkpoint interval in virtual ticks (0 = off).  Runs
    #: with checkpoints survive a service crash via checkpoint-resume;
    #: runs without are re-queued from the start.
    checkpoint_every: int = 0
    #: Seed of the VM-level run RNG (backoff jitter determinism).
    run_seed: int = 0

    def __post_init__(self) -> None:
        if not self.app or not isinstance(self.app, str):
            raise InvalidRunSpec(f"spec needs an app name, got {self.app!r}")
        if not isinstance(self.params, dict):
            raise InvalidRunSpec(f"params must be an object, "
                                 f"got {type(self.params).__name__}")
        if not _is_int(self.checkpoint_every) or self.checkpoint_every < 0:
            raise InvalidRunSpec("checkpoint_every must be an int >= 0")
        if not _is_int(self.run_seed):
            raise InvalidRunSpec(f"run_seed must be an int, "
                                 f"got {self.run_seed!r}")
        if not isinstance(self.trace, bool):
            raise InvalidRunSpec(f"trace must be true or false, "
                                 f"got {self.trace!r}")
        if self.fault_plan is not None \
                and not isinstance(self.fault_plan, str):
            raise InvalidRunSpec("fault_plan must be .pfault text or null")

    # ------------------------------------------------------------- serde --

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunSpec":
        if not isinstance(d, dict):
            raise InvalidRunSpec(f"spec must be an object, got {d!r}")
        unknown = sorted(set(d) - set(SPEC_FIELDS) - set(LEGACY_FIELDS))
        if unknown:
            raise InvalidRunSpec(
                f"unknown spec field(s) {', '.join(unknown)} "
                f"(recognized: {', '.join(SPEC_FIELDS)})")
        try:
            d = map_legacy_axes(d)
        except ConfigurationError as e:
            raise InvalidRunSpec(str(e)) from None
        try:
            return cls(**{k: v for k, v in d.items()
                          if k not in LEGACY_FIELDS})
        except TypeError as e:
            raise InvalidRunSpec(str(e)) from None

    def fingerprint(self) -> Tuple[str, str]:
        """(app, short parameter summary) for listings and logs."""
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items())
                          if k != "source")
        return self.app, parts
