"""Exception hierarchy for the PISCES 2 reproduction.

Every error raised by the library derives from :class:`PiscesError`, so
applications can catch one type.  Sub-hierarchies mirror the subsystems:
the FLEX machine model, the MMOS kernel simulation, the PISCES run-time
library, the configuration environment and the Pisces Fortran
preprocessor.
"""

from __future__ import annotations


class PiscesError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------- FLEX ----

class FlexError(PiscesError):
    """Error in the FLEX/32 machine model."""


class MemoryError_(FlexError):
    """Base for simulated-memory errors (named with a trailing underscore
    to avoid shadowing the builtin)."""


class OutOfMemory(MemoryError_):
    """A simulated memory allocation could not be satisfied."""

    def __init__(self, requested: int, available: int, where: str = "shared"):
        self.requested = requested
        self.available = available
        self.where = where
        super().__init__(
            f"out of {where} memory: requested {requested} bytes, "
            f"largest satisfiable {available}"
        )


class BadFree(MemoryError_):
    """free() of an address that is not a live allocation."""


class BadPE(FlexError):
    """Reference to a processing element outside the machine."""


# ---------------------------------------------------------------- MMOS ----

class MMOSError(PiscesError):
    """Error in the MMOS kernel simulation."""


class DeadlockError(MMOSError):
    """All live processes are blocked with no pending timeout.

    Carries a human-readable ``dump`` describing the state of every
    blocked process, produced by the engine at detection time, plus a
    structured ``blocked`` list of ``(name, blocked_on, deadline)``
    tuples -- one per blocked non-daemon process -- so a crashed-PE
    hang is distinguishable from a true deadlock without parsing the
    dump text.
    """

    def __init__(self, dump: str, blocked=None):
        self.dump = dump
        #: ``[(process name, blocked_on reason, deadline or None), ...]``
        self.blocked = list(blocked or [])
        super().__init__("deadlock: all live processes blocked\n" + dump)


class ProcessKilled(MMOSError):
    """Raised *inside* a simulated process when it is killed.

    User task code should not catch this (it unwinds the task thread).
    """


class EngineShutdown(ProcessKilled):
    """Raised inside a process blocked in ACCEPT (or any kernel wait)
    when the engine shuts down underneath it.

    Subclasses :class:`ProcessKilled` so generic unwind handling keeps
    working, but is distinguishable: an accept waiter drained by
    :meth:`Engine.shutdown` fails fast with this instead of being
    silently reaped.
    """


class TimeLimitExceeded(MMOSError):
    """The configured execution time limit was reached."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"execution time limit of {limit} ticks exceeded")


class NotInProcess(MMOSError):
    """A kernel call was made from outside any simulated process."""


# ------------------------------------------------------------- run-time ----

class RuntimeLibraryError(PiscesError):
    """Error in the PISCES 2 run-time library."""


class UnknownTaskType(RuntimeLibraryError):
    """INITIATE of a tasktype that was never defined/registered."""


class UnknownTask(RuntimeLibraryError):
    """A taskid does not name a live task."""


class NoSuchCluster(RuntimeLibraryError):
    """A cluster number is not part of the current configuration."""


class MessageError(RuntimeLibraryError):
    """Malformed send/accept usage."""


class SendFailed(MessageError):
    """A SEND addressed a task known to be dead and delivery was
    required (``require_delivery=True`` or a strict-sends fault plan).

    The default PISCES semantics silently drop sends to stale taskids;
    this typed error is the opt-in failure-semantics alternative.
    """

    def __init__(self, dest, reason: str = "task is dead"):
        self.dest = dest
        self.reason = reason
        super().__init__(f"send to {dest} failed: {reason}")


class AcceptTimeout(RuntimeLibraryError):
    """An ACCEPT timed out and no DELAY handler was supplied.

    Matches the paper: with no DELAY clause a system-generated "timeout"
    is delivered; the Python binding surfaces it as this exception unless
    the caller passed ``on_timeout``/asked for the result object.
    """


class NotInForce(RuntimeLibraryError):
    """A force-only operation (BARRIER, CRITICAL, PRESCHED ...) was used
    outside a force region."""


class WindowError(RuntimeLibraryError):
    """Invalid window operation (shrink outside bounds, dead owner ...)."""


class WindowConflict(WindowError):
    """A conditional window write (``if_unchanged=True``) lost the race:
    the region was written through the data plane after this task last
    observed it, or the task holds no cached observation to validate
    against.  The owner's array is left untouched.
    """

    def __init__(self, window, detail: str = ""):
        self.window = window
        msg = f"conflicting write on {window.describe()}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# ----------------------------------------------------------- correctness ----

class RaceError(RuntimeLibraryError):
    """A data race was detected on a SHARED COMMON variable or window
    region (two accesses, at least one a write, with no happens-before
    ordering and no common lock).

    Carries the structured :class:`~repro.correctness.RaceReport`
    evidence; raised only when the detector runs in ``raise`` mode --
    the default is to collect reports for the monitor/analysis layer.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe() if hasattr(report, "describe")
                         else str(report))


class RaceWarning(UserWarning):
    """Warning category for detected races in ``warn`` mode."""


class TraceOverflow(RuntimeLibraryError):
    """The tracer's in-memory ring buffer overflowed in
    ``strict_overflow`` mode.

    Schedule recording and race analysis read the in-memory stream; a
    silently truncated stream would make a ``.psched`` artifact or a
    race report quietly wrong, so strict mode fails loudly instead.
    """


class ReplayDivergence(MMOSError):
    """A replayed run diverged from its recorded schedule.

    Replay checks every decision the engine makes (dispatch order and
    start times, SELFSCHED grabs, lock grant order, accept matches)
    against the ``.psched`` stream; any mismatch -- a changed program,
    configuration, fault plan or environment -- raises this with the
    first differing decision.
    """


class ScheduleFormatError(MMOSError):
    """A ``.psched`` artifact could not be parsed."""


# ------------------------------------------------------------- checkpoint ----

class CheckpointError(PiscesError):
    """A checkpoint could not be taken, or a restore did not reach the
    snapshotted state (the post-replay validation digests differ)."""


class CheckpointFormatError(CheckpointError):
    """A ``.pckpt`` bundle could not be parsed (bad magic, truncated
    body, or checksum mismatch -- e.g. a file torn by a host crash)."""


# ---------------------------------------------------------------- config ----

class ConfigurationError(PiscesError):
    """Invalid virtual-machine-to-hardware configuration."""


# --------------------------------------------------------------- service ----

class ServiceError(PiscesError):
    """Base for multi-tenant run-service errors (see :mod:`repro.service`)."""


class InvalidRunSpec(ServiceError):
    """A submitted run spec names an unknown app, carries unknown or
    ill-typed fields, or cannot be built into a runnable plan."""


class UnknownRun(ServiceError):
    """A run id that the store has no record of."""


class QuotaExceeded(ServiceError):
    """A submission was refused by the tenant's admission quota (the
    REST layer maps this to ``429 Too Many Requests``)."""

    def __init__(self, tenant: str, detail: str):
        self.tenant = tenant
        self.detail = detail
        super().__init__(f"tenant {tenant!r}: {detail}")


# --------------------------------------------------------------- fortran ----

class FortranError(PiscesError):
    """Base for Pisces Fortran preprocessor errors."""


class LexError(FortranError):
    def __init__(self, msg: str, line: int, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}: {msg}")


class ParseError(FortranError):
    def __init__(self, msg: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class TranslationError(FortranError):
    """The parsed program cannot be translated to run-time calls."""
