"""Configurations: the virtual-machine-to-hardware mapping (section 9).

"In PISCES 2 the programmer controls the hardware resources that are
allocated to the execution of user tasks in each cluster. ... A
particular mapping is called a configuration."  Creating one on the
FLEX/32 chooses: (1) how many clusters and their numbers, (2) the
primary PE of each cluster, (3) the secondary PEs that run force
members for each cluster, (4) the number of user-task slots per
cluster.  A configuration also carries an execution time limit and
trace settings (section 11), and may be saved, edited and reused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..flex.machine import MachineSpec

#: Arbitrary sanity cap on user slots per cluster (the slot count
#: bounds the degree of multiprogramming on the primary PE).
MAX_SLOTS = 16

#: Built-in system ACCEPT timeout (ticks) when no DELAY clause is given
#: and the environment does not override it.
DEFAULT_ACCEPT_DELAY = 1_000_000

#: Every environment variable the runtime recognizes, with the one-line
#: meaning documented in the users_manual section 10 table.  This is the
#: single source of truth for the surface: :func:`env_value` refuses
#: names missing from it (so a new reader cannot slip in undocumented),
#: and the test suite asserts each entry appears in the manual's table.
ENV_VARS: Dict[str, str] = {
    "PISCES_TASK_BODIES": "task-body vehicle: auto or callable",
    "PISCES_WINDOW_PATH": "window data plane: fast or reference",
    "PISCES_ACCEPT_TIMEOUT": "system ACCEPT timeout in ticks",
    "PISCES_CHECKPOINT": "periodic checkpoint interval in ticks (0 = off)",
    "PISCES_CHECKPOINT_DIR": "directory receiving periodic .pckpt bundles",
    "PISCES_DETECT_RACES": "race detector: 1, record, warn or raise",
    "PISCES_PROFILE": "enable the causal profiler at boot",
    "PISCES_RECORD_SCHEDULE": "autosave the dispatch schedule to this path",
    "PISCES_REPLAY_SCHEDULE": "replay the .psched recording at this path",
}


#: Execution-axis values that artifacts written by older builds carry
#: (checkpoint manifests, run specs, run records), mapped onto what
#: exists today; None drops the key.  Every retired choice -- the
#: thread-per-process core, the O(n) ``scan`` dispatcher, the uncached
#: ``batched`` window path -- had a virtual history identical to its
#: replacement, so the mapping is exact.
LEGACY_AXES: Dict[str, Dict[str, Optional[str]]] = {
    "exec_core": {"": None, "threaded": None, "coop": None},
    "dispatcher": {"": None, "indexed": None, "scan": None},
    "window_path": {"": "", "fast": "fast", "batched": "fast",
                    "reference": "reference"},
    "task_bodies": {"": "", "auto": "auto", "callable": "callable"},
}


def map_legacy_axes(d: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``d`` with every execution-axis key mapped through
    :data:`LEGACY_AXES` -- the one place old axis names are read.
    Raises :class:`ConfigurationError` for a value no build ever wrote."""
    out = dict(d)
    for key, table in LEGACY_AXES.items():
        if key not in out:
            continue
        v = out[key]
        if not isinstance(v, str) or v not in table:
            raise ConfigurationError(
                f"{key}={v!r} is not one of "
                f"{'/'.join(k for k in table if k)}")
        if table[v] is None:
            del out[key]
        else:
            out[key] = table[v]
    return out


def env_value(name: str, default: str = "") -> str:
    """Read one recognized ``PISCES_*`` variable.

    Every environment reader in the tree resolves through here, so the
    recognized surface is exactly :data:`ENV_VARS` -- reading a name
    missing from the registry is a programming error, not a silent
    misconfiguration.  The value is stripped; unset or empty yields
    ``default``.
    """
    if name not in ENV_VARS:
        raise ConfigurationError(
            f"unregistered environment variable {name!r}; add it to "
            "configuration.ENV_VARS and the users_manual table")
    v = os.environ.get(name, "").strip()
    return v if v else default


def env_choice(name: str, choices: Tuple[str, ...],
               default: str = "") -> str:
    """:func:`env_value` restricted to an allowed set."""
    v = env_value(name, default)
    if v not in choices:
        raise ConfigurationError(
            f"{name}={v!r} is not one of {'/'.join(choices)}")
    return v


def env_int(name: str, default: int, minimum: int = 0) -> int:
    """:func:`env_value` parsed as a tick count with a floor."""
    v = env_value(name)
    if not v:
        return default
    try:
        n = int(v)
    except ValueError:
        raise ConfigurationError(
            f"{name}={v!r} is not an integer tick count")
    if n < minimum:
        raise ConfigurationError(
            f"{name}={v!r} must be positive" if minimum > 0
            else f"{name}={v!r} must be >= {minimum}")
    return n


def env_flag(name: str) -> str:
    """:func:`env_value` as an on/off switch with an optional mode.

    Returns "" when the variable is unset, empty, or one of the
    conventional off spellings (``0``/``false``/``off``); any other
    value -- ``1``, or a mode word like ``record`` -- comes back
    verbatim for the caller to interpret.
    """
    v = env_value(name)
    return "" if v in ("0", "false", "off") else v


def default_accept_delay() -> int:
    """The system-provided ACCEPT timeout.

    The paper promises a "system-provided timeout value" for ACCEPT
    without DELAY; ``PISCES_ACCEPT_TIMEOUT`` (ticks) makes it
    configurable per run without editing configurations.
    """
    return env_int("PISCES_ACCEPT_TIMEOUT", DEFAULT_ACCEPT_DELAY, minimum=1)


@dataclass(frozen=True)
class ClusterSpec:
    """Mapping of one cluster onto hardware."""

    number: int
    primary_pe: int
    slots: int = 4
    secondary_pes: Tuple[int, ...] = ()

    def validate(self, machine: MachineSpec) -> None:
        if self.number < 1:
            raise ConfigurationError(f"cluster number {self.number} < 1")
        mmos = set(machine.mmos_pes)
        if self.primary_pe not in mmos:
            raise ConfigurationError(
                f"cluster {self.number}: primary PE {self.primary_pe} is not "
                f"an MMOS PE (valid: {sorted(mmos)})")
        if not 1 <= self.slots <= MAX_SLOTS:
            raise ConfigurationError(
                f"cluster {self.number}: slots must be 1..{MAX_SLOTS}, "
                f"got {self.slots}")
        seen = set()
        for pe in self.secondary_pes:
            if pe not in mmos:
                raise ConfigurationError(
                    f"cluster {self.number}: secondary PE {pe} is not an "
                    f"MMOS PE")
            if pe in seen:
                raise ConfigurationError(
                    f"cluster {self.number}: secondary PE {pe} listed twice")
            seen.add(pe)
        if self.primary_pe in seen:
            raise ConfigurationError(
                f"cluster {self.number}: PE {self.primary_pe} cannot be both "
                f"primary and secondary of the same cluster")


@dataclass(frozen=True)
class Configuration:
    """A complete run configuration."""

    clusters: Tuple[ClusterSpec, ...]
    #: Execution time limit in ticks (part of the configuration per
    #: section 11); None disables the limit.
    time_limit: Optional[int] = None
    #: Trace event type names enabled at start (section 11/12).
    trace_events: Tuple[str, ...] = ()
    #: Collect run metrics (the :mod:`repro.obs` registry).  Off by
    #: default: instrumentation is zero-cost when disabled.
    metrics_enabled: bool = False
    #: Cluster whose user controller owns the terminal (default: lowest).
    user_cluster: Optional[int] = None
    #: Cluster hosting the file controller (default: lowest; the file
    #: store stands in for the Unix file system on a diskless FLEX).
    file_cluster: Optional[int] = None
    #: System-provided ACCEPT timeout when no DELAY is given; defaults
    #: from the ``PISCES_ACCEPT_TIMEOUT`` environment variable.
    default_accept_delay: int = field(default_factory=default_accept_delay)
    #: ACCEPT timeout escalation: number of retry waits before the
    #: timeout is surfaced, and the multiplicative backoff applied to
    #: each successive wait (see ``docs/architecture.md``).
    accept_retries: int = 0
    accept_backoff: float = 2.0
    #: Window data-plane selection: "fast" (batched transfers + reader
    #: cache) or "reference" (the unbatched per-row oracle).  "" defers
    #: to the ``PISCES_WINDOW_PATH`` environment variable, then to
    #: "fast".  Both paths are bit-identical in virtual time (see
    #: docs/architecture.md).
    window_path: str = ""
    #: Task-body vehicle: "auto" lets coroutine-style bodies (generator
    #: functions) suspend as coroutines at the KernelOp seam, with no
    #: worker thread at all, while "callable" forces every body onto
    #: the classic blocking-call driver on a worker thread.  "" defers
    #: to the ``PISCES_TASK_BODIES`` environment variable, then to
    #: "auto".
    #: Both vehicles are bit-identical in virtual time (the body-form
    #: equivalence suite asserts this across the app zoo).
    task_bodies: str = ""
    #: Enable the happens-before race detector at boot (see
    #: :mod:`repro.correctness`); detection charges no virtual time.
    detect_races: bool = False
    #: Enable the causal profiler at boot (see
    #: :mod:`repro.obs.profile`); profiling charges no virtual time.
    #: The ``PISCES_PROFILE`` environment variable also turns it on.
    profile: bool = False
    #: Periodic checkpointing: write a ``.pckpt`` bundle every this many
    #: virtual ticks (0 disables; the ``PISCES_CHECKPOINT`` environment
    #: variable also turns it on).  Checkpoints are pure observers: a
    #: checkpointed run is bit-identical in virtual time to an
    #: unchecked one (see :mod:`repro.checkpoint`).
    checkpoint_every: int = 0
    #: Directory receiving periodic ``.pckpt`` bundles ("" defers to the
    #: ``PISCES_CHECKPOINT_DIR`` environment variable, then to the
    #: current directory).
    checkpoint_dir: str = ""
    #: How many periodic checkpoints to retain (older bundles are
    #: removed after each successful write; crash recovery only ever
    #: needs the latest valid one).
    checkpoint_keep: int = 2
    #: Seed of the VM-level run RNG (``vm.run_rng``): the *only* source
    #: of randomness consumed at virtual-time-ordered points (backoff
    #: jitter), so seeded runs stay bit-reproducible.
    run_seed: int = 0
    #: Jitter fraction (0..1) applied to ACCEPT retry backoff waits:
    #: each wait is perturbed by up to +/- this fraction, drawn from the
    #: seeded run RNG so determinism holds.
    accept_jitter: float = 0.0
    name: str = "unnamed"

    # ------------------------------------------------------------ access --

    def cluster_numbers(self) -> List[int]:
        return sorted(c.number for c in self.clusters)

    def cluster(self, number: int) -> ClusterSpec:
        for c in self.clusters:
            if c.number == number:
                return c
        raise ConfigurationError(f"no cluster {number} in configuration")

    def used_pes(self) -> List[int]:
        """Every PE the configuration touches (loadfile targets)."""
        pes = set()
        for c in self.clusters:
            pes.add(c.primary_pe)
            pes.update(c.secondary_pes)
        return sorted(pes)

    def effective_user_cluster(self) -> int:
        return (self.user_cluster if self.user_cluster is not None
                else min(self.cluster_numbers()))

    def effective_file_cluster(self) -> int:
        return (self.file_cluster if self.file_cluster is not None
                else min(self.cluster_numbers()))

    def max_multiprogramming(self, pe: int) -> int:
        """Upper bound on simultaneous user tasks/force members on a PE.

        Section 9: a PE that is secondary for several clusters can host
        force members from each; the bound is the sum of the slot counts
        of every cluster the PE serves (as primary or secondary).
        """
        total = 0
        for c in self.clusters:
            if c.primary_pe == pe or pe in c.secondary_pes:
                total += c.slots
        return total

    # ---------------------------------------------------------- validate --

    def validate(self, machine: MachineSpec) -> "Configuration":
        if not self.clusters:
            raise ConfigurationError("configuration has no clusters")
        max_clusters = len(machine.mmos_pes)
        if len(self.clusters) > max_clusters:
            raise ConfigurationError(
                f"{len(self.clusters)} clusters exceed the {max_clusters} "
                f"available MMOS PEs")
        numbers = [c.number for c in self.clusters]
        if len(set(numbers)) != len(numbers):
            raise ConfigurationError(f"duplicate cluster numbers in {numbers}")
        primaries = [c.primary_pe for c in self.clusters]
        if len(set(primaries)) != len(primaries):
            raise ConfigurationError(
                f"clusters must have distinct primary PEs, got {primaries}")
        for c in self.clusters:
            c.validate(machine)
        for attr in ("user_cluster", "file_cluster"):
            v = getattr(self, attr)
            if v is not None and v not in numbers:
                raise ConfigurationError(f"{attr}={v} is not a cluster")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ConfigurationError("time_limit must be positive")
        if self.default_accept_delay <= 0:
            raise ConfigurationError("default_accept_delay must be positive")
        if self.accept_retries < 0:
            raise ConfigurationError("accept_retries must be >= 0")
        if self.accept_backoff < 1.0:
            raise ConfigurationError("accept_backoff must be >= 1")
        if self.window_path not in ("", "fast", "reference"):
            raise ConfigurationError(
                f"window_path must be fast/reference, "
                f"got {self.window_path!r}")
        if self.task_bodies not in ("", "auto", "callable"):
            raise ConfigurationError(
                f"task_bodies must be auto/callable, "
                f"got {self.task_bodies!r}")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be >= 1")
        if not 0.0 <= self.accept_jitter <= 1.0:
            raise ConfigurationError(
                f"accept_jitter must be in 0..1, got {self.accept_jitter}")
        return self

    # ------------------------------------------------------------ editing --

    def with_cluster(self, spec: ClusterSpec) -> "Configuration":
        """A copy with one cluster added or replaced (menu editing)."""
        rest = tuple(c for c in self.clusters if c.number != spec.number)
        return replace(self, clusters=tuple(
            sorted(rest + (spec,), key=lambda c: c.number)))

    def without_cluster(self, number: int) -> "Configuration":
        return replace(self, clusters=tuple(
            c for c in self.clusters if c.number != number))

    def describe(self) -> str:
        lines = [f"configuration {self.name!r}:"]
        for c in sorted(self.clusters, key=lambda c: c.number):
            sec = ",".join(map(str, c.secondary_pes)) or "-"
            lines.append(f"  cluster {c.number}: primary PE {c.primary_pe}, "
                         f"{c.slots} slots, force PEs [{sec}] "
                         f"(force size {1 + len(c.secondary_pes)})")
        if self.time_limit is not None:
            lines.append(f"  time limit: {self.time_limit} ticks")
        if self.trace_events:
            lines.append(f"  trace: {', '.join(self.trace_events)}")
        if self.metrics_enabled:
            lines.append("  metrics: enabled")
        if self.window_path:
            lines.append(f"  window data plane: {self.window_path}")
        if self.task_bodies:
            lines.append(f"  task bodies: {self.task_bodies}")
        if self.profile:
            lines.append("  profiling: enabled")
        if self.checkpoint_every:
            where = self.checkpoint_dir or "."
            lines.append(f"  checkpoint: every {self.checkpoint_every} ticks "
                         f"to {where} (keep {self.checkpoint_keep})")
        if self.accept_jitter:
            lines.append(f"  accept jitter: {self.accept_jitter}")
        return "\n".join(lines)


def simple_configuration(n_clusters: int = 2, slots: int = 4,
                         force_pes_per_cluster: int = 0,
                         first_pe: int = 3,
                         name: str = "simple") -> Configuration:
    """Convenience builder: ``n_clusters`` clusters on consecutive PEs
    starting at ``first_pe``, each with ``slots`` slots, then consecutive
    blocks of ``force_pes_per_cluster`` secondary PEs."""
    specs = []
    next_pe = first_pe
    primaries = []
    for i in range(1, n_clusters + 1):
        primaries.append(next_pe)
        next_pe += 1
    for i, pe in enumerate(primaries, start=1):
        sec = tuple(range(next_pe, next_pe + force_pes_per_cluster))
        next_pe += force_pes_per_cluster
        specs.append(ClusterSpec(number=i, primary_pe=pe, slots=slots,
                                 secondary_pes=sec))
    return Configuration(clusters=tuple(specs), name=name)
