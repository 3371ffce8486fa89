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

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..flex.machine import MachineSpec

#: Arbitrary sanity cap on user slots per cluster (the slot count
#: bounds the degree of multiprogramming on the primary PE).
MAX_SLOTS = 16

#: Built-in system ACCEPT timeout (ticks) when no DELAY clause is given
#: and the configuration does not set one.
DEFAULT_ACCEPT_DELAY = 1_000_000

#: Execution-axis values that artifacts written by older builds carry
#: (checkpoint manifests, run specs, run records).  Each is checked and
#: dropped: every choice -- the thread-per-process core, the O(n)
#: ``scan`` dispatcher, the ``batched``/``reference`` window paths, the
#: ``callable`` task-body vehicle -- had a virtual history identical to
#: today's single path.
LEGACY_AXES: Dict[str, Tuple[str, ...]] = {
    "exec_core": ("", "threaded", "coop"),
    "dispatcher": ("", "indexed", "scan"),
    "window_path": ("", "fast", "batched", "reference"),
    "task_bodies": ("", "auto", "callable"),
}


def map_legacy_axes(d: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``d`` without its execution-axis keys -- the one place
    old axis names are read.  Raises :class:`ConfigurationError` for a
    value no build ever wrote."""
    out = dict(d)
    for key, written in LEGACY_AXES.items():
        if key not in out:
            continue
        v = out.pop(key)
        if not isinstance(v, str) or v not in written:
            raise ConfigurationError(
                f"{key}={v!r} is not one of {'/'.join(filter(None, written))}")
    return out


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
    #: Collect the metrics-only instruments of the :mod:`repro.obs`
    #: registry and show it in snapshots.  Off by default; the run
    #: counts ``RunStats`` reads are kept either way.
    metrics_enabled: bool = False
    #: Cluster whose user controller owns the terminal (default: lowest).
    user_cluster: Optional[int] = None
    #: Cluster hosting the file controller (default: lowest; the file
    #: store stands in for the Unix file system on a diskless FLEX).
    file_cluster: Optional[int] = None
    #: System-provided ACCEPT timeout when no DELAY is given.
    default_accept_delay: int = DEFAULT_ACCEPT_DELAY
    #: ACCEPT timeout escalation: number of retry waits before the
    #: timeout is surfaced, and the multiplicative backoff applied to
    #: each successive wait (see ``docs/architecture.md``).
    accept_retries: int = 0
    accept_backoff: float = 2.0
    #: Periodic checkpointing: write a ``.pckpt`` bundle every this many
    #: virtual ticks (0 disables).  Checkpoints are pure observers: a
    #: checkpointed run is bit-identical in virtual time to an
    #: unchecked one (see :mod:`repro.checkpoint`).
    checkpoint_every: int = 0
    #: Directory receiving periodic ``.pckpt`` bundles ("" is the
    #: current directory).
    checkpoint_dir: str = ""
    #: How many periodic checkpoints to retain (older bundles are
    #: removed after each successful write; crash recovery only ever
    #: needs the latest valid one).
    checkpoint_keep: int = 2
    #: Seed of the VM-level run RNG (``vm.run_rng``): the *only* source
    #: of randomness consumed at virtual-time-ordered points (RESTART
    #: backoff jitter), so seeded runs stay bit-reproducible.
    run_seed: int = 0
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
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be >= 1")
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
        if self.checkpoint_every:
            where = self.checkpoint_dir or "."
            lines.append(f"  checkpoint: every {self.checkpoint_every} ticks "
                         f"to {where} (keep {self.checkpoint_keep})")
        return "\n".join(lines)


def simple_configuration(n_clusters: int = 2, slots: int = 4,
                         force_pes_per_cluster: int = 0,
                         first_pe: int = 3,
                         name: str = "simple") -> Configuration:
    """The standard shape: ``n_clusters`` clusters on consecutive PEs
    starting at ``first_pe``, each with ``slots`` slots, then consecutive
    blocks of ``force_pes_per_cluster`` secondary PEs.  Every app's
    task-parallel and force configuration is one of these."""
    force, sec = force_pes_per_cluster, first_pe + n_clusters
    return Configuration(clusters=tuple(
        ClusterSpec(number=i, primary_pe=first_pe + i - 1, slots=slots,
                    secondary_pes=tuple(range(sec + (i - 1) * force,
                                              sec + i * force)))
        for i in range(1, n_clusters + 1)), name=name)


def master_worker_configuration(n_clusters: int, n_workers: int,
                                name: str) -> Configuration:
    """The :func:`simple_configuration` of a master farming ``n_workers``
    worker tasks: each cluster gets ``max(2, n_workers)`` slots, except
    that a lone cluster holds the master and every worker.  Raises
    :class:`ConfigurationError` when that needs more than
    :data:`MAX_SLOTS` slots."""
    slots = n_workers + 1 if n_clusters == 1 else max(2, n_workers)
    if slots > MAX_SLOTS:
        raise ConfigurationError(
            f"{n_workers} workers on {n_clusters} cluster(s) need {slots} "
            f"slots per cluster, over the {MAX_SLOTS} a cluster has")
    return simple_configuration(n_clusters, slots, name=name)
