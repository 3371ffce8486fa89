"""Checkpoint / restore / crash recovery (the ``.pckpt`` bundle).

Snapshot a live VM between dispatches, restore it in a fresh process,
and resume to a final trace, profile and race report bit-identical to
an uninterrupted run -- including after a ``kill -9``.  A bundle
embeds the run's decision-stream prefix; restore installs it as a
live-tail :class:`~repro.correctness.recorder.Schedule`, which checks
the re-run up to the snapshot point and then records the rest of it.  See
``docs/architecture.md`` ("Checkpoint / restore") for the design and
``docs/users_manual.md`` section 14 for usage.
"""

from .. import lazy_exports

__all__ = [
    "PeriodicCheckpointer",
    "RestoredRun",
    "checkpoint_vm",
    "find_latest_checkpoint",
    "load_bundle",
    "restore_vm",
    "snapshot_state",
    "verify_snapshot",
]

#: Public name -> the submodule that defines it, imported on first
#: access: finding a bundle loads no engine, writing one no restorer.
_LAZY = {
    **dict.fromkeys(("find_latest_checkpoint", "load_bundle"), "format"),
    "PeriodicCheckpointer": "policy",
    **dict.fromkeys(("RestoredRun", "checkpoint_vm", "restore_vm"),
                    "restore"),
    **dict.fromkeys(("snapshot_state", "verify_snapshot"), "snapshot"),
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
