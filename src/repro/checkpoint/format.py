"""The ``.pckpt`` on-disk checkpoint bundle.

A checkpoint is *not* a process image -- threads and generator frames
cannot be serialized and do not need to be.  The system is
bit-deterministic given its inputs (program, configuration, seeds,
fault plan) plus the engine's decision stream, so a checkpoint is
exactly those inputs plus the recorded schedule *prefix* and a state
digest to validate against:

* line 1 -- the magic ``#pckpt 1``;
* one ``meta`` line -- compact JSON: the manifest (virtual clock,
  dispatch/schedule position, app request, configuration, fault-plan
  text and cursor, run seed, tracing/detector/profiler switches);
* one ``state`` line -- compact JSON: the run-stable state snapshot
  (per-PE clocks, process scheduling state, in-queues, SHARED COMMON
  and window digests, lock/barrier/force state, RNG digests) used to
  *validate* a restore, never to rebuild state;
* the embedded ``.psched`` schedule prefix, each line prefixed ``| ``;
* a final ``#sum <adler32>`` line over everything above it.

The checksum is what makes a bundle safe to trust after a host crash:
a file torn mid-write fails to parse (:class:`CheckpointFormatError`)
and :func:`find_latest_checkpoint` falls back to the previous bundle.
Bundles are written through :mod:`repro.util.durable`, so a crash
*during* a checkpoint never destroys the prior one, and a failed write
leaves no temp file behind.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import CheckpointFormatError

MAGIC = "#pckpt 1"

#: Periodic bundles are named so a lexical sort is a (virtual time,
#: dispatch) sort: ``ckpt-<tick:016d>-<dispatch:08d>.pckpt``.
FILENAME_FORMAT = "ckpt-{tick:016d}-{dispatch:08d}.pckpt"


def dumps_bundle(manifest: Dict[str, Any], state: Dict[str, Any],
                 psched_text: str) -> str:
    """Serialize one checkpoint to the ``.pckpt`` text format."""
    lines = [MAGIC]
    lines.append("meta " + json.dumps(manifest, sort_keys=True,
                                      separators=(",", ":")))
    lines.append("state " + json.dumps(state, sort_keys=True,
                                       separators=(",", ":")))
    for ln in psched_text.splitlines():
        lines.append("| " + ln)
    body = "\n".join(lines) + "\n"
    return body + f"#sum {zlib.adler32(body.encode('utf-8'))}\n"


def parse_bundle(text: str) -> Tuple[Dict[str, Any], Dict[str, Any], str]:
    """Parse and checksum-verify a bundle.

    Returns ``(manifest, state, psched_text)``; raises
    :class:`~repro.errors.CheckpointFormatError` on a bad magic,
    truncated body, or checksum mismatch (e.g. a torn file).
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise CheckpointFormatError(
            f"not a .pckpt bundle (expected {MAGIC!r} header)")
    if not lines[-1].startswith("#sum "):
        raise CheckpointFormatError(
            "truncated .pckpt bundle: no trailing #sum line")
    try:
        recorded = int(lines[-1].split()[1])
    except (IndexError, ValueError):
        raise CheckpointFormatError(
            f"bad checksum line {lines[-1]!r}") from None
    body = "\n".join(lines[:-1]) + "\n"
    actual = zlib.adler32(body.encode("utf-8"))
    if actual != recorded:
        raise CheckpointFormatError(
            f"checksum mismatch: bundle records {recorded}, body hashes "
            f"to {actual} (torn or tampered file)")
    manifest: Optional[Dict[str, Any]] = None
    state: Optional[Dict[str, Any]] = None
    psched: list = []
    for ln in lines[1:-1]:
        if ln.startswith("meta "):
            manifest = json.loads(ln[len("meta "):])
        elif ln.startswith("state "):
            state = json.loads(ln[len("state "):])
        elif ln.startswith("| "):
            psched.append(ln[2:])
        elif ln.startswith("|"):
            psched.append(ln[1:])
        elif ln.strip():
            raise CheckpointFormatError(
                f"unrecognized bundle line {ln!r}")
    if manifest is None or state is None:
        raise CheckpointFormatError(
            "incomplete .pckpt bundle: missing meta or state line")
    return manifest, state, "\n".join(psched) + ("\n" if psched else "")


def load_bundle(path: Union[str, Path],
                ) -> Tuple[Dict[str, Any], Dict[str, Any], str]:
    """Read and parse one ``.pckpt`` file."""
    return parse_bundle(Path(path).read_text(encoding="utf-8"))


def checkpoint_filename(tick: int, dispatch_seq: int) -> str:
    return FILENAME_FORMAT.format(tick=tick, dispatch=dispatch_seq)


def find_latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest *valid* bundle in ``directory`` (lexically last
    ``*.pckpt`` that parses and checksums clean), or None.

    Crash recovery calls this after a kill -9: an invalid or torn
    newest bundle is skipped, not trusted, so recovery degrades to the
    previous checkpoint instead of failing.
    """
    candidates = sorted(Path(directory).glob("*.pckpt"), reverse=True)
    for p in candidates:
        try:
            parse_bundle(p.read_text(encoding="utf-8"))
        except (OSError, CheckpointFormatError, json.JSONDecodeError):
            continue
        return p
    return None
