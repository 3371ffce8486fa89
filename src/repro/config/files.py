"""Saving, loading and editing configuration files (section 9).

"Configurations may be saved on files and reused or edited as desired
for later runs."  The on-disk format is a small readable text format
(one directive per line) so saved configurations diff cleanly::

    # pisces configuration
    name quadcluster
    cluster 1 primary 3 slots 4 force 7,8,9
    cluster 2 primary 4 slots 4 force 16,17,18,19,20
    time_limit 500000
    trace MSG_SEND MSG_ACCEPT
    user_cluster 1
    file_cluster 1
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, Optional, TextIO, Union

from ..errors import ConfigurationError
from ..util.durable import durable_write
from .configuration import DEFAULT_ACCEPT_DELAY, ClusterSpec, Configuration

FORMAT_HEADER = "# pisces configuration"


def dumps(cfg: Configuration) -> str:
    """Serialize a configuration to the text format."""
    out = [FORMAT_HEADER, f"name {cfg.name}"]
    for c in sorted(cfg.clusters, key=lambda c: c.number):
        force = ",".join(map(str, c.secondary_pes)) if c.secondary_pes else "-"
        out.append(f"cluster {c.number} primary {c.primary_pe} "
                   f"slots {c.slots} force {force}")
    if cfg.time_limit is not None:
        out.append(f"time_limit {cfg.time_limit}")
    if cfg.trace_events:
        out.append("trace " + " ".join(cfg.trace_events))
    if cfg.user_cluster is not None:
        out.append(f"user_cluster {cfg.user_cluster}")
    if cfg.file_cluster is not None:
        out.append(f"file_cluster {cfg.file_cluster}")
    if cfg.default_accept_delay != DEFAULT_ACCEPT_DELAY:
        out.append(f"accept_delay {cfg.default_accept_delay}")
    if cfg.accept_retries:
        out.append(f"accept_retry {cfg.accept_retries} {cfg.accept_backoff}")
    return "\n".join(out) + "\n"


def loads(text: str) -> Configuration:
    """Parse the text format back into a configuration."""
    clusters: List[ClusterSpec] = []
    kw = {}
    name = "unnamed"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "name":
                name = " ".join(toks[1:]) or "unnamed"
            elif toks[0] == "cluster":
                clusters.append(_parse_cluster(toks))
            elif toks[0] == "time_limit":
                kw["time_limit"] = int(toks[1])
            elif toks[0] == "trace":
                kw["trace_events"] = tuple(toks[1:])
            elif toks[0] == "user_cluster":
                kw["user_cluster"] = int(toks[1])
            elif toks[0] == "file_cluster":
                kw["file_cluster"] = int(toks[1])
            elif toks[0] == "accept_delay":
                kw["default_accept_delay"] = int(toks[1])
            elif toks[0] == "accept_retry":
                kw["accept_retries"] = int(toks[1])
                if len(toks) > 2:
                    kw["accept_backoff"] = float(toks[2])
            else:
                raise ConfigurationError(
                    f"line {lineno}: unknown directive {toks[0]!r}")
        except (IndexError, ValueError) as e:
            raise ConfigurationError(f"line {lineno}: {raw!r}: {e}") from e
    if not clusters:
        raise ConfigurationError("configuration file declares no clusters")
    return Configuration(clusters=tuple(clusters), name=name, **kw)


def _parse_cluster(toks: List[str]) -> ClusterSpec:
    # cluster <n> primary <pe> slots <k> force <a,b,c|->
    fields = dict(zip(toks[2::2], toks[3::2]))
    number = int(toks[1])
    if "primary" not in fields:
        raise ConfigurationError(f"cluster {number}: missing primary PE")
    force_txt = fields.get("force", "-")
    secondary = (tuple(int(x) for x in force_txt.split(",") if x)
                 if force_txt != "-" else ())
    return ClusterSpec(number=number,
                       primary_pe=int(fields["primary"]),
                       slots=int(fields.get("slots", 4)),
                       secondary_pes=secondary)


def save(cfg: Configuration, path: Union[str, Path]) -> Path:
    """Write a configuration file (conventionally ``*.pcfg``)."""
    durable_write(path, dumps(cfg))
    return Path(path)


def load(path: Union[str, Path]) -> Configuration:
    """Read a configuration file saved by :func:`save`."""
    return loads(Path(path).read_text())
