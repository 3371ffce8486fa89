"""Section 13 storage measurements (the paper's quantitative results).

Paper's claims:
  S1. "the PISCES 2 system uses less than 2.5% of each PE's local
      memory (for system code and data)";
  S2. "and less than 0.3% of shared memory (for system tables)";
  S3. "Storage used for message passing is dynamically recovered and
      reused.  Thus the amount of shared memory used for message
      passing only becomes significant when large numbers of messages
      (or very large messages) are sent and left waiting in a task's
      in-queue without being accepted."

Each is measured off a live VM on the 20-PE NASA machine model.
"""

import numpy as np
import pytest

from repro.obs.analysis import (
    PAPER_LOCAL_BOUND,
    PAPER_SHARED_TABLE_BOUND,
    measure,
    storage_table,
)
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.task import TaskRegistry
from repro.core.taskid import SELF
from repro.core.vm import PiscesVM
from repro.flex.presets import nasa_langley_flex32

from _paperconfig import section9_configuration


def sweep_configurations():
    """Configurations from minimal to the 18-cluster maximum."""
    out = [Configuration(clusters=(ClusterSpec(1, 3, 4),), name="1x4"),
           section9_configuration()]
    specs = tuple(ClusterSpec(i, 2 + i, 2) for i in range(1, 9))
    out.append(Configuration(clusters=specs, name="8x2"))
    specs18 = tuple(ClusterSpec(i, 2 + i, 1) for i in range(1, 19))
    out.append(Configuration(clusters=specs18, name="18x1 (max clusters)"))
    return out


def measure_all():
    ms = []
    for cfg in sweep_configurations():
        vm = PiscesVM(cfg, registry=TaskRegistry(),
                      machine=nasa_langley_flex32())
        ms.append(measure(vm))
        vm.shutdown()
    return ms


def test_local_and_shared_overhead(benchmark, report):
    """S1 + S2: the storage-overhead table across configurations."""
    ms = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    report(storage_table(ms))
    report("")
    report(f"paper: local system < {100 * PAPER_LOCAL_BOUND}%  |  "
           f"shared tables < {100 * PAPER_SHARED_TABLE_BOUND}%")
    # S1 holds for every configuration (same loadfile everywhere).
    assert all(m.meets_local_bound for m in ms)
    # S2 holds for the paper's own example configuration (and indeed up
    # to 8 clusters); the degenerate 18-cluster maximum is reported too.
    section9 = [m for m in ms if m.config_name == "section9-example"][0]
    assert section9.meets_shared_bound
    small = [m for m in ms if m.config_name == "1x4"][0]
    assert small.meets_shared_bound


def run_message_recovery():
    reg = TaskRegistry()
    probe = {}

    @reg.tasktype("MAIN")
    def main(ctx):
        heap = ctx.vm.machine.shared
        probe["baseline"] = heap.live_bytes_by_tag().get("message", 0)
        # Phase 1: heavy send/accept traffic -- storage is recovered.
        for round_ in range(50):
            for i in range(10):
                ctx.send(SELF, "PKT", np.zeros(32), i)
            ctx.accept(("PKT", 10))
        probe["after_traffic"] = heap.live_bytes_by_tag().get("message", 0)
        probe["high_water"] = heap.stats.high_water
        # Phase 2: the warned failure mode -- unaccepted pile-up.
        for i in range(200):
            ctx.send(SELF, "PILE", np.zeros(64))
        probe["piled"] = heap.live_bytes_by_tag().get("message", 0)
        from repro.core.accept import ALL_RECEIVED
        ctx.accept(("PILE", ALL_RECEIVED))
        probe["drained"] = heap.live_bytes_by_tag().get("message", 0)

    vm = PiscesVM(Configuration(clusters=(ClusterSpec(1, 3, 4),),
                                name="msg"),
                  registry=reg, machine=nasa_langley_flex32())
    vm.run("MAIN")
    return probe


def test_message_storage_recovery(benchmark, report):
    """S3: message heap returns to baseline after accepts; only
    unaccepted queues grow it."""
    p = benchmark.pedantic(run_message_recovery, rounds=1, iterations=1)
    report("SECTION 13 S3: message-passing storage (bytes)")
    report(f"  baseline live message bytes .......... {p['baseline']}")
    report(f"  after 500 sends all accepted ......... {p['after_traffic']}")
    report(f"  heap high-water during traffic ....... {p['high_water']}")
    report(f"  after 200 sends left unaccepted ...... {p['piled']}")
    report(f"  after draining the in-queue .......... {p['drained']}")
    # Recovered and reused:
    assert p["after_traffic"] == p["baseline"] == 0
    # Only significant when messages pile up unaccepted:
    assert p["piled"] > 200 * 64
    assert p["drained"] == 0
    # Traffic peaked well below the pile-up (queue depth 10 vs 200).
    assert p["high_water"] < p["piled"] + 10_000
