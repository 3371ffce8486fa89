"""Shared fixtures: VM construction with guaranteed thread teardown."""

from __future__ import annotations

import pytest

from repro import PiscesVM, TaskRegistry
from repro.config.configuration import ClusterSpec, Configuration
from repro.flex.presets import small_flex
from tests.oracles import bodies  # noqa: F401  (the BOTH_VEHICLES fixture)


@pytest.fixture
def registry() -> TaskRegistry:
    return TaskRegistry()


@pytest.fixture
def make_vm():
    """Factory creating VMs on a small test machine; every VM created is
    shut down at test teardown so controller threads never leak."""
    vms = []

    def factory(config=None, registry=None, machine=None, n_pes=10,
                **cfg_kw):
        if config is None:
            config = Configuration(
                clusters=(ClusterSpec(1, 3, 4), ClusterSpec(2, 4, 4)),
                name="test", **cfg_kw)
        vm = PiscesVM(config, registry=registry,
                      machine=machine or small_flex(n_pes))
        vms.append(vm)
        return vm

    yield factory
    for vm in vms:
        vm.shutdown()


@pytest.fixture
def two_cluster_config() -> Configuration:
    return Configuration(clusters=(ClusterSpec(1, 3, 4),
                                   ClusterSpec(2, 4, 4)), name="2c")


@pytest.fixture
def force_config() -> Configuration:
    """One cluster whose forces have 4 members (3 secondary PEs)."""
    return Configuration(
        clusters=(ClusterSpec(1, 3, 2, secondary_pes=(4, 5, 6)),),
        name="force4")
