"""Unit tests: configuration validation and the mapping rules."""

import pytest

from repro.config.configuration import (
    ClusterSpec,
    Configuration,
    MAX_SLOTS,
    simple_configuration,
)
from repro.errors import ConfigurationError
from repro.flex.machine import MachineSpec

NASA = MachineSpec()   # 20 PEs, 1-2 Unix


def cfg(*clusters, **kw):
    return Configuration(clusters=tuple(clusters), **kw)


class TestClusterSpec:
    def test_valid_cluster_passes(self):
        ClusterSpec(1, 3, 4, (7, 8)).validate(NASA)

    def test_primary_must_be_mmos_pe(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 1, 4).validate(NASA)   # PE 1 runs Unix
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 21, 4).validate(NASA)

    def test_slot_bounds(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 3, 0).validate(NASA)
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 3, MAX_SLOTS + 1).validate(NASA)

    def test_secondary_pe_rules(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 3, 4, (2,)).validate(NASA)    # Unix PE
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 3, 4, (7, 7)).validate(NASA)  # duplicate
        with pytest.raises(ConfigurationError):
            ClusterSpec(1, 3, 4, (3,)).validate(NASA)    # own primary

    def test_cluster_number_positive(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(0, 3, 4).validate(NASA)


class TestConfigurationValidation:
    def test_paper_limit_1_to_18_clusters(self):
        """Section 5: 'between 1 and 18 clusters' on the NASA machine."""
        specs = tuple(ClusterSpec(i, 2 + i, 1) for i in range(1, 19))
        cfg(*specs).validate(NASA)   # 18 clusters on PEs 3..20 is legal
        too_many = specs + (ClusterSpec(19, 3, 1),)
        with pytest.raises(ConfigurationError):
            cfg(*too_many).validate(NASA)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            cfg().validate(NASA)

    def test_duplicate_cluster_numbers_rejected(self):
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2), ClusterSpec(1, 4, 2)).validate(NASA)

    def test_duplicate_primaries_rejected(self):
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2), ClusterSpec(2, 3, 2)).validate(NASA)

    def test_secondary_pes_may_be_shared_between_clusters(self):
        # Section 9 example: PEs 7-15 run forces for clusters 3 AND 4.
        cfg(ClusterSpec(1, 3, 2, (7, 8)),
            ClusterSpec(2, 4, 2, (7, 8))).validate(NASA)

    def test_user_file_cluster_must_exist(self):
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2), user_cluster=9).validate(NASA)
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2), file_cluster=9).validate(NASA)

    def test_time_limit_and_delay_positive(self):
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2), time_limit=0).validate(NASA)
        with pytest.raises(ConfigurationError):
            cfg(ClusterSpec(1, 3, 2),
                default_accept_delay=0).validate(NASA)


class TestDerivedProperties:
    def test_used_pes(self):
        c = cfg(ClusterSpec(1, 3, 2, (7, 8)), ClusterSpec(2, 4, 2, (8, 9)))
        assert c.used_pes() == [3, 4, 7, 8, 9]

    def test_force_size_is_one_plus_secondaries(self):
        from repro.core.cluster import ClusterRuntime
        cr = ClusterRuntime(1, 3, (7, 8, 9), 4)
        assert cr.force_size == 4
        cr0 = ClusterRuntime(1, 3, (), 4)
        assert cr0.force_size == 1

    def test_max_multiprogramming_sums_serving_clusters(self):
        """Section 9: a PE secondary for clusters with 4 slots each can
        host up to 4+4=8 simultaneous tasks."""
        c = cfg(ClusterSpec(3, 5, 4, (7,)), ClusterSpec(4, 6, 4, (7,)))
        assert c.max_multiprogramming(7) == 8
        assert c.max_multiprogramming(5) == 4
        assert c.max_multiprogramming(19) == 0

    def test_effective_user_and_file_cluster_default_to_lowest(self):
        c = cfg(ClusterSpec(4, 6, 2), ClusterSpec(2, 4, 2))
        assert c.effective_user_cluster() == 2
        assert c.effective_file_cluster() == 2

    def test_cluster_lookup(self):
        c = cfg(ClusterSpec(1, 3, 2))
        assert c.cluster(1).primary_pe == 3
        with pytest.raises(ConfigurationError):
            c.cluster(9)


class TestEditing:
    def test_with_cluster_adds_or_replaces(self):
        c = cfg(ClusterSpec(1, 3, 2))
        c2 = c.with_cluster(ClusterSpec(2, 4, 2))
        assert c2.cluster_numbers() == [1, 2]
        c3 = c2.with_cluster(ClusterSpec(1, 5, 8))
        assert c3.cluster(1).slots == 8
        assert c.cluster_numbers() == [1]   # original untouched (frozen)

    def test_without_cluster(self):
        c = cfg(ClusterSpec(1, 3, 2), ClusterSpec(2, 4, 2))
        assert c.without_cluster(2).cluster_numbers() == [1]

    def test_describe_mentions_mapping(self):
        c = cfg(ClusterSpec(1, 3, 4, (7, 8)), time_limit=1000, name="demo")
        d = c.describe()
        assert "demo" in d and "primary PE 3" in d and "force size 3" in d
        assert "time limit" in d


class TestSimpleConfiguration:
    def test_shape(self):
        c = simple_configuration(n_clusters=3, slots=2,
                                 force_pes_per_cluster=2)
        c.validate(NASA)
        assert c.cluster_numbers() == [1, 2, 3]
        assert [s.primary_pe for s in sorted(c.clusters,
                                             key=lambda s: s.number)] == [3, 4, 5]
        assert all(len(s.secondary_pes) == 2 for s in c.clusters)


class TestNoEnvironment:
    """A run is configured by its Configuration and explicit arguments
    only; the environment is not a source of run settings."""

    def test_no_module_reads_a_pisces_variable(self):
        """No module reads a ``PISCES_*`` variable: none that reads the
        environment (``environ``/``getenv``) names one, in the read or
        in a string literal the read could take its name from."""
        import re
        from pathlib import Path
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = []
        for p in src.rglob("*.py"):
            text = p.read_text()
            if re.search(r"\b(environ|getenv)\b", text) and \
                    re.search(r"\bPISCES_(?!SYSTEM_)", text):
                offenders.append(p.name)
        assert not offenders, offenders
