"""Unit tests: configuration file save/load (section 9)."""

from dataclasses import replace

import pytest

from repro.config import files
from repro.config.configuration import ClusterSpec, Configuration
from repro.errors import ConfigurationError


def sample():
    return Configuration(
        clusters=(ClusterSpec(1, 3, 4, (7, 8, 9)),
                  ClusterSpec(2, 4, 2)),
        time_limit=500_000,
        trace_events=("MSG_SEND", "MSG_ACCEPT"),
        user_cluster=1,
        file_cluster=2,
        default_accept_delay=123_456,
        name="quadcluster")


class TestRoundTrip:
    def test_dumps_loads_identity(self):
        c = sample()
        assert files.loads(files.dumps(c)) == c

    def test_round_trip_does_not_depend_on_the_environment(self,
                                                           monkeypatch):
        """A file saved in one shell reloads as the same configuration
        in another: the former PISCES_ACCEPT_TIMEOUT variable does not
        decide which fields the file spells out."""
        c = replace(sample(), default_accept_delay=300)
        monkeypatch.setenv("PISCES_ACCEPT_TIMEOUT", "300")
        text = files.dumps(c)
        monkeypatch.delenv("PISCES_ACCEPT_TIMEOUT")
        assert files.loads(text) == c

    def test_save_load_file(self, tmp_path):
        c = sample()
        p = files.save(c, tmp_path / "run.pcfg")
        assert files.load(p) == c

    def test_defaults_omitted_from_text(self):
        c = Configuration(clusters=(ClusterSpec(1, 3, 4),), name="bare")
        text = files.dumps(c)
        assert "time_limit" not in text
        assert "trace" not in text
        assert "accept_delay" not in text

    def test_format_is_readable(self):
        text = files.dumps(sample())
        assert "cluster 1 primary 3 slots 4 force 7,8,9" in text
        assert "cluster 2 primary 4 slots 2 force -" in text


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        name x

        cluster 1 primary 3 slots 2 force -   # trailing comment
        """
        c = files.loads(text)
        assert c.name == "x" and c.cluster(1).slots == 2

    def test_slots_default_to_four(self):
        c = files.loads("cluster 1 primary 3 force -")
        assert c.cluster(1).slots == 4

    def test_missing_primary_rejected(self):
        with pytest.raises(ConfigurationError):
            files.loads("cluster 1 slots 2 force -")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ConfigurationError):
            files.loads("cluster 1 primary 3\nbogus 4")

    def test_no_clusters_rejected(self):
        with pytest.raises(ConfigurationError):
            files.loads("name only")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigurationError) as ei:
            files.loads("cluster 1 primary x")
        assert "line 1" in str(ei.value)
