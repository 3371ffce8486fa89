"""The ``.pckpt`` bundle format: round-trips, corruption detection,
and latest-valid discovery."""

import json

import pytest

from repro.checkpoint.format import (
    checkpoint_filename,
    dumps_bundle,
    find_latest_checkpoint,
    load_bundle,
    parse_bundle,
)
from repro.errors import CheckpointError, CheckpointFormatError, PiscesError
from repro.util.durable import durable_write

MANIFEST = {"format": 1, "now": 1234, "app": {"tasktype": "MAIN",
                                             "args": [3, "x"]}}
STATE = {"now": 1234, "clocks": {"3": 1200, "4": 1234},
         "rng": {"run": 17}}
PSCHED = "#psched 1\nmeta app=MAIN\nP 0:ctrl 1:main\nD 0:0 1:40\n"


class TestRoundTrip:
    def test_dumps_parse_round_trip(self):
        text = dumps_bundle(MANIFEST, STATE, PSCHED)
        m, s, p = parse_bundle(text)
        assert m == json.loads(json.dumps(MANIFEST))
        assert s == json.loads(json.dumps(STATE))
        assert p == PSCHED

    def test_file_round_trip(self, tmp_path):
        target = tmp_path / "a.pckpt"
        durable_write(target, dumps_bundle(MANIFEST, STATE, PSCHED))
        m, s, p = load_bundle(target)
        assert m["app"]["tasktype"] == "MAIN"
        assert p == PSCHED
        # Atomic write leaves no temp droppings.
        assert [f.name for f in tmp_path.iterdir()] == ["a.pckpt"]

    def test_empty_psched_round_trips(self):
        m, s, p = parse_bundle(dumps_bundle(MANIFEST, STATE, ""))
        assert p == ""

    def test_bundle_is_deterministic(self):
        assert (dumps_bundle(MANIFEST, STATE, PSCHED)
                == dumps_bundle(dict(MANIFEST), dict(STATE), PSCHED))


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CheckpointFormatError):
            parse_bundle("#wrong 1\nmeta {}\n")

    def test_truncated_no_checksum(self):
        text = dumps_bundle(MANIFEST, STATE, PSCHED)
        body = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(CheckpointFormatError, match="truncated"):
            parse_bundle(body)

    def test_torn_write_detected(self):
        # A file cut mid-body keeps neither its tail lines nor a valid
        # sum; re-attaching the old #sum line must also fail.
        text = dumps_bundle(MANIFEST, STATE, PSCHED)
        lines = text.splitlines()
        torn = "\n".join(lines[:2] + [lines[-1]]) + "\n"
        with pytest.raises(CheckpointFormatError):
            parse_bundle(torn)

    def test_tampered_byte_detected(self):
        text = dumps_bundle(MANIFEST, STATE, PSCHED)
        bad = text.replace('"now":1234', '"now":1235', 1)
        with pytest.raises(CheckpointFormatError, match="checksum"):
            parse_bundle(bad)

    def test_missing_state_line(self):
        import zlib
        body = "#pckpt 1\nmeta {}\n"
        text = body + f"#sum {zlib.adler32(body.encode())}\n"
        with pytest.raises(CheckpointFormatError, match="incomplete"):
            parse_bundle(text)

    def test_checkpoint_errors_are_pisces_errors(self):
        assert issubclass(CheckpointFormatError, CheckpointError)
        assert issubclass(CheckpointError, PiscesError)


class TestFindLatest:
    def _write(self, tmp_path, tick, seq, text=None):
        p = tmp_path / checkpoint_filename(tick, seq)
        p.write_text(text if text is not None
                     else dumps_bundle(MANIFEST, STATE, PSCHED))
        return p

    def test_empty_directory(self, tmp_path):
        assert find_latest_checkpoint(tmp_path) is None

    def test_picks_lexically_latest(self, tmp_path):
        self._write(tmp_path, 1000, 5)
        newest = self._write(tmp_path, 2000, 9)
        assert find_latest_checkpoint(tmp_path) == newest

    def test_skips_torn_newest(self, tmp_path):
        ok = self._write(tmp_path, 1000, 5)
        self._write(tmp_path, 2000, 9,
                    text="#pckpt 1\nmeta {\"cut mid-write")
        assert find_latest_checkpoint(tmp_path) == ok

    def test_all_invalid(self, tmp_path):
        self._write(tmp_path, 1000, 5, text="junk")
        assert find_latest_checkpoint(tmp_path) is None

    def test_filename_sorts_by_tick_then_dispatch(self):
        names = [checkpoint_filename(9, 100), checkpoint_filename(10, 2),
                 checkpoint_filename(10, 11)]
        assert names == sorted(names)
