"""The run store: state machine, atomicity, crash rescan, residency."""

import gc
import json
import os
import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidRunSpec, ServiceError, UnknownRun
from repro.service import store as store_mod
from repro.service.spec import RunSpec
from repro.service.store import (_TRANSITIONS, DONE, FAILED, INDEX_NAME,
                                 KILLED, LIVE_STATES, QUEUED, RUNNING, STATES,
                                 TERMINAL_STATES, RunRecord, RunStore)

SPEC = RunSpec(app="spin", params={"rounds": 3})


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestLifecycle:

    def test_create_starts_queued(self, store):
        rec = store.create("alice", SPEC)
        assert rec.state == QUEUED and rec.tenant == "alice"
        assert rec.run_id == "r000001" and rec.seq == 1

    def test_run_ids_are_sequential(self, store):
        ids = [store.create("t", SPEC).run_id for _ in range(3)]
        assert ids == ["r000001", "r000002", "r000003"]

    def test_happy_path_transitions(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, RUNNING)
        final = store.transition(rec.run_id, DONE,
                                 exit={"outcome": "done"})
        assert final.state == DONE and final.exit["outcome"] == "done"

    def test_illegal_transition_refused(self, store):
        rec = store.create("t", SPEC)
        with pytest.raises(ServiceError, match="illegal transition"):
            store.transition(rec.run_id, DONE)      # skips RUNNING

    def test_terminal_states_are_final(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, KILLED)
        with pytest.raises(ServiceError):
            store.transition(rec.run_id, RUNNING)

    def test_unknown_run(self, store):
        with pytest.raises(UnknownRun):
            store.get("r999999")

    def test_one_live_state_per_place_a_run_can_be(self):
        """Waiting for a worker (QUEUED) or on one (RUNNING): admission
        goes straight to RUNNING, and a run that fails to boot or is
        killed before it starts leaves RUNNING."""
        assert LIVE_STATES == (QUEUED, RUNNING) and len(STATES) == 5
        assert _TRANSITIONS[QUEUED] == (RUNNING, KILLED, FAILED)
        assert _TRANSITIONS[RUNNING] == (DONE, FAILED, KILLED)
        assert sum(len(v) for v in _TRANSITIONS.values()) == 6


class TestPersistence:

    def test_record_is_on_disk_json(self, store):
        rec = store.create("alice", SPEC)
        with store.record_path(rec.run_id).open() as f:
            on_disk = json.load(f)
        assert on_disk["tenant"] == "alice"
        assert on_disk["spec"]["app"] == "spin"

    def test_no_tmp_leftover_after_write(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, RUNNING)
        leftovers = list(store.run_dir(rec.run_id).glob("*.tmp"))
        assert leftovers == []

    def test_reopen_sees_all_runs_and_continues_seq(self, store):
        store.create("a", SPEC)
        store.create("b", SPEC)
        reopened = RunStore(store.root)
        assert [r.run_id for r in reopened.list()] == ["r000001", "r000002"]
        assert reopened.create("c", SPEC).run_id == "r000003"

    def test_torn_record_is_skipped_not_fatal(self, store):
        rec = store.create("a", SPEC)
        other = store.create("b", SPEC)
        store.record_path(rec.run_id).write_text("{ torn json")
        reopened = RunStore(store.root)
        assert [r.run_id for r in reopened.list()] == [other.run_id]

    @pytest.mark.parametrize("seq", ["1", True, 1.0, None])
    def test_record_whose_seq_is_no_integer_is_skipped(self, store, seq):
        """A ``seq`` that is not a plain int makes a record unreadable
        (``true`` would pass as seq 1): boot skips it like a torn one."""
        rec = store.create("a", SPEC)
        other = store.create("b", SPEC)
        path = store.record_path(rec.run_id)
        d = json.loads(path.read_text())
        d["seq"] = seq
        path.write_text(json.dumps(d))
        with pytest.raises(TypeError, match="seq must be an integer"):
            RunRecord.from_dict(d)
        reopened = RunStore(store.root)
        assert [r.run_id for r in reopened.list()] == [other.run_id]
        assert reopened.create("c", SPEC).run_id == "r000003"

    def test_torn_newest_record_does_not_lend_its_id(self, store):
        store.create("a", SPEC)
        torn = store.create("a", SPEC)
        (store.artifacts_dir(torn.run_id) / "run.events.jsonl").write_text(
            "old run's trace\n")
        store.record_path(torn.run_id).write_text("{ torn json")
        reopened = RunStore(store.root)
        fresh = reopened.create("b", SPEC)
        assert fresh.run_id == "r000003" and fresh.seq == 3
        assert reopened.list_artifacts(fresh.run_id) == []

    def test_run_dir_without_record_is_not_reused(self, store):
        store.run_dir("r000007").mkdir()
        reopened = RunStore(store.root)
        assert reopened.list() == []
        assert reopened.create("a", SPEC).run_id == "r000008"


class TestRecover:

    def test_interrupted_runs_requeued_with_bump(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, RUNNING, started_at=123.0)
        reopened = RunStore(store.root)
        recovered = reopened.recover()
        assert [r.run_id for r in recovered] == [rec.run_id]
        got = reopened.get(rec.run_id)
        assert got.state == QUEUED and got.recovered == 1
        assert got.started_at is None

    def test_legacy_admitted_record_is_requeued(self, store):
        """A record an older build left ADMITTED (picked, not yet
        booted) reads as RUNNING, so boot re-queues it."""
        rec = store.create("t", SPEC)
        on_disk = json.loads(store.record_path(rec.run_id).read_text())
        on_disk.update(state="ADMITTED", recovered=2)
        store.record_path(rec.run_id).write_text(json.dumps(on_disk))
        reopened = RunStore(store.root)
        assert reopened.get(rec.run_id).state == RUNNING
        assert [r.run_id for r in reopened.recover()] == [rec.run_id]
        got = RunStore(store.root).get(rec.run_id)
        assert (got.state, got.recovered) == (QUEUED, 3)

    def test_queued_and_terminal_untouched(self, store):
        q = store.create("t", SPEC)
        d = store.create("t", SPEC)
        store.transition(d.run_id, RUNNING)
        store.transition(d.run_id, DONE)
        reopened = RunStore(store.root)
        assert reopened.recover() == []
        assert reopened.get(q.run_id).state == QUEUED
        assert reopened.get(q.run_id).recovered == 0
        assert reopened.get(d.run_id).state == DONE


class TestQueriesAndArtifacts:

    def test_list_filters(self, store):
        a = store.create("alice", SPEC)
        store.create("bob", SPEC)
        store.transition(a.run_id, RUNNING)
        assert len(store.list()) == 2
        assert [r.tenant for r in store.list(tenant="bob")] == ["bob"]
        assert [r.run_id for r in store.list(state=RUNNING)] == [a.run_id]
        assert store.tenants() == ["alice", "bob"]

    def test_unknown_state_filter_refused(self, store):
        store.create("alice", SPEC)
        for state in ("BOGUS", "ADMITTED"):     # ADMITTED: a retired state
            with pytest.raises(InvalidRunSpec, match="unknown run state"):
                store.list(state=state)

    def test_artifacts_listing_and_fetch(self, store):
        rec = store.create("t", SPEC)
        (store.artifacts_dir(rec.run_id) / "run.events.jsonl").write_text(
            '{"etype": "x"}\n')
        assert store.list_artifacts(rec.run_id) == ["run.events.jsonl"]
        p = store.artifact_path(rec.run_id, "run.events.jsonl")
        assert p.read_text().startswith('{"etype"')

    def test_artifact_path_escape_refused(self, store):
        rec = store.create("t", SPEC)
        with pytest.raises(UnknownRun):
            store.artifact_path(rec.run_id, "../record.json")

    def test_missing_artifact_refused(self, store):
        rec = store.create("t", SPEC)
        with pytest.raises(UnknownRun):
            store.artifact_path(rec.run_id, "nope.bin")


def _finish(store, run_id, state=DONE):
    store.transition(run_id, RUNNING)
    return store.transition(run_id, state, exit={"outcome": state.lower()})


def _resident(tenant):
    """Run ids of every RunRecord of ``tenant`` alive in the process."""
    gc.collect()
    return sorted(o.run_id for o in gc.get_objects()
                  if isinstance(o, RunRecord) and o.tenant == tenant)


class TestResidency:

    def test_only_live_records_stay_resident(self, tmp_path):
        store = RunStore(tmp_path / "store")
        tenant = "residency"
        for _ in range(200):
            _finish(store, store.create(tenant, SPEC).run_id)
        queued = store.create(tenant, SPEC).run_id
        running = store.create(tenant, SPEC).run_id
        store.transition(running, RUNNING)
        assert _resident(tenant) == [queued, running]
        del store
        reopened = RunStore(tmp_path / "store")
        assert _resident(tenant) == [queued, running]
        assert len(reopened.list(tenant=tenant)) == 202
        assert len(reopened.list(state=DONE)) == 200

    def test_a_finished_run_costs_at_most_16_bytes(self, tmp_path):
        """The history's marginal memory: what a boot over 2N finished
        runs holds beyond a boot over N, per run.  The difference cancels
        what does not grow with the history, such as CPython's tuple
        free list (up to 2,000 x 64 B), so N is 2,000."""
        n, root = 2000, tmp_path / "store"
        text = json.dumps(RunRecord(run_id="RUN", tenant="TENANT", spec=SPEC,
                                    state=DONE, seq=987654321).to_dict())

        def held_after_boot(seqs):
            for seq in seqs:
                path = root / "runs" / f"r{seq:06d}" / "record.json"
                path.parent.mkdir(parents=True)
                path.write_text(text.replace("RUN", path.parent.name)
                                .replace("TENANT", TENANTS[seq % 3])
                                .replace("987654321", str(seq)))
                _age(path)
            RunStore(root)                # the measured boot reads the index
            gc.collect()
            tracemalloc.start()
            try:
                store = RunStore(root)
                assert store._next_seq == seqs[-1] + 1
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        one = held_after_boot(range(1, n + 1))
        two = held_after_boot(range(n + 1, 2 * n + 1))
        assert (two - one) / n <= 16

    def test_finished_records_are_read_from_disk(self, store):
        rec = _finish(store, store.create("t", SPEC).run_id)
        on_disk = json.loads(store.record_path(rec.run_id).read_text())
        on_disk["exit"]["note"] = "edited on disk"
        store.record_path(rec.run_id).write_text(json.dumps(on_disk))
        assert store.get(rec.run_id).exit["note"] == "edited on disk"

    def test_record_corrupted_after_boot_is_a_typed_error(self, store):
        bad = _finish(store, store.create("t", SPEC).run_id)
        good = _finish(store, store.create("t", SPEC).run_id)
        store.record_path(bad.run_id).write_text("{ torn json")
        with pytest.raises(UnknownRun, match="unreadable"):
            store.get(bad.run_id)
        with pytest.raises(UnknownRun):
            store.amend(bad.run_id, resumed_from="x")
        # Listings skip it, as a reboot would.
        assert [r.run_id for r in store.list()] == [good.run_id]
        assert [r.run_id for r in RunStore(store.root).list()] \
            == [good.run_id]

    def test_deleted_record_is_unknown(self, store):
        rec = _finish(store, store.create("t", SPEC).run_id)
        store.record_path(rec.run_id).unlink()
        with pytest.raises(UnknownRun):
            store.get(rec.run_id)


def _age(*paths):
    """Date records an hour back, each call to a new instant.  Boot
    trusts an index line only for a record older than the index file
    (one rewritten in the clock tick of the index write could keep its
    stamp), so exact parse counts need records from before that tick."""
    ns = time.time_ns() - 3600 * 10**9
    for path in paths:
        os.utime(path, ns=(ns, ns))


def _boot(root, monkeypatch):
    """A fresh RunStore over ``root`` and how many records it parsed."""
    parsed = []
    real = store_mod._read_record
    monkeypatch.setattr(store_mod, "_read_record",
                        lambda path: parsed.append(path) or real(path))
    store = RunStore(root)
    monkeypatch.setattr(store_mod, "_read_record", real)
    return store, len(parsed)


def _write_record(root, rec):
    path = root / "runs" / rec.run_id / "record.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rec.to_dict()))
    return path


class TestBootIndex:

    def test_index_is_a_work_count_gate(self, tmp_path, monkeypatch):
        n, k = 12, 3
        root = tmp_path / "store"
        store = RunStore(root)
        for _ in range(n):
            _finish(store, store.create("t", SPEC).run_id)
        _age(*root.glob("runs/*/record.json"))
        assert _boot(root, monkeypatch)[1] == n           # no index yet
        assert _boot(root, monkeypatch)[1] == 0

        edited = store.record_path("r000004")
        on_disk = json.loads(edited.read_text())
        on_disk["exit"]["note"] = "edited on disk"
        edited.write_text(json.dumps(on_disk))
        _age(edited)
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 1
        assert store.get("r000004").exit["note"] == "edited on disk"

        new = [_finish(store, store.create("t", SPEC).run_id).run_id
               for _ in range(k)]
        _age(*(store.record_path(r) for r in new))
        assert _boot(root, monkeypatch)[1] == k
        assert _boot(root, monkeypatch)[1] == 0

        (root / INDEX_NAME).unlink()
        store, parsed = _boot(root, monkeypatch)
        assert parsed == n + k
        assert len(store.list(state=DONE)) == n + k

    def test_live_records_are_always_parsed(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = RunStore(root)
        _finish(store, store.create("t", SPEC).run_id)
        store.create("t", SPEC)
        _age(*root.glob("runs/*/record.json"))
        assert _boot(root, monkeypatch)[1] == 2
        assert _boot(root, monkeypatch)[1] == 1
        assert [line.split()[0] for line in
                (root / INDEX_NAME).read_text().splitlines()] == ["r000001"]

    def test_record_as_new_as_the_index_is_parsed(self, tmp_path,
                                                  monkeypatch):
        """A record rewritten in the clock tick the index was written in
        could keep its stamp, so its line is not trusted -- and boot
        rewrites the index, moving its mtime past the record's."""
        root = tmp_path / "store"
        store = RunStore(root)
        record = store.record_path(
            _finish(store, store.create("t", SPEC).run_id).run_id)
        _age(record)
        RunStore(root)
        tick = record.stat().st_mtime_ns
        os.utime(root / INDEX_NAME, ns=(tick, tick))
        assert _boot(root, monkeypatch)[1] == 1
        assert (root / INDEX_NAME).stat().st_mtime_ns > tick
        assert _boot(root, monkeypatch)[1] == 0

    def test_index_lives_outside_the_run_directories(self, tmp_path):
        root = tmp_path / "store"
        store = RunStore(root)
        _finish(store, store.create("t", SPEC).run_id)
        RunStore(root)
        assert (root / INDEX_NAME).is_file()
        assert [p.name for p in (root / "runs").iterdir()] == ["r000001"]

    def test_line_for_a_deleted_run_directory(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = RunStore(root)
        gone, kept = (_finish(store, store.create("t", SPEC).run_id)
                      for _ in range(2))
        _age(*root.glob("runs/*/record.json"))
        RunStore(root)
        assert gone.run_id in (root / INDEX_NAME).read_text()
        shutil.rmtree(store.run_dir(gone.run_id))
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 0
        assert [r.run_id for r in store.list()] == [kept.run_id]
        assert gone.run_id not in (root / INDEX_NAME).read_text()
        _assert_boots_agree(store)

    def test_torn_record_the_index_lists(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = RunStore(root)
        torn, kept = (_finish(store, store.create("t", SPEC).run_id)
                      for _ in range(2))
        _age(*root.glob("runs/*/record.json"))
        RunStore(root)
        store.record_path(torn.run_id).write_text("{ torn json")
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 1
        assert [r.run_id for r in store.list()] == [kept.run_id]
        _assert_boots_agree(store)

    def test_tenant_with_a_space_is_always_parsed(self, tmp_path,
                                                  monkeypatch):
        root = tmp_path / "store"
        path = _write_record(root, RunRecord(
            run_id="r000001", tenant="two words", spec=SPEC, state=DONE,
            seq=1))
        _age(path)
        for _ in range(2):
            store, parsed = _boot(root, monkeypatch)
            assert parsed == 1
            assert store.tenants() == ["two words"]
            assert [r.tenant for r in store.list(tenant="two words")] \
                == ["two words"]
        assert not (root / INDEX_NAME).exists()
        _assert_boots_agree(store)

    def test_record_naming_another_run_is_not_cached(self, tmp_path,
                                                     monkeypatch):
        """A record is a run only in the directory its run_id names;
        elsewhere it is skipped like a torn one, but its seq is taken."""
        root = tmp_path / "store"
        path = _write_record(root, RunRecord(
            run_id="r000001", tenant="t", spec=SPEC, state=DONE, seq=1))
        path.parent.rename(root / "runs" / "copy")
        _age(root / "runs" / "copy" / "record.json")
        for _ in range(2):
            store, parsed = _boot(root, monkeypatch)
            assert parsed == 1
            assert store.list() == [] and store.tenants() == []
            with pytest.raises(UnknownRun, match="no run"):
                store.get("r000001")
            assert store._next_seq == 2
        _assert_boots_agree(store)

    def test_record_whose_seq_is_not_its_id_is_no_run(self, tmp_path,
                                                      monkeypatch):
        """Directory r000001 holding a record of seq 5: no run, but the
        next run id is past its seq."""
        root = tmp_path / "store"
        _age(_write_record(root, RunRecord(
            run_id="r000001", tenant="t", spec=SPEC, state=DONE, seq=5)))
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 1 and store.list() == []
        assert store.create("t", SPEC).run_id == "r000006"
        assert [r.run_id for r in _boot(root, monkeypatch)[0].list()] \
            == ["r000006"]

    def test_seq_order_across_the_six_digit_boundary(self, tmp_path,
                                                     monkeypatch):
        """As strings r1000000 sorts before r999999: runs keep seq order
        in listings, lookups and the boot that reads the index."""
        root = tmp_path / "store"
        for seq in (999_998, 999_999):
            _age(_write_record(root, RunRecord(
                run_id=f"r{seq:06d}", tenant="t", spec=SPEC, state=DONE,
                seq=seq)))
        store = RunStore(root)
        assert store.create("t", SPEC).run_id == "r1000000"
        ids = ["r999998", "r999999", "r1000000"]

        def assert_seq_order(store):
            assert [r.run_id for r in store.list()] == ids
            assert [store.get(r).seq for r in ids] == [999_998, 999_999,
                                                       1_000_000]
        assert_seq_order(store)
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 1                # the live run; the rest indexed
        assert_seq_order(store)
        _finish(store, "r1000000")
        _age(store.record_path("r1000000"))
        RunStore(root)
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 0
        assert_seq_order(store)
        _assert_boots_agree(store)

    def test_garbled_lines_cost_only_their_runs(self, tmp_path,
                                                monkeypatch):
        root = tmp_path / "store"
        store = RunStore(root)
        for _ in range(3):
            _finish(store, store.create("t", SPEC).run_id)
        _age(*root.glob("runs/*/record.json"))
        RunStore(root)
        index = root / INDEX_NAME
        lines = index.read_text().splitlines()
        # A flipped tenant fails the line's checksum; a torn last line
        # fails to parse; junk is ignored.
        lines[0] = lines[0].replace(" t ", " x ")
        lines[2] = lines[2][:-3]
        index.write_text("\n".join(lines + ["junk", "r9 1 t DONE 1 2 0"]))
        store, parsed = _boot(root, monkeypatch)
        assert parsed == 2
        assert set(store.tenants()) == {"t"}
        _assert_boots_agree(store)


# ------------------------------------------------- residency property --

TENANTS = ("alice", "bob", "carol")

#: Lines a garbled index may end with.
_JUNK = (b"", b"junk", b"r000001", b"r000001 1 alice DONE 1 2 00000000",
         b"r000099 99 alice DONE 10 20 0bad0bad", b"\x00\xff\xfe")

_OPS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(TENANTS)),
    st.tuples(st.just("transition"), st.integers(0, 63),
              st.integers(0, 2)),
    st.tuples(st.just("amend"), st.integers(0, 63), st.integers(0, 9)),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("drop_index")),
    st.tuples(st.just("garble_index"), st.integers(0, 4095),
              st.lists(st.sampled_from(_JUNK), max_size=3)),
    st.tuples(st.just("rewrite"), st.integers(0, 63), st.integers(0, 2),
              st.booleans()),
)


def _rewrite(path: Path, how: int, dated_back: bool) -> None:
    """Rewrite a finished record's bytes on disk: the same record in
    other bytes, or another tenant or finished state (some the same
    size as before, so only the mtime tells them apart) -- optionally
    dated back, as a restore from a backup would, to before the
    index."""
    d = json.loads(path.read_text())
    if how == 1:
        d["tenant"] = TENANTS[(TENANTS.index(d["tenant"]) + 1) % 3]
    elif how == 2:
        d["state"] = TERMINAL_STATES[
            (TERMINAL_STATES.index(d["state"]) + 1) % 3]
    path.write_text(json.dumps(d, indent=how or None))
    if dated_back:
        _age(path)


def _assert_boots_agree(store):
    """``store`` (booted with whatever index was on disk) holds exactly
    what a boot without the index finds."""
    index = store.root / INDEX_NAME
    aside = index.with_name("aside")
    if index.exists():
        os.replace(index, aside)
    try:
        plain = RunStore(store.root)
    finally:
        if aside.exists():
            os.replace(aside, index)    # keeps the index's own mtime
        else:
            index.unlink(missing_ok=True)

    def rows(s):
        names = list(s._tenants)
        return [(seq, names[t], STATES[c]) for seq, t, c
                in zip(s._seqs, s._tenant_of, s._state_of)]
    assert rows(store) == rows(plain)
    assert list(store._live.items()) == list(plain._live.items())
    assert store._next_seq == plain._next_seq
    assert store.tenants() == plain.tenants()
    for tenant in (None, *store.tenants()):
        for state in (None, *STATES):
            assert store.list(tenant=tenant, state=state) \
                == plain.list(tenant=tenant, state=state)


def _oracle(root: Path):
    """Every valid record on disk, in seq order -- by brute force."""
    recs = []
    for path in sorted((root / "runs").glob("*/record.json")):
        try:
            recs.append(RunRecord.from_dict(json.loads(path.read_text())))
        except (ValueError, KeyError, TypeError, InvalidRunSpec):
            continue
    return sorted(recs, key=lambda r: r.seq)


def _assert_matches_disk(store):
    disk = _oracle(store.root)
    for rec in disk:
        assert store.get(rec.run_id) == rec
    for tenant in (None, *TENANTS):
        for state in (None, *STATES):
            want = [r for r in disk
                    if tenant in (None, r.tenant) and state in (None, r.state)]
            assert store.list(tenant=tenant, state=state) == want
    assert store.tenants() == sorted({r.tenant for r in disk})


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=20))
def test_store_answers_like_the_records_on_disk(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        index = root / INDEX_NAME
        store = RunStore(root)
        for op in ops:
            ids = [r.run_id for r in store.list()]
            finished = [r.run_id for r in store.list()
                        if r.state in TERMINAL_STATES]
            if op[0] == "create":
                store.create(op[1], SPEC)
            elif op[0] in ("reopen", "drop_index", "garble_index",
                           "rewrite"):
                if op[0] == "drop_index":
                    index.unlink(missing_ok=True)
                elif op[0] == "garble_index" and index.exists():
                    data = index.read_bytes()
                    index.write_bytes(
                        data[:op[1] % (len(data) + 1)] + b"\n".join(op[2]))
                elif op[0] == "rewrite" and finished:
                    _rewrite(store.record_path(
                        finished[op[1] % len(finished)]), op[2], op[3])
                store = RunStore(root)
                _assert_boots_agree(store)
                store.recover()
            elif not ids:
                continue
            elif op[0] == "transition":
                rec = store.get(ids[op[1] % len(ids)])
                legal = _TRANSITIONS[rec.state]
                if legal:
                    new = legal[op[2] % len(legal)]
                    store.transition(rec.run_id, new, finished_at=(
                        None if new in LIVE_STATES else 1.0))
            else:
                store.amend(ids[op[1] % len(ids)],
                            provenance={"step": op[2]})
            _assert_matches_disk(store)
