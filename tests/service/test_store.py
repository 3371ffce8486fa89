"""The run store: state machine, atomicity, crash rescan, residency."""

import gc
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidRunSpec, ServiceError, UnknownRun
from repro.service.spec import RunSpec
from repro.service.store import (_TRANSITIONS, ADMITTED, DONE, KILLED,
                                 LIVE_STATES, QUEUED, RUNNING, STATES,
                                 RunRecord, RunStore)

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
        store.transition(rec.run_id, ADMITTED)
        store.transition(rec.run_id, RUNNING)
        final = store.transition(rec.run_id, DONE,
                                 exit={"outcome": "done"})
        assert final.state == DONE and final.exit["outcome"] == "done"

    def test_illegal_transition_refused(self, store):
        rec = store.create("t", SPEC)
        with pytest.raises(ServiceError, match="illegal transition"):
            store.transition(rec.run_id, RUNNING)   # skips ADMITTED

    def test_terminal_states_are_final(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, KILLED)
        with pytest.raises(ServiceError):
            store.transition(rec.run_id, ADMITTED)

    def test_unknown_run(self, store):
        with pytest.raises(UnknownRun):
            store.get("r999999")


class TestPersistence:

    def test_record_is_on_disk_json(self, store):
        rec = store.create("alice", SPEC)
        with store.record_path(rec.run_id).open() as f:
            on_disk = json.load(f)
        assert on_disk["tenant"] == "alice"
        assert on_disk["spec"]["app"] == "spin"

    def test_no_tmp_leftover_after_write(self, store):
        rec = store.create("t", SPEC)
        store.transition(rec.run_id, ADMITTED)
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
        store.transition(rec.run_id, ADMITTED)
        store.transition(rec.run_id, RUNNING, started_at=123.0)
        reopened = RunStore(store.root)
        recovered = reopened.recover()
        assert [r.run_id for r in recovered] == [rec.run_id]
        got = reopened.get(rec.run_id)
        assert got.state == QUEUED and got.recovered == 1
        assert got.started_at is None

    def test_queued_and_terminal_untouched(self, store):
        q = store.create("t", SPEC)
        d = store.create("t", SPEC)
        store.transition(d.run_id, ADMITTED)
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
        store.transition(a.run_id, ADMITTED)
        assert len(store.list()) == 2
        assert [r.tenant for r in store.list(tenant="bob")] == ["bob"]
        assert [r.run_id for r in store.list(state=ADMITTED)] == [a.run_id]
        assert store.tenants() == ["alice", "bob"]

    def test_unknown_state_filter_refused(self, store):
        store.create("alice", SPEC)
        with pytest.raises(InvalidRunSpec, match="unknown run state"):
            store.list(state="BOGUS")

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
    store.transition(run_id, ADMITTED)
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
        store.transition(running, ADMITTED)
        store.transition(running, RUNNING)
        assert _resident(tenant) == [queued, running]
        del store
        reopened = RunStore(tmp_path / "store")
        assert _resident(tenant) == [queued, running]
        assert len(reopened.list(tenant=tenant)) == 202
        assert len(reopened.list(state=DONE)) == 200

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


# ------------------------------------------------- residency property --

TENANTS = ("alice", "bob", "carol")

_OPS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(TENANTS)),
    st.tuples(st.just("transition"), st.integers(0, 63),
              st.integers(0, 2)),
    st.tuples(st.just("amend"), st.integers(0, 63), st.integers(0, 9)),
    st.tuples(st.just("reopen")),
)


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


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=20))
def test_store_answers_like_the_records_on_disk(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = RunStore(root)
        for op in ops:
            ids = [r.run_id for r in store.list()]
            if op[0] == "create":
                store.create(op[1], SPEC)
            elif op[0] == "reopen":
                store = RunStore(root)
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
