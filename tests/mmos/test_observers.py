"""The engine's observer seam: one ordered list of pure observers.

``Engine.observe(obs)`` registers an object defining any subset of
``on_spawn(parent, p)``, ``on_wake(waker, p, at)``, ``on_kill(p, at)``
and ``on_slice(p, start, wall)``; ``unobserve`` removes it and
``shutdown`` empties the list.  These tests hold one recording observer
to that contract on a bare engine, under both task-body vehicles.
"""

from repro.mmos.process import co_block, co_charge
from tests.mmos.test_coop_engine import make_engine
from tests.oracles import BOTH_VEHICLES


class Recorder:
    """Appends one tuple per event to a shared log."""

    def __init__(self, log, tag="rec"):
        self.log, self.tag = log, tag

    def on_spawn(self, parent, p):
        self.log.append((self.tag, "spawn", parent and parent.name, p.name))

    def on_wake(self, waker, p, at):
        self.log.append((self.tag, "wake", waker and waker.name, p.name, at))

    def on_kill(self, p, at):
        self.log.append((self.tag, "kill", p.name, at))

    def on_slice(self, p, start, wall):
        self.log.append((self.tag, "slice", p.name, start, p.ready_time,
                         p.state.value, p.blocked_on, p.deadline, wall))


class WallRecorder(Recorder):
    wants_wall = True


def scenario(eng):
    """Spawns from outside and inside a process, an in-process wake, a
    deadline, an external wake and an external kill."""
    procs = {}

    def kid():
        yield co_charge(7)
        eng.wake(procs["root"], "hi")

    def root():
        yield co_charge(5)
        procs["kid"] = eng.spawn("kid", 4, kid)
        yield co_block("join(kid)")
        yield co_block("nap", deadline=eng.now() + 10)

    def sleeper():
        yield co_block("zzz")

    procs["root"] = eng.spawn("root", 3, root)
    procs["woken"] = eng.spawn("woken", 5, sleeper, daemon=True)
    procs["doomed"] = eng.spawn("doomed", 6, sleeper, daemon=True)
    eng.run()
    eng.wake(procs["woken"], at_time=40)
    eng.kill(procs["doomed"])
    eng.run()


#: What one observer sees of :func:`scenario` (a block costs 5 ticks).
EXPECTED = [
    ("spawn", None, "root"),
    ("spawn", None, "woken"),
    ("spawn", None, "doomed"),
    ("spawn", "root", "kid"),
    ("slice", "root", 0, 10, "blocked", "join(kid)", None, None),
    ("slice", "woken", 0, 5, "blocked", "zzz", None, None),
    ("slice", "doomed", 0, 5, "blocked", "zzz", None, None),
    ("wake", "kid", "root", 7),
    ("slice", "kid", 0, 7, "done", "", None, None),
    ("slice", "root", 10, 15, "blocked", "nap", 20, None),
    ("slice", "root", 20, 20, "done", "nap", None, None),
    ("wake", None, "woken", 40),
    ("kill", "doomed", 20),
    ("slice", "doomed", 20, 20, "done", "killed", None, None),
    ("slice", "woken", 40, 40, "done", "", None, None),
]


@BOTH_VEHICLES
def test_one_observer_sees_every_event_in_order(bodies):
    eng = make_engine(bodies)
    log = []
    eng.observe(Recorder(log))
    scenario(eng)
    assert [e[1:] for e in log] == EXPECTED


@BOTH_VEHICLES
def test_observers_run_in_registration_order(bodies):
    eng = make_engine(bodies)
    log = []
    eng.observe(Recorder(log, "a"))
    eng.observe(Recorder(log, "b"))
    scenario(eng)
    assert [e[0] for e in log] == ["a", "b"] * len(EXPECTED)
    assert log[0::2] == [("a",) + e for e in EXPECTED]
    assert log[1::2] == [("b",) + e for e in EXPECTED]


@BOTH_VEHICLES
def test_observer_registered_between_steps_fires_from_next_slice(bodies):
    eng = make_engine(bodies)

    def body():
        yield co_charge(3)
        yield co_block("nap", deadline=eng.now() + 4)

    eng.spawn("p", 3, body)
    assert eng.step()
    log = []
    rec = Recorder(log)
    eng.observe(rec)
    assert eng.step()
    assert [e[1:] for e in log] == [
        ("slice", "p", 8, 8, "done", "nap", None, None)]
    eng.unobserve(rec)
    eng.spawn("q", 3, body)
    eng.run()
    assert len(log) == 1


@BOTH_VEHICLES
def test_wall_seconds_only_when_an_observer_asks(bodies):
    eng = make_engine(bodies)
    plain, timed = [], []
    eng.observe(Recorder(plain))

    def body():
        yield co_charge(1)

    eng.spawn("p", 3, body)
    eng.run()
    assert plain[-1][-1] is None
    eng.observe(WallRecorder(timed))
    eng.spawn("q", 3, body)
    eng.run()
    assert isinstance(plain[-1][-1], float) and plain[-1][-1] >= 0
    assert isinstance(timed[-1][-1], float)


def test_shutdown_empties_the_list():
    eng = make_engine()
    log = []
    eng.observe(Recorder(log))
    eng.spawn("stuck", 3, lambda: (yield co_block("zzz")), daemon=True)
    eng.run()
    eng.shutdown()
    assert eng._observers == []
    assert (eng._on_spawn, eng._on_wake, eng._on_kill,
            eng._on_slice) == ((), (), (), ())
    eng.unobserve(Recorder(log))           # absent: a no-op
