"""Every execution leg reproduces the frozen golden digests.

``axis_digests.json`` was generated while the full execution-axis
matrix still existed and every leg agreed on it; the legs that remain
are the window data plane and the task-body vehicle (each an oracle for
the other choice), plus record -> replay of each.
"""

import json

import pytest

from tests.golden.digests import DIGEST_FILE, LEGS, leg_digests

GOLDEN = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_leg_reproduces_the_golden_digest(name):
    golden = GOLDEN[name]
    want = {k: golden[k] for k in ("elapsed", "trace_events", "trace_sha256")}
    for env in LEGS:
        for label, got in leg_digests(golden["spec"], env):
            assert got == want, f"{name}: leg {label} diverged"
