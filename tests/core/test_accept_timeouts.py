"""Behavioral tests: the system ACCEPT timeout, which only the
configuration sets, and retry/backoff escalation."""

import pytest

from repro.config import files
from repro.config.configuration import (
    DEFAULT_ACCEPT_DELAY,
    Configuration,
    ClusterSpec,
)
from repro.core.accept import RetryPolicy
from repro.core.taskid import PARENT, SAME
from repro.errors import AcceptTimeout, ConfigurationError, MessageError
from repro.flex.presets import nasa_langley_flex32

ONE_CLUSTER = "cluster 1 primary 3 slots 2 force -\n"


class TestEnvironmentOverride:
    """The environment does not override the system timeout (the former
    PISCES_ACCEPT_TIMEOUT variable is read by nothing)."""

    def test_default_without_env(self):
        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),))
        assert cfg.default_accept_delay == DEFAULT_ACCEPT_DELAY
        assert files.loads(ONE_CLUSTER) == cfg

    def test_env_does_not_set_the_system_timeout(self, monkeypatch):
        monkeypatch.setenv("PISCES_ACCEPT_TIMEOUT", "5000")
        cfg = Configuration(clusters=(ClusterSpec(1, 3, 2),))
        assert cfg.default_accept_delay == DEFAULT_ACCEPT_DELAY

    @pytest.mark.parametrize("bad", ["banana", "12.5", "0", "-3"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            files.loads(ONE_CLUSTER + f"accept_delay {bad}\n").validate(
                nasa_langley_flex32().spec)

    def test_accept_without_delay_times_out_at_system_timeout(
            self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            start = ctx.vm.engine.now()
            res = ctx.accept("NEVER", timeout_ok=True)   # no DELAY clause
            return res.timed_out, ctx.vm.engine.now() - start

        vm = make_vm(registry=registry, default_accept_delay=5000)
        timed_out, waited = vm.run("MAIN").value
        assert timed_out
        assert 5000 <= waited < DEFAULT_ACCEPT_DELAY

    def test_timeout_raises_typed_error_by_default(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.accept("NEVER", delay=2000)

        vm = make_vm(registry=registry)
        with pytest.raises(AcceptTimeout, match="NEVER"):
            vm.run("MAIN")


class TestRetryPolicy:
    def test_wait_ticks_backs_off_multiplicatively(self):
        p = RetryPolicy(retries=3, backoff=2.0)
        assert [p.wait_ticks(1000, a) for a in (1, 2, 3)] == [2000, 4000,
                                                              8000]

    def test_wait_never_returns_zero(self):
        assert RetryPolicy(retries=1, backoff=1.0).wait_ticks(0, 1) == 1

    def test_validation(self):
        with pytest.raises(MessageError):
            RetryPolicy(retries=-1)
        with pytest.raises(MessageError):
            RetryPolicy(retries=1, backoff=0.5)


class TestRetryEscalation:
    def test_retries_escalate_before_surfacing_the_timeout(self, make_vm,
                                                           registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            start = ctx.vm.engine.now()
            res = ctx.accept("NEVER", delay=1000, timeout_ok=True,
                             retry=RetryPolicy(retries=2, backoff=2.0))
            return res.timed_out, ctx.vm.engine.now() - start

        vm = make_vm(registry=registry)
        timed_out, waited = vm.run("MAIN").value
        assert timed_out
        assert waited >= 1000 + 2000 + 4000      # base + two backed-off waits
        assert vm.stats.accept_retries == 2

    def test_message_arriving_during_a_retry_window_is_received(
            self, make_vm, registry):
        @registry.tasktype("LATE")
        def late(ctx):
            ctx.compute(2500)
            ctx.send(PARENT, "RESULT", 99)

        @registry.tasktype("MAIN")
        def main(ctx):
            ctx.initiate("LATE", on=SAME)
            res = ctx.accept("RESULT", delay=1000,
                             retry=RetryPolicy(retries=3, backoff=2.0))
            return res.timed_out, res.args[0]

        vm = make_vm(registry=registry)
        timed_out, value = vm.run("MAIN").value
        assert not timed_out and value == 99
        assert vm.stats.accept_retries >= 1

    def test_configuration_default_policy_applies(self, make_vm, registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            res = ctx.accept("NEVER", delay=1000, timeout_ok=True)
            return res.timed_out

        vm = make_vm(registry=registry, accept_retries=2,
                     accept_backoff=3.0)
        assert vm.run("MAIN").value is True
        assert vm.stats.accept_retries == 2

    def test_explicit_retry_beats_configuration_default(self, make_vm,
                                                        registry):
        @registry.tasktype("MAIN")
        def main(ctx):
            res = ctx.accept("NEVER", delay=1000, timeout_ok=True,
                             retry=RetryPolicy(retries=0))
            return res.timed_out

        vm = make_vm(registry=registry, accept_retries=5)
        assert vm.run("MAIN").value is True
        assert vm.stats.accept_retries == 0
