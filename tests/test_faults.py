"""Unit tests for the fault-injection layer (``repro.faults``).

Covers the failpoint spec grammar, the guard semantics (error / delay /
corrupt actions, probability and budget gates), and the unified
retry/deadline policy primitives.  Process-killing actions are exercised
end-to-end in ``tests/test_chaos.py``; here ``kill`` is only parsed.
"""

from __future__ import annotations

import errno
import random
import time

import pytest

from repro import faults
from repro.faults import (
    FAILPOINTS_ENV,
    Deadline,
    FailpointSpecError,
    RetryPolicy,
    active_failpoints,
    configure,
    configure_from_env,
    corrupting_failpoint,
    failpoint,
    failpoints_active,
)
from repro.faults.failpoints import _corrupt_bytes, parse_spec


@pytest.fixture(autouse=True)
def _clean_failpoints():
    """The activation table is process-global: always leave it empty."""
    configure(None)
    yield
    configure(None)


# -- spec grammar ------------------------------------------------------------


class TestParseSpec:
    def test_single_entry(self):
        table = parse_spec("cache.flush.io=error:OSError")
        assert set(table) == {"cache.flush.io"}
        spec = table["cache.flush.io"]
        assert spec.action == "error" and spec.arg == "OSError"
        assert spec.probability == 1.0 and spec.budget is None

    def test_multiple_entries_with_options(self):
        table = parse_spec(
            "cache.flush.io=error,p=0.5,n=3; features.shard.read=corrupt ;"
            "extract.worker.body=kill"
        )
        assert set(table) == {
            "cache.flush.io",
            "features.shard.read",
            "extract.worker.body",
        }
        assert table["cache.flush.io"].probability == 0.5
        assert table["cache.flush.io"].budget == 3
        assert table["features.shard.read"].action == "corrupt"
        assert table["extract.worker.body"].action == "kill"

    def test_delay_takes_milliseconds(self):
        table = parse_spec("serve.dispatch=delay:25")
        assert table["serve.dispatch"].arg == "25"

    def test_empty_entries_are_skipped(self):
        assert parse_spec(" ; ;") == {}

    @pytest.mark.parametrize(
        "bad",
        [
            "noequalsign",  # missing =
            "cache.flush.io=",  # empty action
            "BadName=error",  # name not dotted lowercase
            "flat=error",  # single word, no dot
            "a.b=error;a.b=delay:1",  # duplicate name
            "a.b=explode",  # unknown action
            "a.b=error:NotAnException",  # unknown exception type
            "a.b=error:print",  # builtin but not an exception
            "a.b=delay",  # delay without argument
            "a.b=delay:-5",  # negative delay
            "a.b=delay:soon",  # non-numeric delay
            "a.b=kill:now",  # argument on no-arg action
            "a.b=corrupt:half",  # argument on no-arg action
            "a.b=error,p",  # option without =
            "a.b=error,p=maybe",  # non-float p
            "a.b=error,p=1.5",  # p out of range
            "a.b=error,n=few",  # non-int n
            "a.b=error,n=-1",  # negative n
            "a.b=error,q=1",  # unknown option
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FailpointSpecError):
            parse_spec(bad)

    def test_bad_spec_leaves_table_untouched(self):
        configure("a.b=delay:0")
        with pytest.raises(FailpointSpecError):
            configure("a.b=explode")
        assert [fp["name"] for fp in active_failpoints()] == ["a.b"]

    def test_configure_none_clears(self):
        configure("a.b=delay:0")
        assert failpoints_active()
        configure(None)
        assert not failpoints_active()
        assert active_failpoints() == []

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.setenv(FAILPOINTS_ENV, "env.driven.point=delay:0")
        configure_from_env()
        assert [fp["name"] for fp in active_failpoints()] == ["env.driven.point"]
        monkeypatch.delenv(FAILPOINTS_ENV)
        configure_from_env()
        assert not failpoints_active()


# -- guard semantics ---------------------------------------------------------


class TestFailpointGuards:
    def test_inert_when_unconfigured(self):
        failpoint("never.configured.name")
        assert corrupting_failpoint("never.configured.name", b"data") == b"data"

    def test_error_action_default_runtimeerror(self):
        configure("a.b=error")
        with pytest.raises(RuntimeError, match=r"failpoint a\.b: injected RuntimeError"):
            failpoint("a.b")

    def test_error_action_oserror_carries_enospc(self):
        configure("a.b=error:OSError")
        with pytest.raises(OSError) as excinfo:
            failpoint("a.b")
        assert excinfo.value.errno == errno.ENOSPC

    def test_error_action_custom_builtin(self):
        configure("a.b=error:TimeoutError")
        with pytest.raises(TimeoutError):
            failpoint("a.b")

    def test_delay_action_sleeps(self):
        configure("a.b=delay:30")
        start = time.perf_counter()
        failpoint("a.b")
        assert time.perf_counter() - start >= 0.02

    def test_budget_limits_firings(self):
        configure("a.b=error,n=2")
        for _ in range(2):
            with pytest.raises(RuntimeError):
                failpoint("a.b")
        failpoint("a.b")  # budget exhausted: inert
        (desc,) = active_failpoints()
        assert desc["hits"] == 3 and desc["fired"] == 2

    def test_probability_zero_never_fires(self):
        configure("a.b=error,p=0")
        for _ in range(50):
            failpoint("a.b")
        (desc,) = active_failpoints()
        assert desc["hits"] == 50 and desc["fired"] == 0

    def test_probability_is_deterministic_per_name(self):
        def firing_pattern():
            configure("a.b=error,p=0.5")
            pattern = []
            for _ in range(20):
                try:
                    failpoint("a.b")
                    pattern.append(False)
                except RuntimeError:
                    pattern.append(True)
            return pattern

        first = firing_pattern()
        assert firing_pattern() == first  # name-seeded RNG: same every run
        assert any(first) and not all(first)

    def test_corrupt_action_mangles_bytes_at_corrupting_site(self):
        configure("a.b=corrupt")
        data = bytes(range(32))
        out = corrupting_failpoint("a.b", data)
        assert out != data
        assert out == _corrupt_bytes(data)
        assert len(out) == 16 and out[0] == data[0] ^ 0xFF

    def test_corrupt_of_empty_bytes_is_nonempty(self):
        configure("a.b=corrupt")
        assert corrupting_failpoint("a.b", b"") == b"\xffcorrupt"

    def test_corrupt_is_inert_at_plain_failpoint(self):
        configure("a.b=corrupt")
        failpoint("a.b")  # must not raise: corrupt only acts on byte streams

    def test_error_action_at_corrupting_site_raises(self):
        configure("a.b=error:OSError")
        with pytest.raises(OSError):
            corrupting_failpoint("a.b", b"data")

    def test_corrupting_site_respects_budget(self):
        configure("a.b=corrupt,n=1")
        assert corrupting_failpoint("a.b", b"data") != b"data"
        assert corrupting_failpoint("a.b", b"data") == b"data"

    def test_describe_shape(self):
        configure("a.b=error:OSError,p=0.25,n=4")
        (desc,) = active_failpoints()
        assert desc == {
            "name": "a.b",
            "action": "error",
            "arg": "OSError",
            "probability": 0.25,
            "budget": 4,
            "hits": 0,
            "fired": 0,
        }

    def test_module_import_side_effect_reads_env(self, monkeypatch):
        # configure_from_env runs at import; the function is the same hook.
        monkeypatch.setenv(FAILPOINTS_ENV, "a.b=delay:0")
        faults.configure_from_env()
        assert faults.failpoints_active()


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_attempts_and_allows_bounded(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.attempts == 3
        assert policy.allows(0) and policy.allows(2)
        assert not policy.allows(3)

    def test_unbounded(self):
        policy = RetryPolicy(max_retries=None)
        assert policy.attempts is None
        assert policy.allows(10**6)

    def test_backoff_zero_base_is_zero(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(5) == 0.0

    def test_backoff_growth_and_cap(self):
        policy = RetryPolicy(
            max_retries=None, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)
        assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        policy = RetryPolicy(
            max_retries=None,
            base_delay_s=0.1,
            multiplier=1.0,
            max_delay_s=10.0,
            jitter=0.25,
        )
        rng = random.Random(7)
        delays = [policy.backoff_s(1, rng) for _ in range(200)]
        assert all(0.075 <= d <= 0.125 for d in delays)
        assert len(set(delays)) > 1
        # Without an rng the jitter is skipped entirely (deterministic path).
        assert policy.backoff_s(1) == pytest.approx(0.1)

    def test_is_frozen(self):
        policy = RetryPolicy(max_retries=1)
        with pytest.raises(AttributeError):
            policy.max_retries = 5  # type: ignore[misc]


# -- deadlines ---------------------------------------------------------------


class TestDeadline:
    def test_never_is_unbounded(self):
        deadline = Deadline.never()
        assert not deadline.expired()
        assert deadline.remaining() is None
        assert deadline.clamp(1.5) == 1.5

    def test_after_ms_expires(self):
        deadline = Deadline.after_ms(10)
        assert not deadline.expired()
        time.sleep(0.03)
        assert deadline.expired()
        remaining = deadline.remaining()
        assert remaining is not None and remaining <= 0.0
        assert deadline.clamp(5.0) == 0.0

    def test_clamp_shrinks_timeout(self):
        deadline = Deadline.after_ms(10_000)
        assert deadline.clamp(1.0) == 1.0
        assert 0.0 < deadline.clamp(60.0) <= 10.0

    def test_remaining_counts_down(self):
        deadline = Deadline.after_ms(500)
        first = deadline.remaining()
        time.sleep(0.02)
        second = deadline.remaining()
        assert first is not None and second is not None and second < first
