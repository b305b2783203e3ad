"""Unified retry, backoff and deadline policy for the engine and serve layers.

Before this module each subsystem hard-coded its own failure constants —
the scheduler's shard retry budget, the extraction pool's chunk deadline,
the namespace-lock timeout and poll interval in the cache, the hot-reload
probe TTL in the serve registry.  They now all read from here, so one
table (mirrored in ``docs/ROBUSTNESS.md``) answers "how many times, how
long, how fast do we back off" for the whole system:

=======================  ===========================================
Policy                   Meaning
=======================  ===========================================
:data:`SHARD_RETRY_POLICY`      scheduler shard retry budget
:data:`SHARD_DEADLINE_S`        extraction-pool chunk deadline
:data:`LOCK_RETRY_POLICY`       cache-lock poll backoff (jittered)
:data:`LOCK_ACQUIRE_DEADLINE_S` cache-lock acquisition deadline
:data:`LOCK_STALE_AFTER_S`      cache-lock staleness horizon
:data:`RELOAD_PROBE_TTL_S`      serve hot-reload stat-probe TTL
:data:`DEFAULT_MAX_QUEUE_DEPTH` serve admission gate (queued requests)
:data:`DEFAULT_RETRY_AFTER_S`   ``Retry-After`` hint on 429 responses
:data:`DEFAULT_OUTBUF_BUDGET_BYTES`    per-connection response buffer cap
:data:`DEFAULT_MAX_PIPELINED_REQUESTS` per-connection in-flight cap
=======================  ===========================================
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and optional jitter.

    ``max_retries`` counts *re*-tries: a policy with ``max_retries=2``
    allows three attempts in total.  ``None`` means unbounded retries —
    callers then bound the loop with a :class:`Deadline` instead.
    Backoff for retry ``attempt`` (1-based) is
    ``base_delay_s * multiplier**(attempt-1)`` capped at ``max_delay_s``,
    scaled by a uniform factor in ``[1-jitter, 1+jitter]``.  A zero
    ``base_delay_s`` (the scheduler's immediate-retry policy) always
    yields zero backoff.
    """

    max_retries: Optional[int]
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.0

    @property
    def attempts(self) -> Optional[int]:
        """Total tries including the first (``None`` when unbounded)."""
        return None if self.max_retries is None else self.max_retries + 1

    def allows(self, failed_attempts: int) -> bool:
        """Whether another try is allowed after ``failed_attempts`` failures."""
        return self.max_retries is None or failed_attempts <= self.max_retries

    def backoff_s(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        if self.base_delay_s <= 0.0:
            return 0.0
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** max(0, attempt - 1),
        )
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return delay


class Deadline:
    """An absolute monotonic deadline that propagates through call layers.

    Built once where the budget is decided (a request header, a CLI
    flag, a policy constant) and passed down, so every layer measures
    against the *same* clock instead of re-starting its own timeout.
    ``Deadline(None)`` never expires.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, seconds: Optional[float]) -> None:
        self._expires_at = None if seconds is None else time.monotonic() + seconds

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    @classmethod
    def after_ms(cls, millis: float) -> "Deadline":
        """A deadline ``millis`` milliseconds from now (the HTTP header unit)."""
        return cls(millis / 1000.0)

    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative once expired); ``None`` if unbounded."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, timeout_s: float) -> float:
        """Bound a step timeout so it cannot outlive the deadline."""
        remaining = self.remaining()
        if remaining is None:
            return timeout_s
        return max(0.0, min(timeout_s, remaining))


# -- engine policies ---------------------------------------------------------

#: Shard execution: a shard whose inference raises is retried immediately
#: (no backoff) at most twice, i.e. three attempts, before its designs get
#: error records.
SHARD_RETRY_POLICY = RetryPolicy(max_retries=2)

#: Extraction-pool chunk deadline.  A dead worker breaks the pool at once;
#: this catches one that is alive but stuck.  A chunk not returned within
#: it costs the pool, and the parent extracts the rest serially.
SHARD_DEADLINE_S = 600.0

#: Cache namespace-lock acquisition deadline: contention beyond this
#: raises ``CacheLockTimeout`` rather than stalling a scan forever.
LOCK_ACQUIRE_DEADLINE_S = 10.0

#: A lock file older than this is presumed abandoned (its holder died
#: without the kernel releasing a flock, i.e. the O_EXCL fallback path)
#: and is broken.
LOCK_STALE_AFTER_S = 30.0

#: Lock-acquisition polling: start at 20ms, back off to at most 100ms,
#: jittered ±25% so many blocked writers do not retry in lockstep.
#: Unbounded retries — :data:`LOCK_ACQUIRE_DEADLINE_S` bounds the loop.
LOCK_RETRY_POLICY = RetryPolicy(
    max_retries=None,
    base_delay_s=0.02,
    multiplier=1.5,
    max_delay_s=0.1,
    jitter=0.25,
)

# -- serve policies ----------------------------------------------------------

#: Serve hot-reload probe TTL: how long a registry trusts its last
#: manifest stat before re-probing (bounds stat() calls at high QPS).
RELOAD_PROBE_TTL_S = 0.25

#: Admission gate: requests queued per micro-batch lane beyond this are
#: rejected with 429 instead of growing the queue without bound.
DEFAULT_MAX_QUEUE_DEPTH = 256

#: ``Retry-After`` hint (seconds) sent with 429 responses.
DEFAULT_RETRY_AFTER_S = 1

#: Per-connection response-buffer cap: a client that stops reading while
#: responses accumulate past this is closed (slow-reader guard).
DEFAULT_OUTBUF_BUDGET_BYTES = 32 * 1024 * 1024

#: Per-connection in-flight cap: pipelined requests queued behind the one
#: being served beyond this are answered 429 and the connection closed.
DEFAULT_MAX_PIPELINED_REQUESTS = 16
