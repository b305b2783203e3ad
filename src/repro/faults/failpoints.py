"""Named failpoints: deterministic fault injection at compiled-in sites.

A *failpoint* is a named guard at an interesting failure boundary::

    from ..faults import failpoint

    def flush(self):
        failpoint("cache.flush.io")   # inert unless activated
        ...

When nothing is activated the guard is one dict lookup and a ``None``
compare — cheap enough for hot paths (the repository benchmark runs with
the guards compiled in).  Activation happens through the
``REPRO_FAILPOINTS`` environment variable (read at import, so spawned
worker processes inherit the configuration) or :func:`configure` (what
the ``--failpoints`` CLI flag calls after exporting the env var).

Spec grammar (entries separated by ``;``, options by ``,``)::

    spec    := entry (";" entry)*
    entry   := name "=" action ("," option)*
    action  := "error" [":" ExcType] | "delay" ":" millis | "kill" | "corrupt"
    option  := "p=" probability | "n=" budget

``error`` raises the named builtin exception type (default
``RuntimeError``; ``OSError`` and subclasses are raised with
``errno == ENOSPC`` to simulate a full disk), ``delay`` sleeps for the
given milliseconds, ``kill`` terminates the process immediately with
:data:`KILL_EXIT_STATUS` (a SIGKILL-style death, bypassing all handlers),
and ``corrupt`` truncates-and-flips bytes at
:func:`corrupting_failpoint` sites (it is inert at plain
:func:`failpoint` sites).  ``p`` fires the action with the given
probability per hit (seeded per failpoint name, so runs are
reproducible); ``n`` caps how many times the action fires in this
process.  Example::

    REPRO_FAILPOINTS="cache.flush.io=error:OSError,n=2;extract.worker.body=kill,p=0.5"

Every failpoint name must be a string literal registered at exactly one
call site — lint rule R8 enforces the same discipline R7 applies to
metric names.  The catalogue of compiled-in sites lives in
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import builtins
import errno
import os
import random
import re
import time
import zlib
from typing import Any, Dict, List, Optional

#: Environment variable holding the failpoint spec; read once at import
#: (worker processes spawned with a copy of the environment re-read it)
#: and re-read by :func:`configure_from_env`.
FAILPOINTS_ENV = "REPRO_FAILPOINTS"

#: Exit status of the ``kill`` action: 128 + SIGKILL(9), the status a
#: genuinely SIGKILLed worker reports, so supervisors cannot tell the
#: injected death from the real thing.
KILL_EXIT_STATUS = 137

#: Failpoint names are dotted lowercase words (``subsystem.site.kind``).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

_ACTIONS = ("error", "delay", "kill", "corrupt")


class FailpointSpecError(ValueError):
    """Raised when a ``REPRO_FAILPOINTS`` / ``--failpoints`` spec is malformed."""


class _ActiveFailpoint:
    """Parsed, stateful activation of one failpoint name."""

    __slots__ = ("name", "action", "arg", "probability", "budget", "hits", "fired", "_rng")

    def __init__(
        self,
        name: str,
        action: str,
        arg: Optional[str],
        probability: float,
        budget: Optional[int],
    ) -> None:
        self.name = name
        self.action = action
        self.arg = arg
        self.probability = probability
        self.budget = budget
        self.hits = 0
        self.fired = 0
        # Seeded from the name (not the process), so a given spec fires
        # the same hits in every run — chaos tests stay reproducible.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary for ``/healthz`` and diagnostics."""
        return {
            "name": self.name,
            "action": self.action,
            "arg": self.arg,
            "probability": self.probability,
            "budget": self.budget,
            "hits": self.hits,
            "fired": self.fired,
        }

    def should_fire(self) -> bool:
        """Count one hit and apply the probability and budget gates."""
        self.hits += 1
        if self.budget is not None and self.fired >= self.budget:
            return False
        if self.probability < 1.0 and self._rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def trigger(self) -> None:
        """Apply a non-``corrupt`` action: raise, sleep, or die."""
        if self.action == "error":
            raise self._make_error()
        if self.action == "delay":
            time.sleep(float(self.arg or 0.0) / 1000.0)
        elif self.action == "kill":
            os._exit(KILL_EXIT_STATUS)
        # "corrupt" is inert here: it only acts at corrupting sites.

    def _make_error(self) -> BaseException:
        """Build the injected exception (OSErrors carry ENOSPC)."""
        exc_type = _resolve_exception(self.arg or "RuntimeError")
        message = f"failpoint {self.name}: injected {exc_type.__name__}"
        if issubclass(exc_type, OSError):
            # The canonical "disk full" shape: errno + strerror, exactly
            # what a real ENOSPC from the filesystem looks like.
            return exc_type(errno.ENOSPC, message)
        return exc_type(message)


def _resolve_exception(name: str) -> type:
    """Resolve an ``error:<ExcType>`` argument to a builtin exception type."""
    exc_type = getattr(builtins, name, None)
    if not isinstance(exc_type, type) or not issubclass(exc_type, BaseException):
        raise FailpointSpecError(
            f"unknown exception type {name!r} in failpoint spec "
            "(must name a builtin exception, e.g. OSError, TimeoutError)"
        )
    return exc_type


def parse_spec(spec: str) -> Dict[str, _ActiveFailpoint]:
    """Parse one spec string into per-name activations (fail-fast on errors)."""
    active: Dict[str, _ActiveFailpoint] = {}
    for raw_entry in spec.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        name, sep, rest = entry.partition("=")
        name = name.strip()
        if not sep or not rest.strip():
            raise FailpointSpecError(
                f"failpoint entry {entry!r} must look like name=action[:arg][,p=..][,n=..]"
            )
        if not _NAME_RE.match(name):
            raise FailpointSpecError(
                f"failpoint name {name!r} must be dotted lowercase words "
                "(e.g. cache.flush.io)"
            )
        if name in active:
            raise FailpointSpecError(f"failpoint {name!r} appears twice in the spec")
        fields = [field.strip() for field in rest.split(",")]
        action_field = fields[0]
        action, _, arg = action_field.partition(":")
        action = action.strip()
        arg = arg.strip() or None
        if action not in _ACTIONS:
            raise FailpointSpecError(
                f"unknown failpoint action {action!r} for {name!r} "
                f"(one of {', '.join(_ACTIONS)})"
            )
        if action == "error":
            _resolve_exception(arg or "RuntimeError")  # validate now, not at the site
        elif action == "delay":
            try:
                if float(arg or "") < 0.0:
                    raise ValueError
            except (TypeError, ValueError):
                raise FailpointSpecError(
                    f"failpoint {name!r}: delay needs a non-negative millisecond "
                    f"argument, got {arg!r}"
                ) from None
        elif arg is not None:
            raise FailpointSpecError(
                f"failpoint {name!r}: action {action!r} takes no argument"
            )
        probability = 1.0
        budget: Optional[int] = None
        for option in fields[1:]:
            key, opt_sep, value = option.partition("=")
            key = key.strip()
            value = value.strip()
            if not opt_sep:
                raise FailpointSpecError(
                    f"failpoint {name!r}: option {option!r} must be p=<float> or n=<int>"
                )
            if key == "p":
                try:
                    probability = float(value)
                except ValueError:
                    raise FailpointSpecError(
                        f"failpoint {name!r}: p needs a float, got {value!r}"
                    ) from None
                if not 0.0 <= probability <= 1.0:
                    raise FailpointSpecError(
                        f"failpoint {name!r}: p must be in [0, 1], got {probability}"
                    )
            elif key == "n":
                try:
                    budget = int(value)
                except ValueError:
                    raise FailpointSpecError(
                        f"failpoint {name!r}: n needs an int, got {value!r}"
                    ) from None
                if budget < 0:
                    raise FailpointSpecError(
                        f"failpoint {name!r}: n must be non-negative, got {budget}"
                    )
            else:
                raise FailpointSpecError(
                    f"failpoint {name!r}: unknown option {key!r} (use p= or n=)"
                )
        active[name] = _ActiveFailpoint(name, action, arg, probability, budget)
    return active


#: The live activation table.  Empty (the common case) means every guard
#: is a single failed dict lookup.
_ACTIVE: Dict[str, _ActiveFailpoint] = {}


def configure(spec: Optional[str]) -> None:
    """Replace the activation table from a spec string (``None``/"" clears it).

    Raises :class:`FailpointSpecError` without touching the current table
    when the spec is malformed, so a typo cannot half-activate injection.
    """
    parsed = parse_spec(spec) if spec else {}
    _ACTIVE.clear()
    _ACTIVE.update(parsed)


def configure_from_env() -> None:
    """(Re-)read the activation table from :data:`FAILPOINTS_ENV`."""
    configure(os.environ.get(FAILPOINTS_ENV))


def failpoint(name: str) -> None:
    """The guard compiled into production code at a named injection site.

    Inert (one dict lookup) unless ``name`` is activated, in which case
    the configured action runs — possibly raising, sleeping, or killing
    the process.  ``name`` must be a string literal unique to one call
    site (lint rule R8).
    """
    spec = _ACTIVE.get(name)
    if spec is None:
        return
    if spec.should_fire():
        spec.trigger()


def corrupting_failpoint(name: str, data: bytes) -> bytes:
    """A guard on a byte stream: may corrupt ``data`` before it is used.

    With a ``corrupt`` action active for ``name`` the returned bytes are
    truncated and bit-flipped (deterministically); any other active
    action behaves exactly like :func:`failpoint`.  Inert guards return
    ``data`` unchanged.
    """
    spec = _ACTIVE.get(name)
    if spec is None:
        return data
    if not spec.should_fire():
        return data
    if spec.action != "corrupt":
        spec.trigger()
        return data
    return _corrupt_bytes(data)


def _corrupt_bytes(data: bytes) -> bytes:
    """Deterministic corruption: keep the front half, flip its first byte."""
    if not data:
        return b"\xffcorrupt"
    kept = bytearray(data[: max(1, len(data) // 2)])
    kept[0] ^= 0xFF
    return bytes(kept)


def failpoints_active() -> bool:
    """Whether any failpoint is currently activated in this process."""
    return bool(_ACTIVE)


def active_failpoints() -> List[Dict[str, Any]]:
    """Describe every activated failpoint (the ``/healthz`` ``faults`` list)."""
    return [_ACTIVE[name].describe() for name in sorted(_ACTIVE)]


# Import-time activation: worker processes (fork or spawn) and plain CLI
# runs pick the spec up from the environment without extra plumbing.
configure_from_env()
