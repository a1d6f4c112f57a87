"""Per-source circuit breaker and retry backoff for trust queries.

The breaker implements the classic three-state machine on the *simulation*
clock (no wall time anywhere, so runs stay bit-reproducible):

* ``CLOSED`` — queries flow; consecutive failures are counted and trip the
  breaker to ``OPEN`` at :attr:`CircuitBreaker.failure_threshold`.
* ``OPEN`` — queries fast-fail without touching the source; after
  :attr:`CircuitBreaker.cooldown` simulated seconds the next query is let
  through as a probe (``HALF_OPEN``).
* ``HALF_OPEN`` — probe queries flow; :attr:`CircuitBreaker.probe_successes`
  consecutive successes close the breaker, one failure re-opens it and
  restarts the cooldown.

:class:`BackoffPolicy` is the companion retry schedule applied *within* one
resilient query: exponential delays with multiplicative jitter, capped, all
drawn from a caller-supplied deterministic generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["BreakerState", "CircuitBreaker", "BackoffPolicy"]


class BreakerState(enum.Enum):
    """The three states of a circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Three-state circuit breaker for one trust source.

    All transitions are driven by the caller-supplied timestamp ``now`` (the
    simulation clock), so two runs with the same event sequence transition
    identically.

    Attributes:
        name: source label used in metric names.
        failure_threshold: consecutive failures that trip CLOSED → OPEN.
        cooldown: simulated seconds OPEN waits before allowing a probe.
        probe_successes: consecutive half-open successes needed to close.
        metrics: optional registry counting state transitions
            (``trustq.breaker.<name>.<from>-><to>``); disabled by default.
    """

    name: str = "table"
    failure_threshold: int = 3
    cooldown: float = 50.0
    probe_successes: int = 1
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry.disabled, repr=False
    )
    _state: BreakerState = field(default=BreakerState.CLOSED, init=False)
    _failures: int = field(default=0, init=False)
    _probes_ok: int = field(default=0, init=False)
    _opened_at: float = field(default=-np.inf, init=False)
    _transitions: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        if self.probe_successes < 1:
            raise ConfigurationError("probe_successes must be >= 1")

    # -- state ---------------------------------------------------------------

    def state(self, now: float) -> BreakerState:
        """The breaker state at time ``now`` (applies the cooldown lazily)."""
        if (
            self._state is BreakerState.OPEN
            and now - self._opened_at >= self.cooldown
        ):
            self._move(BreakerState.HALF_OPEN)
            self._probes_ok = 0
        return self._state

    def allows(self, now: float) -> bool:
        """Whether a query may be attempted at ``now`` (OPEN fast-fails)."""
        return self.state(now) is not BreakerState.OPEN

    @property
    def transition_count(self) -> int:
        """Total state transitions so far."""
        return self._transitions

    def state_dict(self) -> dict:
        """The breaker's restorable state (JSON-compatible).

        ``opened_at`` is ``None`` while the breaker has never opened (its
        internal ``-inf``), so the dict survives strict JSON encoders.
        """
        return {
            "state": self._state.value,
            "failures": self._failures,
            "probes_ok": self._probes_ok,
            "opened_at": (
                None if np.isneginf(self._opened_at) else self._opened_at
            ),
            "transitions": self._transitions,
        }

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._state = BreakerState(state["state"])
        self._failures = int(state["failures"])
        self._probes_ok = int(state["probes_ok"])
        self._opened_at = (
            -np.inf if state["opened_at"] is None else float(state["opened_at"])
        )
        self._transitions = int(state["transitions"])

    # -- outcomes ------------------------------------------------------------

    def record_success(self, now: float) -> None:
        """Feed one successful query outcome at ``now``."""
        state = self.state(now)
        if state is BreakerState.HALF_OPEN:
            self._probes_ok += 1
            if self._probes_ok >= self.probe_successes:
                self._move(BreakerState.CLOSED)
                self._failures = 0
        elif state is BreakerState.CLOSED:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        """Feed one failed query outcome at ``now``."""
        state = self.state(now)
        if state is BreakerState.HALF_OPEN:
            self._open(now)
        elif state is BreakerState.CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._open(now)

    # -- internals -----------------------------------------------------------

    def _open(self, now: float) -> None:
        self._move(BreakerState.OPEN)
        self._opened_at = now
        self._failures = 0
        self._probes_ok = 0

    def _move(self, to: BreakerState) -> None:
        if to is self._state:
            return
        if self.metrics.enabled:
            self.metrics.counter(
                f"trustq.breaker.{self.name}.{self._state.value}->{to.value}"
            ).add()
        self._state = to
        self._transitions += 1


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff with multiplicative jitter.

    The delay before retry attempt ``k`` (0-based) is
    ``min(base * factor**k, max_delay)`` scaled by a uniform jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from the caller's generator.

    Attributes:
        base: first-retry delay (simulated seconds).
        factor: exponential growth per retry.
        max_delay: cap on the un-jittered delay.
        jitter: jitter half-width as a fraction of the delay, in ``[0, 1]``.
        max_retries: retries after the first attempt (0 disables retrying).
    """

    base: float = 1.0
    factor: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ConfigurationError("base delay must be positive")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if self.max_delay < self.base:
            raise ConfigurationError("max_delay must be >= base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must lie in [0, 1]")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered delay before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError("attempt must be non-negative")
        raw = min(self.base * self.factor**attempt, self.max_delay)
        scale = 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return raw * scale
