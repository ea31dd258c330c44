"""Bounded exponential-backoff retry for transient storage faults.

A transient fault — sqlite returning BUSY/LOCKED past its timeout, or
an injected :class:`~repro.robust.faults.TransientInjectedError` — means
the statement (or transaction) had no effect and re-running it is safe.
:class:`RetryPolicy` re-runs such operations with exponential backoff
and jitter, and surfaces a typed
:class:`~repro.errors.TransientStorageError` once the bounded budget is
exhausted.  Permanent errors (constraint violations, syntax errors,
:class:`~repro.robust.faults.SimulatedCrash` process deaths) propagate
immediately.

:class:`XmlStore <repro.store.XmlStore>` applies a policy at two
levels: individual read statements, and whole update transactions
(retried only from outside the outermost scope, after the rollback has
undone every partial effect).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.backends.sqlite_backend import is_busy
from repro.errors import TransientStorageError
from repro.obs import METRICS
from repro.robust.faults import TransientInjectedError

T = TypeVar("T")


def is_transient_error(exc: BaseException) -> bool:
    """Classify an exception: True when retrying is safe and useful."""
    return isinstance(exc, TransientInjectedError) or is_busy(exc)


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``attempts`` counts every try including the first; delays grow as
    ``base_delay * multiplier**(attempt-1)`` capped at ``max_delay``,
    each scaled by a random factor in ``[1-jitter, 1]`` so contending
    workers decorrelate.  ``sleep`` is injectable for tests, and so is
    the jitter source: pass ``rng`` to share one RNG across policies,
    or ``seed`` for a private seeded one — either way the backoff
    schedule is reproducible, never drawn from module-level
    ``random``.
    """

    attempts: int = 5
    base_delay: float = 0.01
    max_delay: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    rng: Optional[random.Random] = None
    sleep: Callable[[float], None] = time.sleep
    classify: Callable[[BaseException], bool] = field(
        default=is_transient_error
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        self._rng = self.rng if self.rng is not None \
            else random.Random(self.seed)

    def backoff_delay(self, attempt: int) -> float:
        """The jittered delay after failed attempt number *attempt*."""
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        return delay * (1.0 - self.jitter * self._rng.random())

    def run(self, operation: Callable[[], T]) -> T:
        """Run *operation*, retrying transient failures.

        Raises :class:`TransientStorageError` (with the last fault
        chained) when every attempt failed transiently; non-transient
        exceptions propagate from the failing attempt untouched.

        Metrics (when :mod:`repro.obs` is enabled): every classified
        transient fault bumps ``retry.transient_faults``, every
        re-attempt bumps ``retry.retries``, a success on attempt > 1
        bumps ``retry.recoveries``, and a spent budget bumps
        ``retry.exhausted``.
        """
        last_error: Optional[Exception] = None
        for attempt in range(1, self.attempts + 1):
            try:
                result = operation()
            except Exception as exc:
                if not self.classify(exc):
                    raise
                METRICS.inc("retry.transient_faults")
                last_error = exc
                if attempt < self.attempts:
                    METRICS.inc("retry.retries")
                    self.sleep(self.backoff_delay(attempt))
            else:
                if attempt > 1:
                    METRICS.inc("retry.recoveries")
                return result
        METRICS.inc("retry.exhausted")
        raise TransientStorageError(
            "transient storage fault persisted across "
            f"{self.attempts} attempt(s): {last_error}",
            attempts=self.attempts,
            last_error=last_error,
        ) from last_error
