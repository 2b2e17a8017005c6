"""Tenant policy: token-bucket quotas and priority classes.

Every :class:`~repro.service.query.QueryRequest` carries a ``tenant``
label (``""`` is the default tenant).  :class:`TenantPolicy` turns
that label into two decisions the
:class:`~repro.service.executor.AnalyticsService` asks for on every
submission, whatever the entry point (HTTP, trace replay, direct
calls) and whatever the execution backend:

* **quotas** — each metered tenant owns a :class:`TokenBucket`
  (``rate`` requests/second refill, ``burst`` bucket depth); an empty
  bucket refuses admission with a typed
  :class:`~repro.errors.QuotaExhaustedError` carrying the seconds
  until the next token, which the HTTP tier maps to 429;
* **priority classes** — an integer per tenant (lower runs sooner);
  the submission queue (:class:`PriorityWorkQueue`) drains by class
  and is FIFO within one, so an interactive tenant's queries overtake
  a batch tenant's backlog.  With no priorities configured every item
  ranks equal and the queue is plain FIFO.

:class:`TokenBucket` is also the HTTP tier's per-client rate limit
(:class:`~repro.service.api.middleware.RateLimit`): one refill-and-spend
loop serves both.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import QuotaExhaustedError, ServiceError
from repro.service.query import QueryRequest

#: well-known priority classes (lower = served sooner).  Any integer
#: works; these names give operators a shared vocabulary.
PRIORITY_CLASSES: Dict[str, int] = {
    "interactive": 0,
    "default": 10,
    "batch": 20,
}


class TokenBucket:
    """One token bucket: ``rate`` tokens/second refill up to ``burst``.

    The bucket starts full.  :meth:`take` spends one token when one is
    available and :meth:`refund` gives one back; ``clock`` is
    injectable so tests drive time by hand.
    """

    __slots__ = ("rate", "burst", "_clock", "_lock", "_tokens", "_stamp")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._stamp = clock()

    def take(self) -> float:
        """Try to spend one token; 0.0 on success, else seconds to wait."""
        now = self._clock()
        with self._lock:
            tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if tokens >= 1.0:
                self._tokens = tokens - 1.0
                return 0.0
            self._tokens = tokens
            return (1.0 - tokens) / self.rate

    def refund(self) -> None:
        """Return one token spent on work that was never admitted."""
        # capping before the pending refill is added on the next take()
        # gives the same balance as capping after it
        with self._lock:
            self._tokens = min(self.burst, self._tokens + 1.0)


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket admission budget for one tenant.

    ``rate`` tokens/second refill a bucket of depth ``burst``; every
    admitted request spends one token.  Charged at *submission*, so a
    tenant cannot sidestep its budget by switching transports.
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ServiceError(
                f"quota rate and burst must be positive, got "
                f"rate={self.rate}, burst={self.burst}"
            )


class TenantPolicy:
    """Admission and ordering decisions for one service.

    Parameters
    ----------
    quotas:
        ``tenant -> TenantQuota``.  Tenants without an entry are
        unmetered (including the default ``""`` tenant), so the
        default policy never throttles anything.
    priorities:
        ``tenant -> priority class`` (lower runs sooner); tenants
        without an entry get ``default_priority``.
    clock:
        Injectable time source for the token buckets (tests freeze it).
    """

    def __init__(
        self,
        *,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        priorities: Optional[Mapping[str, int]] = None,
        default_priority: int = PRIORITY_CLASSES["default"],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self.priorities: Dict[str, int] = {
            tenant: int(level) for tenant, level in (priorities or {}).items()
        }
        self.default_priority = int(default_priority)
        self._buckets: Dict[str, TokenBucket] = {
            tenant: TokenBucket(quota.rate, quota.burst, clock=clock)
            for tenant, quota in self.quotas.items()
        }

    # -- quotas --------------------------------------------------------
    def admit(self, request: QueryRequest) -> None:
        """Charge one token to ``request``'s tenant or refuse it.

        Raises :class:`QuotaExhaustedError` (HTTP 429) when the
        tenant's bucket is empty; unmetered tenants always pass.
        """
        wait_s = self.try_admit(request.tenant)
        if wait_s > 0.0:
            raise QuotaExhaustedError(request.tenant, retry_after_s=wait_s)

    def try_admit(self, tenant: str) -> float:
        """Non-raising admit: 0.0 on success, else seconds to wait."""
        bucket = self._buckets.get(tenant)
        return 0.0 if bucket is None else bucket.take()

    def refund(self, request: QueryRequest) -> None:
        """Give back the token :meth:`admit` charged for ``request``.

        For submissions refused after admission (a full queue), so a
        tenant is billed only for work the service accepted.
        """
        bucket = self._buckets.get(request.tenant)
        if bucket is not None:
            bucket.refund()

    # -- priorities ----------------------------------------------------
    def priority_for(self, request: QueryRequest) -> int:
        """The priority class of ``request`` (lower runs sooner)."""
        return self.priorities.get(request.tenant, self.default_priority)

    def rank(self, requests: Iterable[QueryRequest]) -> int:
        """Queue rank of a work item: its most urgent member's class."""
        if not self.priorities:
            return self.default_priority
        return min(
            (self.priority_for(r) for r in requests),
            default=self.default_priority,
        )


class PriorityWorkQueue(queue.Queue):
    """A :class:`queue.Queue` whose backlog drains by priority class.

    Same bound, same ``Full``/``join`` semantics as the stdlib queue
    (only ``_init``/``_put``/``_get`` are overridden), but ``get``
    returns the lowest ``priority_of(item)`` first, FIFO within a
    class.  The shutdown sentinel (``None``) sorts last so a closing
    service drains real work before stopping its dispatchers.
    """

    def __init__(self, maxsize: int, priority_of: Callable[[object], int]) -> None:
        self._priority_of = priority_of
        self._seq = itertools.count()
        super().__init__(maxsize)

    def _init(self, maxsize: int) -> None:
        self._heap: List[Tuple[float, int, object]] = []

    def _qsize(self) -> int:
        return len(self._heap)

    def _put(self, item: object) -> None:
        rank = float("inf") if item is None else float(self._priority_of(item))
        heapq.heappush(self._heap, (rank, next(self._seq), item))

    def _get(self) -> object:
        return heapq.heappop(self._heap)[2]


def parse_quota_arg(value: str) -> Tuple[str, TenantQuota]:
    """``TENANT=RATE[:BURST]`` -> ``(tenant, TenantQuota)``.

    ``BURST`` defaults to ``max(rate, 1)`` so a plain ``alice=2`` means
    "two requests per second, no extra headroom".
    """
    tenant, sep, spec = value.partition("=")
    if not sep or not tenant or not spec:
        raise ServiceError(
            f"quota must look like TENANT=RATE[:BURST], got {value!r}"
        )
    rate_text, _, burst_text = spec.partition(":")
    try:
        rate = float(rate_text)
        burst = float(burst_text) if burst_text else max(rate, 1.0)
    except ValueError:
        raise ServiceError(
            f"quota must look like TENANT=RATE[:BURST], got {value!r}"
        ) from None
    return tenant, TenantQuota(rate=rate, burst=burst)


def parse_priority_arg(value: str) -> Tuple[str, int]:
    """``TENANT=CLASS`` -> ``(tenant, level)``; CLASS is a name or int."""
    tenant, sep, spec = value.partition("=")
    if not sep or not tenant or not spec:
        raise ServiceError(
            f"priority must look like TENANT=CLASS, got {value!r}"
        )
    if spec in PRIORITY_CLASSES:
        return tenant, PRIORITY_CLASSES[spec]
    try:
        return tenant, int(spec)
    except ValueError:
        raise ServiceError(
            f"priority class must be an integer or one of "
            f"{sorted(PRIORITY_CLASSES)}, got {spec!r}"
        ) from None
