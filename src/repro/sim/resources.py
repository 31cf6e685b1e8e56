"""Shared resources for the DES kernel: semaphores, containers and stores.

These follow SimPy's request/release and put/get protocols:

* ``with resource.request() as req: yield req`` acquires a slot.
* ``yield store.put(item)`` / ``item = yield store.get()`` pass objects.

All wait queues are strict FIFO (or priority-then-FIFO) so that simulations
are deterministic.

Performance contract (the engine fast path relies on it):

* every put/get/request/release/cancel is amortised O(1) — FIFO queues are
  deques consumed with ``popleft``, never ``list.pop(0)``/``list.remove``;
* cancellation is *lazy*: a withdrawn waiter becomes a tombstone
  (``callbacks = None``) that the owning queue sweeps when it surfaces, and
  queues compact themselves when tombstones outnumber live waiters, so mass
  cancellation (10k parked receives) costs O(n), not O(n^2);
* waiter counts are cached (:attr:`Resource.queue_len` is O(1)).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = [
    "Container",
    "FilterStore",
    "PriorityResource",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
]

#: tombstone compaction thresholds: a wait queue compacts once it holds
#: more than ``_COMPACT_MIN`` tombstones AND tombstones exceed
#: ``_COMPACT_RATIO`` of the queue
_COMPACT_MIN = 16
_COMPACT_RATIO = 0.5


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager: releases on exit (including when the
    requesting process is interrupted before acquisition).
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        hb = self.env.hb
        if hb is not None:
            hb.on_request(resource, self)
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unacquired request (no-op if already acquired)."""
        self.resource.release(self)


class Resource:
    """A counted resource (semaphore) with a FIFO wait queue.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of concurrent holders allowed.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._seq = 0
        #: requests currently holding a slot
        self.users: list[Request] = []
        #: waiting requests as a heap of (priority, seq, request)
        self._waiters: list[tuple[int, int, Request]] = []
        #: live (untriggered, uncancelled) entries in the waiter heap
        self._nwaiting = 0

    # -- public --------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot (O(1): cached count)."""
        return self._nwaiting

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Release a held slot or withdraw a pending request.

        A pending (never-granted) request is cancelled lazily: its callback
        list is cleared and :meth:`_grant` skips it when it surfaces.
        """
        hb = self.env.hb
        if hb is not None:
            hb.on_release(self, request)
        try:
            self.users.remove(request)
        except ValueError:
            if not request.triggered and request.callbacks is not None:
                request.callbacks = None
                self._nwaiting -= 1
                dead = len(self._waiters) - self._nwaiting
                if dead > _COMPACT_MIN and dead > _COMPACT_RATIO * len(self._waiters):
                    self._compact_waiters()
            return
        self._grant()

    # -- internals -----------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._waiters, (request.priority, self._seq, request))
        self._nwaiting += 1
        self._grant()

    def _grant(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            _, _, req = heapq.heappop(self._waiters)
            if req.callbacks is None:  # cancelled tombstone
                continue
            self.users.append(req)
            self._nwaiting -= 1
            req.succeed(self)

    def _compact_waiters(self) -> None:
        """Rebuild the waiter heap without cancelled tombstones.

        Filtering preserves each survivor's ``(priority, seq)`` key, so a
        heapify restores the exact grant order; only dead entries (which
        :meth:`_grant` would have skipped anyway) disappear.  Without this,
        a long scheduler soak that cancels priority requests en masse keeps
        dead entries pinned for hours of simulated time.
        """
        self._waiters = [w for w in self._waiters if w[2].callbacks is not None]
        heapq.heapify(self._waiters)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {len(self.users)}/{self.capacity} held,"
            f" {self.queue_len} waiting>"
        )


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value first."""

    def request(self, priority: int = 0) -> Request:  # noqa: D102 - inherited
        return Request(self, priority)


class Container:
    """A continuous quantity (e.g. bytes of buffer space).

    ``put`` adds, ``get`` removes; both block until satisfiable.  Gets are
    served FIFO; a large blocked get blocks later smaller gets (no overtaking)
    which models byte-credit queues faithfully.
    """

    def __init__(
        self, env: Environment, capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if init < 0 or init > capacity:
            raise SimulationError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._puts: deque[tuple[Event, float]] = deque()
        self._gets: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        ev = Event(self.env)
        self._puts.append((ev, amount))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        if amount > self.capacity:
            raise SimulationError("get amount exceeds container capacity")
        ev = Event(self.env)
        self._gets.append((ev, amount))
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts:
                ev, amt = self._puts[0]
                if self._level + amt <= self.capacity:
                    self._puts.popleft()
                    self._level += amt
                    ev.succeed(amt)
                    progress = True
            if self._gets:
                ev, amt = self._gets[0]
                if amt <= self._level:
                    self._gets.popleft()
                    self._level -= amt
                    ev.succeed(amt)
                    progress = True

    def __repr__(self) -> str:
        return f"<Container level={self._level}/{self.capacity}>"


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`.

    Supports :meth:`cancel` to withdraw an unused get in O(1): the getter
    becomes a *tombstone* (``callbacks = None``) that stays queued until a
    settle pass surfaces it.  Correctness hinges on the sweep happening
    **before** :meth:`Store._do_get` is consulted — a cancelled getter
    must never be handed an item nobody will ever read (a receive that
    swallows a message is exactly how PFTool's WatchDog used to lose its
    ``Exit``).  :meth:`Store._settle` checks for tombstones first, and the
    store compacts its get-queue when tombstones outnumber live waiters,
    so mass cancellation is amortised O(1) per cancel instead of the old
    O(n) ``list.remove``.
    """

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store

    def cancel(self) -> None:
        """Withdraw this get (no-op once an item has been delivered)."""
        if self.triggered or self.callbacks is None:
            return
        self.callbacks = None
        store = self.store
        store._cancelled += 1
        if store._cancelled > _COMPACT_MIN and store._cancelled > (
            _COMPACT_RATIO * len(store._getq)
        ):
            store._compact_getq()


class Store:
    """FIFO object queue with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putq: deque[tuple[Event, Any]] = deque()
        self._getq: deque[StoreGet] = deque()
        #: cancelled-but-unswept getters still sitting in ``_getq``
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        hb = self.env.hb
        if hb is not None:
            hb.on_store_put(self, item)
        ev = Event(self.env)
        self._putq.append((ev, item))
        self._settle()
        return ev

    def put_nowait(self, item: Any) -> bool:
        """Deposit *item* if capacity allows, without allocating a put event.

        Fast path for fire-and-forget producers (e.g. message delivery
        timers) that never wait on the put.  Returns False when the store
        is full — the caller must then fall back to :meth:`put`.
        """
        if len(self.items) >= self.capacity:
            return False
        hb = self.env.hb
        if hb is not None:
            hb.on_store_put(self, item)
        self._do_put(item)
        self._settle()
        return True

    def put_batch(self, items: list) -> None:
        """Deposit every item in *items* in one pass, without waiting.

        Batched :meth:`put_nowait`: per-item HB edges are still recorded
        (the sanitizer sees each deposit), but the settle sweep — the
        expensive part when getters are queued — runs once for the whole
        batch.  A batch that would overflow the capacity raises
        :class:`SimulationError` and deposits nothing: the caller cannot
        wait, so dropping items silently would lose them.
        """
        if len(self.items) + len(items) > self.capacity:
            raise SimulationError(
                f"put_batch of {len(items)} items overflows a store holding "
                f"{len(self.items)} of {self.capacity}"
            )
        hb = self.env.hb
        for item in items:
            if hb is not None:
                hb.on_store_put(self, item)
            self._do_put(item)
        self._settle()

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        hb = self.env.hb
        if hb is not None:
            hb.on_store_get(self, ev)
        self._getq.append(ev)
        self._settle()
        return ev

    # -- hooks for subclasses -------------------------------------------
    def _do_put(self, item: Any) -> None:
        self.items.append(item)

    def _do_get(self, getter: Event) -> bool:
        """Try to satisfy *getter*; return True on success."""
        if self.items:
            getter.succeed(self.items.pop(0))
            return True
        return False

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putq and len(self.items) < self.capacity:
                ev, item = self._putq.popleft()
                self._do_put(item)
                ev.succeed(None)
                progress = True
            getq = self._getq
            if type(self) is Store:
                # Plain FIFO store: only the head getter may be served, so
                # sweep tombstones off the head until a live one blocks.
                while getq:
                    getter = getq[0]
                    if getter.callbacks is None or getter.triggered:
                        getq.popleft()
                        if not getter.triggered:
                            self._cancelled -= 1
                        progress = True
                        continue
                    if self._do_get(getter):
                        getq.popleft()
                        progress = True
                    else:
                        break
            else:
                # Predicate/priority stores: every live getter gets a look.
                # One full rotation preserves FIFO order of the survivors;
                # tombstones (cancel happened before this sweep) are dropped
                # *before* _do_get so no item is routed to a dead receiver.
                for _ in range(len(getq)):
                    getter = getq.popleft()
                    if getter.callbacks is None or getter.triggered:
                        if not getter.triggered:
                            self._cancelled -= 1
                        progress = True
                        continue
                    if self._do_get(getter):
                        progress = True
                    else:
                        getq.append(getter)

    def _compact_getq(self) -> None:
        """Rebuild ``_getq`` without tombstones (triggered entries too)."""
        self._getq = deque(
            g for g in self._getq if g.callbacks is not None and not g.triggered
        )
        self._cancelled = 0

    def __repr__(self) -> str:
        waiters = len(self._getq) - self._cancelled
        return f"<{type(self).__name__} items={len(self.items)} waiters={waiters}>"


class _FilterGet(StoreGet):
    """A get-event carrying the caller's item predicate."""

    __slots__ = ("_filter",)

    def __init__(
        self, store: "FilterStore", filter: Optional[Callable[[Any], bool]]  # noqa: A002
    ) -> None:
        super().__init__(store)
        self._filter = filter


class FilterStore(Store):
    """Store whose getters can select items with a predicate.

    The returned :class:`StoreGet` supports ``cancel()`` for callers
    that race a receive against a timer and lose interest.

    Matching rule: after every settle no parked getter matches any held
    item, so a new getter is offered only the current items (one
    :meth:`_do_get`; parking n getters costs n calls, not n²/2), while
    a put still rotates every parked getter in FIFO order.  Predicates
    must therefore not flip from False to True while the item sits in
    the store; one whose state changes re-puts the item (see
    ``TapeLibrary.repair_drive``).
    """

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # noqa: A002
        ev = _FilterGet(self, filter)
        hb = self.env.hb
        if hb is not None:
            hb.on_store_get(self, ev)
        if not self._do_get(ev):
            self._getq.append(ev)
        elif self._putq:
            self._settle()  # the freed slot admits a blocked put
        return ev

    def _do_get(self, getter: Event) -> bool:
        flt = getattr(getter, "_filter", None)
        for idx, item in enumerate(self.items):
            if flt is None or flt(item):
                self.items.pop(idx)
                getter.succeed(item)
                return True
        return False


class PriorityStore(Store):
    """Store that always yields the smallest item (heap ordering).

    Items must be comparable; use ``(priority, seq, payload)`` tuples.
    """

    def _do_put(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _do_get(self, getter: Event) -> bool:
        if self.items:
            getter.succeed(heapq.heappop(self.items))
            return True
        return False
