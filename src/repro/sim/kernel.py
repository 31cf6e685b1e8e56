"""Core event loop, events and processes for the DES kernel.

Design notes
------------
* Time is a ``float`` in **seconds** everywhere in :mod:`repro`.
* The event queue is a flat binary heap (:mod:`heapq`) of
  ``(time, priority, tiebreak, event)`` tuples.
* :meth:`Environment.run` drains same-instant cohorts in one pass:
  per-event semantics (HB ``on_pop`` hooks, ``events_processed``, crash
  propagation, stop-event checks) are unchanged, but loop bookkeeping is
  paid once per distinct timestamp.  ``Environment.instants`` and
  ``Environment.max_instant_batch`` expose the cohort structure.
* Processes are plain Python generators.  A process yields an :class:`Event`
  to suspend until the event fires; the event's value is sent back into the
  generator (or its exception thrown in).
* Interrupts follow SimPy semantics: :meth:`Process.interrupt` throws
  :class:`Interrupt` into the process at its current yield point.

Ordering contract
-----------------
Execution order is fully deterministic for a given program and a given
:class:`SchedulePolicy` — a requirement for reproducible benchmarks.
The guarantees, from strongest to weakest:

1. **Time** always wins: an event at an earlier simulated time runs
   before any event at a later time.
2. **Priority** breaks time ties: at equal times, ``URGENT`` events
   (process starts, interrupt delivery) run before ``NORMAL`` ones.
3. **Tie-break** breaks ``(time, priority)`` ties and is the *only*
   layer a program may not rely on.  The default policy is FIFO (the
   monotonically increasing schedule sequence number ``seq``), which
   pins a single canonical order.  A seeded
   :class:`RandomTiebreakPolicy` instead permutes same-``(time,
   priority)`` events deterministically per seed; the schedule
   sanitizer (:mod:`repro.analysis.races`) re-runs scenarios under
   many such permutations to prove simulation outcomes do not depend
   on layer 3.  Anything that must stay ordered at equal instants has
   to encode it in layers 1-2 or in its own data structure — e.g.
   :class:`repro.mpisim.SimComm` preserves per-``(src, dst)`` message
   order (the MPI non-overtaking guarantee) by batching same-instant
   deliveries, and :class:`repro.sim.resources` wait queues are FIFO
   in arrival order regardless of how the grants interleave.

The policy is fixed for the life of an :class:`Environment` (pass it
to the constructor, or install a process-wide default with
:func:`set_default_schedule_policy` for code that builds its own
environments); swapping policies mid-run would interleave incomparable
heap keys.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.trace import channel_for as _trace_channel_for
from repro.sim.metrics import MetricsRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "RandomTiebreakPolicy",
    "SchedulePolicy",
    "SimulationError",
    "Timeout",
    "set_default_hb_recorder",
    "set_default_schedule_policy",
]

#: Event scheduling priorities (lower runs first at equal times).
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double-trigger, negative delay...)."""


class SchedulePolicy:
    """Tie-break policy for events at equal ``(time, priority)``.

    The base class is FIFO: events run in scheduling order (``seq``).
    Subclasses override :meth:`key` to return any totally ordered,
    *unique* key per ``seq`` — uniqueness matters because heap entries
    fall through to comparing :class:`Event` objects otherwise.
    """

    name = "fifo"

    def key(self, seq: int) -> Any:
        """Heap tie-break key for the event with schedule number *seq*."""
        return seq


#: shared instance returned by Environment.schedule_policy for the fast path
_FIFO_POLICY = SchedulePolicy()

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, seq: int) -> int:
    """splitmix64 of (seed, seq): a deterministic, well-mixed 64-bit hash."""
    z = (seq + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomTiebreakPolicy(SchedulePolicy):
    """Seeded permutation of same-``(time, priority)`` events.

    Each scheduled event gets the tie-break key ``(mix64(seed, seq),
    seq)``: events at equal instants run in hash order — a different
    deterministic permutation per *seed* — while the trailing ``seq``
    keeps keys unique.  Used by the schedule sanitizer to explore the
    legal reorderings the FIFO default happens to pin down.
    """

    name = "random"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def key(self, seq: int) -> Any:
        return (_mix64(self.seed, seq), seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomTiebreakPolicy seed={self.seed}>"


#: process-wide default policy factory consulted by Environment.__init__
#: when no explicit policy is passed (None means FIFO)
_default_policy_factory: Optional[Callable[[], SchedulePolicy]] = None


def set_default_schedule_policy(
    factory: Optional[Callable[[], SchedulePolicy]],
) -> None:
    """Install (or clear, with ``None``) the default schedule policy.

    Environments constructed while a factory is installed ask it for
    their tie-break policy — the hook the schedule permuter uses to
    reach environments built deep inside scenario functions.
    """
    global _default_policy_factory
    _default_policy_factory = factory


#: process-wide default happens-before recorder factory; receives the new
#: Environment, returns a recorder (installed as ``env.hb``) or None
_default_hb_factory: Optional[Callable[["Environment"], Any]] = None


def set_default_hb_recorder(
    factory: Optional[Callable[["Environment"], Any]],
) -> None:
    """Install (or clear, with ``None``) the default hb-recorder factory.

    Environments constructed while a factory is installed get
    ``env.hb = factory(env)`` — how the schedule sanitizer attaches its
    race detector / schedule recorder to environments built deep inside
    scenario functions.  The factory may return None to skip an env.
    """
    global _default_hb_factory
    _default_hb_factory = factory


class ProcessKilled(SimulationError):
    """Raised in waiters of a process torn down by :meth:`Process.kill`."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The optional *cause* is available as :attr:`cause` and carries whatever
    context the interrupter supplied (e.g. a preemption record).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<pending>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled on the queue with a value
    or an exception) -> *processed* (callbacks ran, waiters resumed).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: callables invoked with this event when it is processed
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("value of event is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get *exception* thrown at their yield point.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition ---------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


#: upper bound on recycled :class:`_ScheduledCall` instances per environment
_CALL_POOL_MAX = 1024


class _ScheduledCall(Event):
    """Kernel-owned one-shot timer that invokes a function when popped.

    Created only by :meth:`Environment.call_later`; user code never holds a
    reference, so :meth:`Environment.step` can recycle instances through
    ``Environment._call_pool`` instead of allocating a Timeout + Process +
    init-Event triple for every fire-and-forget delay.
    """

    __slots__ = ("_fn",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._fn: Optional[Callable[[], None]] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_ScheduledCall fn={self._fn!r} at {id(self):#x}>"


class _ConditionValue(dict):
    """Ordered mapping of event -> value for AllOf/AnyOf results."""


class Condition(Event):
    """Waits for a boolean combination of events (base of AllOf/AnyOf)."""

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed(_ConditionValue())
            return
        for ev in self._events:
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect_values(self) -> _ConditionValue:
        vals = _ConditionValue()
        for ev in self._events:
            if ev._processed and ev._ok:
                vals[ev] = ev._value
        return vals

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(len(self._events), self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Fires when all sub-events have fired; value maps event -> value."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda total, done: done == total, events)


class AnyOf(Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda total, done: done >= 1, events)


class Process(Event):
    """A running generator, itself waitable as an event.

    The process event triggers when the generator returns (value = return
    value) or raises (the exception propagates to waiters, or out of
    :meth:`Environment.run` if nobody waits).
    """

    __slots__ = ("_generator", "_target", "name", "daemon")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: daemon processes (perpetual service loops parked on a work
        #: queue) are expected to outlive the simulation; the schedule
        #: sanitizer's stall check skips them, like daemon threads
        self.daemon = daemon
        #: event this process is currently waiting on (None when runnable)
        self._target: Optional[Event] = None
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env._schedule(init, URGENT)
        if env.hb is not None:
            env.hb.on_process(self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self._value is not PENDING:
            raise SimulationError(f"{self} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        # Deliver via an urgent event so interrupt ordering is deterministic.
        ev = Event(self.env)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev.callbacks.append(self._resume)
        self.env._schedule(ev, URGENT)

    def kill(self, cause: Any = None) -> None:
        """Tear the process down *without* running its handlers (crash model).

        Unlike :meth:`interrupt`, which throws at the yield point so the
        process can recover, ``kill`` models a component dying mid-flight:
        the generator is closed (only ``finally`` blocks run), the event it
        was waiting on is abandoned — cancellable targets such as a pending
        mailbox receive are withdrawn so they cannot swallow a message nobody
        will read — and any child :class:`Process` it was waiting on is killed
        in cascade.  Waiters of a killed process see it *fail* with *cause*
        (wrapped in :class:`ProcessKilled` when it is not an exception).

        Killing an already-terminated process is a no-op, so crash plans may
        fire after the component finished on its own.
        """
        if self._value is not PENDING:
            return
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to kill itself")
        target = self._target
        self._target = None
        if isinstance(cause, BaseException):
            exc: BaseException = cause
        else:
            exc = ProcessKilled(f"process {self.name!r} killed")
        self._ok = False
        self._value = exc
        self._generator.close()
        self.env._schedule(self, NORMAL)
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            cancel = getattr(target, "cancel", None)
            if cancel is not None and not target.triggered:
                cancel()
            if isinstance(target, Process) and target.is_alive:
                target.kill(exc)

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already terminated (e.g. interrupt raced completion)
        # Detach from the event we were waiting on (for interrupts).
        if (
            self._target is not None
            and self._target is not event
            and self._target.callbacks is not None
        ):
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self.env._active = self
        try:
            while True:
                try:
                    if event._ok:
                        target = self._generator.send(event._value)
                    else:
                        target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._ok = True
                    self._value = exc.value
                    self.env._schedule(self, NORMAL)
                    return
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    # If nothing waits on this process the exception must not
                    # vanish: surface it from Environment.run().
                    if not self.callbacks:
                        self.env._crash(exc)
                    self.env._schedule(self, NORMAL)
                    return
                if not isinstance(target, Event):
                    exc2 = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    event = Event(self.env)
                    event._ok = False
                    event._value = exc2
                    continue
                if target._processed:
                    # Already done: loop immediately with its value.
                    event = target
                    continue
                self._target = target
                target.callbacks.append(self._resume)
                return
        finally:
            self.env._active = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"


class Environment:
    """The simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active",
        "_crashed",
        "_call_pool",
        "_policy",
        "events_processed",
        "peak_queue_len",
        "instants",
        "max_instant_batch",
        "trace",
        "metrics",
        "hb",
        "_ids",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        schedule_policy: Optional[SchedulePolicy] = None,
    ) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple] = []
        self._seq = 0
        self._active: Optional[Process] = None
        self._crashed: Optional[BaseException] = None
        #: free-list of recycled :class:`_ScheduledCall` events
        self._call_pool: list[_ScheduledCall] = []
        #: tie-break policy (None = FIFO fast path; see module docstring)
        if schedule_policy is None and _default_policy_factory is not None:
            schedule_policy = _default_policy_factory()
        self._policy = schedule_policy
        #: total events popped by :meth:`step` (perf accounting)
        self.events_processed = 0
        #: high-water mark of the event heap (perf accounting)
        self.peak_queue_len = 0
        #: distinct timestamps drained by :meth:`run` (perf accounting)
        self.instants = 0
        #: largest same-instant cohort drained in one pass by :meth:`run`
        self.max_instant_batch = 0
        #: always-on registry of named counter views (layer.noun_unit)
        self.metrics = MetricsRegistry()
        self.metrics.add("sim.events", lambda: self.events_processed)
        #: trace channel — NULL_CHANNEL (enabled=False) unless a
        #: :class:`repro.trace.Tracer` is installed when this env is built
        self.trace = _trace_channel_for(self)
        #: happens-before recorder hook — None unless a
        #: :class:`repro.analysis.races` recorder is installed on this env;
        #: when set, its ``on_pop``/``on_process``/store/resource hooks see
        #: every kernel event (the schedule sanitizer's vantage point)
        self.hb = None
        if _default_hb_factory is not None:
            self.hb = _default_hb_factory(self)
        #: kind -> id sequence; see :meth:`next_id`
        self._ids: dict[str, Iterator[int]] = {}

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    @property
    def schedule_policy(self) -> SchedulePolicy:
        """The tie-break policy in force (FIFO unless overridden)."""
        return self._policy if self._policy is not None else _FIFO_POLICY

    def next_id(self, kind: str, start: int = 1) -> int:
        """Next number of this simulation's *kind* sequence (first is *start*).

        Ids that feed simulated behaviour (inode numbers pick stripe
        starts) live here rather than in module globals, so a simulation's
        results do not depend on what else ran in the process.
        """
        ids = self._ids.get(kind)
        if ids is None:
            ids = self._ids[kind] = itertools.count(start)
        return next(ids)

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> Process:
        """Start *generator* as a new process."""
        return Process(self, generator, name, daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_later(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Schedule plain *fn* to run after *delay* simulated seconds.

        Fire-and-forget fast path for kernel-internal timers (e.g. message
        delivery): no :class:`Process` is spawned and the backing
        :class:`_ScheduledCall` event is recycled through a free-list, so a
        polling/delivery loop costs one heap push instead of three event
        allocations.  The event is kernel-owned and never exposed, which is
        what makes recycling safe.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay {delay!r}")
        pool = self._call_pool
        ev = pool.pop() if pool else _ScheduledCall(self)
        ev._fn = fn
        self._schedule(ev, priority, delay)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        key = self._seq if self._policy is None else self._policy.key(self._seq)
        q = self._queue
        heappush(q, (self._now + delay, priority, key, event))
        if len(q) > self.peak_queue_len:
            self.peak_queue_len = len(q)

    def _crash(self, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = exc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        t, _prio, _key, event = heappop(self._queue)
        self._now = t
        self.events_processed += 1
        if self.hb is not None:
            self.hb.on_pop(t, _prio, event)
        if type(event) is _ScheduledCall:
            # Kernel-owned timer: invoke and recycle, no callback machinery.
            fn = event._fn
            event._fn = None
            if len(self._call_pool) < _CALL_POOL_MAX:
                self._call_pool.append(event)
            fn()
        else:
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks:
                for cb in callbacks:
                    cb(event)
        if self._crashed is not None:
            exc = self._crashed
            self._crashed = None
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        *until* may be ``None`` (run until no events remain), a number (run
        until that simulated time) or an :class:`Event` (run until it fires,
        returning its value / raising its exception).
        """
        stop_at: Optional[float] = None
        stop_ev: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_ev = until
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )
        # Main loop: drain same-instant cohorts in one pass.  Each event is
        # still popped, HB-recorded and crash-checked individually (same
        # per-event semantics as step()); only the loop bookkeeping — the
        # clock write, the stop_at comparison, the instant accounting — is
        # hoisted to once per distinct timestamp.  The hb recorder is read
        # once per call: attach it before run(), not from inside an event.
        q = self._queue
        pool = self._call_pool
        hb = self.hb
        pop = heappop
        scheduled_call = _ScheduledCall
        while q:
            if stop_ev is not None and stop_ev._processed:
                break
            t = q[0][0]
            if stop_at is not None and t > stop_at:
                break
            self._now = t
            self.instants += 1
            batch = 0
            while True:
                _t, _prio, _key, event = pop(q)
                self.events_processed += 1
                batch += 1
                if hb is not None:
                    hb.on_pop(_t, _prio, event)
                if type(event) is scheduled_call:
                    fn = event._fn
                    event._fn = None
                    if len(pool) < _CALL_POOL_MAX:
                        pool.append(event)
                    fn()
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                if self._crashed is not None:
                    exc = self._crashed
                    self._crashed = None
                    raise exc
                if stop_ev is not None and stop_ev._processed:
                    break
                if not q or q[0][0] != t:
                    break
            if batch > self.max_instant_batch:
                self.max_instant_batch = batch
        if stop_ev is not None:
            if not stop_ev._processed:
                raise SimulationError("run() finished but the awaited event never fired")
            if stop_ev._ok:
                return stop_ev._value
            raise stop_ev._value
        if stop_at is not None:
            self._now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment t={self._now:.6f} queued={len(self._queue)}>"
