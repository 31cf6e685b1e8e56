"""Capacitated link graph with fluid flows and dynamic fair sharing.

A :class:`Fabric` owns nodes and directed :class:`Link` s.  Data movement is
expressed as :meth:`Fabric.transfer` (a DES process event) or as a long-lived
:class:`Flow` opened/closed explicitly.  Every flow arrival or departure
marks the touched route dirty on the incremental
:class:`~repro.netsim.maxmin.MaxMinAllocator`; rates are settled lazily (at
most one solve per simulated instant, restricted to the affected allocation
components) before the engine projects completions or an external caller
reads them.  In-flight flows have their accrued bytes banked at the rates
that were in force and their completion re-projected.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.netsim.maxmin import MaxMinAllocator
from repro.sim import Environment, Event

__all__ = ["Fabric", "Flow", "Link", "TransferResult"]

#: flows with fewer residual bytes than this are considered complete —
#: guards against float livelock where now + remaining/rate == now
EPS_BYTES = 1e-6


class Link:
    """A directed capacitated edge between two fabric nodes.

    ``capacity`` is read-only: the fabric's allocator caches it, so a
    runtime change must go through :meth:`Fabric.set_link_capacity`.
    """

    __slots__ = ("name", "src", "dst", "_capacity", "latency")

    def __init__(
        self, name: str, src: str, dst: str, capacity: float, latency: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: latency must be non-negative")
        self.name = name
        self.src = src
        self.dst = dst
        self._capacity = float(capacity)
        #: one-way propagation delay in seconds
        self.latency = float(latency)

    @property
    def capacity(self) -> float:
        """Bytes per second."""
        return self._capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.src}->{self.dst} {self.capacity/1e6:.0f} MB/s>"


@dataclass
class TransferResult:
    """Completion record returned by :meth:`Fabric.transfer`."""

    src: str
    dst: str
    nbytes: int
    start: float
    end: float
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Average achieved rate in bytes/s (inf for instantaneous)."""
        d = self.duration
        return self.nbytes / d if d > 0 else float("inf")


class Flow:
    """An active fluid flow across a route of links.

    ``remaining`` and ``rate`` are read-only views; only the fabric's
    engine updates them.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "links",
        "nbytes",
        "rate_cap",
        "weight",
        "start",
        "tag",
        "done",
        "_remaining",
        "_rate",
        "_last_update",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        links: list[Link],
        nbytes: float,
        done: Event,
        rate_cap: float = float("inf"),
        weight: float = 1.0,
        tag: Any = None,
        start: float = 0.0,
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.links = links
        self.nbytes = float(nbytes)
        self.rate_cap = rate_cap
        self.weight = weight
        self.start = start
        self.tag = tag
        self.done = done
        self._remaining = float(nbytes)
        self._rate = 0.0
        self._last_update = start

    @property
    def remaining(self) -> float:
        """Residual bytes (as of the last bank point)."""
        return self._remaining

    @property
    def rate(self) -> float:
        """Currently allocated fair-share rate in bytes/s."""
        return self._rate

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.src}->{self.dst} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate/1e6:.1f}MB/s>"
        )


class Fabric:
    """Graph of links with shortest-path routing and fair-shared flows.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Label used in reprs and stats.

    Notes
    -----
    * Routing is static shortest-path (hop count, then total latency, then
      lexicographic link names for determinism), computed on demand and
      cached.  Explicit routes can be registered with :meth:`set_route`.
    * Rate re-allocation is incremental: a flow event dirties only its own
      route and the next settle re-solves only the affected allocation
      components (O(component) rather than O(all flows x all links)), with
      same-instant events coalesced into a single solve.
    """

    def __init__(self, env: Environment, name: str = "fabric") -> None:
        self.env = env
        self.name = name
        self.nodes: set[str] = set()
        self.links: dict[str, Link] = {}
        self._adj: dict[str, list[Link]] = {}
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        self._flows: dict[int, Flow] = {}
        self._fid = itertools.count(1)
        #: cumulative bytes delivered, for utilisation accounting
        self.bytes_delivered = 0.0
        self._alloc = MaxMinAllocator()
        self._completion_proc_running = False
        self._wakeup: Optional[Event] = None
        #: last simulated instant progress was banked (same-instant skip)
        self._last_bank = float("-inf")
        #: flows whose ``remaining`` hit zero since the last retire, in
        #: ``_flows`` order
        self._finished: list[Flow] = []

    @property
    def rate_recomputes(self) -> int:
        """Number of fair-share solves performed (perf accounting)."""
        return self._alloc.solves

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        self.nodes.add(name)
        self._adj.setdefault(name, [])
        return name

    def add_link(
        self,
        src: str,
        dst: str,
        capacity: float,
        latency: float = 0.0,
        duplex: bool = True,
        name: Optional[str] = None,
    ) -> tuple[Link, Optional[Link]]:
        """Add a link (and its reverse if *duplex*); returns (fwd, rev)."""
        self.add_node(src)
        self.add_node(dst)
        base = name or f"{src}->{dst}"
        if base in self.links:
            raise ValueError(f"duplicate link name {base!r}")
        fwd = Link(base, src, dst, capacity, latency)
        self.links[base] = fwd
        self._adj[src].append(fwd)
        self._alloc.set_capacity(base, capacity)
        rev = None
        if duplex:
            rname = f"{dst}->{src}" if name is None else f"{name}:rev"
            rev = Link(rname, dst, src, capacity, latency)
            self.links[rname] = rev
            self._adj[dst].append(rev)
            self._alloc.set_capacity(rname, capacity)
        self._route_cache.clear()
        return fwd, rev

    def set_link_capacity(self, name: str, capacity: float) -> None:
        """Change a link's capacity at runtime (degradation / repair).

        In-flight flows have their progress banked at the old rates,
        then everything is re-allocated against the new capacity — so a
        trunk going degraded mid-transfer slows exactly the flows that
        cross it, from this instant on.
        """
        if capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        try:
            link = self.links[name]
        except KeyError:
            raise KeyError(f"no link named {name!r}") from None
        link._capacity = float(capacity)
        self._alloc.set_capacity(name, capacity)
        self._reallocate()

    def set_route(self, src: str, dst: str, links: Iterable[Link]) -> None:
        """Pin an explicit route for (src, dst)."""
        route = list(links)
        if len(set(route)) != len(route):
            raise ValueError("route crosses a link twice")
        for a, b in zip(route, route[1:]):
            if a.dst != b.src:
                raise ValueError(f"route is not contiguous at {a.name}->{b.name}")
        if route:
            if route[0].src != src or route[-1].dst != dst:
                raise ValueError("route endpoints do not match src/dst")
        self._route_cache[(src, dst)] = route

    def route(self, src: str, dst: str) -> list[Link]:
        """Shortest path from *src* to *dst* (empty list if src == dst)."""
        if src == dst:
            return []
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown node in route {src!r}->{dst!r}")
        # Dijkstra on (hops, latency, path-names) for deterministic routes.
        best: dict[str, tuple[int, float, tuple[str, ...]]] = {src: (0, 0.0, ())}
        prev: dict[str, Link] = {}
        pq: list[tuple[int, float, tuple[str, ...], str]] = [(0, 0.0, (), src)]
        visited: set[str] = set()
        while pq:
            hops, lat, names, node = heapq.heappop(pq)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for lk in self._adj[node]:
                cand = (hops + 1, lat + lk.latency, names + (lk.name,))
                if lk.dst not in best or cand < best[lk.dst]:
                    best[lk.dst] = cand
                    prev[lk.dst] = lk
                    heapq.heappush(pq, cand + (lk.dst,))
        if dst not in prev:
            raise ValueError(f"no route from {src!r} to {dst!r} in {self.name}")
        path: list[Link] = []
        node = dst
        while node != src:
            lk = prev[node]
            path.append(lk)
            node = lk.src
        path.reverse()
        self._route_cache[key] = path
        return path

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of the active flows (rates settled), for external
        callers that may hold or mutate the list."""
        self._flush_rates()
        return list(self._flows.values())

    def iter_flows(self):
        """Live view of the active flows (rates settled) — the hot-path
        accessor: no list is allocated, so callers must not open or close
        flows while iterating."""
        self._flush_rates()
        return self._flows.values()

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        rate_cap: float = float("inf"),
        weight: float = 1.0,
        tag: Any = None,
    ) -> Event:
        """Move *nbytes* from *src* to *dst*; returns an event that fires
        with a :class:`TransferResult` when the last byte arrives.

        A zero-byte transfer still pays one round of route latency.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.env.event()
        tr = self.env.trace
        if tr.enabled:
            span = tr.begin(
                "net:transfer", tid=f"{src}->{dst}", cat="net",
                args={"nbytes": int(nbytes)},
            )
            done.callbacks.append(lambda _ev: span.end())
        links = self.route(src, dst)
        latency = sum(lk.latency for lk in links)
        start = self.env.now

        if nbytes == 0 or (not links and rate_cap == float("inf")):
            # Instantaneous (modulo latency) completion.
            def _finish_quick() -> None:
                done.succeed(
                    TransferResult(src, dst, int(nbytes), start, self.env.now, tag)
                )
                self.bytes_delivered += nbytes

            self.env.call_later(latency, _finish_quick)
            return done

        flow = Flow(
            next(self._fid),
            src,
            dst,
            links,
            nbytes,
            done,
            rate_cap=rate_cap,
            weight=weight,
            tag=tag,
            start=start,
        )

        def _register() -> None:
            now = self.env.now
            flow.start = now
            flow._last_update = now
            self._flows[flow.fid] = flow
            rate = self._alloc.add_flow(
                flow.fid,
                [lk.name for lk in links],
                weight=flow.weight,
                rate_cap=flow.rate_cap,
            )
            if rate is not None:
                # Short-circuit: this flow shares no link, its rate is
                # settled and nobody else's allocation moved.
                flow._rate = rate
            self._bank_progress()
            # A flow born (nearly) empty retires after the flows banking
            # just finished, as it is last in ``_flows``; banking has
            # already listed it if its rate is infinite.
            fin = self._finished
            if flow._remaining <= EPS_BYTES and not (fin and fin[-1] is flow):
                fin.append(flow)
            self._retire_finished()
            self._kick_engine()

        # Completion is driven by the engine process; registration needs no
        # process of its own — one recycled timer replaces the per-transfer
        # Process + init event + Timeout triple.
        self.env.call_later(latency, _register)
        return done

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _bank_progress(self) -> None:
        """Accrue bytes sent at current rates since the last update.

        Same-instant calls after the first are skipped entirely: banking
        over dt == 0 moves no bytes (infinite-rate flows, the one dt == 0
        exception, are drained by the engine's zero-dt branch at the same
        instant), so a burst of flow events at one timestamp pays a single
        O(flows) sweep.
        """
        now = self.env.now
        if now == self._last_bank:
            return
        self._last_bank = now
        inf = float("inf")
        delivered = 0.0
        finished = self._finished
        for flow in self._flows.values():
            rate = flow._rate
            dt = now - flow._last_update
            if rate == inf:
                delivered += flow._remaining
                flow._remaining = 0.0
                finished.append(flow)
            elif dt > 0 and rate > 0:
                rem = flow._remaining
                moved = rate * dt
                if moved > rem:
                    moved = rem
                rem -= moved
                delivered += moved
                if rem <= EPS_BYTES:
                    delivered += rem
                    rem = 0.0
                    finished.append(flow)
                flow._remaining = rem
            flow._last_update = now
        self.bytes_delivered += delivered

    def _reallocate(self) -> None:
        """Bank progress, retire finished flows and poke the engine.

        Fair rates are *not* recomputed here: the event only dirties the
        allocator, and the solve happens at most once per simulated
        instant — in :meth:`_flush_rates`, before the engine projects the
        next completion or an external caller reads flow rates.  Banked
        bytes are unaffected because no time passes in between.
        """
        self._bank_progress()
        self._retire_finished()
        self._kick_engine()

    def _retire_finished(self) -> None:
        finished = self._finished
        if not finished:
            return
        self._finished = []
        for f in finished:
            del self._flows[f.fid]
            self._alloc.remove_flow(f.fid)
            f.done.succeed(
                TransferResult(f.src, f.dst, int(f.nbytes), f.start, self.env.now, f.tag)
            )

    def _flush_rates(self) -> None:
        """Settle any pending re-allocation (affected components only)."""
        flows = self._flows
        for fid, rate in self._alloc.flush().items():
            flows[fid]._rate = rate

    def _kick_engine(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        elif not self._completion_proc_running and self._flows:
            self._completion_proc_running = True
            self.env.process(self._engine(), name=f"{self.name}-engine")

    def _next_completion(self) -> float:
        self._flush_rates()
        t = float("inf")
        for f in self._flows.values():
            if f._rate > 0:
                dt = f._remaining / f._rate
                if dt < t:
                    t = dt
        return t

    def _drain_subresolution(self, dt: float) -> None:
        """Directly finish flows whose projected completion is below the
        clock's float resolution (cannot drain by timing out)."""
        for f in self._flows.values():
            if f._rate > 0 and f._remaining / f._rate <= dt * (1 + 1e-9):
                self.bytes_delivered += f._remaining
                f._remaining = 0.0
                self._finished.append(f)
        self._retire_finished()

    def _engine(self) -> Iterable[Event]:
        """Sleeps until the earliest projected completion, retires flows,
        reallocates, repeats.  Woken early by :meth:`_reallocate` when the
        flow set changes."""
        try:
            while self._flows:
                dt = self._next_completion()
                if dt == float("inf"):
                    # All flows stalled (shouldn't happen); wait for a change.
                    self._wakeup = self.env.event()
                    yield self._wakeup
                    self._wakeup = None
                    continue
                if self.env.now + dt == self.env.now:
                    # dt is below the clock's float resolution: the nearly
                    # finished flows can never drain by timing out — finish
                    # them directly to avoid a zero-delay livelock.
                    self._drain_subresolution(dt)
                    continue
                # Sleep until the projected completion OR an early kick from
                # _reallocate.  A recycled kernel timer pokes the wakeup
                # event instead of a Timeout | Event AnyOf condition (three
                # allocations per engine cycle); a stale timer finds its
                # event already triggered and does nothing.
                self._wakeup = wake = self.env.event()
                self.env.call_later(
                    dt, lambda wake=wake: None if wake.triggered else wake.succeed(None)
                )
                yield wake
                self._wakeup = None
                self._bank_progress()
                self._retire_finished()
        finally:
            self._completion_proc_running = False

    def __repr__(self) -> str:
        return (
            f"<Fabric {self.name!r} nodes={len(self.nodes)} links={len(self.links)}"
            f" flows={len(self._flows)}>"
        )
