"""Max-min fair rate allocation (progressive filling / water-filling).

Given a set of flows, each traversing a set of capacitated links, the
max-min fair allocation repeatedly finds the most-constrained link (the one
whose equal share per unfrozen flow is smallest), freezes every flow through
it at that share, removes the consumed capacity, and iterates.

:class:`MaxMinAllocator` does this incrementally: the fabric tells it
about every flow arrival, departure and capacity change, and it
re-solves only the allocation components those events touched.  The
batch reference solver it is property-tested against lives with the
tests (``tests/maxmin_oracle.py``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

__all__ = ["MaxMinAllocator"]

_INF = float("inf")


class MaxMinAllocator:
    """Incremental weighted max-min fair allocator.

    Maintains the flow/link incidence structure across events so the
    fabric does not rebuild the whole problem on every flow arrival,
    departure or capacity change.  Two mechanisms make it fast:

    * **short-circuits** — a flow whose links carry no other flow (and
      the cap-only / link-less flows) gets its rate in O(route length)
      with no global solve, and provably cannot move anyone else's
      bottleneck;
    * **dirty-link closure** — an event dirties only the touched route;
      :meth:`flush` recomputes just the flows reachable from dirty links
      through shared links (the affected connected components), leaving
      every other component's rates untouched.

    Max-min fairness decomposes over connected components of the
    flow-link incidence graph (no shared link, no interaction), so the
    closure-restricted solve yields the same allocation as a full batch
    solve up to float-summation order; the property tests pin the two
    together across randomized topologies.

    Iteration order is made explicit (sorted links, ascending flow ids)
    wherever it affects float accumulation, preserving the kernel's
    bit-identical-replay guarantee across processes.
    """

    __slots__ = (
        "_caps",
        "_flow_links",
        "_weights",
        "_link_flows",
        "_rates",
        "_dirty",
        "solves",
    )

    def __init__(self) -> None:
        #: link id -> capacity (includes per-flow virtual cap links)
        self._caps: dict[Hashable, float] = {}
        #: flow id -> tuple of link ids (virtual cap link last, if any)
        self._flow_links: dict[Hashable, tuple[Hashable, ...]] = {}
        self._weights: dict[Hashable, float] = {}
        #: link id -> set of flow ids currently crossing it
        self._link_flows: dict[Hashable, set[Hashable]] = {}
        #: fid -> rate
        self._rates: dict[Hashable, float] = {}
        #: links whose flow set / capacity changed since the last flush
        self._dirty: set[Hashable] = set()
        #: number of closure solves performed (perf accounting)
        self.solves = 0

    # -- topology ------------------------------------------------------
    def set_capacity(self, link: Hashable, capacity: float) -> None:
        """Register *link* or change its capacity (dirties its flows)."""
        capacity = float(capacity)
        if self._caps.get(link) == capacity:
            return
        self._caps[link] = capacity
        if self._link_flows.get(link):
            self._dirty.add(link)

    # -- flows ---------------------------------------------------------
    def add_flow(
        self,
        fid: Hashable,
        links: Iterable[Hashable],
        weight: float = 1.0,
        rate_cap: float = _INF,
    ) -> Optional[float]:
        """Add a flow; returns its rate when decidable without a solve.

        Returns the final rate for the short-circuit cases (no links, or
        no link shared with another flow) and ``None`` when the affected
        component must be re-solved — call :meth:`flush` to settle.
        """
        if fid in self._flow_links:
            raise ValueError(f"duplicate flow id {fid!r}")
        route = list(links)
        for lk in route:
            if lk not in self._caps:
                raise KeyError(f"flow {fid!r} references unknown link {lk!r}")
        if rate_cap != _INF:
            vlink = ("__cap__", fid)
            self._caps[vlink] = float(rate_cap)
            route.append(vlink)
        self._flow_links[fid] = tuple(route)
        self._weights[fid] = float(weight)

        if not route:
            self._rates[fid] = _INF
            return _INF

        shared = False
        for lk in route:
            peers = self._link_flows.get(lk)
            if peers is None:
                self._link_flows[lk] = {fid}
            else:
                shared = shared or bool(peers)
                peers.add(fid)
        if not shared:
            # Alone on every link: my rate is the tightest capacity and
            # nobody else's bottleneck moved.
            rate = min(self._caps[lk] for lk in route)
            self._rates[fid] = rate
            return rate
        self._rates[fid] = 0.0
        self._dirty.update(route)
        return None

    def remove_flow(self, fid: Hashable) -> None:
        """Remove a flow, dirtying links it shared with surviving flows."""
        route = self._flow_links.pop(fid)
        del self._weights[fid]
        self._rates.pop(fid, None)
        for lk in route:
            peers = self._link_flows.get(lk)
            if peers is not None:
                peers.discard(fid)
                if peers:
                    self._dirty.add(lk)
                else:
                    del self._link_flows[lk]
        if route and route[-1] == ("__cap__", fid):
            del self._caps[route[-1]]
        self._dirty.discard(("__cap__", fid))

    # -- solving -------------------------------------------------------
    @property
    def dirty(self) -> bool:
        return bool(self._dirty)

    def rate(self, fid: Hashable) -> float:
        """Current rate of *fid* (flush first for a settled value)."""
        return self._rates[fid]

    @property
    def rates(self) -> dict[Hashable, float]:
        """fid -> rate mapping (flush first for settled values)."""
        return self._rates

    def flush(self) -> dict[Hashable, float]:
        """Re-solve the components reachable from dirty links.

        Returns {fid: new rate} for exactly the recomputed flows (empty
        when nothing was dirty).
        """
        if not self._dirty:
            return {}
        flows, links = self._closure()
        self._dirty.clear()
        if not flows:
            return {}
        self.solves += 1
        updated = self._solve(flows, links)
        self._rates.update(updated)
        return updated

    def _closure(self) -> tuple[list[Hashable], list[Hashable]]:
        """Flows and links transitively connected to any dirty link."""
        link_flows = self._link_flows
        flow_links = self._flow_links
        seen_links: set[Hashable] = set()
        seen_flows: set[Hashable] = set()
        stack = [lk for lk in self._dirty if lk in link_flows]
        seen_links.update(stack)
        while stack:
            lk = stack.pop()
            for fid in link_flows[lk]:
                if fid in seen_flows:
                    continue
                seen_flows.add(fid)
                for nlk in flow_links[fid]:
                    if nlk not in seen_links:
                        seen_links.add(nlk)
                        stack.append(nlk)
        # Deterministic processing order regardless of set/hash history:
        # flow ids are sortable ints in the fabric; link ids are strings
        # or ("__cap__", fid) tuples, ordered by repr for mixed types.
        flows = sorted(seen_flows)
        links = sorted(seen_links, key=repr)
        return flows, links

    def _solve(
        self, flows: Sequence[Hashable], links: Sequence[Hashable]
    ) -> dict[Hashable, float]:
        """Water-fill one closure with incremental per-round bookkeeping."""
        caps = self._caps
        weights = self._weights
        flow_links = self._flow_links
        link_flows = self._link_flows

        remaining: dict[Hashable, float] = {lk: caps[lk] for lk in links}
        tot_w: dict[Hashable, float] = {}
        #: exact count of unfrozen flows per link — the float weight total
        #: is maintained by subtraction and may keep an epsilon residue
        #: after its last flow froze, which must not masquerade as a
        #: zero-share bottleneck
        n_on: dict[Hashable, int] = {}
        for lk in links:
            users = link_flows[lk]
            t = 0.0
            # ascending-fid accumulation: a fixed float summation order,
            # independent of set/hash history
            for fid in sorted(users):
                t += weights[fid]
            tot_w[lk] = t
            n_on[lk] = len(users)

        rates: dict[Hashable, float] = {}
        active: set[Hashable] = set(flows)
        while active:
            share = _INF
            for lk, t in tot_w.items():
                if n_on[lk] > 0 and t > 0.0:
                    s = remaining[lk] / t
                    if s < share:
                        share = s
            if share == _INF:
                for fid in active:
                    rates[fid] = _INF
                break
            cutoff = share * (1 + 1e-12)
            saturated = [
                lk for lk, t in tot_w.items()
                if n_on[lk] > 0 and t > 0.0 and remaining[lk] / t <= cutoff
            ]
            frozen: set[Hashable] = set()
            for lk in saturated:
                for fid in link_flows[lk]:
                    if fid in active:
                        frozen.add(fid)
            if not frozen:  # numerical corner: freeze everything
                frozen = set(active)
            for fid in sorted(frozen):
                w = weights[fid]
                r = share * w
                rates[fid] = r
                for lk in flow_links[fid]:
                    rem = remaining[lk] - r
                    remaining[lk] = rem if rem > 0.0 else 0.0
                    tot_w[lk] -= w
                    n_on[lk] -= 1
            active -= frozen
        return rates
