"""Max-min fair rate allocation (progressive filling / water-filling).

Given a set of flows, each traversing a set of capacitated links, the
max-min fair allocation repeatedly finds the most-constrained link (the one
whose equal share per unfrozen flow is smallest), freezes every flow through
it at that share, removes the consumed capacity, and iterates.

:class:`MaxMinAllocator` does this incrementally: the fabric tells it
about every flow arrival, departure and capacity change, and it
re-solves only the allocation components those events touched.  The
batch reference solver it is property-tested against, and the plain
sorted-closure solver it must match bit for bit, live with the tests
(``tests/maxmin_oracle.py``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

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

    Float order is fixed wherever it can change a result, so replay is
    bit-identical across processes and hash seeds.  Only two sums are
    order-sensitive: a link's weight total and its per-round residual
    subtraction, and both run in ascending flow id.  Link and closure
    order feed only a ``min`` and set membership, so the closure is not
    sorted.  Each link caches its ascending-id weight total with its
    largest flow id: an arrival with a larger id extends the total by
    one addition (the same left fold); any other arrival or a departure
    drops the entry, and the next solve re-adds the link from scratch.
    A cached total is never reduced by subtraction, which would not
    undo the addition exactly.
    """

    __slots__ = (
        "_caps",
        "_flow_links",
        "_weights",
        "_link_flows",
        "_totals",
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
        #: link id -> (ascending-fid weight total, largest fid) of its flows
        self._totals: dict[Hashable, tuple[float, Hashable]] = {}
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
        self._weights[fid] = weight = float(weight)

        if not route:
            self._rates[fid] = _INF
            return _INF

        totals = self._totals
        shared = False
        for lk in route:
            peers = self._link_flows.get(lk)
            if peers is None:
                self._link_flows[lk] = {fid}
                totals[lk] = (weight, fid)  # 0.0 + weight
                continue
            shared = True
            peers.add(fid)
            tot = totals.pop(lk, None)
            if tot is not None and fid > tot[1]:
                totals[lk] = (tot[0] + weight, fid)
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
            self._totals.pop(lk, None)
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
        link_flows = self._link_flows
        stack = [lk for lk in self._dirty if lk in link_flows]
        self._dirty.clear()
        if not stack:
            return {}
        self.solves += 1
        caps = self._caps
        weights = self._weights
        flow_links = self._flow_links
        totals = self._totals

        # One pass discovers the closure and builds its solve state:
        # link -> [residual capacity, unfrozen weight, unfrozen flows].
        live: dict[Hashable, list] = {}
        active: set[Hashable] = set()
        while stack:
            lk = stack.pop()
            if lk in live:
                continue
            users = link_flows[lk]
            tot = totals.get(lk)
            if tot is None:
                order = sorted(users)
                t = 0.0
                for fid in order:
                    t += weights[fid]
                totals[lk] = tot = (t, order[-1])
            live[lk] = [caps[lk], tot[0], len(users)]
            new = users - active
            if new:
                active |= new
                for fid in new:
                    stack.extend(flow_links[fid])

        rates: dict[Hashable, float] = {}
        while True:
            ratio = {}
            share = _INF
            for lk, st in live.items():
                if st[1] > 0.0:
                    s = ratio[lk] = st[0] / st[1]
                    if s < share:
                        share = s
            if share == _INF:
                rates.update(dict.fromkeys(active, _INF))
                break
            cutoff = share * (1 + 1e-12)
            frozen: set[Hashable] = set()
            for lk, s in ratio.items():
                if s <= cutoff:
                    frozen |= link_flows[lk]
            frozen &= active
            if not frozen or len(frozen) == len(active):
                # Last round (or the numerical corner): everyone left
                # freezes at this share and no residual is read again.
                for fid in active:
                    rates[fid] = share * weights[fid]
                break
            # Residuals and weight totals shrink in ascending fid order.
            for fid in sorted(frozen):
                w = weights[fid]
                r = share * w
                rates[fid] = r
                for lk in flow_links[fid]:
                    st = live[lk]
                    rem = st[0] - r
                    st[0] = rem if rem > 0.0 else 0.0
                    st[1] -= w
                    st[2] -= 1
                    if not st[2]:
                        # by count: the weight total may keep an epsilon
                        # residue that must not pose as a bottleneck
                        del live[lk]
            active -= frozen
        self._rates.update(rates)
        return rates
