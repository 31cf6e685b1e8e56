"""Batch max-min fair solver: the reference oracle for the netsim tests.

A from-scratch progressive-filling solve over the whole problem, written
for clarity rather than speed.  The incremental
:class:`repro.netsim.MaxMinAllocator` must agree with it (up to float
summation order) after any history of flow and capacity events.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence


def max_min_fair_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    link_capacity: Mapping[Hashable, float],
    flow_weight: Mapping[Hashable, float] | None = None,
    rate_cap: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Compute weighted max-min fair rates.

    Parameters
    ----------
    flow_links:
        flow id -> iterable of link ids the flow traverses.  A flow with no
        links (an intra-node copy) is only bounded by its ``rate_cap``.
    link_capacity:
        link id -> capacity (bytes/s).  ``inf`` allowed.
    flow_weight:
        Optional flow id -> weight (default 1.0).  A flow with weight w gets
        w shares at each bottleneck.
    rate_cap:
        Optional flow id -> absolute rate ceiling (e.g. a tape drive's
        native streaming rate).  Modelled as a private virtual link.

    Returns
    -------
    dict mapping flow id -> allocated rate (bytes/s).

    Invariants (property-tested):
      * no link's total allocated rate exceeds its capacity (within 1e-6)
      * every flow is bottlenecked: it crosses at least one saturated link,
        or sits at its rate cap, or is unconstrained (infinite rate)
    """
    weights = dict(flow_weight or {})
    caps: dict[Hashable, float] = {k: float(v) for k, v in link_capacity.items()}

    # Translate per-flow rate caps into private virtual links.
    links_of: dict[Hashable, list[Hashable]] = {}
    for fid, links in flow_links.items():
        lst = list(links)
        if rate_cap and fid in rate_cap and rate_cap[fid] != float("inf"):
            vlink = ("__cap__", fid)
            caps[vlink] = float(rate_cap[fid])
            lst.append(vlink)
        links_of[fid] = lst

    unknown = {
        lk for lst in links_of.values() for lk in lst if lk not in caps
    }
    if unknown:
        raise KeyError(f"flows reference links with no capacity: {sorted(map(str, unknown))}")

    rates: dict[Hashable, float] = {}
    active = set(links_of)
    remaining = dict(caps)

    # flows per link (only unfrozen flows counted each round)
    while active:
        # Weighted share each link could give per unit weight.
        share_per_link: dict[Hashable, float] = {}
        link_users: dict[Hashable, float] = {}
        for fid in active:
            w = weights.get(fid, 1.0)
            for lk in links_of[fid]:
                link_users[lk] = link_users.get(lk, 0.0) + w
        for lk, tot_w in link_users.items():
            cap = remaining[lk]
            share_per_link[lk] = cap / tot_w if tot_w > 0 else float("inf")

        if not share_per_link:
            # No flow crosses any link: all remaining flows unconstrained.
            for fid in active:
                rates[fid] = float("inf")
            break

        bottleneck_share = min(share_per_link.values())
        if bottleneck_share == float("inf"):
            for fid in active:
                rates[fid] = float("inf")
            break

        saturated = {
            lk for lk, s in share_per_link.items() if s <= bottleneck_share * (1 + 1e-12)
        }
        frozen = {
            fid
            for fid in active
            if any(lk in saturated for lk in links_of[fid])
        }
        if not frozen:  # numerical corner: freeze everything at the share
            frozen = set(active)
        for fid in frozen:
            w = weights.get(fid, 1.0)
            r = bottleneck_share * w
            rates[fid] = r
            for lk in links_of[fid]:
                remaining[lk] = max(0.0, remaining[lk] - r)
        active -= frozen

    return rates


class SortedClosureAllocator:
    """Bit-exact reference for :class:`repro.netsim.MaxMinAllocator`.

    The same incremental solver written the plain way: every flush sorts
    its closure (flows by id, links by ``repr``), re-adds every link's
    weight total in ascending flow id from scratch, and keeps the full
    residual bookkeeping in every round, the last one included.  The
    allocator's cached totals, unsorted closure and last-round shortcut
    must reproduce it float for float, so the tests compare with ``==``.
    """

    def __init__(self) -> None:
        self.caps: dict = {}
        self.flow_links: dict = {}
        self.weights: dict = {}
        self.link_flows: dict = {}
        self.rates: dict = {}
        self.dirty: set = set()
        self.solves = 0

    def set_capacity(self, link, capacity: float) -> None:
        capacity = float(capacity)
        if self.caps.get(link) == capacity:
            return
        self.caps[link] = capacity
        if self.link_flows.get(link):
            self.dirty.add(link)

    def add_flow(self, fid, links, weight: float = 1.0, rate_cap: float = float("inf")):
        route = list(links)
        if rate_cap != float("inf"):
            self.caps[("__cap__", fid)] = float(rate_cap)
            route.append(("__cap__", fid))
        self.flow_links[fid] = tuple(route)
        self.weights[fid] = float(weight)
        if not route:
            self.rates[fid] = float("inf")
            return float("inf")
        shared = False
        for lk in route:
            peers = self.link_flows.setdefault(lk, set())
            shared = shared or bool(peers)
            peers.add(fid)
        if not shared:
            self.rates[fid] = min(self.caps[lk] for lk in route)
            return self.rates[fid]
        self.rates[fid] = 0.0
        self.dirty.update(route)
        return None

    def remove_flow(self, fid) -> None:
        route = self.flow_links.pop(fid)
        del self.weights[fid]
        self.rates.pop(fid, None)
        for lk in route:
            peers = self.link_flows[lk]
            peers.discard(fid)
            if peers:
                self.dirty.add(lk)
            else:
                del self.link_flows[lk]
        if route and route[-1] == ("__cap__", fid):
            del self.caps[route[-1]]
        self.dirty.discard(("__cap__", fid))

    def flush(self) -> dict:
        seen_links = {lk for lk in self.dirty if lk in self.link_flows}
        self.dirty.clear()
        seen_flows: set = set()
        stack = list(seen_links)
        while stack:
            for fid in self.link_flows[stack.pop()]:
                if fid not in seen_flows:
                    seen_flows.add(fid)
                    for nlk in self.flow_links[fid]:
                        if nlk not in seen_links:
                            seen_links.add(nlk)
                            stack.append(nlk)
        if not seen_flows:
            return {}
        self.solves += 1
        links = sorted(seen_links, key=repr)
        remaining = {lk: self.caps[lk] for lk in links}
        tot_w: dict = {}
        n_on: dict = {}
        for lk in links:
            t = 0.0
            for fid in sorted(self.link_flows[lk]):
                t += self.weights[fid]
            tot_w[lk] = t
            n_on[lk] = len(self.link_flows[lk])
        rates: dict = {}
        active = set(seen_flows)
        while active:
            live = [lk for lk in links if n_on[lk] > 0 and tot_w[lk] > 0.0]
            share = min((remaining[lk] / tot_w[lk] for lk in live), default=float("inf"))
            if share == float("inf"):
                rates.update(dict.fromkeys(active, float("inf")))
                break
            cutoff = share * (1 + 1e-12)
            frozen = {
                fid
                for lk in live if remaining[lk] / tot_w[lk] <= cutoff
                for fid in self.link_flows[lk] if fid in active
            } or set(active)
            for fid in sorted(frozen):
                w = self.weights[fid]
                rates[fid] = share * w
                for lk in self.flow_links[fid]:
                    remaining[lk] = max(0.0, remaining[lk] - share * w)
                    tot_w[lk] -= w
                    n_on[lk] -= 1
            active -= frozen
        self.rates.update(rates)
        return rates
