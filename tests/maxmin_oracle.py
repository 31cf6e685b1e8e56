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
