"""Network/SAN fabric simulation.

Models the archive's data paths — 10GigE LAN links, FC4 SAN links, HBAs,
switches — as a graph of capacitated links.  Active transfers are *flows*;
whenever a flow starts or finishes the fabric recomputes a **max-min fair**
rate allocation (the standard fluid model for long-lived TCP/FC streams) and
re-projects every flow's completion time.

This is the substrate that makes the paper's bandwidth numbers emerge from
contention rather than being hard-coded: e.g. Figure 10's ~75% utilisation
of a 2x10GigE trunk arises from many PFTool workers sharing the trunk links.

Public surface: :class:`Fabric`, :class:`Link`, :class:`Flow` and
:class:`MaxMinAllocator` (the incremental fair-share solver driving the
fabric), plus topology builders in :mod:`repro.netsim.topology`.
"""

from repro.netsim.fabric import Fabric, Flow, Link, TransferResult
from repro.netsim.maxmin import MaxMinAllocator
from repro.netsim.topology import ArchiveSiteTopology, build_archive_site

__all__ = [
    "ArchiveSiteTopology",
    "Fabric",
    "Flow",
    "Link",
    "MaxMinAllocator",
    "TransferResult",
    "build_archive_site",
]
