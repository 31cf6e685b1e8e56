"""Topology builders for the paper's archive site (Figure 7).

The CLUSTER'10 deployment:

* Roadrunner's scratch parallel file system (Panasas) reachable over a
  trunk of **two 10-Gigabit Ethernet links**;
* **10 FTA (file transfer agent) nodes** that mount both file systems and
  run PFTool; each has one 10GigE NIC and one FC4 HBA;
* **5 disk-server nodes** with internal arrays totalling 100 TB (the GPFS
  NSD servers), FC-attached;
* **24 LTO-4 tape drives** on the SAN (LAN-free targets);
* one **TSM server** (metadata path over Ethernet).

Capacities default to nominal hardware numbers: 10GigE = 1250 MB/s/link,
FC4 = 400 MB/s/HBA, LTO-4 native streaming = 120 MB/s (the paper quotes
~100 MB/s achieved for large files — that emerges from per-transaction
overheads in :mod:`repro.tapesim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.fabric import Fabric
from repro.sim import Environment

__all__ = ["ArchiveSiteTopology", "build_archive_site"]

MB = 1_000_000
GB = 1_000_000_000

#: nominal 10-gigabit Ethernet payload bandwidth, bytes/s
TEN_GIGE = 1250 * MB
#: nominal 4-gigabit Fibre Channel payload bandwidth, bytes/s
FC4 = 400 * MB
#: LTO-4 native (uncompressed) streaming rate, bytes/s
LTO4_NATIVE = 120 * MB


@dataclass
class ArchiveSiteTopology:
    """Node-name handles into the built :class:`Fabric`."""

    fabric: Fabric
    scratch: str
    lan_switch: str
    san_switch: str
    fta_nodes: list[str] = field(default_factory=list)
    disk_servers: list[str] = field(default_factory=list)
    tape_drive_ports: list[str] = field(default_factory=list)
    tsm_server: str = "tsm-server"

    @property
    def n_fta(self) -> int:
        return len(self.fta_nodes)

    @property
    def n_tape_drives(self) -> int:
        return len(self.tape_drive_ports)


def build_archive_site(
    env: Environment,
    n_fta: int = 10,
    n_disk_servers: int = 5,
    n_tape_drives: int = 24,
    trunk_links: int = 2,
    lan_link_bw: float = TEN_GIGE,
    fc_link_bw: float = FC4,
    scratch_bw: float = 10_000 * MB,
    lan_latency: float = 50e-6,
    san_latency: float = 10e-6,
) -> ArchiveSiteTopology:
    """Construct the paper's archive site as a :class:`Fabric`.

    The two physical trunk links are modelled as one logical link of
    ``trunk_links * lan_link_bw`` (standard LACP fluid approximation).

    Returns
    -------
    ArchiveSiteTopology with node names:
      * ``scratch`` — the Panasas scratch file system head
      * ``fta{i}`` — file transfer agent nodes
      * ``ds{i}`` — GPFS NSD disk servers
      * ``tapedrv{i}`` — SAN ports of the tape drives
      * ``tsm-server`` — the single TSM metadata server
    """
    if n_fta < 1 or n_disk_servers < 1 or n_tape_drives < 1:
        raise ValueError("node counts must be at least 1")
    fab = Fabric(env, name="archive-site")
    # the site fabric only: DiskArrays' private fabrics are not site traffic
    env.metrics.add("netsim.rate_recomputes", lambda: fab.rate_recomputes)
    env.metrics.add("netsim.bytes_delivered", lambda: fab.bytes_delivered)

    scratch = fab.add_node("scratch")
    lan = fab.add_node("lan-switch")
    san = fab.add_node("san-switch")

    # Scratch FS head: high aggregate bandwidth into the LAN, then the
    # 2x10GigE trunk is the narrow waist the paper saturates to ~75%.
    fab.add_link(scratch, lan, capacity=scratch_bw, latency=lan_latency,
                 name="scratch-uplink")
    fab.add_link(lan, "archive-lan", capacity=trunk_links * lan_link_bw,
                 latency=lan_latency, name="site-trunk")

    topo = ArchiveSiteTopology(
        fabric=fab, scratch=scratch, lan_switch=lan, san_switch=san
    )

    fta_nics: list[tuple] = []
    for i in range(n_fta):
        node = fab.add_node(f"fta{i}")
        nic_fwd, nic_rev = fab.add_link(
            "archive-lan", node, capacity=lan_link_bw,
            latency=lan_latency, name=f"nic-{node}")
        fab.add_link(node, san, capacity=fc_link_bw, latency=san_latency,
                     name=f"hba-{node}")
        topo.fta_nodes.append(node)
        fta_nics.append((node, nic_fwd, nic_rev))

    for i in range(n_disk_servers):
        node = fab.add_node(f"ds{i}")
        # Disk servers have two HBAs in the deployment; model as 2x FC4.
        fab.add_link(san, node, capacity=2 * fc_link_bw, latency=san_latency,
                     name=f"hba-{node}")
        # They are also on the LAN (NSD traffic from FTAs can ride either
        # path; the SAN path dominates and is the one modelled for data).
        fab.add_link("archive-lan", node, capacity=lan_link_bw,
                     latency=lan_latency, name=f"nic-{node}")
        topo.disk_servers.append(node)

    for i in range(n_tape_drives):
        node = fab.add_node(f"tapedrv{i}")
        fab.add_link(san, node, capacity=fc_link_bw, latency=san_latency,
                     name=f"fcport-{node}")
        topo.tape_drive_ports.append(node)

    tsm = fab.add_node("tsm-server")
    tsm_nic_fwd, tsm_nic_rev = fab.add_link(
        "archive-lan", tsm, capacity=lan_link_bw, latency=lan_latency,
        name="nic-tsm")
    fab.add_link(san, tsm, capacity=fc_link_bw, latency=san_latency,
                 name="hba-tsm")
    topo.tsm_server = tsm

    # Client<->server traffic is Ethernet traffic: TSM sessions speak IP.
    # Without pinning, Dijkstra would prefer the (lower-latency) SAN hop —
    # physically wrong: the SAN carries only block traffic to drives/LUNs.
    for node, nic_fwd, nic_rev in fta_nics:
        fab.set_route(node, tsm, [nic_rev, tsm_nic_fwd])
        fab.set_route(tsm, node, [tsm_nic_rev, nic_fwd])

    return topo
