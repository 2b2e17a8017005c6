"""Graph partitioning for multi-device execution.

Push-based multi-GPU processing partitions by *source ownership*: a
device owns a set of nodes and holds exactly the edges leaving them
(so every push a device computes originates locally).  Destination
nodes may be remote; their updates become interconnect messages.

Two standard strategies:

* :func:`range_partition` — contiguous node ranges balanced by edge
  count (what TOTEM does by default; preserves locality of ordered
  graphs);
* :func:`hash_partition` — round-robin ownership (destroys locality
  but balances hub placement, the poor man's PowerLyra).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import from_arrays
from repro.graph.csr import CSRGraph, NODE_DTYPE


@dataclass(frozen=True)
class Partition:
    """One device's share of the graph.

    ``subgraph`` keeps *global* node ids (it has the full node count
    but only the owned nodes' out-edges), so value arrays stay global
    and no id translation is needed — the simplification TOTEM calls
    the "global state" layout.
    """

    device: int
    owned: np.ndarray
    subgraph: CSRGraph

    @property
    def num_owned(self) -> int:
        return len(self.owned)

    @property
    def num_edges(self) -> int:
        return self.subgraph.num_edges

    def owns(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``nodes`` this device owns."""
        mask = np.zeros(self.subgraph.num_nodes, dtype=bool)
        mask[self.owned] = True
        return mask[nodes]


def _build(graph: CSRGraph, owner: np.ndarray, num_devices: int) -> List[Partition]:
    src, dst, weights = graph.to_coo()
    edge_owner = owner[src]
    partitions = []
    for device in range(num_devices):
        keep = edge_owner == device
        subgraph = from_arrays(
            src[keep], dst[keep],
            None if weights is None else weights[keep],
            num_nodes=graph.num_nodes,
        )
        owned = np.flatnonzero(owner == device).astype(NODE_DTYPE)
        partitions.append(Partition(device=device, owned=owned, subgraph=subgraph))
    return partitions


def range_partition(graph: CSRGraph, num_devices: int) -> List[Partition]:
    """Contiguous ranges with (approximately) equal edge counts.

    Boundaries are placed on the cumulative outdegree curve so each
    device gets ~|E|/D edges regardless of where the hubs sit.
    """
    if num_devices < 1:
        raise GraphError("num_devices must be >= 1")
    n = graph.num_nodes
    owner = np.zeros(n, dtype=np.int64)
    if n:
        cumulative = np.cumsum(graph.out_degrees())
        total = int(cumulative[-1]) if len(cumulative) else 0
        if total:
            targets = np.arange(1, num_devices) * (total / num_devices)
            boundaries = np.searchsorted(cumulative, targets)
            owner = np.searchsorted(boundaries, np.arange(n), side="right")
        else:
            owner = (np.arange(n) * num_devices) // max(n, 1)
    return _build(graph, owner, num_devices)


def hash_partition(graph: CSRGraph, num_devices: int) -> List[Partition]:
    """Round-robin node ownership (id modulo device count)."""
    if num_devices < 1:
        raise GraphError("num_devices must be >= 1")
    owner = np.arange(graph.num_nodes, dtype=np.int64) % num_devices
    return _build(graph, owner, num_devices)


def partition_balance(partitions: List[Partition]) -> float:
    """Edge imbalance: max device edges over mean (1.0 = perfect)."""
    edges = [p.num_edges for p in partitions]
    mean = sum(edges) / max(len(edges), 1)
    if mean == 0:
        return 1.0
    return max(edges) / mean


@dataclass(frozen=True)
class MirroredPartition(Partition):
    """A partition that also hosts *mirror* slices of non-owned hubs.

    ``mirrored`` lists the high-degree nodes whose out-edge slices this
    device executes although another device masters their value —
    PowerLyra's vertex-cut for the skewed tail.  Every time such a
    hub's value changes, the master must ship it to this mirror before
    the next superstep: the *explicit synchronization* §7.1 contrasts
    with Tigr's implicit one.
    """

    mirrored: np.ndarray = None  # type: ignore[assignment]


def powerlyra_partition(
    graph: CSRGraph,
    num_devices: int,
    *,
    high_degree_threshold: Optional[int] = None,
) -> List[MirroredPartition]:
    """PowerLyra-style differentiated partitioning [9].

    Low-degree nodes are edge-partitioned by owner (as in
    :func:`range_partition`); high-degree nodes' out-edges are *split
    round-robin across all devices* (vertex-cut), so no single device
    carries a whole hub.  The threshold defaults to ``|E| / |V| * 8``
    — roughly PowerLyra's "high-degree" regime on power-law inputs.

    The structural kinship with Tigr's split transformation is exactly
    what §7.1 discusses; the differences (explicit mirror sync,
    replication) are what the multi-GPU engine charges for.
    """
    if num_devices < 1:
        raise GraphError("num_devices must be >= 1")
    n = graph.num_nodes
    degrees = graph.out_degrees()
    if high_degree_threshold is None:
        mean = graph.num_edges / max(n, 1)
        high_degree_threshold = max(8, int(mean * 8))
    high = degrees > high_degree_threshold

    # Owners: low-degree nodes by balanced ranges over their edges;
    # high-degree nodes are mastered round-robin.
    owner = np.zeros(n, dtype=np.int64)
    low_nodes = np.flatnonzero(~high)
    if len(low_nodes):
        cumulative = np.cumsum(degrees[low_nodes])
        total = int(cumulative[-1]) if len(cumulative) else 0
        if total:
            targets = np.arange(1, num_devices) * (total / num_devices)
            boundaries = np.searchsorted(cumulative, targets)
            owner[low_nodes] = np.searchsorted(
                boundaries, np.arange(len(low_nodes)), side="right"
            )
        else:
            owner[low_nodes] = (np.arange(len(low_nodes)) * num_devices) // max(
                len(low_nodes), 1
            )
    high_nodes = np.flatnonzero(high)
    owner[high_nodes] = np.arange(len(high_nodes)) % num_devices

    src, dst, weights = graph.to_coo()
    # Edge placement: low-degree edges follow their owner; high-degree
    # edges round-robin across devices by slot index.
    edge_device = owner[src].copy()
    high_edge = high[src]
    edge_device[high_edge] = np.arange(int(high_edge.sum())) % num_devices

    partitions: List[MirroredPartition] = []
    for device in range(num_devices):
        keep = edge_device == device
        subgraph = from_arrays(
            src[keep], dst[keep],
            None if weights is None else weights[keep],
            num_nodes=n,
        )
        owned = np.flatnonzero(owner == device).astype(NODE_DTYPE)
        sources_here = np.unique(src[keep])
        mirrored = sources_here[
            high[sources_here] & (owner[sources_here] != device)
        ].astype(NODE_DTYPE)
        partitions.append(
            MirroredPartition(
                device=device, owned=owned, subgraph=subgraph, mirrored=mirrored
            )
        )
    return partitions


def mirror_count(partitions: List[MirroredPartition]) -> int:
    """Total (hub, mirror-device) replicas across the partitioning."""
    return int(sum(len(p.mirrored) for p in partitions if p.mirrored is not None))
