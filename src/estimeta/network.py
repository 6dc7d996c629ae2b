"""Evidence-network graph for one (endpoint, estimand) slice.

Treatments are nodes; every contrast contributes one edge (parallel edges
are kept, since each carries independent evidence).  One signed incidence
matrix (edges x nodes) underlies the weighted Laplacian, the rank check and
the engine's GLS design.  Connectivity is decided once per network, twice
over -- by breadth-first traversal and by the rank of the
inverse-variance-weighted Laplacian, taken as the rank of its square root,
the sqrt-weight-scaled incidence matrix -- and the two answers must agree.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .estimands import canonical
from .ingest import ContrastEstimate


class NetworkError(ValueError):
    pass


class ConnectivityCheckError(RuntimeError):
    """Traversal and Laplacian-rank connectivity disagree (degenerate weights)."""


@dataclass(frozen=True)
class Edge:
    trial_id: str
    treatment: str
    comparator: str
    weight: float  # 1 / se^2


@dataclass(frozen=True)
class EvidenceNetwork:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    trial_designs: Mapping[str, frozenset[str]]
    contrasts: tuple[ContrastEstimate, ...] = ()
    # canonical node -> index, and the (treatment, comparator) node indices of each edge
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    ends: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {canonical(node): i for i, node in enumerate(self.nodes)})
        ends = tuple((self.node_index(e.treatment), self.node_index(e.comparator)) for e in self.edges)
        object.__setattr__(self, "ends", ends)

    def node_index(self, treatment: str) -> int:
        i = self.index.get(canonical(treatment))
        if i is None:
            raise NetworkError(f"unknown treatment {treatment!r}")
        return i

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node index -> [(neighbour index, edge index)] in deterministic order."""
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.nodes))}
        for e_idx, (u, v) in enumerate(self.ends):
            adj[u].append((v, e_idx))
            adj[v].append((u, e_idx))
        for entries in adj.values():
            entries.sort()
        return adj

    @cached_property
    def connected(self) -> bool:
        """Connectivity verdict, decided on first use and kept (see `is_connected`)."""
        if not self.nodes:
            raise NetworkError("network has no nodes")
        by_traversal = len(connected_components(self)) == 1
        by_rank = laplacian_connected(self)
        if by_traversal != by_rank:
            raise ConnectivityCheckError(
                f"connectivity checks disagree (traversal={by_traversal}, laplacian={by_rank}); "
                "edge weights span too many orders of magnitude"
            )
        return by_traversal


def build_network(contrasts: Sequence[ContrastEstimate]) -> EvidenceNetwork:
    """Build the slice graph; deterministic regardless of input order."""
    if not contrasts:
        raise NetworkError("cannot build a network from an empty contrast list")
    endpoints = {c.endpoint for c in contrasts}
    if len(endpoints) > 1:
        raise NetworkError(f"contrasts mix endpoints: {sorted(endpoints)}")

    ordered = sorted(
        range(len(contrasts)),
        key=lambda i: (contrasts[i].trial_id, contrasts[i].treatment_key, contrasts[i].comparator_key),
    )
    nodes: dict[str, str] = {}  # canonical -> display, insertion ordered
    edges: list[Edge] = []
    designs: dict[str, set[str]] = {}
    for i in ordered:
        c = contrasts[i]
        nodes.setdefault(c.treatment_key, c.treatment)
        nodes.setdefault(c.comparator_key, c.comparator)
        edges.append(
            Edge(trial_id=c.trial_id, treatment=c.treatment, comparator=c.comparator, weight=1.0 / c.se**2)
        )
        designs.setdefault(c.trial_id, set()).update({c.treatment, c.comparator})
    return EvidenceNetwork(
        nodes=tuple(nodes.values()),
        edges=tuple(edges),
        trial_designs={tid: frozenset(arms) for tid, arms in sorted(designs.items())},
        contrasts=tuple(contrasts[i] for i in ordered),
    )


def incidence(net: EvidenceNetwork) -> np.ndarray:
    """Signed edges x nodes incidence matrix: +1 at the treatment, -1 at the comparator."""
    matrix = np.zeros((len(net.edges), len(net.nodes)))
    for row, (u, v) in enumerate(net.ends):
        matrix[row, u], matrix[row, v] = 1.0, -1.0
    return matrix


def laplacian(net: EvidenceNetwork) -> np.ndarray:
    """Weighted graph Laplacian B'WB, edge weights 1/se^2."""
    b = incidence(net)
    weights = np.array([e.weight for e in net.edges])
    return b.T @ (weights[:, None] * b)


def laplacian_connected(net: EvidenceNetwork) -> bool:
    """Laplacian rank n - 1, read off the sqrt-weight-scaled incidence matrix.

    L = B'WB, so sqrt(W)B has the square roots of L's eigenvalues as its
    singular values: their spread is the square root of L's, which keeps a
    connected graph with widely spread weights clear of the rank tolerance.
    """
    n = len(net.nodes)
    if n <= 1:
        return True
    roots = np.sqrt([e.weight for e in net.edges])
    return int(np.linalg.matrix_rank(roots[:, None] * incidence(net))) == n - 1


def connected_components(net: EvidenceNetwork) -> tuple[tuple[str, ...], ...]:
    """Partition of nodes into components, both deterministically ordered."""
    adj = net.adjacency()
    unvisited = dict.fromkeys(range(len(net.nodes)))
    components: list[tuple[str, ...]] = []
    while unvisited:
        start = next(iter(unvisited))
        queue: deque[int] = deque([start])
        del unvisited[start]
        members = [start]
        while queue:
            node = queue.popleft()
            for neighbour, _ in adj[node]:
                if neighbour in unvisited:
                    del unvisited[neighbour]
                    members.append(neighbour)
                    queue.append(neighbour)
        components.append(tuple(net.nodes[i] for i in sorted(members)))
    return tuple(components)


def is_connected(net: EvidenceNetwork) -> bool:
    """True iff one undirected component spans all nodes.

    Computed by traversal and cross-checked against the Laplacian rank
    criterion; a disagreement indicates a numerical problem and raises.
    The verdict is decided once per network and kept.
    """
    return net.connected


def anchoring_path(net: EvidenceNetwork, a: str, b: str) -> Optional[tuple[Edge, ...]]:
    """Shortest path (by edge count) between two treatments, or None.

    Ties are broken by deterministic node order; between parallel edges the
    lowest-index edge is used.
    """
    start, goal = net.node_index(a), net.node_index(b)
    if start == goal:
        return ()
    adj = net.adjacency()
    previous: dict[int, tuple[int, int]] = {}  # node -> (parent node, edge index)
    queue: deque[int] = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for neighbour, e_idx in adj[node]:
            if neighbour in seen:
                continue
            seen.add(neighbour)
            previous[neighbour] = (node, e_idx)
            if neighbour == goal:
                queue.clear()
                break
            queue.append(neighbour)
    if goal not in previous:
        return None
    path: list[Edge] = []
    node = goal
    while node != start:
        parent, e_idx = previous[node]
        path.append(net.edges[e_idx])
        node = parent
    return tuple(reversed(path))


def export_edge_list(net: EvidenceNetwork) -> str:
    """One edge per line: trial_id, treatment, comparator, weight."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for edge in net.edges:
        writer.writerow([edge.trial_id, edge.treatment, edge.comparator, repr(edge.weight)])
    return out.getvalue()
