"""Evidence-network graph for one (endpoint, estimand) slice.

Treatments are nodes; the slice's contrasts are the edges, weighted 1/se^2,
their node indices read off their own treatment and comparator keys (parallel
edges are kept, since each carries independent evidence).  One signed
incidence matrix (edges x nodes) underlies the rank check and the engine's
GLS design.  An analysis decides connectivity by breadth-first traversal
alone and leaves the numerics to the solve; `is_connected`, for a caller
that does not solve, also checks the rank of the sqrt-weight-scaled
incidence matrix, and the two answers must agree.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .estimands import canonical
from .ingest import ContrastEstimate


class NetworkError(ValueError):
    pass


class ConnectivityCheckError(RuntimeError):
    """Traversal and Laplacian-rank connectivity disagree (degenerate weights)."""


@dataclass(frozen=True)
class EvidenceNetwork:
    nodes: tuple[str, ...]
    edges: tuple[ContrastEstimate, ...]  # in (trial id, treatment key, comparator key) order
    # canonical node -> index, and the (treatment, comparator) node indices of each edge
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    ends: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", index := {canonical(node): i for i, node in enumerate(self.nodes)})
        try:
            ends = tuple((index[e.treatment_key], index[e.comparator_key]) for e in self.edges)
        except KeyError:  # name the first unknown end, in edge order, as its edge spells it
            for e in self.edges:
                self._lookup(e.treatment_key, e.treatment)
                self._lookup(e.comparator_key, e.comparator)
        object.__setattr__(self, "ends", ends)

    def node_index(self, treatment: str) -> int:
        return self._lookup(canonical(treatment), treatment)

    def _lookup(self, key: str, treatment: str) -> int:
        if (i := self.index.get(key)) is None:
            raise NetworkError(f"unknown treatment {treatment!r}")
        return i


def build_network(contrasts: Sequence[ContrastEstimate]) -> EvidenceNetwork:
    """Build the slice graph; deterministic regardless of input order."""
    if not contrasts:
        raise NetworkError("cannot build a network from an empty contrast list")
    endpoints = {c.endpoint for c in contrasts}
    if len(endpoints) > 1:
        raise NetworkError(f"contrasts mix endpoints: {sorted(endpoints)}")

    edges = sorted(contrasts, key=lambda c: (c.trial_id, c.treatment_key, c.comparator_key))
    nodes: dict[str, str] = {}  # canonical -> display, insertion ordered
    for c in edges:
        nodes.setdefault(c.treatment_key, c.treatment)
        nodes.setdefault(c.comparator_key, c.comparator)
    return EvidenceNetwork(nodes=tuple(nodes.values()), edges=tuple(edges))


def _weight(edge: ContrastEstimate) -> float:
    return 1.0 / edge.se**2


def incidence(net: EvidenceNetwork) -> np.ndarray:
    """Signed edges x nodes incidence matrix: +1 at the treatment, -1 at the comparator."""
    matrix, rows = np.zeros((len(net.edges), len(net.nodes))), np.arange(len(net.edges))
    for columns, sign in zip(zip(*net.ends), (1.0, -1.0)):  # the treatments' columns, then the comparators'
        matrix[rows, np.fromiter(columns, np.intp, len(rows))] = sign
    return matrix


def laplacian_connected(net: EvidenceNetwork) -> bool:
    """Laplacian rank n - 1, read off the sqrt-weight-scaled incidence matrix.

    L = B'WB, so sqrt(W)B has the square roots of L's eigenvalues as its
    singular values: their spread is the square root of L's, which keeps a
    connected graph with widely spread weights clear of the rank tolerance.
    """
    n = len(net.nodes)
    if n <= 1:
        return True
    roots = np.sqrt([_weight(e) for e in net.edges])
    return int(np.linalg.matrix_rank(roots[:, None] * incidence(net))) == n - 1


def connected_components(net: EvidenceNetwork) -> tuple[tuple[str, ...], ...]:
    """Partition of nodes into components, ordered by their first node, members in node order."""
    neighbours: list[list[int]] = [[] for _ in net.nodes]
    for u, v in net.ends:
        neighbours[u].append(v)
        neighbours[v].append(u)
    components, reached = [], [False] * len(net.nodes)
    for start in range(len(net.nodes)):
        if not reached[start]:
            reached[start], members = True, [start]
            for node in members:  # the list grows while it is read: a breadth-first pass
                for neighbour in neighbours[node]:
                    if not reached[neighbour]:
                        reached[neighbour] = True
                        members.append(neighbour)
            components.append(tuple(net.nodes[i] for i in sorted(members)))
    return tuple(components)


def is_connected(net: EvidenceNetwork) -> bool:
    """True iff one undirected component spans all nodes.

    Computed by traversal and cross-checked against the Laplacian rank, for
    a caller with no solve to catch degenerate weights: a disagreement raises.
    """
    if not net.nodes:
        raise NetworkError("network has no nodes")
    by_traversal = len(connected_components(net)) == 1
    by_rank = laplacian_connected(net)
    if by_traversal != by_rank:
        raise ConnectivityCheckError(
            f"connectivity checks disagree (traversal={by_traversal}, laplacian={by_rank}); "
            "edge weights span too many orders of magnitude"
        )
    return by_traversal


def export_edge_list(net: EvidenceNetwork) -> str:
    """One edge per line: trial_id, treatment, comparator, weight."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for edge in net.edges:
        writer.writerow([edge.trial_id, edge.treatment, edge.comparator, repr(_weight(edge))])
    return out.getvalue()
