"""Evidence-graph construction and connectivity."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    DULA_15,
    DULA_30,
    DULA_45,
    HBA1C,
    SEMA_1,
    SEMA_2,
    UnionFind,
    connected_oracle,
    large_connected_base,
)
from estimeta import network
from estimeta.ingest import ContrastEstimate, UncertaintySource, parse_evidence_text
from estimeta.network import (
    EvidenceNetwork,
    NetworkError,
    build_network,
    connected_components,
    export_edge_list,
    is_connected,
    laplacian_connected,
)
from estimeta.pipeline import restrict_evidence, run_analysis, synthesize_meta
from estimeta.estimands import IntercurrentEventStrategy


def contrast(trial, t, c, se=0.5, md=1.0, endpoint="outcome"):
    return ContrastEstimate(
        trial_id=trial,
        treatment=t,
        comparator=c,
        endpoint=endpoint,
        estimand_label="primary",
        md=md,
        se=se,
        source=UncertaintySource.REPORTED_SE,
    )


@pytest.fixture(scope="module")
def case_network(case_base):
    meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
    return build_network(restrict_evidence(case_base, meta, HBA1C).used)


class TestBuildNetwork:
    def test_case_study_slice(self, case_network):
        assert len(case_network.nodes) == 5
        assert len(case_network.edges) == 4
        award = [e for e in case_network.edges if e.trial_id == "AWARD-11"]
        assert len(award) == 2
        assert {e.comparator for e in award} == {DULA_15}

    def test_single_contrast(self):
        net = build_network([contrast("T1", "A", "B")])
        assert net.nodes == ("A", "B")
        assert len(net.edges) == 1

    def test_disjoint_pairs(self):
        net = build_network([contrast("T1", "A", "B"), contrast("T2", "C", "D")])
        assert len(net.nodes) == 4
        assert len(net.edges) == 2
        assert len(connected_components(net)) == 2

    def test_rejects_empty_and_mixed_endpoints(self):
        with pytest.raises(NetworkError):
            build_network([])
        with pytest.raises(NetworkError, match="mix endpoints"):
            build_network([contrast("T1", "A", "B"), contrast("T2", "B", "C", endpoint="other")])

    def test_input_order_invariance(self):
        contrasts = [
            contrast("T2", "C", "B", se=0.3),
            contrast("T1", "A", "B", se=0.5),
            contrast("T3", "C", "A", se=0.7),
        ]
        nets = [build_network(order) for order in (contrasts, contrasts[::-1])]
        assert nets[0].nodes == nets[1].nodes
        key = lambda e: (e.trial_id, e.treatment, e.comparator, 1.0 / e.se**2)
        assert [key(e) for e in nets[0].edges] == [key(e) for e in nets[1].edges]

    def test_parallel_edges_kept(self):
        net = build_network([contrast("T1", "A", "B"), contrast("T2", "A", "B")])
        assert len(net.edges) == 2

    def test_keys_computed_once_per_node(self, monkeypatch):
        contrasts = large_connected_base(np.random.default_rng(7), n_nodes=40, n_trials=200).contrasts
        assert len(contrasts) >= 200
        calls = []
        original = network.canonical

        def counted(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(network, "canonical", counted)
        net = build_network(contrasts)
        assert is_connected(net)
        assert len(calls) <= len(net.nodes) == 40

    def test_edge_naming_an_unknown_treatment_rejected(self):
        with pytest.raises(NetworkError, match="unknown treatment 'C'"):
            EvidenceNetwork(nodes=("A", "B"), edges=(contrast("T1", "C", "A"),))

    def test_edge_naming_an_unknown_comparator_rejected(self):
        c = contrast("T1", "A", "B")
        with pytest.raises(NetworkError, match="^unknown treatment 'B'$"):
            EvidenceNetwork((c.treatment,), (c,))


class TestConnectivity:
    def test_case_study_connected(self, case_network):
        assert is_connected(case_network)
        (component,) = connected_components(case_network)
        assert len(component) == 5

    def test_removing_bridge_disconnects(self, case_network):
        remaining = [c for c in case_network.edges if c.trial_id != "SUSTAIN 7"]
        net = build_network(remaining)
        assert not is_connected(net)
        parts = connected_components(net)
        as_sets = {frozenset(p) for p in parts}
        assert frozenset({SEMA_1, SEMA_2}) in as_sets
        assert frozenset({DULA_15, DULA_30, DULA_45}) in as_sets

    def test_single_node_vacuously_connected(self):
        net = EvidenceNetwork(nodes=("A",), edges=())
        assert is_connected(net)
        assert connected_components(net) == (("A",),)

    def test_empty_network_refused(self):
        with pytest.raises(NetworkError, match="^network has no nodes$"):
            is_connected(EvidenceNetwork((), ()))

    def test_laplacian_agrees_with_union_find_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            n_nodes = int(rng.integers(1, 13))
            nodes = [f"N{i}" for i in range(n_nodes)]
            n_edges = int(rng.integers(0, 2 * n_nodes + 1)) if n_nodes > 1 else 0
            pairs = []
            contrasts = []
            for k in range(n_edges):
                a, b = rng.choice(n_nodes, size=2, replace=False)
                pairs.append((nodes[a], nodes[b]))
                contrasts.append(contrast(f"T{k}", nodes[a], nodes[b], se=float(rng.uniform(0.05, 2.0))))
            if contrasts:
                net = build_network(contrasts)
                touched = set(net.nodes)
                expected = connected_oracle(net.nodes, [(e.treatment, e.comparator) for e in net.edges])
                assert laplacian_connected(net) == expected
                assert is_connected(net) == expected
                assert touched == {n for p in connected_components(net) for n in p}
                uf = UnionFind(net.nodes)
                for e in net.edges:
                    uf.union(e.treatment, e.comparator)
                partition: dict[str, list[str]] = {}  # by root, in order of each component's first node
                for node in net.nodes:
                    partition.setdefault(uf.find(node), []).append(node)
                assert connected_components(net) == tuple(map(tuple, partition.values()))


class TestExport:
    def test_edge_list_format(self, case_network):
        lines = export_edge_list(case_network).strip().split("\n")
        assert len(lines) == 4
        first = lines[0].split(",")
        assert first[0] == "AWARD-11"
        assert float(first[-1]) > 0


def _wide_chain_csv() -> str:
    """Ten treatments in a chain of two-arm trials whose SEs alternate 1e-3 and 1e2."""
    lines = [
        "#trials", "trial_id,arms",
        *(f"W{i},P{i + 1};P{i}" for i in range(9)),
        "#estimands",
        "trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings",
        *(f"W{i},primary,adults,outcome,u,12,mean_difference,dropout:hypothetical" for i in range(9)),
        "#contrasts",
        "trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level",
        *(f"W{i},primary,outcome,P{i + 1},P{i},{0.1 * (i + 1)!r},{1e-3 if i % 2 == 0 else 1e2!r},,,"
          for i in range(9)),
    ]
    return "\n".join(lines) + "\n"


class TestWideWeights:
    """Connectivity must not depend on how far apart the edge weights are."""

    def test_wide_weight_chain_is_connected(self):
        net = build_network(parse_evidence_text(_wide_chain_csv()).contrasts)
        weights = [1.0 / e.se**2 for e in net.edges]
        assert max(weights) / min(weights) == pytest.approx(1e10)
        assert laplacian_connected(net)
        assert is_connected(net)

    def test_wide_weight_chain_is_solved(self):
        base = parse_evidence_text(_wide_chain_csv())
        meta = synthesize_meta(base, "outcome", IntercurrentEventStrategy.HYPOTHETICAL)
        result = run_analysis(base, meta, "outcome", reference="P0")
        # A chain is a tree: each pooled effect is the sum of the direct ones below it.
        for k in range(1, 10):
            expected = sum(0.1 * (i + 1) for i in range(k))
            assert result.comparisons[f"P{k}", "P0"].md == pytest.approx(expected, rel=1e-9)

    def test_tolerance_still_catches_degenerate_weights(self):
        net = build_network([contrast("T1", "A", "B", se=1e-8), contrast("T2", "B", "C", se=1e8)])
        assert not laplacian_connected(net)
