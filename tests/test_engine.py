"""GLS solver behaviour: examples, oracles, and invariance properties."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DULA_15,
    DULA_30,
    DULA_45,
    HBA1C,
    SEMA_2,
    gls_brute,
    large_connected_base,
    make_estimand,
    random_connected_base,
    synthetic_base,
)
from estimeta.engine import (
    CovarianceError,
    DisconnectedNetworkError,
    GlsSystem,
    NumericalError,
    assemble_gls,
    comparison,
    league_table,
    solve_fixed_effects,
    trial_blocks,
    trial_covariance,
)
from estimeta.estimands import IntercurrentEventStrategy, canonical
from estimeta.ingest import ContrastEstimate, TrialRecord, UncertaintySource
from estimeta.network import ConnectivityCheckError, build_network, is_connected
from estimeta.pipeline import restrict_evidence, run_analysis, synthesize_meta

SRC = Path(__file__).resolve().parent.parent / "src"


def contrast(trial, t, c, md, se, endpoint="outcome"):
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


def solve_base(base, reference=None, ci_level=0.95):
    net = build_network(base.contrasts)
    reference = reference or min(net.nodes, key=canonical)
    return solve_fixed_effects(assemble_gls(net, reference, trial_blocks(net.edges, base)), ci_level)


class TestTrialCovariance:
    def test_two_arm_block(self):
        block = trial_covariance([contrast("T1", "A", "B", -0.5, 0.1199)])
        assert block == pytest.approx(np.array([[0.014376]]), abs=1e-6)

    def test_three_arm_shared_comparator(self):
        contrasts = [contrast("T1", "B", "A", 1.0, 0.2), contrast("T1", "C", "A", 0.5, 0.2)]
        block = trial_covariance(contrasts, arm_variances={"a": 0.01, "b": 0.01, "c": 0.01})
        assert np.allclose(block, [[0.02, 0.01], [0.01, 0.02]])

    def test_chained_contrasts_negative_covariance(self):
        contrasts = [contrast("T1", "B", "A", 1.0, 0.2), contrast("T1", "C", "B", 0.5, 0.2)]
        block = trial_covariance(contrasts, arm_variances={"a": 0.02, "b": 0.03, "c": 0.04})
        assert np.allclose(block, [[0.05, -0.03], [-0.03, 0.07]])

    def test_multi_arm_without_arm_data_fails(self):
        contrasts = [contrast("T1", "B", "A", 1.0, 0.2), contrast("T1", "C", "A", 0.5, 0.2)]
        with pytest.raises(CovarianceError, match="shared-arm variance unidentifiable"):
            trial_covariance(contrasts)

    def test_all_pairwise_contrasts_give_singular_block(self):
        contrasts = [
            contrast("T1", "B", "A", 1.0, 0.2),
            contrast("T1", "C", "A", 0.5, 0.2),
            contrast("T1", "C", "B", -0.5, 0.2),
        ]
        with pytest.raises(CovarianceError, match="not positive definite"):
            trial_covariance(contrasts, arm_variances={"a": 0.01, "b": 0.02, "c": 0.03})

    def test_missing_arm_named_whatever_the_hash_seed(self):
        # a three-arm trial without arm rows: string hashing, and so set order, varies by seed
        script = (
            "from estimeta.engine import CovarianceError, trial_blocks\n"
            "from estimeta.ingest import ContrastEstimate, EvidenceBase, UncertaintySource\n"
            "contrasts = [ContrastEstimate('T1', t, 'a', 'outcome', 'primary', 0.5, 0.2,\n"
            "                              UncertaintySource.REPORTED_SE) for t in 'bc']\n"
            "try:\n"
            "    trial_blocks(contrasts, EvidenceBase(trials={}, contrasts=(), arm_summaries=()))\n"
            "except CovarianceError as exc:\n"
            "    print(exc)\n"
        )
        messages = set()
        for seed in range(1, 6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
            assert run.returncode == 0, run.stderr
            messages.add(run.stdout)
        assert len(messages) == 1
        assert "lacks an arm summary for" in messages.pop()


class TestAssemble:
    def test_case_study_dimensions(self, case_base):
        meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
        net = build_network(restrict_evidence(case_base, meta, HBA1C).used)
        system = assemble_gls(net, DULA_15, trial_blocks(net.edges, case_base))
        assert system.y.shape == (4,)
        assert system.design.shape == (4, 4)
        assert system.sigma.shape == (4, 4)
        assert system.reference == DULA_15
        rows = np.abs(system.design).sum(axis=1)
        assert set(rows.tolist()) <= {1.0, 2.0}

    def test_award_block_correlated(self, case_base):
        meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
        net = build_network(restrict_evidence(case_base, meta, HBA1C).used)
        system = assemble_gls(net, DULA_15, trial_blocks(net.edges, case_base))
        award_rows = [i for i, c in enumerate(system.contrasts) if c.trial_id == "AWARD-11"]
        i, j = award_rows
        shared = case_base.arm_summary("AWARD-11", "efficacy", HBA1C, DULA_15).variance
        assert system.sigma[i, j] == pytest.approx(shared, rel=1e-12)

    def test_single_trial_design(self):
        base = synthetic_base([("T1", ["A", "B"], [0.04, 0.04], [1.0])])
        net = build_network(base.contrasts)
        system = assemble_gls(net, "A", trial_blocks(net.edges, base))
        assert system.design.tolist() == [[1.0]]
        assert system.parameters == ("B",)

    def test_disconnected_rejected(self):
        base = synthetic_base(
            [("T1", ["A", "B"], [0.04, 0.04], [1.0]), ("T2", ["C", "D"], [0.04, 0.04], [1.0])]
        )
        net = build_network(base.contrasts)
        with pytest.raises(DisconnectedNetworkError):
            assemble_gls(net, "A", trial_blocks(net.edges, base))

    def test_unknown_reference_rejected(self):
        base = synthetic_base([("T1", ["A", "B"], [0.04, 0.04], [1.0])])
        net = build_network(base.contrasts)
        with pytest.raises(Exception, match="unknown treatment"):
            assemble_gls(net, "Z", trial_blocks(net.edges, base))


class TestSolveExamples:
    def test_single_study_identity(self):
        net = build_network([contrast("T1", "A", "B", md=-0.8, se=0.25)])
        base = synthetic_base([("T1", ["B", "A"], [0.03, 0.03], [-0.8])])
        system = assemble_gls(net, "B", trial_blocks(net.edges, base))
        result = solve_fixed_effects(system)
        assert result.estimates == pytest.approx([-0.8])
        np.testing.assert_allclose(result.covariance, [[0.25**2]], rtol=1e-12)

    def test_inverse_variance_mean(self):
        net = build_network(
            [contrast("T1", "A", "B", md=0.0, se=1.0), contrast("T2", "A", "B", md=2.0, se=1.0)]
        )
        base = synthetic_base([])
        system = assemble_gls(net, "B", trial_blocks(net.edges, base))
        result = solve_fixed_effects(system)
        pooled = comparison(result, "A", "B")
        assert pooled.md == pytest.approx(1.0, abs=1e-12)
        assert pooled.se == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_two_edge_chain(self):
        net = build_network(
            [contrast("T1", "A", "B", md=1.0, se=1.0), contrast("T2", "B", "C", md=1.0, se=1.0)]
        )
        system = assemble_gls(net, "C", trial_blocks(net.edges, synthetic_base([])))
        result = solve_fixed_effects(system)
        indirect = comparison(result, "A", "C")
        assert indirect.md == pytest.approx(2.0, abs=1e-12)
        assert indirect.se == pytest.approx(math.sqrt(2.0), rel=1e-12)
        theta, cov = gls_brute(system.y, system.design, system.sigma)
        assert result.estimates == pytest.approx(theta, rel=1e-10)
        assert result.covariance == pytest.approx(cov, rel=1e-10)


@pytest.fixture(scope="module")
def result(case_base):
    meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
    net = build_network(restrict_evidence(case_base, meta, HBA1C).used)
    return solve_fixed_effects(assemble_gls(net, DULA_15, trial_blocks(net.edges, case_base)))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(42)
    return [random_connected_base(rng) for _ in range(120)]


class TestComparisons:
    def test_self_comparison_is_null(self, result):
        c = comparison(result, SEMA_2, SEMA_2)
        assert c.md == 0.0 and c.se == 0.0

    def test_reference_antisymmetry(self, result):
        ab = comparison(result, DULA_15, SEMA_2)
        ba = comparison(result, SEMA_2, DULA_15)
        assert ab.md == pytest.approx(-ba.md, abs=1e-14)
        assert ab.se == ba.se

    def test_case_study_headline_value(self, result):
        c = comparison(result, SEMA_2, DULA_30)
        assert c.md == pytest.approx(-0.47, abs=0.03)
        assert c.ci_lower == pytest.approx(-0.70, abs=0.05)
        assert c.ci_upper == pytest.approx(-0.23, abs=0.05)

    def test_league_table_size_and_antisymmetry(self, result):
        table = league_table(result)
        assert len(table) == 20
        lookup = {(c.treatment, c.comparator): c for c in table}
        for (a, b), c in lookup.items():
            mirror = lookup[(b, a)]
            assert c.md == pytest.approx(-mirror.md, abs=1e-12)
            assert c.se == mirror.se

    def test_level_rescales_interval_only(self, result):
        wide = comparison(result, SEMA_2, DULA_30, level=0.95)
        narrow = comparison(result, SEMA_2, DULA_30, level=0.80)
        assert narrow.md == wide.md and narrow.se == wide.se
        assert narrow.ci_upper - narrow.ci_lower < wide.ci_upper - wide.ci_lower

    def test_unknown_treatment_rejected(self, result):
        with pytest.raises(Exception, match="unknown treatment"):
            comparison(result, "placebo", DULA_15)

    def test_consistency_around_multi_arm_loop(self, result):
        cycle = (
            comparison(result, DULA_45, DULA_15).md
            + comparison(result, DULA_15, DULA_30).md
            + comparison(result, DULA_30, DULA_45).md
        )
        assert abs(cycle) < 1e-12


class TestRandomizedProperties:
    def test_matches_brute_force_oracle(self, corpus):
        for base in corpus:
            net = build_network(base.contrasts)
            system = assemble_gls(net, net.nodes[0], trial_blocks(net.edges, base))
            result = solve_fixed_effects(system)
            theta, cov = gls_brute(system.y, system.design, system.sigma)
            np.testing.assert_allclose(result.estimates, theta, rtol=1e-8, atol=1e-11)
            np.testing.assert_allclose(result.covariance, cov, rtol=1e-8, atol=1e-11)

    def test_reference_invariance_at_bench_scale(self):
        base = large_connected_base(np.random.default_rng(2024))
        assert len(base.trials) == 1000 and any(len(t.arms) == 3 for t in base.trials.values())
        meta = synthesize_meta(base, "outcome", IntercurrentEventStrategy.HYPOTHETICAL)
        default = run_analysis(base, meta, "outcome")
        assert len(default.treatments) == 100
        for reference in ("T7", "T50", "T99"):
            other = run_analysis(base, meta, "outcome", reference=reference)
            assert other.reference == reference
            for key, c in default.comparisons.items():  # criterion 5's tolerance
                assert abs(other.comparisons[key].md - c.md) < 1e-10
                assert abs(other.comparisons[key].se - c.se) < 1e-10

    def test_reference_invariance(self, corpus):
        for base in corpus[:40]:
            net = build_network(base.contrasts)
            blocks = trial_blocks(net.edges, base)
            results = [solve_fixed_effects(assemble_gls(net, ref, blocks)) for ref in net.nodes]
            baseline = results[0].comparisons
            for other in results[1:]:
                for key, c in baseline.items():
                    assert abs(other.comparisons[key].md - c.md) < 1e-10
                    assert abs(other.comparisons[key].se - c.se) < 1e-10

    def test_scale_equivariance(self, corpus):
        k = 3.7
        for base in corpus[:40]:
            scaled = dataclasses.replace(
                base,
                contrasts=tuple(
                    dataclasses.replace(c, md=k * c.md, se=k * c.se) for c in base.contrasts
                ),
                arm_summaries=tuple(
                    dataclasses.replace(
                        a,
                        mean_change=k * a.mean_change,
                        ci_lower=k * a.ci_lower,
                        ci_upper=k * a.ci_upper,
                    )
                    for a in base.arm_summaries
                ),
            )
            plain, big = solve_base(base), solve_base(scaled)
            for key, c in plain.comparisons.items():
                assert big.comparisons[key].md == pytest.approx(k * c.md, rel=1e-9, abs=1e-12)
                assert big.comparisons[key].se == pytest.approx(k * c.se, rel=1e-9)

    def test_weight_monotonicity(self, corpus):
        rng = np.random.default_rng(7)
        for base in corpus[:40]:
            edge = base.contrasts[int(rng.integers(len(base.contrasts)))]
            pair = (edge.treatment, edge.comparator)
            before = solve_base(base).comparisons[pair].se
            extra = contrast("extra-trial", pair[0], pair[1], md=float(rng.normal()), se=float(rng.uniform(0.1, 2.0)))
            record = TrialRecord(
                trial_id="extra-trial",
                arms=pair,
                estimands={("primary", "outcome"): make_estimand(treatments=pair)},
            )
            grown = dataclasses.replace(
                base,
                trials={**base.trials, "extra-trial": record},
                contrasts=base.contrasts + (extra,),
            )
            after = solve_base(grown).comparisons[pair].se
            assert after <= before * (1.0 + 1e-10) + 1e-12

    def test_multi_arm_trial_reproduces_arm_level_ols(self):
        v = 0.04
        base = synthetic_base([("T1", ["A", "B", "C"], [v, v, v], [1.0, -0.5])])
        result = solve_base(base, reference="A")
        assert comparison(result, "B", "A").md == pytest.approx(1.0, abs=1e-12)
        assert comparison(result, "C", "A").md == pytest.approx(-0.5, abs=1e-12)
        assert comparison(result, "B", "C").md == pytest.approx(1.5, abs=1e-12)
        for a, b in (("B", "A"), ("C", "A"), ("B", "C")):
            assert comparison(result, a, b).se == pytest.approx(math.sqrt(2 * v), rel=1e-12)

    def test_league_table_is_every_pairwise_comparison(self, corpus):
        for base in corpus:
            net = build_network(base.contrasts)
            for ref in net.nodes:
                result = solve_fixed_effects(assemble_gls(net, ref, trial_blocks(net.edges, base)))
                table = league_table(result)
                pairs = [(a, b) for a in net.nodes for b in net.nodes if a != b]
                assert [(c.treatment, c.comparator) for c in table] == pairs
                assert list(result.comparisons.values()) == list(table)
                columns = {node: j for j, node in enumerate(result.parameters)}
                for c, (a, b) in zip(table, pairs):
                    assert c == comparison(result, a, b)
                    # the contrast-vector form the table replaced, to the last bit
                    vector = np.zeros(len(result.parameters))
                    for node, sign in ((a, 1.0), (b, -1.0)):
                        if node in columns:
                            vector[columns[node]] = sign
                    assert c.md == float(vector @ result.estimates)
                    assert c.se == math.sqrt(max(float(vector @ result.covariance @ vector), 0.0))

    def test_laplacian_pseudoinverse_cross_check(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            base = random_connected_base(rng)
            if any(len(t.arms) != 2 for t in base.trials.values()):
                continue  # pseudoinverse route assumes a diagonal covariance
            net = build_network(base.contrasts)
            system = assemble_gls(net, net.nodes[0], trial_blocks(net.edges, base))
            result = solve_fixed_effects(system)

            n = len(net.nodes)
            index = {node: i for i, node in enumerate(net.nodes)}
            incidence = np.zeros((len(net.edges), n))
            weights = np.zeros(len(net.edges))
            for r, edge in enumerate(net.edges):
                incidence[r, index[edge.treatment]] = 1.0
                incidence[r, index[edge.comparator]] = -1.0
                weights[r] = 1.0 / edge.se**2
            lap_plus = np.linalg.pinv(incidence.T @ np.diag(weights) @ incidence)
            y = np.array([c.md for c in net.edges])
            for a in net.nodes:
                for b in net.nodes:
                    if a == b:
                        continue
                    c_vec = np.zeros(n)
                    c_vec[index[a]], c_vec[index[b]] = 1.0, -1.0
                    md = c_vec @ lap_plus @ incidence.T @ np.diag(weights) @ y
                    se = math.sqrt(c_vec @ lap_plus @ c_vec)
                    pooled = result.comparisons[(a, b)]
                    assert pooled.md == pytest.approx(md, rel=1e-8, abs=1e-10)
                    assert pooled.se == pytest.approx(se, rel=1e-8)


class TestConditioning:
    def test_moderate_imbalance_noted(self):
        net = build_network(
            [contrast("T1", "A", "B", md=1.0, se=3e-3), contrast("T2", "B", "C", md=1.0, se=3e2)]
        )
        result = solve_fixed_effects(assemble_gls(net, "A", trial_blocks(net.edges, synthetic_base([]))))
        assert 1e8 < result.condition_number < 1e12
        assert any("ill-conditioned" in note for note in result.notes)

    def test_extreme_imbalance_refused(self):
        contrasts = (
            contrast("T1", "A", "B", md=1.0, se=1e-8),
            contrast("T2", "B", "C", md=1.0, se=1e8),
        )
        system = GlsSystem(
            y=np.array([1.0, 1.0]),
            design=np.array([[-1.0, 0.0], [1.0, -1.0]]),
            blocks=(np.array([[1e-16]]), np.array([[1e16]])),
            reference="A",
            treatments=("A", "B", "C"),
            parameters=("B", "C"),
            contrasts=contrasts,
        )
        with pytest.raises(NumericalError, match="condition number"):
            solve_fixed_effects(system)

    def test_degenerate_weights_fail_the_dual_connectivity_check(self):
        net = build_network(
            [contrast("T1", "A", "B", md=1.0, se=1e-8), contrast("T2", "B", "C", md=1.0, se=1e8)]
        )
        system = assemble_gls(net, "A", trial_blocks(net.edges, synthetic_base([])))  # connected by traversal
        with pytest.raises(NumericalError, match="condition number"):
            solve_fixed_effects(system)
        with pytest.raises(ConnectivityCheckError):
            is_connected(net)

    def test_extreme_spread_refused_without_overflow(self):
        # (s_max / s_min)^2 is about 1e400 here: squared, it would overflow to inf with a warning
        net = build_network(
            [contrast("T1", "A", "B", md=1.0, se=1e-100), contrast("T2", "B", "C", md=1.0, se=1e100)]
        )
        system = assemble_gls(net, "A", trial_blocks(net.edges, synthetic_base([])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"condition number exceeds 1e\+12"):
                solve_fixed_effects(system)


class TestBlockWhitening:
    def test_non_positive_definite_block_refused(self):
        contrasts = (contrast("T1", "B", "A", 1.0, 0.2), contrast("T1", "C", "A", 0.5, 0.2))
        system = GlsSystem(
            y=np.array([1.0, 0.5]),
            design=np.array([[1.0, 0.0], [0.0, 1.0]]),
            blocks=(np.array([[0.02, 0.03], [0.03, 0.02]]),),  # eigenvalues 0.05 and -0.01
            reference="A",
            treatments=("A", "B", "C"),
            parameters=("B", "C"),
            contrasts=contrasts,
        )
        with pytest.raises(CovarianceError, match="not positive definite"):
            solve_fixed_effects(system)

    def test_no_dense_covariance_is_built(self):
        # 3,000 contrasts: a dense 3,000 x 3,000 covariance alone takes 72 MB.
        rng = np.random.default_rng(5)
        names = [f"T{i:02d}" for i in range(20)]
        pairs = [(names[i], names[i + 1]) for i in range(len(names) - 1)]  # spanning chain
        pairs += [tuple(rng.choice(names, size=2, replace=False)) for _ in range(3000 - len(pairs))]
        net = build_network(
            [
                contrast(f"trial-{j:04d}", a, b, float(rng.normal()), float(rng.uniform(0.1, 1.0)))
                for j, (a, b) in enumerate(pairs)
            ]
        )
        tracemalloc.start()
        try:
            blocks = trial_blocks(net.edges, synthetic_base([]))
            result = solve_fixed_effects(assemble_gls(net, names[0], blocks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.comparisons) == 20 * 19
        assert peak < 16 * 2**20
