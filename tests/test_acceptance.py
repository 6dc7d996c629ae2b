"""Acceptance criteria, one test per criterion, at the stated tolerances.

A summary line per criterion is printed at the end of the pytest run
(see conftest.pytest_terminal_summary).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import estimeta as em
from conftest import (
    DULA_30,
    DULA_45,
    HBA1C,
    SEMA_2,
    WEIGHT,
    connected_oracle,
    gls_brute,
    quantile_bisect,
    random_connected_base,
)
from estimeta.cli import main
from estimeta.engine import assemble_gls, solve_fixed_effects, trial_blocks
from estimeta.estimands import IntercurrentEventStrategy, matches_meta
from estimeta.ingest import (
    ContrastEstimate,
    EvidenceBase,
    UncertaintySource,
    se_from_ci,
    serialize_evidence,
)
from estimeta.network import build_network, laplacian_connected
from estimeta.pipeline import (
    FeasibilityVerdict,
    compare_strategies,
    feasibility_report,
    restrict_evidence,
    run_analysis,
    synthesize_meta,
)

CASE = str(em.case_study_path())
HYP = IntercurrentEventStrategy.HYPOTHETICAL
TP = IntercurrentEventStrategy.TREATMENT_POLICY

MD_TOL = 0.03
CI_TOL = 0.05

# Published pooled results: semaglutide 2.0 mg vs each higher dulaglutide dose,
# per endpoint and intercurrent-event strategy.
PUBLISHED = {
    (HBA1C, "hypothetical"): {
        DULA_30: (-0.47, -0.70, -0.23),
        DULA_45: (-0.30, -0.54, -0.07),
    },
    (HBA1C, "treatment_policy"): {
        DULA_30: (-0.42, -0.68, -0.16),
        DULA_45: (-0.28, -0.54, -0.02),
    },
    (WEIGHT, "hypothetical"): {
        DULA_30: (-3.31, -4.50, -2.13),
        DULA_45: (-3.15, -4.33, -1.96),
    },
    (WEIGHT, "treatment_policy"): {
        DULA_30: (-2.64, -3.86, -1.41),
        DULA_45: (-2.50, -3.73, -1.28),
    },
}


def _analyze_via_cli(tmp_path, endpoint: str, estimand: str) -> dict:
    out = tmp_path / f"{estimand}-{endpoint.split()[-1]}.json"
    code = main(
        ["analyze", "--input", CASE, "--estimand", estimand, "--endpoint", endpoint,
         "--format", "json", "--output", str(out)]
    )
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _check_endpoint_reproduction(tmp_path, endpoint: str) -> None:
    start = time.perf_counter()
    for estimand in ("hypothetical", "treatment_policy"):
        payload = _analyze_via_cli(tmp_path, endpoint, estimand)
        rows = {
            (r["treatment"], r["comparator"]): r for r in payload["comparisons"]
        }
        for comparator, (md, lo, hi) in PUBLISHED[(endpoint, estimand)].items():
            row = rows[(SEMA_2, comparator)]
            assert row["md"] == pytest.approx(md, abs=MD_TOL)
            assert row["ci_lower"] == pytest.approx(lo, abs=CI_TOL)
            assert row["ci_upper"] == pytest.approx(hi, abs=CI_TOL)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"analyze took {elapsed:.2f} s"


@pytest.mark.criterion(1, "case-study reproduction, HbA1c")
def test_case_study_hba1c(tmp_path):
    _check_endpoint_reproduction(tmp_path, HBA1C)


@pytest.mark.criterion(2, "case-study reproduction, body weight")
def test_case_study_body_weight(tmp_path):
    _check_endpoint_reproduction(tmp_path, WEIGHT)


@pytest.mark.criterion(3, "treatment-policy attenuation on body weight")
def test_attenuation(case_base):
    results = {}
    for strategy, label in ((HYP, "hypothetical"), (TP, "treatment_policy")):
        meta = synthesize_meta(case_base, WEIGHT, strategy, label=label)
        results[label] = run_analysis(case_base, meta, WEIGHT)
    table = compare_strategies(results, WEIGHT)
    rows = {(r.treatment, r.comparator): r for r in table.rows}
    for comparator in (DULA_30, DULA_45):
        row = rows[(SEMA_2, comparator)]
        assert abs(row.by_label["treatment_policy"].md) < abs(row.by_label["hypothetical"].md)
        assert row.attenuation is True


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20250810)
    return [random_connected_base(rng, max_nodes=6, max_trials=8) for _ in range(1000)]


@pytest.mark.criterion(4, "GLS matches brute-force oracle on 1000 random networks")
def test_gls_oracle_equivalence(corpus):
    start = time.perf_counter()
    three_arm_seen = False
    for base in corpus:
        net = build_network(base.contrasts)
        system = assemble_gls(net, net.nodes[0], trial_blocks(net.edges, base))
        result = solve_fixed_effects(system)
        theta, cov = gls_brute(system.y, system.design, system.sigma)
        np.testing.assert_allclose(result.estimates, theta, rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(result.covariance, cov, rtol=1e-8, atol=1e-11)
        three_arm_seen = three_arm_seen or any(len(t.arms) == 3 for t in base.trials.values())
    elapsed = time.perf_counter() - start
    assert three_arm_seen, "corpus never produced a 3-arm trial"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"


@pytest.mark.criterion(5, "reference invariance across all reference choices")
def test_reference_invariance(corpus):
    for base in corpus:
        net = build_network(base.contrasts)
        baseline = None
        for ref in net.nodes:
            result = solve_fixed_effects(assemble_gls(net, ref, trial_blocks(net.edges, base)))
            if baseline is None:
                baseline = result.comparisons
                continue
            for key, c in baseline.items():
                other = result.comparisons[key]
                assert abs(other.md - c.md) < 1e-10
                assert abs(other.se - c.se) < 1e-10


@pytest.mark.criterion(6, "Laplacian-rank connectivity agrees with traversal on 10000 graphs")
def test_connectivity_oracle():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    disagreements = 0
    for k in range(10_000):
        n_nodes = int(rng.integers(2, 13))
        nodes = [f"N{i}" for i in range(n_nodes)]
        n_edges = int(rng.integers(1, 2 * n_nodes + 1))
        contrasts = []
        for j in range(n_edges):
            a, b = rng.choice(n_nodes, size=2, replace=False)
            contrasts.append(
                ContrastEstimate(
                    trial_id=f"T{j}",
                    treatment=nodes[a],
                    comparator=nodes[b],
                    endpoint="outcome",
                    estimand_label="primary",
                    md=0.0,
                    se=float(rng.uniform(0.05, 2.0)),
                    source=UncertaintySource.REPORTED_SE,
                )
            )
        net = build_network(contrasts)
        expected = connected_oracle(
            net.nodes, [(e.treatment, e.comparator) for e in net.edges]
        )
        if laplacian_connected(net) != expected:
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 10.0, f"connectivity sweep took {elapsed:.1f} s"


@pytest.mark.criterion(7, "SE back-calculation value and properties")
def test_se_from_ci_acceptance():
    assert se_from_ci(-0.70, -0.23, 0.95) == pytest.approx(0.11990, abs=1e-5)
    assert se_from_ci(-0.70, -0.23, 0.95) == pytest.approx(
        0.47 / (2 * quantile_bisect(0.975)), abs=1e-10
    )
    rng = np.random.default_rng(7)
    for _ in range(1000):
        lower = float(rng.uniform(-20, 20))
        upper = lower + float(rng.uniform(1e-3, 40))
        level_lo, level_hi = sorted(rng.uniform(0.05, 0.999, size=2))
        k = float(rng.uniform(0.1, 10))
        base_se = se_from_ci(lower, upper, level_hi)
        assert se_from_ci(k * lower, k * upper, level_hi) == pytest.approx(k * base_se, rel=1e-9)
        if level_hi - level_lo > 1e-6:
            assert se_from_ci(lower, upper, level_lo) > base_se


@pytest.mark.criterion(8, "trial estimands classify into the two meta-estimand slices")
def test_estimand_classification(case_base):
    hypothetical_labels = {"de-jure", "hypothetical", "efficacy"}
    policy_labels = {"de-facto", "treatment policy", "treatment regimen"}
    for endpoint in (HBA1C, WEIGHT):
        metas = {
            "hypothetical": synthesize_meta(case_base, endpoint, HYP),
            "treatment_policy": synthesize_meta(case_base, endpoint, TP),
        }
        for meta_name, meta in metas.items():
            expected = hypothetical_labels if meta_name == "hypothetical" else policy_labels
            for trial in case_base.trials.values():
                for estimand in trial.estimands.values():
                    if estimand.endpoint.key != endpoint:
                        continue
                    verdict = matches_meta(estimand, meta)
                    assert verdict.compatible == (estimand.label in expected), (
                        f"{trial.trial_id} {estimand.label} vs {meta_name}"
                    )
            restriction = restrict_evidence(case_base, meta, endpoint)
            assert {c.estimand_label for c in restriction.used} == expected
        # the FORTE dose-change event is a warning, never an exclusion
        forte = case_base.trials["SUSTAIN FORTE"].estimand_for("hypothetical", endpoint)
        verdict = matches_meta(forte, metas["hypothetical"])
        assert verdict.compatible
        assert any("change in treatment dose" in w for w in verdict.warnings)
        used_trials = {
            c.trial_id
            for c in restrict_evidence(case_base, metas["hypothetical"], endpoint).used
        }
        assert "SUSTAIN FORTE" in used_trials


@pytest.mark.criterion(9, "removing the anchor trial disconnects both slices")
def test_disconnection_guard(case_base, tmp_path):
    trimmed = EvidenceBase(
        trials={t: r for t, r in case_base.trials.items() if t != "SUSTAIN 7"},
        contrasts=tuple(c for c in case_base.contrasts if c.trial_id != "SUSTAIN 7"),
        arm_summaries=tuple(a for a in case_base.arm_summaries if a.trial_id != "SUSTAIN 7"),
    )
    for endpoint in (HBA1C, WEIGHT):
        for strategy in (HYP, TP):
            meta = synthesize_meta(trimmed, endpoint, strategy)
            report = feasibility_report(trimmed, meta, endpoint)
            assert report.verdict is FeasibilityVerdict.INFEASIBLE
            assert any(r.code == "disconnected" for r in report.reasons)

    path = tmp_path / "no_sustain7.csv"
    path.write_text(serialize_evidence(trimmed), encoding="utf-8")
    assert main(["network", "--input", str(path), "--endpoint", "hba1c"]) == 3
    for estimand in ("hypothetical", "treatment_policy"):
        code = main(
            ["analyze", "--input", str(path), "--estimand", estimand, "--endpoint", "hba1c"]
        )
        assert code == 3
