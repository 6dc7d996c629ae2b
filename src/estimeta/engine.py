"""Fixed-effects network meta-analysis by generalized least squares.

Contrasts are stacked into y = X theta + error with a block-diagonal
covariance, kept as its blocks, one per trial.  Two-arm trials contribute
a 1x1 block [se^2]; a k-arm trial contributes a block built from per-arm
variances (diagonal v_t + v_c, off-diagonal the shared arms' variance), so
that correlated treatment effects within multi-arm trials are accounted for.
The design X is the network's signed incidence matrix without the
reference's column.  The solve whitens each trial's rows by the Cholesky
factor of its block and uses QR on the whitened design; neither the dense
covariance (built only on demand, as `GlsSystem.sigma`) nor its inverse is
formed.  The singular values of the whitened design's R are a slice's one
numeric verdict (assembly checks connectivity by traversal alone).  Each
solve computes its league table once, from the estimates and their covariance.

A slice's blocks are built once, by `trial_blocks`, from the caller's
evidence base: the feasibility report keeps them, and `assemble_gls`, the
one way to build a `GlsSystem`, assembles the analysis's system over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby, repeat
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .estimands import canonical
from .ingest import ContrastEstimate, EvidenceBase
from .network import EvidenceNetwork, connected_components, incidence
from .normal import z_for_level

CONDITION_ERROR = 1e12
CONDITION_WARNING = 1e8


class EngineError(ValueError):
    pass


class DisconnectedNetworkError(EngineError):
    pass


class CovarianceError(EngineError):
    pass


class NumericalError(RuntimeError):
    """Conditioning or factorization failure; carries a diagnostic message."""


def trial_covariance(
    contrasts: Sequence[ContrastEstimate],
    arm_variances: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Within-trial covariance block for one trial's contrasts.

    A single contrast yields [se^2].  With two or more contrasts, per-arm
    variances must be supplied, keyed by canonical treatment id; the block
    is assembled from them.  It is positive definite exactly when the contrasts,
    as edges over the arms, form a forest (a repeated pair is a cycle of two),
    which a union-find pass decides; an eigenvalue test guards against rounding.
    """
    if not contrasts:
        raise CovarianceError("trial has no contrasts")
    if len(contrasts) == 1:
        return np.array([[contrasts[0].se ** 2]])
    if arm_variances is None:
        raise CovarianceError(
            "shared-arm variance unidentifiable: multi-arm trial needs arm-level variances"
        )
    column = {arm: j for j, arm in enumerate(arm_variances)}
    signs = np.zeros((len(contrasts), len(column)))  # S: +1 treatment, -1 comparator arm
    component = list(range(len(column)))  # union-find (quick-find) over the arms
    for i, c in enumerate(contrasts):
        for arm, sign in ((c.treatment_key, 1.0), (c.comparator_key, -1.0)):
            if arm not in column:
                raise CovarianceError(
                    f"shared-arm variance unidentifiable: no arm variance for {arm!r} "
                    f"in trial {c.trial_id!r}"
                )
            signs[i, column[arm]] = sign
        a, b = component[column[c.treatment_key]], component[column[c.comparator_key]]
        if a == b:
            raise CovarianceError(
                f"covariance of trial {c.trial_id!r} is not positive definite: its contrasts "
                "are linearly dependent (they close a cycle over its arms)"
            )
        component = [a if k == b else k for k in component]
    # S diag(v) S': each entry sums at most two nonzero, exactly signed variances
    block = (signs * np.array(list(arm_variances.values()), dtype=float)) @ signs.T
    _require_positive_definite(block, f"covariance of trial {contrasts[0].trial_id!r}")
    return block


def _require_positive_definite(matrix: np.ndarray, what: str) -> None:
    smallest = np.linalg.eigvalsh(matrix).min()
    if smallest <= 0.0:
        raise CovarianceError(f"{what} is not positive definite (min eigenvalue {smallest:g})")


@dataclass(frozen=True, eq=False)
class GlsSystem:
    """Stacked contrast system over basic parameters vs one reference."""

    y: np.ndarray
    design: np.ndarray
    blocks: tuple[np.ndarray, ...]  # per-trial covariance blocks, in row order
    reference: str
    treatments: tuple[str, ...]  # full node order, reference included
    parameters: tuple[str, ...]  # design columns (non-reference treatments)
    contrasts: tuple[ContrastEstimate, ...]

    @property
    def sigma(self) -> np.ndarray:
        """The dense block-diagonal covariance, built on demand; the solve never uses it."""
        sigma, row = np.zeros((len(self.y), len(self.y))), 0
        for block in self.blocks:
            sigma[row : row + len(block), row : row + len(block)] = block
            row += len(block)
        return sigma


def assemble_gls(net: EvidenceNetwork, reference: str, blocks: Sequence[np.ndarray]) -> GlsSystem:
    """Build y and X of a network slice over its per-trial covariance blocks.

    Row order is the network's deterministic contrast order (trial id,
    treatment, comparator); `blocks` are those `trial_blocks(net.edges, base)`
    returns, in the same order.  Connectivity is checked by traversal alone.
    """
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError("evidence network is disconnected")
    ref_idx = net.node_index(reference)
    return GlsSystem(
        y=np.array([c.md for c in net.edges]),
        design=np.delete(incidence(net), ref_idx, axis=1),
        blocks=tuple(blocks),
        reference=net.nodes[ref_idx],
        treatments=net.nodes,
        parameters=net.nodes[:ref_idx] + net.nodes[ref_idx + 1 :],
        contrasts=net.edges,
    )


def trial_blocks(
    contrasts: Sequence[ContrastEstimate], base: EvidenceBase, *, independence_fallback: bool = False
) -> list[np.ndarray]:
    """Covariance blocks of the contrasts, grouped by trial in their order.

    With `independence_fallback`, a multi-arm trial without arm-level data
    degrades to a diagonal block instead of failing; the shared-arm
    correlation is then ignored.
    """
    blocks = []
    for trial_id, grouped in groupby(contrasts, key=lambda c: c.trial_id):
        group = list(grouped)
        labels = {c.label_key for c in group}
        if len(labels) > 1:
            raise CovarianceError(
                f"trial {trial_id!r} contributes contrasts under several estimands: {sorted(labels)}"
            )
        blocks.append(_block_for_trial(group, base, independence_fallback))
    return blocks


def _block_for_trial(
    group: Sequence[ContrastEstimate], base: EvidenceBase, independence_fallback: bool
) -> np.ndarray:
    if len(group) == 1:
        return trial_covariance(group)
    sample = group[0]
    variances: dict[str, float] = {}
    # arms in order of first appearance, so that a message names the same arm on every run
    for arm in dict.fromkeys(arm for c in group for arm in (c.treatment_key, c.comparator_key)):
        summary = base.arm_summary(sample.trial_id, sample.estimand_label, sample.endpoint, arm)
        if summary is None:
            if independence_fallback:
                return np.diag([c.se**2 for c in group])
            raise CovarianceError(
                f"shared-arm variance unidentifiable: trial {sample.trial_id!r} lacks an arm "
                f"summary for {arm!r} ({sample.estimand_label} / {sample.endpoint})"
            )
        variances[arm] = summary.variance
    return trial_covariance(group, arm_variances=variances)


@dataclass(frozen=True)
class ComparisonResult:
    treatment: str
    comparator: str
    md: float
    se: float
    ci_lower: float
    ci_upper: float
    ci_level: float


@dataclass(frozen=True, eq=False)
class NmaResult:
    """Basic-parameter estimates vs a reference, with derived comparisons."""

    reference: str
    treatments: tuple[str, ...]
    parameters: tuple[str, ...]
    estimates: np.ndarray
    covariance: np.ndarray
    ci_level: float
    comparisons: Mapping[tuple[str, str], ComparisonResult]
    condition_number: float
    notes: tuple[str, ...] = ()
    provenance: Optional[Any] = None
    # canonical treatment -> design column; the reference maps to the column
    # after the last, where the padded estimates and covariance are zero
    columns: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        columns = {canonical(self.reference): len(self.parameters)}
        columns.update((canonical(node), j) for j, node in enumerate(self.parameters))
        object.__setattr__(self, "columns", columns)


def solve_fixed_effects(system: GlsSystem, ci_level: float = 0.95) -> NmaResult:
    """Solve theta = (X' Sigma^-1 X)^-1 X' Sigma^-1 y with its covariance.

    Whitens each trial's rows of X and y by the Cholesky factor of its block
    (blocks of one size in one batched call) and QR-factorizes the whitened
    design.  Conditioning of X' Sigma^-1 X is checked: above 1e8 a note is
    recorded, above 1e12 the solve is refused.  The league table is computed here, once.
    """
    sizes = np.array([len(block) for block in system.blocks])
    starts = np.cumsum(sizes) - sizes
    design_w, y_w = np.empty_like(system.design), np.empty_like(system.y)
    for k in {len(block) for block in system.blocks}:
        rows = starts[sizes == k, None] + np.arange(k)  # trials x k row indices
        try:
            chol = np.linalg.cholesky(np.stack([b for b in system.blocks if len(b) == k]))
        except np.linalg.LinAlgError:
            raise CovarianceError("covariance matrix is not positive definite") from None
        design_w[rows] = np.linalg.solve(chol, system.design[rows])
        y_w[rows] = np.linalg.solve(chol, system.y[rows, None])[..., 0]
    q, r = np.linalg.qr(design_w)
    singular_values = np.linalg.svd(r, compute_uv=False)
    if singular_values[-1] == 0.0:
        raise NumericalError("design matrix is rank deficient (disconnected network?)")
    # s_min / s_max < 1e-6 is a condition number above 1e12, tested unsquared so nothing overflows
    if singular_values[-1] / singular_values[0] < CONDITION_ERROR**-0.5:
        raise NumericalError(
            f"normal equations too ill-conditioned: condition number exceeds {CONDITION_ERROR:.0e}"
        )
    condition = float((singular_values[0] / singular_values[-1]) ** 2)
    notes: tuple[str, ...] = ()
    if condition > CONDITION_WARNING:
        notes = (f"ill-conditioned normal equations (condition number {condition:.3e})",)

    estimates = np.linalg.solve(r, q.T @ y_w)
    r_inv = np.linalg.inv(r)
    covariance = r_inv @ r_inv.T
    covariance = (covariance + covariance.T) / 2.0

    result = NmaResult(
        reference=system.reference,
        treatments=system.treatments,
        parameters=system.parameters,
        estimates=estimates,
        covariance=covariance,
        ci_level=ci_level,
        comparisons={},
        condition_number=condition,
        notes=notes,
    )
    table = league_table(result)
    return replace(result, comparisons={(c.treatment, c.comparator): c for c in table})


def _comparisons(
    result: NmaResult, treatments: Sequence[str], comparators: Sequence[str], a, b, level: float
) -> tuple[ComparisonResult, ...]:
    """Pooled comparisons treatment minus comparator, at design columns a and b.

    Over the estimates and covariance padded with the reference's zero row
    and column, md = theta_a - theta_b and var = (C_aa - C_ab) - (C_ab - C_bb),
    the grouping in which (e_a - e_b)' C (e_a - e_b) rounds.
    """
    theta = np.append(result.estimates, 0.0)
    cov = np.pad(result.covariance, (0, 1))
    md = theta[a] - theta[b]
    se = np.sqrt(np.maximum((cov[a, a] - cov[a, b]) - (cov[a, b] - cov[b, b]), 0.0))
    z = z_for_level(level)
    bounds = (md - z * se).tolist(), (md + z * se).tolist()
    return tuple(
        map(ComparisonResult, treatments, comparators, md.tolist(), se.tolist(), *bounds, repeat(level))
    )


def comparison(result: NmaResult, a: str, b: str, level: float | None = None) -> ComparisonResult:
    """Pooled comparison a minus b with its normal-based confidence interval."""
    columns = []
    for node in (a, b):
        if (column := result.columns.get(canonical(node))) is None:
            raise EngineError(f"unknown treatment {node!r}")
        columns.append([column])
    level = result.ci_level if level is None else level
    return _comparisons(result, (a,), (b,), *np.array(columns), level)[0]


def league_table(result: NmaResult) -> tuple[ComparisonResult, ...]:
    """Every ordered pair of distinct treatments, in deterministic node order,
    from the estimates and their covariance alone."""
    names = result.treatments
    columns = np.array([result.columns[canonical(node)] for node in names], dtype=int)
    a, b = np.nonzero(~np.eye(len(names), dtype=bool))  # nodes are distinct treatments
    return _comparisons(
        result, [names[i] for i in a], [names[j] for j in b], columns[a], columns[b], result.ci_level
    )


def comparison_rows(result: NmaResult) -> list[dict]:
    """Plot-ready rows: treatment, comparator, md, ci_lower, ci_upper, se."""
    return [
        {
            "treatment": c.treatment,
            "comparator": c.comparator,
            "md": c.md,
            "ci_lower": c.ci_lower,
            "ci_upper": c.ci_upper,
            "se": c.se,
        }
        for c in result.comparisons.values()
    ]


def result_to_dict(result: NmaResult) -> dict:
    """Structured form mirroring the result type."""
    return {
        "reference": result.reference,
        "treatments": list(result.treatments),
        "ci_level": result.ci_level,
        "basic_estimates": {
            t: float(result.estimates[j]) for j, t in enumerate(result.parameters)
        },
        "covariance": [[float(v) for v in row] for row in result.covariance],
        "condition_number": result.condition_number,
        "notes": list(result.notes),
        "comparisons": comparison_rows(result),
    }
