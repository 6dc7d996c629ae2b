"""Fixed-effects network meta-analysis by generalized least squares.

Contrasts are stacked into y = X theta + error with a block-diagonal
covariance, kept as its blocks, one per trial.  Two-arm trials contribute
a 1x1 block [se^2]; a k-arm trial contributes a block built from per-arm
variances (diagonal v_t + v_c, off-diagonal the shared arms' variance), so
that correlated treatment effects within multi-arm trials are accounted for.
The design X is the network's signed incidence matrix without the
reference's column.  The solve whitens each trial's rows by the Cholesky
factor of its block; QR of the whitened [X, y] gives R and Q'y, and neither
Q, the dense covariance (built only on demand, as `GlsSystem.sigma`) nor its
inverse is formed.  The singular values of R are a slice's one numeric
verdict (assembly checks connectivity by traversal alone).  Each solve
computes its league table once, as node-by-node arrays of md and se;
`NmaResult.comparisons` and `comparison()` form each interval by one formula.

A slice's blocks are built once, by `trial_blocks`, from the caller's
evidence base: the feasibility report keeps them, and `assemble_gls`, the
one way to build a `GlsSystem`, assembles the analysis's system over them.
One function judges the blocks of `trial_covariance`, the solve and the
multi-arm ones of `trial_blocks`: `_block_factors` factors the blocks of one
size in one stack (a 1x1 block by its root, larger ones by one batched
Cholesky call) and refuses the first that fails by its trial.  So
feasibility, `validate_evidence` and the solve, which whitens by those
factors, give one verdict per trial.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Optional

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
    which a union-find pass decides; against rounding, every block must pass
    the judge the solve whitens by, `_block_factors`.
    """
    if not contrasts:
        raise CovarianceError("trial has no contrasts")
    block = np.array([[contrasts[0].se ** 2]]) if len(contrasts) == 1 else _arm_block(contrasts, arm_variances)
    _block_factors([block], contrasts)
    return block


def _arm_block(contrasts: Sequence[ContrastEstimate], arm_variances: Mapping[str, float] | None) -> np.ndarray:
    """S diag(v) S' over the arms of a multi-arm trial, refused unless its contrasts form a forest."""
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
    # S diag(v) S': each entry sums at most two nonzero, exactly signed variances (an overflow is refused later)
    with np.errstate(over="ignore"):
        return (signs * np.array(list(arm_variances.values()), dtype=float)) @ signs.T


def _block_factors(blocks: Sequence[np.ndarray],
                   contrasts: Sequence[ContrastEstimate]) -> dict[int, tuple[list[int], np.ndarray]]:
    """Block size -> (the indices of its blocks, in row order, and their stacked Cholesky factors).

    A 1x1 block's factor is its root; each larger size is factored by one batched call.  The first
    block, in row order, whose factor is not finite with a positive diagonal is refused by its trial,
    which `contrasts`, the blocks' rows in order, name.
    """
    by_size: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_size.setdefault(len(block), []).append(i)
    factors, refused = {}, len(blocks)
    for k, index in by_size.items():  # a 1x1 block is read as its float: quicker than stacking arrays
        stack = np.array([blocks[i].item() if k == 1 else blocks[i] for i in index]).reshape(-1, k, k)
        # a root only of a positive variance (NaN otherwise, with no warning), so a finite factor's
        # diagonal is positive, as a Cholesky factor's is
        factors[k] = index, np.sqrt(np.where(stack > 0.0, stack, np.nan)) if k == 1 else _cholesky(stack)
        if not np.isfinite(factors[k][1]).all():
            refused = min(refused, index[int(np.argmin(np.isfinite(factors[k][1]).all(axis=(1, 2))))])
    if refused < len(blocks):
        trial_id = contrasts[sum(map(len, blocks[:refused]))].trial_id
        raise CovarianceError(f"covariance of trial {trial_id!r} is not positive definite "
                              "(its Cholesky factorization fails)")
    return factors


def _cholesky(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of blocks, NaN for each block that fails to factor."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:  # the stacked call names no block: factor them one by one
        return np.concatenate([_cholesky(block[None]) for block in stack]) if len(stack) > 1 else stack * np.nan


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

    A single contrast's block is a (1, 1) view of one vector of se^2, which
    `ContrastEstimate` has judged.  Every larger block, those built before a
    refused trial too, is judged by the solve's factorization, `_block_factors`.
    With `independence_fallback`, a multi-arm trial without arm-level data
    degrades to a diagonal block instead of failing; the shared-arm
    correlation is then ignored.
    """
    groups = [list(group) for _, group in groupby(contrasts, key=lambda c: c.trial_id)]
    singles = iter(np.array([g[0].se ** 2 for g in groups if len(g) == 1]).reshape(-1, 1, 1))
    blocks = []
    try:
        for group in groups:
            blocks.append(next(singles) if len(group) == 1 else _block_for_trial(group, base, independence_fallback))
    finally:  # on a refusal too, so that a block before the refused trial that fails to factor is named first
        multi = [i for i, block in enumerate(blocks) if len(block) > 1]
        _block_factors([blocks[i] for i in multi], [c for i in multi for c in groups[i]])
    return blocks


def _block_for_trial(
    group: Sequence[ContrastEstimate], base: EvidenceBase, independence_fallback: bool
) -> np.ndarray:
    sample = group[0]
    if len(labels := {c.label_key for c in group}) > 1:
        raise CovarianceError(
            f"trial {sample.trial_id!r} contributes contrasts under several estimands: {sorted(labels)}"
        )
    # arms in order of first appearance, so that a message names them alike on every run
    summaries = {
        arm: base.arm_summary(sample.trial_id, sample.estimand_label, sample.endpoint, arm)
        for arm in dict.fromkeys(arm for c in group for arm in (c.treatment_key, c.comparator_key))
    }
    if missing := [repr(arm) for arm, summary in summaries.items() if summary is None]:
        if independence_fallback:  # unit arm variances: a cycle over the arms is refused first
            _arm_block(group, dict.fromkeys(summaries, 1.0))
            return np.diag([c.se**2 for c in group])
        raise CovarianceError(
            f"shared-arm variance unidentifiable: trial {sample.trial_id!r} lacks an arm "
            f"summary for {', '.join(missing)} ({sample.estimand_label} / {sample.endpoint})"
        )
    return _arm_block(group, {arm: s.variance for arm, s in summaries.items()})


@dataclass(frozen=True)
class ComparisonResult:
    treatment: str
    comparator: str
    md: float
    se: float
    ci_lower: float
    ci_upper: float
    ci_level: float


def _interval(a: str, b: str, md: float, se: float, level: float, z: float) -> ComparisonResult:
    """The comparison a minus b with its normal-based interval md -/+ z*se at `level`."""
    return ComparisonResult(a, b, md, se, md - z * se, md + z * se, level)


class LeagueView(Mapping):
    """Read-only (treatment, comparator) -> `ComparisonResult` over node-by-node arrays.

    Its keys are every ordered pair of distinct treatments, in the given spellings
    and in row-major node order; reading one builds its result from element [i, j].
    """

    def __init__(self, treatments, ci_level, md, se) -> None:
        self.treatments, self.ci_level, self.md, self.se = tuple(treatments), ci_level, md, se
        self._z = z_for_level(ci_level)  # refuses an invalid level
        self._index = {t: i for i, t in enumerate(self.treatments)}
        # canonical treatment -> its node index, the row and column of the arrays
        self.columns = {canonical(t): i for i, t in enumerate(self.treatments)}

    def reindexed(self, order: Sequence[int], treatments: Sequence[str]) -> "LeagueView":
        """The same table with its nodes taken in `order` and named `treatments`."""
        ix = np.ix_(order, order)
        return LeagueView(treatments, self.ci_level, self.md[ix], self.se[ix])

    def at(self, i: int, j: int) -> ComparisonResult:
        return _interval(self.treatments[i], self.treatments[j], self.md.item(i, j), self.se.item(i, j),
                         self.ci_level, self._z)

    def __getitem__(self, key) -> ComparisonResult:
        i, j = map(self._index.get, key) if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if i is None or j is None or i == j:
            raise KeyError(key)
        return self.at(i, j)

    def __iter__(self):
        return ((a, b) for a in self.treatments for b in self.treatments if a != b)

    def __len__(self) -> int:
        return len(self.treatments) * (len(self.treatments) - 1)


@dataclass(frozen=True, eq=False)
class NmaResult:
    """Basic-parameter estimates vs a reference, with derived comparisons."""

    reference: str
    treatments: tuple[str, ...]
    parameters: tuple[str, ...]
    estimates: np.ndarray
    covariance: np.ndarray
    ci_level: float
    comparisons: LeagueView
    condition_number: float
    notes: tuple[str, ...] = ()
    provenance: Optional[Any] = None


def solve_fixed_effects(system: GlsSystem, ci_level: float = 0.95) -> NmaResult:
    """Solve theta = (X' Sigma^-1 X)^-1 X' Sigma^-1 y with its covariance.

    Whitens each trial's rows of X and y by the Cholesky factor of its block
    from `_block_factors` (a 1x1 block's rows divided by its se, a larger block's
    solved against its factor), so a block it refuses is named by its trial, as
    in `trial_blocks`; then QR-factorizes the whitened [X, y] without forming Q.
    Conditioning of X' Sigma^-1 X is checked: above 1e8 a note is recorded,
    above 1e12 the solve is refused.  The league table's md and se are computed
    here, once, as arrays; building its view refuses an invalid `ci_level`.
    """
    starts = np.cumsum([0, *map(len, system.blocks)])[:-1]
    design_w, y_w = system.design.copy(), system.y.copy()
    for k, (index, factors) in _block_factors(system.blocks, system.contrasts).items():
        rows = starts[index, None] + np.arange(k)  # trials x k row indices
        if k == 1:  # the factors are the roots
            design_w[rows], y_w[rows] = system.design[rows] / factors, system.y[rows] / factors[..., 0]
        else:
            design_w[rows] = np.linalg.solve(factors, system.design[rows])
            y_w[rows] = np.linalg.solve(factors, system.y[rows, None])[..., 0]
    n = system.design.shape[1]
    factor = np.linalg.qr(np.column_stack([design_w, y_w]), mode="r")  # [R, Q'y], and Q is never formed
    r, qty = factor[:n, :n], factor[:n, n]
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

    estimates = np.linalg.solve(r, qty)
    r_inv = np.linalg.inv(r)
    covariance = r_inv @ r_inv.T
    covariance = (covariance + covariance.T) / 2.0

    # in node order, the reference's estimate, row and column zero: md = theta_a - theta_b and
    # var = (C_aa - C_ab) - (C_ab - C_bb), the grouping in which (e_a - e_b)' C (e_a - e_b) rounds
    at = system.treatments.index(system.reference)
    theta = np.insert(estimates, at, 0.0)
    cov = np.insert(np.insert(covariance, at, 0.0, axis=0), at, 0.0, axis=1)
    var = cov.diagonal()
    md = theta[:, None] - theta
    se = np.sqrt(np.maximum((var[:, None] - cov) - (cov - var), 0.0))
    return NmaResult(
        reference=system.reference,
        treatments=system.treatments,
        parameters=system.parameters,
        estimates=estimates,
        covariance=covariance,
        ci_level=ci_level,
        comparisons=LeagueView(system.treatments, ci_level, md, se),
        condition_number=condition,
        notes=notes,
    )


def comparison(result: NmaResult, a: str, b: str, level: float | None = None) -> ComparisonResult:
    """Pooled comparison a minus b with its normal-based confidence interval."""
    view = result.comparisons
    index = [view.columns.get(canonical(node)) for node in (a, b)]
    if None in index:
        raise EngineError(f"unknown treatment {(a, b)[index.index(None)]!r}")
    level = result.ci_level if level is None else level
    return _interval(a, b, view.md.item(*index), view.se.item(*index), level, z_for_level(level))


def league_table(result: NmaResult) -> tuple[ComparisonResult, ...]:
    """Every ordered pair of distinct treatments, in deterministic node order."""
    return tuple(result.comparisons.values())


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
        "comparisons": [
            {"treatment": c.treatment, "comparator": c.comparator, "md": c.md,
             "ci_lower": c.ci_lower, "ci_upper": c.ci_upper, "se": c.se}
            for c in league_table(result)
        ],
    }
