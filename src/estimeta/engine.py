"""Fixed-effects network meta-analysis by generalized least squares.

Contrasts are stacked into y = X theta + error with a block-diagonal
covariance, kept as its blocks, one per trial.  Two-arm trials contribute
a 1x1 block [se^2]; a k-arm trial contributes a block built from per-arm
variances (diagonal v_t + v_c, off-diagonal the shared arms' variance), so
that correlated treatment effects within multi-arm trials are accounted for.
The design X is the network's signed incidence matrix without the
reference's column; a system keeps each row's two columns.  The solve writes
the whitened [X, y] at once, each trial's rows over its block's own columns
by the Cholesky factor of the block; QR of it gives R and Q'y, and neither
Q, X nor the dense covariance (both built only on demand, as
`GlsSystem.design` and `.sigma`) nor its inverse is formed.  The singular
values of R are a slice's one numeric verdict (assembly checks connectivity
by traversal alone).  Each solve computes its league table once, as
node-by-node arrays of md and se; `NmaResult.comparisons` and `comparison()`
form each interval by one formula.

A slice's blocks are built once, by `trial_blocks`, from the caller's
evidence base (the multi-arm blocks of one shape as one stacked product):
the feasibility report keeps them, and `assemble_gls`, the one way to build
a `GlsSystem`, assembles the analysis's system over them.
One function judges the blocks of `trial_covariance`, the solve and the
multi-arm ones of `trial_blocks`: `_block_factors` factors the blocks of one
size in one stack (a 1x1 block by its root, larger ones by one batched
Cholesky call) and refuses the first that fails by its trial.  So
feasibility, `validate_evidence` and the solve, which whitens by those
factors, give one verdict per trial.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Any, Optional

import numpy as np

from .estimands import canonical
from .ingest import ContrastEstimate, EvidenceBase
from .network import EvidenceNetwork, connected_components
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


def trial_covariance(contrasts: Sequence[ContrastEstimate],
                     arm_variances: Mapping[str, float] | None = None) -> np.ndarray:
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
    if len(contrasts) > 1 and arm_variances is None:
        raise CovarianceError("shared-arm variance unidentifiable: multi-arm trial needs arm-level variances")
    block = np.array([[contrasts[0].se ** 2]]) if len(contrasts) == 1 else _arm_blocks(
        np.array([_forest(contrasts, arm_variances)]), np.array([[*arm_variances.values()]], dtype=float))[0]
    _block_factors([block], contrasts)
    return block


def _forest(contrasts: Sequence[ContrastEstimate], arms: Iterable[str]) -> list[tuple[int, int]]:
    """Each contrast's (treatment, comparator) column in the order of `arms`, refused unless
    every arm is there and the contrasts, as edges over the arms, form a forest."""
    column = {arm: j for j, arm in enumerate(arms)}
    component = list(range(len(column)))  # union-find (quick-find) over the arms
    ends = []
    for c in contrasts:
        if (t := column.get(c.treatment_key)) is None or (m := column.get(c.comparator_key)) is None:
            raise CovarianceError(f"shared-arm variance unidentifiable: no arm variance for "
                                  f"{c.comparator_key if t is not None else c.treatment_key!r} in trial {c.trial_id!r}")
        if (a := component[t]) == (b := component[m]):
            raise CovarianceError(f"covariance of trial {c.trial_id!r} is not positive definite: its contrasts "
                                  "are linearly dependent (they close a cycle over its arms)")
        component = [a if k == b else k for k in component]
        ends.append((t, m))
    return ends


def _arm_blocks(ends: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """S diag(v) S' of the multi-arm trials of one shape, stacked: S is +1 at each contrast's treatment
    and -1 at its comparator (trials x contrasts x 2 arm columns), v the trials x arms variances."""
    signs, (trial, row) = np.zeros((*ends.shape[:2], variances.shape[1])), np.indices(ends.shape[:2])
    signs[trial, row, ends[..., 0]], signs[trial, row, ends[..., 1]] = 1.0, -1.0
    # each entry sums at most two nonzero, exactly signed variances (an overflow is refused later)
    with np.errstate(over="ignore"):
        return (signs * variances[:, None, :]) @ signs.transpose(0, 2, 1)


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


@dataclass(frozen=True, eq=False, init=False)
class GlsSystem:
    """Stacked contrast system over basic parameters vs one reference.

    A row of the design X is +1 at its treatment's column and -1 at its comparator's: `ends` keeps
    the two (-1 for the reference, which has none), and X is built on demand.  X may be given instead.
    """

    y: np.ndarray
    ends: np.ndarray  # rows x 2 design columns
    blocks: tuple[np.ndarray, ...]  # per-trial covariance blocks, in row order
    reference: str
    treatments: tuple[str, ...]  # full node order, reference included
    parameters: tuple[str, ...]  # design columns (non-reference treatments)
    contrasts: tuple[ContrastEstimate, ...]

    def __init__(self, y, blocks, reference, treatments, parameters, contrasts, ends=None, design=None) -> None:
        if ends is None:  # the column of each row's +1 and of its -1, or -1 where it has none
            ends = np.column_stack([np.where((design == s).any(1), (design == s).argmax(1), -1) for s in (1.0, -1.0)])
        vars(self).update(y=y, ends=ends, blocks=tuple(blocks), reference=reference, treatments=treatments,
                          parameters=parameters, contrasts=contrasts)
        if design is not None and not np.array_equal(self.design, design):
            raise ValueError("a design row must be +1 at one column and -1 at another, or one of the two")

    @property
    def design(self) -> np.ndarray:
        """X, built on demand; the solve never uses it."""
        design, rows = np.zeros((len(self.y), len(self.parameters) + 1)), np.arange(len(self.y))
        design[rows, self.ends[:, 0]], design[rows, self.ends[:, 1]] = 1.0, -1.0
        return design[:, :-1]

    @property
    def sigma(self) -> np.ndarray:
        """The dense block-diagonal covariance, built on demand; the solve never uses it."""
        sigma, row = np.zeros((len(self.y), len(self.y))), 0
        for block in self.blocks:
            sigma[row : row + len(block), row : row + len(block)] = block
            row += len(block)
        return sigma


def assemble_gls(net: EvidenceNetwork, reference: str, blocks: Sequence[np.ndarray]) -> GlsSystem:
    """Build y and the design's columns of a network slice over its per-trial covariance blocks.

    Row order is the network's deterministic contrast order (trial id,
    treatment, comparator); `blocks` are those `trial_blocks(net.edges, base)`
    returns, in the same order.  Connectivity is checked by traversal alone.
    """
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError("evidence network is disconnected")
    ref_idx = net.node_index(reference)
    ends = np.fromiter(chain.from_iterable(net.ends), np.intp, 2 * len(net.ends)).reshape(-1, 2)  # node indices
    return GlsSystem(
        y=np.array([c.md for c in net.edges]),
        ends=np.where(ends == ref_idx, -1, ends - (ends > ref_idx)),
        blocks=blocks,
        reference=net.nodes[ref_idx],
        treatments=net.nodes,
        parameters=net.nodes[:ref_idx] + net.nodes[ref_idx + 1 :],
        contrasts=net.edges,
    )


def trial_blocks(contrasts: Sequence[ContrastEstimate], base: EvidenceBase, *,
                 independence_fallback: bool = False) -> list[np.ndarray]:
    """Covariance blocks of the contrasts, grouped by trial in their order (`group_blocks`)."""
    return group_blocks([list(g) for _, g in groupby(contrasts, key=lambda c: c.trial_id)], base,
                        independence_fallback=independence_fallback)


def group_blocks(groups: Sequence[Sequence[ContrastEstimate]], base: EvidenceBase, *,
                 independence_fallback: bool = False) -> list[np.ndarray]:
    """Covariance blocks of groups of contrasts, one trial's each, in order.

    A single contrast's block is a (1, 1) view of one vector of se^2, which `ContrastEstimate`
    has judged.  A multi-arm block reads its arm rows by the contrasts' stored keys, and the
    blocks of one shape are one stacked product.  Every larger block, those built before a
    refused trial too, is judged by the solve's factorization, `_block_factors`.  With
    `independence_fallback`, a multi-arm trial without arm rows gets a diagonal block instead.
    """
    singles = iter(np.array([g[0].se ** 2 for g in groups if len(g) == 1]).reshape(-1, 1, 1))
    # shapes: (contrasts, arms) -> (block index, arm columns, arm variances) of each multi-arm trial
    blocks, multi, shapes = [], [], {}
    try:
        for group in groups:
            if len(group) == 1:
                blocks.append(next(singles))
                continue
            if variances := _arm_variances(group, base, independence_fallback):
                ends = _forest(group, variances)  # refused before its shape lists it
                shapes.setdefault((len(group), len(variances)), []).append((len(blocks), ends, [*variances.values()]))
            multi.append(len(blocks))
            blocks.append(None if variances else np.diag([c.se**2 for c in group]))  # None: built below
    finally:  # on a refusal too, so that a block before the refused trial that fails to factor is named first
        for index, ends, variances in (zip(*stack) for stack in shapes.values()):
            for i, block in zip(index, _arm_blocks(np.array(ends), np.array(variances))):
                blocks[i] = block
        _block_factors([blocks[i] for i in multi], [c for i in multi for c in groups[i]])
    return blocks


def _arm_variances(group: Sequence[ContrastEstimate], base: EvidenceBase, independence_fallback: bool) -> dict:
    """A multi-arm trial's arm key -> variance, in order of first appearance so that a message names
    the arms alike on every run; empty where the independence fallback stands in for them."""
    sample = group[0]
    if len(labels := {c.label_key for c in group}) > 1:
        raise CovarianceError(f"trial {sample.trial_id!r} contributes contrasts under several estimands: {sorted(labels)}")
    summaries = {arm: base.arm_summary(sample.trial_id, sample.label_key, sample.endpoint, arm)
                 for arm in dict.fromkeys(arm for c in group for arm in (c.treatment_key, c.comparator_key))}
    if missing := [repr(arm) for arm, summary in summaries.items() if summary is None]:
        if independence_fallback:  # a cycle over the arms is refused first
            _forest(group, summaries)
            return {}
        raise CovarianceError(f"shared-arm variance unidentifiable: trial {sample.trial_id!r} lacks an arm "
                              f"summary for {', '.join(missing)} ({sample.estimand_label} / {sample.endpoint})")
    return {arm: s.variance for arm, s in summaries.items()}


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

    Writes [X, y] whitened by the Cholesky factors of the blocks from `_block_factors`
    (`_whitened`), so a block it refuses is named by its trial, as in `trial_blocks`; then
    QR-factorizes it without forming Q.  Conditioning of X' Sigma^-1 X is checked: above 1e8 a
    note is recorded, above 1e12 the solve is refused.  The league table's md and se are
    computed here, once, as arrays; building its view refuses an invalid `ci_level`.
    """
    n = len(system.parameters)
    factor = np.linalg.qr(_whitened(system), mode="r")  # [R, Q'y], and Q is never formed
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


def _whitened(system: GlsSystem) -> np.ndarray:
    """[X_w, y_w]: each trial's rows of X and y whitened by its block's factor over the block's own
    columns (a 1x1 row's two as +-1 over its root); column -1 takes the reference's ends, then y_w."""
    starts = np.cumsum([0, *map(len, system.blocks)])[:-1]
    whitened, y_w = np.zeros((len(system.y), len(system.parameters) + 1)), system.y.copy()
    for k, (index, factors) in _block_factors(system.blocks, system.contrasts).items():
        rows = starts[index, None] + np.arange(k)  # trials x k row indices
        ends = system.ends[rows]  # trials x k x (treatment, comparator) columns
        if k == 1:  # the factors are the roots
            rows, roots = rows[:, 0], factors[:, 0, 0]
            whitened[rows, ends[:, 0, 0]], whitened[rows, ends[:, 0, 1]] = 1.0 / roots, -1.0 / roots
            y_w[rows] = system.y[rows] / roots
        else:
            columns = np.sort(ends.reshape(len(rows), 2 * k), axis=1)  # a block's columns, each once
            columns[:, 1:][columns[:, 1:] == columns[:, :-1]] = -1
            signs = np.where(columns[:, None] == ends[..., :1], 1.0,
                             np.where(columns[:, None] == ends[..., 1:], -1.0, 0.0))
            whitened[rows[..., None], columns[:, None]] = np.linalg.solve(factors, signs)
            y_w[rows] = np.linalg.solve(factors, system.y[rows, None])[..., 0]
    whitened[:, -1] = y_w
    return whitened


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
