"""Independent reference results for the benchmark's checks.

Nothing here imports estimeta.  The fixed-effects network meta-analysis is
solved from the generator's own records as a precision-weighted Laplacian
problem (Rücker, Res. Synth. Methods 3 (2012) 312-324): every trial adds
X_t' V_t^-1 X_t to the information matrix and X_t' V_t^-1 y_t to the score,
with V_t the trial's contrast covariance built from its arm variances.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

from evidence import ci_se

# Criterion 4 of the acceptance suite: GLS against a brute-force solve.
RTOL, ATOL = 1e-8, 1e-11


def gls(trials: list[tuple[list[tuple[str, str, float]], np.ndarray]], reference: str):
    """Solve from per-trial blocks.

    `trials` holds, per trial, its contrasts as (treatment, comparator, md)
    and their covariance.  Returns (parameters, estimates vs reference,
    covariance).
    """
    names = sorted({name for rows, _ in trials for t, c, _ in rows for name in (t, c)})
    index = {name: i for i, name in enumerate(names)}
    info = np.zeros((len(names), len(names)))
    score = np.zeros(len(names))
    for rows, cov in trials:
        design = np.zeros((len(rows), len(names)))
        for r, (t, c, _) in enumerate(rows):
            design[r, index[t]], design[r, index[c]] = 1.0, -1.0
        weight = np.linalg.inv(cov)
        info += design.T @ weight @ design
        score += design.T @ weight @ np.array([md for _, _, md in rows])
    keep = [i for i, name in enumerate(names) if name != reference]
    reduced = info[np.ix_(keep, keep)]
    covariance = np.linalg.inv(reduced)
    estimates = covariance @ score[keep]
    return [names[i] for i in keep], estimates, covariance


def slice_trials(evidence, endpoint: str, strategy: str):
    """Per-trial contrast rows and covariance of one slice of a generated base."""
    groups = defaultdict(list)
    for c in evidence.contrasts:
        if c.row["endpoint_name"] == endpoint and c.strategy == strategy:
            groups[c.row["trial_id"]].append(c)
    out = []
    for trial_id, group in groups.items():
        rows = [(c.row["treatment"], c.row["comparator"], c.row["md"]) for c in group]
        if len(group) == 1:
            cov = np.array([[group[0].se ** 2]])
        else:
            label = group[0].row["estimand_label"]
            arms = {name for t, c, _ in rows for name in (t, c)}
            var = {a: evidence.arm_se[(trial_id, label, endpoint, a)] ** 2 for a in arms}
            signs = [{t: 1.0, c: -1.0} for t, c, _ in rows]
            cov = np.array([[sum(v * si.get(a, 0.0) * sj.get(a, 0.0) for a, v in var.items())
                             for sj in signs] for si in signs])
        out.append((rows, cov))
    return out


def close(a, b, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(np.asarray(b))))


def check_result(result, trials, rtol: float = RTOL) -> list[str]:
    """Compare an NmaResult's estimates and covariance with the oracle's."""
    names, estimates, covariance = gls(trials, result.reference)
    order = [names.index(p) for p in result.parameters]
    problems = []
    if sorted(names) != sorted(result.parameters):
        return [f"parameters differ from the oracle's ({len(result.parameters)} vs {len(names)})"]
    if not close(result.estimates, estimates[order], rtol):
        problems.append("estimates differ from the GLS oracle")
    if not close(result.covariance, covariance[np.ix_(order, order)], rtol):
        problems.append("covariance differs from the GLS oracle")
    return problems


# --- the bundled case study, read with the csv module alone ------------------

def case_study_ses(path) -> dict:
    """Contrast SE per (trial, label, endpoint, treatment, comparator), lower-cased.

    A contrast with a confidence interval gets (hi - lo) / 2z; one without
    gets the hypot of its two arms' interval-derived SEs.
    """
    sections: dict[str, list[dict]] = defaultdict(list)
    section, header = None, None
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                if row and row[0].lstrip("#") in ("trials", "estimands", "contrasts", "arms"):
                    section, header = row[0].lstrip("#"), None
                continue
            if header is None:
                header = row
            else:
                sections[section].append(dict(zip(header, row)))

    def key(row, *fields):
        return tuple(row[f].lower() for f in ("trial_id", "estimand_label", "endpoint_name", *fields))

    arm_se = {key(a, "treatment"): ci_se(float(a["ci_lower"]), float(a["ci_upper"])) for a in sections["arms"]}
    out = {}
    for c in sections["contrasts"]:
        if c["ci_lower"]:
            se = ci_se(float(c["ci_lower"]), float(c["ci_upper"]))
        else:
            trial, label, endpoint = key(c)
            se = math.hypot(arm_se[(trial, label, endpoint, c["treatment"].lower())],
                            arm_se[(trial, label, endpoint, c["comparator"].lower())])
        out[key(c, "treatment", "comparator")] = se
    return out

