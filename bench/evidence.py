"""Seeded synthetic evidence bases for the benchmark.

The generator uses only the standard library, so every value it writes is a
plain Python float and round-trips through ``repr``.  It keeps the records it
wrote (mean differences, arm standard errors, and each contrast's standard
error with where it comes from) so that the checks can compare estimeta's
output with them; estimeta itself only ever sees the CSV and JSON files.

The make-up of each base (treatments, trials, three-arm trials, standard-error
sources) is fixed; the seed chooses the graph, the effects and the standard
errors.  That keeps the amount of work in a run the same from seed to seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

Z95 = NormalDist().inv_cdf(0.975)

HBA1C = "change from baseline in HbA1c"
WEIGHT = "change from baseline in body weight"
WIDE = "change from baseline in fasting plasma glucose"
UNITS = {HBA1C: "%-points", WEIGHT: "kg", WIDE: "mmol/L"}
POPULATION = "Adults with type 2 diabetes on background metformin"
EVENTS = ("initiation of anti-diabetic rescue medication", "premature treatment discontinuation")
HYP, TP = "hypothetical", "treatment_policy"
# Trials name the same two strategies differently, as the case study does.
LABEL_PAIRS = (("hypothetical", "treatment policy"), ("de-jure", "de-facto"), ("efficacy", "treatment regimen"))
# Treatment-policy effects are the hypothetical ones shrunk toward the null.
TP_SHRINK = 0.7

SECTION_FIELDS = {
    "trials": ["trial_id", "arms"],
    "estimands": ["trial_id", "label", "population", "endpoint_name", "units",
                  "timepoint_weeks", "summary_measure", "ie_handlings"],
    "contrasts": ["trial_id", "estimand_label", "endpoint_name", "treatment", "comparator",
                  "md", "se", "ci_lower", "ci_upper", "ci_level"],
    "arms": ["trial_id", "estimand_label", "endpoint_name", "treatment", "n",
             "mean_change", "ci_lower", "ci_upper", "ci_level"],
}


@dataclass
class Contrast:
    """One written contrast row plus what the checks need to know about it."""

    row: dict
    strategy: str  # HYP or TP
    source: str  # "reported_se", "from_ci" or "from_arms"
    se: float  # the SE estimeta must derive from what was written


@dataclass
class Evidence:
    trials: list[dict] = field(default_factory=list)
    estimands: list[dict] = field(default_factory=list)
    contrasts: list[Contrast] = field(default_factory=list)
    arms: list[dict] = field(default_factory=list)
    arm_se: dict = field(default_factory=dict)  # (trial, label, endpoint, treatment) -> SE
    treatments: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "trials": [{"trial_id": t["trial_id"], "arms": list(t["arms"])} for t in self.trials],
            "estimands": [
                {**e, "ie_handlings": [{"event_name": ev, "strategy": s} for ev, s in e["ie_handlings"]]}
                for e in self.estimands
            ],
            "contrasts": [c.row for c in self.contrasts],
            "arms": self.arms,
        }

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.as_dict(), indent=1) + "\n", encoding="utf-8")

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            sections = {
                "trials": [{"trial_id": t["trial_id"], "arms": ";".join(t["arms"])} for t in self.trials],
                "estimands": [
                    {**e, "ie_handlings": ";".join(f"{ev}:{s}" for ev, s in e["ie_handlings"])}
                    for e in self.estimands
                ],
                "contrasts": [c.row for c in self.contrasts],
                "arms": self.arms,
            }
            for name, rows in sections.items():
                writer.writerow([f"#{name}"])
                writer.writerow(SECTION_FIELDS[name])
                for row in rows:
                    writer.writerow([_cell(row[f]) for f in SECTION_FIELDS[name]])


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def ci_se(lower: float, upper: float) -> float:
    return (upper - lower) / (2.0 * Z95)


class _Writer:
    """Appends one trial at a time to an Evidence, recording what it wrote."""

    def __init__(self, rng: random.Random, evidence: Evidence):
        self.rng = rng
        self.ev = evidence

    def trial(self, trial_id: str, arms: list[str], endpoints: list[str], labels: tuple[str, str]) -> None:
        self.ev.trials.append({"trial_id": trial_id, "arms": arms})
        for endpoint in endpoints:
            for label, strategy in zip(labels, (HYP, TP)):
                self.ev.estimands.append({
                    "trial_id": trial_id, "label": label, "population": POPULATION,
                    "endpoint_name": endpoint, "units": UNITS[endpoint], "timepoint_weeks": 24,
                    "summary_measure": "mean_difference",
                    "ie_handlings": [(event, strategy) for event in EVENTS],
                })

    def arm_rows(self, trial_id: str, label: str, endpoint: str, arms: list[str],
                 means: list[float], ses: list[float]) -> None:
        for arm, mean, se in zip(arms, means, ses):
            lower, upper = mean - Z95 * se, mean + Z95 * se
            self.ev.arms.append({
                "trial_id": trial_id, "estimand_label": label, "endpoint_name": endpoint,
                "treatment": arm, "n": 150 + self.rng.randrange(300), "mean_change": mean,
                "ci_lower": lower, "ci_upper": upper, "ci_level": 0.95,
            })
            self.ev.arm_se[(trial_id, label, endpoint, arm)] = ci_se(lower, upper)

    def contrast(self, trial_id: str, label: str, strategy: str, endpoint: str, treatment: str,
                 comparator: str, md: float, se: float, source: str) -> None:
        row = {"trial_id": trial_id, "estimand_label": label, "endpoint_name": endpoint,
               "treatment": treatment, "comparator": comparator, "md": md,
               "se": None, "ci_lower": None, "ci_upper": None, "ci_level": None}
        if source == "reported_se":
            row["se"] = se
        elif source == "from_ci":
            row["ci_lower"], row["ci_upper"], row["ci_level"] = md - Z95 * se, md + Z95 * se, 0.95
            se = ci_se(row["ci_lower"], row["ci_upper"])
        else:
            se = math.hypot(self.ev.arm_se[(trial_id, label, endpoint, treatment)],
                            self.ev.arm_se[(trial_id, label, endpoint, comparator)])
        self.ev.contrasts.append(Contrast(row, strategy, source, se))

    def slice_(self, trial_id: str, label: str, strategy: str, endpoint: str, arms: list[str],
               effects: dict[str, float], sources: list[str], with_arms: bool) -> None:
        """Contrasts of every non-first arm against the first, plus arm rows if asked."""
        rng = self.rng
        scale = 1.0 if strategy == HYP else TP_SHRINK
        arm_ses = [rng.uniform(0.07, 0.35) for _ in arms]
        base_mean = rng.uniform(-2.0, -0.5)
        mds = [0.0] + [scale * (effects[a] - effects[arms[0]]) + rng.gauss(0.0, 0.1) for a in arms[1:]]
        if with_arms:
            self.arm_rows(trial_id, label, endpoint, arms, [base_mean + md for md in mds], arm_ses)
        for k, arm in enumerate(arms[1:], start=1):
            se = math.hypot(arm_ses[0], arm_ses[k])
            self.contrast(trial_id, label, strategy, endpoint, arm, arms[0], mds[k], se, sources[k - 1])


def _designs(rng: random.Random, treatments: list[str], n_trials: int, n_three_arm: int) -> list[list[str]]:
    """A spanning chain of two-arm trials, then random two- and three-arm trials, shuffled."""
    order = treatments[:]
    rng.shuffle(order)
    designs = [[order[i], order[i + 1]] for i in range(len(order) - 1)]
    designs += [rng.sample(treatments, 3) for _ in range(n_three_arm)]
    designs += [rng.sample(treatments, 2) for _ in range(n_trials - len(designs))]
    rng.shuffle(designs)
    return designs


def ingest_large(seed: int) -> Evidence:
    """200 trials (60 three-arm) of 30 treatments; two endpoints and two
    estimand labels per trial; SE sources in equal thirds.

    Arm rows are written for every multi-arm slice and for every slice whose
    contrast takes its SE from the arms.
    """
    rng = random.Random(seed)
    ev = Evidence(treatments=[f"Drug {i:02d} {5 * (1 + i % 4)} mg" for i in range(30)])
    writer = _Writer(rng, ev)
    effects = {ep: {t: rng.gauss(0.0, 0.6) for t in ev.treatments} for ep in (HBA1C, WEIGHT)}
    sources = ("reported_se", "from_ci", "from_arms")
    # One rotation per trial size keeps the mix, and so the work, independent of the seed.
    turn = {2: 0, 3: 0}
    for i, arms in enumerate(_designs(rng, ev.treatments, 200, 60)):
        trial_id, labels = f"TRIAL-{i:04d}", LABEL_PAIRS[i % len(LABEL_PAIRS)]
        writer.trial(trial_id, arms, [HBA1C, WEIGHT], labels)
        for endpoint in (HBA1C, WEIGHT):
            for label, strategy in zip(labels, (HYP, TP)):
                k = turn[len(arms)]
                picked = [sources[(k + j) % 3] for j in range(len(arms) - 1)]
                turn[len(arms)] += len(arms) - 1
                with_arms = len(arms) > 2 or "from_arms" in picked
                writer.slice_(trial_id, label, strategy, endpoint, arms, effects[endpoint], picked, with_arms)
    return ev


# The wide-weight endpoint: a connected chain whose edge SEs alternate 1e-3 and
# 1e2.  It does not depend on the seed.
WIDE_TREATMENTS = [f"Probe {i}" for i in range(10)]
WIDE_SES = [1e-3 if i % 2 == 0 else 1e2 for i in range(9)]
WIDE_MDS = [0.1 * (i + 1) for i in range(9)]


def analysis_large(seed: int) -> Evidence:
    """1,000 trials (150 three-arm) of 100 treatments on one endpoint under both
    strategies, plus the wide-weight chain.

    Two-arm contrasts carry a reported SE or a confidence interval, alternating;
    only three-arm trials carry arm rows (their contrasts report an SE too), so
    parsing stays cheap.
    """
    rng = random.Random(seed)
    ev = Evidence(treatments=[f"Drug {i:03d} {5 * (1 + i % 4)} mg" for i in range(100)])
    writer = _Writer(rng, ev)
    effects = {t: rng.gauss(0.0, 0.6) for t in ev.treatments}
    two_arm = 0
    for i, arms in enumerate(_designs(rng, ev.treatments, 1000, 150)):
        trial_id, labels = f"TRIAL-{i:04d}", LABEL_PAIRS[i % len(LABEL_PAIRS)]
        writer.trial(trial_id, arms, [HBA1C], labels)
        source = "reported_se" if len(arms) > 2 or two_arm % 2 == 0 else "from_ci"
        two_arm += len(arms) == 2
        for label, strategy in zip(labels, (HYP, TP)):
            writer.slice_(trial_id, label, strategy, HBA1C, arms, effects, [source] * (len(arms) - 1), len(arms) > 2)
    for i, (se, md) in enumerate(zip(WIDE_SES, WIDE_MDS)):
        trial_id, arms = f"WIDE-{i:02d}", [WIDE_TREATMENTS[i + 1], WIDE_TREATMENTS[i]]
        writer.trial(trial_id, arms, [WIDE], LABEL_PAIRS[0])
        writer.contrast(trial_id, LABEL_PAIRS[0][0], HYP, WIDE, arms[0], arms[1], md, se, "reported_se")
    return ev
