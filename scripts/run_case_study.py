#!/usr/bin/env python3
"""Run the bundled semaglutide-vs-dulaglutide case study end to end.

Walks the full roadmap for both endpoints: cross-trial alignment against
each target estimand, feasibility, the two network meta-analyses, and the
hypothetical vs treatment-policy side-by-side comparison.
"""

from __future__ import annotations

import estimeta as em
from estimeta.engine import comparison
from estimeta.estimands import ALIGNMENT_COLUMNS, IntercurrentEventStrategy
from estimeta.pipeline import compare_strategies, feasibility_report, run_analysis, synthesize_meta

FOCUS = "semaglutide 2.0 mg QW"
STRATEGIES = (
    ("hypothetical", IntercurrentEventStrategy.HYPOTHETICAL),
    ("treatment_policy", IntercurrentEventStrategy.TREATMENT_POLICY),
)


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 66 - len(text)))


def main() -> None:
    base = em.parse_evidence(em.case_study_path())
    treatments = {key for trial in base.trials.values() for key in trial.arm_keys}
    print(f"evidence base: {len(base.trials)} trials, {len(treatments)} treatments, "
          f"{len(base.contrasts)} contrasts")
    for issue in em.validate_evidence(base):
        print(f"  {issue.severity}: {issue.message}")

    for endpoint in base.endpoint_keys():
        banner(endpoint)
        results = {}
        for label, strategy in STRATEGIES:
            meta = synthesize_meta(base, endpoint, strategy, label=label)
            report = feasibility_report(base, meta, endpoint)
            print(f"\n[{label}] feasibility: {report.verdict.value}")
            for reason in report.reasons:
                print(f"  {reason.severity}: {reason.code}: {reason.message}")
            print(f"  alignment ({' | '.join(ALIGNMENT_COLUMNS)}):")
            for (trial_id, _), (est, verdict) in report.restriction.verdicts.items():
                cells = " | ".join(verdict.attributes[col].status for col in ALIGNMENT_COLUMNS)
                flag = "ok" if verdict.compatible else "EXCLUDED"
                print(f"    {trial_id + ': ' + est.label:<32} {cells}  -> {flag}")
            results[label] = run_analysis(base, meta, endpoint)

        print(f"\npooled mean differences for {FOCUS}:")
        reference_rows = []
        for label, result in results.items():
            for treatment in result.treatments:
                if treatment == FOCUS:
                    continue
                c = comparison(result, FOCUS, treatment)
                reference_rows.append((label, treatment, c))
        for label, treatment, c in reference_rows:
            print(f"  [{label:<16}] vs {treatment:<24} "
                  f"{c.md:+.2f} ({c.ci_lower:+.2f}, {c.ci_upper:+.2f})")

        table = compare_strategies(results, endpoint)
        print("\nattenuation (treatment policy closer to the null):")
        for row in table.rows:
            if row.treatment == FOCUS and "dulaglutide" in row.comparator:
                hyp = row.by_label["hypothetical"].md
                pol = row.by_label["treatment_policy"].md
                print(f"  vs {row.comparator:<24} |{pol:+.2f}| < |{hyp:+.2f}| -> "
                      f"{'yes' if row.attenuation else 'no'}")


if __name__ == "__main__":
    main()
