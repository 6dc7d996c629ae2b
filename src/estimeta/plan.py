"""The analysis plan, declared before any analysis runs: which meta-estimands
over which endpoints.  `load_config` reads it with the evidence files' record
readers; `resolve_meta` finds a target in it or synthesizes one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .estimands import IntercurrentEventStrategy, MatchingMode, MetaEstimand, canonical
from .ingest import EvidenceBase
from .normal import z_for_level
from .pipeline import synthesize_meta
from .records import as_integer, as_number, json_object, located, names_of, records_of, text_of, value_of


@dataclass(frozen=True)
class AnalysisConfig:
    """Declarative plan: which meta-estimands over which endpoints."""

    meta_estimands: tuple[MetaEstimand, ...]
    endpoints: tuple[str, ...]
    reference: Optional[str] = None
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if not self.meta_estimands:
            raise ValueError("config declares no meta-estimands")
        if not self.endpoints:
            raise ValueError("config declares no endpoints")
        z_for_level(self.ci_level)  # refuses a level outside (0, 1), or one whose z is 0

    def meta_for(self, label: str, endpoint: str) -> Optional[MetaEstimand]:
        key, lab = canonical(endpoint), canonical(label)  # load_config admits one record per pair
        return next((m for m in self.meta_estimands if m.label_key == lab and m.endpoint.key == key), None)


def load_config(source: str | Path | dict, base: EvidenceBase) -> AnalysisConfig:
    """Load an analysis plan from a JSON file or its parsed document.

    A `meta_estimands` record that gives `strategy` is a shorthand, synthesized against
    the evidence base for every configured endpoint; any other record is a full
    definition, read as an evidence file's estimand record is, plus `treatments`.
    Every fault in the plan is an EvidenceFormatError at `meta_estimands[i]` or `config`,
    including a record whose label (canonically) an earlier record gave for the same endpoint.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig") as handle:  # a byte-order mark is skipped
            doc = json_object(handle.read(), "config")
    else:
        doc = source
    with located("config"):
        endpoints = tuple(map(canonical, names_of(doc, "endpoints", base.endpoint_keys())))
    metas: dict[tuple[str, str], MetaEstimand] = {}  # (label key, endpoint key) -> its one record
    for record, locator in records_of(doc, "meta_estimands", "config"):
        with located(locator):
            policy = {}  # the fields given; MetaEstimand's defaults stand for the rest
            if (tolerance := value_of(record, "timepoint_tolerance_weeks", None)) is not None:
                policy["timepoint_tolerance_weeks"] = as_integer(tolerance, "timepoint_tolerance_weeks")
            if value_of(record, "matching_mode", None) is not None:
                policy["matching_mode"] = MatchingMode.parse(text_of(record, "matching_mode"))
            if (shorthand := value_of(record, "strategy", None)) is None:
                made = [MetaEstimand.from_record(record, names_of(record, "treatments"), **policy)]
            else:
                if value_of(record, "ie_handlings", None) is not None:
                    raise ValueError("a record gives both 'strategy' (shorthand) and 'ie_handlings' (full definition)")
                if policy.get("timepoint_tolerance_weeks", 0) < 0:
                    raise ValueError("timepoint tolerance must be nonnegative")
                strategy = IntercurrentEventStrategy.parse(text_of(record, "strategy"))
                if not canonical(label := text_of(record, "label", strategy.value)):
                    raise ValueError("estimand label must be nonempty")
        if shorthand is not None:  # outside `located`: evidence that cannot satisfy a shorthand is no fault of the plan
            made = [synthesize_meta(base, endpoint, strategy, label=label, **policy) for endpoint in endpoints]
        with located(locator):
            for meta in made:
                if (key := (meta.label_key, meta.endpoint.key)) in metas:
                    raise ValueError(f"meta-estimand {meta.label!r} is declared twice for endpoint {key[1]!r}")
                metas[key] = meta
    with located("config"):
        return AnalysisConfig(
            meta_estimands=tuple(metas.values()),
            endpoints=endpoints,
            reference=text_of(doc, "reference", None),
            ci_level=as_number(value_of(doc, "ci_level", 0.95), "ci_level"),
        )


def resolve_meta(
    base: EvidenceBase,
    endpoint: str,
    label: str,
    *,
    config: Optional[AnalysisConfig] = None,
    tolerance_weeks: Optional[int] = None,
    mode: Optional[MatchingMode] = None,
) -> MetaEstimand:
    """Find a configured meta-estimand by label, or synthesize a pure-strategy one.

    A tolerance or mode given overrides the configured record's; one left as
    None keeps the record's, or `MetaEstimand`'s default when synthesizing.
    """
    policy = {"timepoint_tolerance_weeks": tolerance_weeks, "matching_mode": mode}
    policy = {name: value for name, value in policy.items() if value is not None}
    if config is not None and (meta := config.meta_for(label, endpoint)) is not None:
        return replace(meta, **policy) if policy else meta
    try:
        strategy = IntercurrentEventStrategy.parse(label)
    except ValueError:
        known = sorted({m.label for m in config.meta_estimands}) if config else []
        hint = f" (configured: {', '.join(known)})" if known else ""
        raise ValueError(
            f"unknown meta-estimand {label!r}: not configured and not a strategy token{hint}"
        ) from None
    return synthesize_meta(base, endpoint, strategy, label=label, **policy)
