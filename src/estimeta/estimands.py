"""Typed treatment-effect definitions and alignment logic.

A trial-level estimand bundles the five attributes that pin down which
treatment effect a trial targeted: population, treatments, endpoint,
population-level summary measure, and one handling strategy per
intercurrent event.  A meta-analytical estimand is the same bundle plus a
matching policy (timepoint tolerance, strict/lenient mode) used to decide
which trial results are allowed into a pooled analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .records import as_integer, forms, interned, shared, text_of, value_of


def canonical(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace (`str.isspace` characters)."""
    return forms(text)[1]


def normalize_id(text: str) -> str:
    """Trim and collapse whitespace, preserving case for display."""
    return forms(text)[0]


def _parse_token(cls, token: str, what: str):
    """The member of enum `cls` a token names, ignoring case, spacing, '-' and '_'."""
    key = canonical(token).replace("-", "_").replace(" ", "_")
    for member in cls:
        if key == member.value:
            return member
    known = ", ".join(m.value for m in cls)
    raise ValueError(f"unknown {what} {token!r} (known: {known})")


class IntercurrentEventStrategy(enum.Enum):
    """The five recognised strategies for handling an intercurrent event."""

    TREATMENT_POLICY = "treatment_policy"
    HYPOTHETICAL = "hypothetical"
    COMPOSITE = "composite"
    WHILE_ON_TREATMENT = "while_on_treatment"
    PRINCIPAL_STRATUM = "principal_stratum"

    __hash__ = object.__hash__  # members are singletons, compared by identity

    @classmethod
    def parse(cls, token: str) -> "IntercurrentEventStrategy":
        return _parse_token(cls, token, "intercurrent-event strategy")


class SummaryMeasure(enum.Enum):
    """Population-level summary measures; only mean difference is supported."""

    MEAN_DIFFERENCE = "mean_difference"

    __hash__ = object.__hash__  # members are singletons, compared by identity

    @classmethod
    def parse(cls, token: str) -> "SummaryMeasure":
        return _parse_token(cls, token, "summary measure")


class MatchingMode(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"

    @classmethod
    def parse(cls, token: str) -> "MatchingMode":
        return _parse_token(cls, token, "matching mode")


@dataclass(frozen=True)
class IntercurrentEventHandling:
    """One intercurrent event and the strategy declared for it."""

    event_name: str
    strategy: IntercurrentEventStrategy

    def __post_init__(self) -> None:
        name = canonical(self.event_name)
        if not name:
            raise ValueError("intercurrent event name is empty after canonicalization")
        if ";" in name:  # a CSV cell joins a trial's events with ';'
            raise ValueError(f"intercurrent event name {name!r} contains ';'")
        object.__setattr__(self, "event_name", name)


@dataclass(frozen=True)
class EndpointSpec:
    """An endpoint variable: what was measured, in what units, when."""

    name: str
    units: str
    timepoint_weeks: int
    # Canonical name (groups contrasts and arm summaries) and units.
    key: str = field(init=False, repr=False, compare=False)
    units_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", canonical(self.name))
        object.__setattr__(self, "units_key", canonical(self.units))
        if not self.key:
            raise ValueError("endpoint name must be nonempty")
        if not self.units_key:
            raise ValueError("endpoint units must be nonempty")
        if self.timepoint_weeks <= 0:
            raise ValueError(f"timepoint_weeks must be positive, got {self.timepoint_weeks}")


def _freeze_handlings(
    handlings: Iterable[IntercurrentEventHandling],
) -> tuple[IntercurrentEventHandling, ...]:
    out = tuple(handlings)
    seen: set[str] = set()
    for h in out:
        if h.event_name in seen:
            raise ValueError(f"duplicate intercurrent event {h.event_name!r}")
        seen.add(h.event_name)
    return out


@dataclass(frozen=True)
class Estimand:
    """A trial-level treatment-effect definition (five attributes)."""

    label: str
    population: str
    treatments: frozenset[str]
    endpoint: EndpointSpec
    summary_measure: SummaryMeasure
    ie_handlings: tuple[IntercurrentEventHandling, ...]
    label_key: str = field(init=False, repr=False, compare=False)
    population_key: str = field(init=False, repr=False, compare=False)
    treatment_keys: frozenset[str] = field(init=False, repr=False, compare=False)
    # canonical event name -> declared strategy, in declaration order; read-only, one per
    # distinct handlings within a parse
    events: Mapping[str, IntercurrentEventStrategy] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "treatments", interned(frozenset(normalize_id(t) for t in self.treatments)))
        if len(self.treatments) < 2:
            raise ValueError("a comparative estimand needs at least two treatments")
        object.__setattr__(self, "ie_handlings", _freeze_handlings(self.ie_handlings))
        object.__setattr__(self, "label_key", canonical(self.label))
        object.__setattr__(self, "population_key", canonical(self.population))
        if not (self.label_key and self.population_key):  # a blank CSV cell is an absent field
            raise ValueError(f"estimand {'population' if self.label_key else 'label'} must be nonempty")
        object.__setattr__(self, "treatment_keys", interned(frozenset(canonical(t) for t in self.treatments)))
        events = shared((MappingProxyType, self.ie_handlings), lambda: MappingProxyType(
            {h.event_name: h.strategy for h in self.ie_handlings}))
        object.__setattr__(self, "events", events)

    @classmethod
    def from_record(cls, record: Mapping, treatments: Iterable[str], **policy) -> "Estimand":
        """An estimand from a record's label, population, endpoint (name, units, timepoint), summary
        measure and intercurrent-event handlings: evidence estimand records and full plan definitions."""
        return cls(
            label=normalize_id(text_of(record, "label")),
            population=interned(text_of(record, "population").strip()),
            treatments=frozenset(treatments),
            endpoint=interned(EndpointSpec(
                name=normalize_id(text_of(record, "endpoint_name")),
                units=interned(text_of(record, "units").strip()),
                timepoint_weeks=as_integer(value_of(record, "timepoint_weeks"), "timepoint_weeks"),
            )),
            summary_measure=SummaryMeasure.parse(text_of(record, "summary_measure")),
            ie_handlings=interned(_handlings(record)),
            **policy,
        )


def _handlings(record: Mapping) -> tuple[IntercurrentEventHandling, ...]:
    items = value_of(record, "ie_handlings", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise TypeError("field 'ie_handlings' must be a list of {event_name, strategy} objects")
    return tuple(
        IntercurrentEventHandling(
            text_of(item, "event_name"), IntercurrentEventStrategy.parse(text_of(item, "strategy"))
        )
        for item in items
    )


def class_key(est: Estimand) -> tuple:
    """What `MetaEstimand.verdict_key` reads of `est` but its treatments: the estimands of one endpoint
    that share it are one class of an evidence base (`EvidenceBase.estimand_classes`)."""
    return (est.summary_measure, est.endpoint.name, est.endpoint.units, est.endpoint.timepoint_weeks,
            est.population, *est.events.items())


@dataclass(frozen=True)
class MetaEstimand(Estimand):
    """A target estimand at the meta-analytical level, with matching policy."""

    timepoint_tolerance_weeks: int = 4
    matching_mode: MatchingMode = MatchingMode.LENIENT

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.timepoint_tolerance_weeks < 0:
            raise ValueError("timepoint tolerance must be nonnegative")

    @classmethod
    def from_estimand(
        cls,
        estimand: Estimand,
        *,
        tolerance_weeks: int = 0,
        mode: MatchingMode = MatchingMode.STRICT,
        label: str | None = None,
    ) -> "MetaEstimand":
        return cls(
            label=label if label is not None else estimand.label,
            population=estimand.population,
            treatments=estimand.treatments,
            endpoint=estimand.endpoint,
            summary_measure=estimand.summary_measure,
            ie_handlings=estimand.ie_handlings,
            timepoint_tolerance_weeks=tolerance_weeks,
            matching_mode=mode,
        )

    def verdict_key(self, est: Estimand) -> tuple:
        """All `matches_meta` reads of `est` under this target, quoted display strings included."""
        return (*class_key(est), est.treatment_keys - self.treatment_keys)


class Verdict(enum.Enum):
    IDENTICAL = "identical"
    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"


class EventDiff(NamedTuple):
    """Event-level differences between two estimands' IE handlings."""

    only_in_a: tuple[str, ...]
    only_in_b: tuple[str, ...]
    strategy_conflicts: tuple[tuple[str, IntercurrentEventStrategy, IntercurrentEventStrategy], ...]

    @property
    def empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.strategy_conflicts)


class AttributeDiff(NamedTuple):
    """Per-attribute comparison of two estimands."""

    population: Verdict
    treatments: Verdict
    endpoint: Verdict
    summary_measure: Verdict
    intercurrent_events: Verdict
    event_diff: EventDiff
    notes: tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        return all(
            v is Verdict.IDENTICAL
            for v in (
                self.population,
                self.treatments,
                self.endpoint,
                self.summary_measure,
                self.intercurrent_events,
            )
        )


def _text_verdict(ca: str, cb: str) -> Verdict:
    """Verdict on two canonical texts."""
    if ca == cb:
        return Verdict.IDENTICAL
    if set(ca.split()) & set(cb.split()):
        return Verdict.OVERLAPPING
    return Verdict.DISJOINT


def _set_verdict(ca: frozenset[str], cb: frozenset[str]) -> Verdict:
    """Verdict on two sets of canonical ids."""
    if ca == cb:
        return Verdict.IDENTICAL
    if ca & cb:
        return Verdict.OVERLAPPING
    return Verdict.DISJOINT


def compare_estimands(a: Estimand, b: Estimand) -> AttributeDiff:
    """Attribute-by-attribute diff of two trial-level estimands.

    Endpoint names and units compare exactly (after canonicalization);
    timepoints compare numerically.  The IE verdict is driven by the
    event-level diff: identical handlings, partially agreeing handlings,
    or no event handled the same way in both.
    """
    notes: list[str] = []

    if a.endpoint.key == b.endpoint.key and a.endpoint.units_key == b.endpoint.units_key:
        if a.endpoint.timepoint_weeks == b.endpoint.timepoint_weeks:
            endpoint = Verdict.IDENTICAL
        else:
            endpoint = Verdict.OVERLAPPING
            notes.append(
                f"endpoint timepoint differs ({a.endpoint.timepoint_weeks} vs {b.endpoint.timepoint_weeks} weeks)"
            )
    else:
        endpoint = Verdict.DISJOINT

    ev_a, ev_b = a.events, b.events
    only_a = tuple(sorted(set(ev_a) - set(ev_b)))
    only_b = tuple(sorted(set(ev_b) - set(ev_a)))
    shared = set(ev_a) & set(ev_b)
    conflicts = tuple(
        (name, ev_a[name], ev_b[name])
        for name in sorted(shared)
        if ev_a[name] is not ev_b[name]
    )
    diff = EventDiff(only_a, only_b, conflicts)
    if diff.empty:
        ie = Verdict.IDENTICAL
    elif len(conflicts) < len(shared):  # some shared event is handled alike
        ie = Verdict.OVERLAPPING
    else:
        ie = Verdict.DISJOINT
    for name in only_b:
        notes.append(f"event {name!r} declared only in {b.label}")
    for name in only_a:
        notes.append(f"event {name!r} declared only in {a.label}")
    for name, sa, sb in conflicts:
        notes.append(f"event {name!r}: {sa.value} vs {sb.value}")

    return AttributeDiff(
        population=_text_verdict(a.population_key, b.population_key),
        treatments=_set_verdict(a.treatment_keys, b.treatment_keys),
        endpoint=endpoint,
        summary_measure=Verdict.IDENTICAL if a.summary_measure is b.summary_measure else Verdict.DISJOINT,
        intercurrent_events=ie,
        event_diff=diff,
        notes=tuple(notes),
    )


class AttributeCheck(NamedTuple):
    """Outcome of one attribute in a trial-vs-meta match: ok, warn or fail."""

    status: str
    detail: str = ""


_OK = AttributeCheck("ok")  # shared: a slice's verdicts live as long as its result
# a verdict's attributes, in the order of its cells, blockers and warnings
_ATTRIBUTES = ("summary_measure", "endpoint", "intercurrent_events", "population", "treatments")


class MatchVerdict(NamedTuple):
    """Whether a trial estimand may contribute to a meta-analytical estimand."""

    compatible: bool
    blockers: tuple[str, ...]
    warnings: tuple[str, ...]
    attributes: Mapping[str, AttributeCheck]  # read-only: equal verdict keys share a verdict


def matches_meta(trial_estimand: Estimand, meta: MetaEstimand) -> MatchVerdict:
    """Decide whether a trial estimand is admissible under a meta-estimand.

    Blocking rules: summary measure must agree; endpoint name and units
    must agree with the timepoint within the meta's tolerance; every event
    the meta declares must be declared by the trial with the same strategy.
    Events the trial declares beyond the meta are warnings in lenient mode;
    in strict mode they block unless handled by a strategy the meta already
    uses.  Population and treatment differences never block -- they are
    screened qualitatively and surface as warnings only.

    An attribute's cell is `fail` with its blocking messages joined by "; ",
    else `warn` with its warnings joined, else ok.  `blockers` and `warnings`
    are those messages in attribute order, a failing cell's warnings too.
    """
    fails: dict[str, list[str]] = {attr: [] for attr in _ATTRIBUTES}
    warns: dict[str, list[str]] = {attr: [] for attr in _ATTRIBUTES}

    if trial_estimand.summary_measure is not meta.summary_measure:
        fails["summary_measure"].append(
            f"summary measure {trial_estimand.summary_measure.value} vs {meta.summary_measure.value}"
        )

    te, me = trial_estimand.endpoint, meta.endpoint
    if te.key != me.key or te.units_key != me.units_key:
        fails["endpoint"].append(f"endpoint {te.name!r} [{te.units}] vs {me.name!r} [{me.units}]")
    elif abs(te.timepoint_weeks - me.timepoint_weeks) > meta.timepoint_tolerance_weeks:
        fails["endpoint"].append(
            f"timepoint {te.timepoint_weeks} vs {me.timepoint_weeks} weeks exceeds "
            f"tolerance {meta.timepoint_tolerance_weeks}"
        )

    trial_events, meta_events = trial_estimand.events, meta.events
    for name, strategy in meta_events.items():
        if (declared := trial_events.get(name)) is None:
            fails["intercurrent_events"].append(f"event not declared: {name}")
        elif declared is not strategy:
            fails["intercurrent_events"].append(
                f"strategy mismatch for {name}: trial {declared.value} vs meta {strategy.value}"
            )
    for name in sorted(set(trial_events) - set(meta_events)):
        strategy = trial_events[name]
        blocking = meta.matching_mode is MatchingMode.STRICT and strategy not in meta_events.values()
        (fails if blocking else warns)["intercurrent_events"].append(f"extra event: {name} ({strategy.value})")

    if trial_estimand.population_key != meta.population_key:
        warns["population"].append(f"population differs: {trial_estimand.population!r} vs {meta.population!r}")

    if extra := sorted(trial_estimand.treatment_keys - meta.treatment_keys):
        warns["treatments"].append("treatments outside meta scope: " + ", ".join(extra))

    attrs = {
        attr: AttributeCheck("fail", "; ".join(fails[attr])) if fails[attr]
        else AttributeCheck("warn", "; ".join(warns[attr])) if warns[attr] else _OK
        for attr in _ATTRIBUTES
    }
    blockers = tuple(message for attr in _ATTRIBUTES for message in fails[attr])
    return MatchVerdict(
        compatible=not blockers,
        blockers=blockers,
        warnings=tuple(message for attr in _ATTRIBUTES for message in warns[attr]),
        attributes=MappingProxyType(attrs),
    )


ALIGNMENT_COLUMNS = (
    "population",
    "treatments",
    "endpoint",
    "summary_measure",
    "intercurrent_events",
)


class AlignmentRow(NamedTuple):
    label: str
    verdict: MatchVerdict


class AlignmentReport(NamedTuple):
    """One row per trial estimand, one column per attribute, vs one meta-estimand."""

    meta_label: str
    rows: tuple[AlignmentRow, ...]

    @property
    def feasible(self) -> bool:
        return all(row.verdict.compatible for row in self.rows)


def heterogeneity_matrix(estimands: Sequence[Estimand], meta: MetaEstimand) -> AlignmentReport:
    """Cross-trial alignment table against a target meta-estimand, one row per
    estimand, named by its label.

    A feasibility report's table is its restriction's verdicts, rendered
    by `pipeline.feasibility_to_dict` with rows named "<trial>: <label>".
    """
    rows = tuple(AlignmentRow(label=e.label, verdict=matches_meta(e, meta)) for e in estimands)
    if not rows:
        raise ValueError("heterogeneity_matrix needs at least one estimand")
    return AlignmentReport(meta_label=meta.label, rows=rows)
