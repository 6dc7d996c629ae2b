"""Evidence-base ingestion: parsing, derivation, and validation.

Accepts a section-tagged CSV or a nested JSON document describing trials,
trial-level estimands, relative-effect contrasts, and per-arm summaries.
Both formats are tokenized into the same records (one dict per CSV row or
JSON array element), read by the converters of `records`, and one builder
turns records into entities; what CSV cannot write is refused in both.  The rules
tying a contrast or an arm row to its trial run once, on the built base: a parse
refuses exactly the errors `validate_evidence` reports, wherever those rows stand.
Uncertainty is completed at parse time: a contrast may carry a reported
standard error, a confidence interval (SE back-calculated from its width),
or nothing at all, in which case the SE is derived from the two arms'
confidence intervals.  The precedence is reported > interval > arms.
A parse shares one object per distinct value among the records that carry it.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .estimands import Estimand, canonical, normalize_id
from .normal import z_for_level
from .records import (
    EvidenceFormatError,
    as_integer,
    as_number,
    json_object,
    located,
    names_of,
    parse_memo,
    records_of,
    text_of,
    value_of,
)


def se_from_ci(lower: float, upper: float, level: float = 0.95) -> float:
    """Back-calculate a standard error from a normal-based confidence interval.

    se = (upper - lower) / (2 z), with z the standard-normal quantile at
    (1 + level) / 2.
    """
    z = z_for_level(level)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"confidence bounds must be finite, got ({lower!r}, {upper!r})")
    if lower >= upper:
        raise ValueError(f"ci_lower must be below ci_upper, got ({lower!r}, {upper!r})")
    return (upper - lower) / (2.0 * z)


def _check_se(se: float, what: str) -> None:
    """Reject an SE whose square or inverse square is not a finite nonzero number."""
    variance = se * se  # se**2 would raise OverflowError
    if not (variance > 0.0 and math.isfinite(variance) and math.isfinite(1.0 / variance)):
        raise ValueError(f"{what} is out of range: {se!r} (se^2 and 1/se^2 must be finite and nonzero)")


class UncertaintySource(enum.Enum):
    REPORTED_SE = "reported_se"
    FROM_CI = "from_ci"
    FROM_ARMS = "from_arms"


def _coerce(entity, convert, *names: str) -> None:
    """Replace each named numeric field of a frozen entity by its converted value."""
    for name in names:
        value = getattr(entity, name)
        if value is not None:
            object.__setattr__(entity, name, convert(value, name))


@dataclass(frozen=True, slots=True)
class ArmSummary:
    """One arm's mean change from baseline with its confidence interval."""

    trial_id: str
    treatment: str
    n_randomized: int
    endpoint: str
    estimand_label: str
    mean_change: float
    ci_lower: float
    ci_upper: float
    ci_level: float = 0.95
    label_key: str = field(init=False, repr=False, compare=False)
    treatment_key: str = field(init=False, repr=False, compare=False)
    se: float = field(init=False, repr=False, compare=False)  # back-calculated from the interval

    def __post_init__(self) -> None:
        object.__setattr__(self, "trial_id", normalize_id(self.trial_id))
        object.__setattr__(self, "treatment", normalize_id(self.treatment))
        object.__setattr__(self, "endpoint", canonical(self.endpoint))
        object.__setattr__(self, "estimand_label", normalize_id(self.estimand_label))
        object.__setattr__(self, "label_key", canonical(self.estimand_label))
        object.__setattr__(self, "treatment_key", canonical(self.treatment))
        if not (self.label_key and self.endpoint):
            raise ValueError("arm summary needs a nonempty estimand label and endpoint")
        _coerce(self, as_integer, "n_randomized")
        _coerce(self, as_number, "mean_change", "ci_lower", "ci_upper", "ci_level")
        if self.n_randomized < 1:
            raise ValueError(f"n_randomized must be >= 1, got {self.n_randomized}")
        object.__setattr__(self, "se", se_from_ci(self.ci_lower, self.ci_upper, self.ci_level))
        _check_se(self.se, "the se implied by ci_lower and ci_upper")

    @property
    def key(self) -> tuple[str, str, str, str]:
        """(trial, estimand label key, endpoint key, treatment key)."""
        return (self.trial_id, self.label_key, self.endpoint, self.treatment_key)

    @property
    def variance(self) -> float:
        return self.se * self.se


@dataclass(frozen=True, slots=True)
class ContrastEstimate:
    """One trial's relative effect (treatment minus comparator) with its SE."""

    trial_id: str
    treatment: str
    comparator: str
    endpoint: str
    estimand_label: str
    md: float
    se: float
    source: UncertaintySource
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    ci_level: Optional[float] = None
    label_key: str = field(init=False, repr=False, compare=False)
    treatment_key: str = field(init=False, repr=False, compare=False)
    comparator_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trial_id", normalize_id(self.trial_id))
        object.__setattr__(self, "treatment", normalize_id(self.treatment))
        object.__setattr__(self, "comparator", normalize_id(self.comparator))
        object.__setattr__(self, "endpoint", canonical(self.endpoint))
        object.__setattr__(self, "estimand_label", normalize_id(self.estimand_label))
        object.__setattr__(self, "label_key", canonical(self.estimand_label))
        object.__setattr__(self, "treatment_key", canonical(self.treatment))
        object.__setattr__(self, "comparator_key", canonical(self.comparator))
        _coerce(self, as_number, "md", "se", "ci_lower", "ci_upper", "ci_level")
        if self.treatment_key == self.comparator_key:
            raise ValueError(f"contrast compares {self.treatment!r} with itself")
        if not self.se > 0.0:
            raise ValueError(f"se must be a positive finite number, got {self.se!r}")
        _check_se(self.se, "field 'se'")

    @property
    def key(self) -> tuple[str, str, str, str, str]:
        return (self.trial_id, self.treatment_key, self.comparator_key, self.endpoint, self.label_key)


@dataclass(frozen=True)
class TrialRecord:
    """A trial's randomized arms and its declared estimands."""

    trial_id: str
    arms: tuple[str, ...]
    estimands: Mapping[tuple[str, str], Estimand]  # (label key, endpoint key)
    arm_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)  # canonical arms, in order

    def __post_init__(self) -> None:
        # a parse keeps no blank arm name and trims the others, so a trial built in code does too
        object.__setattr__(self, "arms", tuple(filter(None, map(normalize_id, self.arms))))
        object.__setattr__(self, "arm_keys", tuple(canonical(a) for a in self.arms))
        if not self.trial_id.strip():
            raise ValueError("trial_id is empty")
        if self.trial_id.startswith("#"):  # in CSV, a row whose first cell starts with '#' is a tag or comment
            raise ValueError(f"trial id {self.trial_id!r} starts with '#'")
        if bad := [a for a in self.arms if ";" in a]:  # a CSV cell joins a trial's arms with ';'
            raise ValueError(f"arm name {bad[0]!r} of trial {self.trial_id!r} contains ';'")
        if len(self.arms) < 2:
            raise ValueError(f"trial {self.trial_id!r} needs at least two arms")
        if len(set(self.arm_keys)) != len(self.arms):
            raise ValueError(f"trial {self.trial_id!r} lists a duplicate arm")

    def estimand_for(self, label: str, endpoint_key: str) -> Optional[Estimand]:
        return self.estimands.get((canonical(label), canonical(endpoint_key)))


@dataclass(frozen=True)
class EvidenceBase:
    """Validated collection of trials, estimands, contrasts, and arm summaries."""

    trials: Mapping[str, TrialRecord]
    contrasts: tuple[ContrastEstimate, ...]
    arm_summaries: tuple[ArmSummary, ...]
    _arm_index: Mapping[tuple[str, str, str, str], ArmSummary] = field(
        init=False, repr=False, compare=False
    )
    # endpoint key -> trial id -> that trial's estimands of the endpoint, all in declaration order
    _estimand_index: Mapping[str, Mapping[str, list[Estimand]]] = field(init=False, repr=False, compare=False)
    # a slot is an (endpoint key, trial id, estimand label key): the slots -> their ids, numbered in
    # the order of their first contrasts; each contrast's slot id; and endpoint key -> the slot id of
    # each of its estimands, in `estimands_by_trial` order, -1 for one that no contrast lies under
    slots: Mapping[tuple[str, str, str], int] = field(init=False, repr=False, compare=False)
    slot_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    estimand_slots: Mapping[str, Sequence[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[tuple[str, str, str, str], ArmSummary] = {}
        for arm in self.arm_summaries:
            index.setdefault(arm.key, arm)
        object.__setattr__(self, "_arm_index", index)
        object.__setattr__(self, "slots", slots := {})
        ids = tuple(slots.setdefault((c.endpoint, c.trial_id, c.label_key), len(slots)) for c in self.contrasts)
        object.__setattr__(self, "slot_ids", ids)
        by_endpoint: dict[str, dict[str, list[Estimand]]] = {}
        object.__setattr__(self, "estimand_slots", estimand_slots := {})  # in step with `by_endpoint`
        for trial_id, trial in self.trials.items():
            for est in trial.estimands.values():
                by_endpoint.setdefault(key := est.endpoint.key, {}).setdefault(trial_id, []).append(est)
                estimand_slots.setdefault(key, []).append(slots.get((key, trial_id, est.label_key), -1))
        object.__setattr__(self, "_estimand_index", by_endpoint)

    def arm_summary(self, trial_id: str, estimand_label: str, endpoint_key: str,
                    treatment: str) -> Optional[ArmSummary]:
        """The arm row; keys are found as given, with no text canonicalized, since an index key is canonical."""
        return self._arm_index.get((trial_id, estimand_label, endpoint_key, treatment)) or self._arm_index.get(
            (trial_id, canonical(estimand_label), canonical(endpoint_key), canonical(treatment)))

    def endpoint_keys(self) -> tuple[str, ...]:
        return tuple(self._estimand_index)

    def estimands_by_trial(self, endpoint_key: str) -> Mapping[str, Sequence[Estimand]]:
        """Trial id -> the trial's estimands of a canonical endpoint key, in declaration
        order; a trial declaring none for the endpoint is absent."""
        return self._estimand_index.get(endpoint_key, {})

    def estimand_of(self, contrast: ContrastEstimate) -> Optional[Estimand]:
        trial = self.trials.get(contrast.trial_id)
        if trial is None:
            return None
        return trial.estimands.get((contrast.label_key, contrast.endpoint))


class Issue(NamedTuple):
    severity: str  # "error" or "warning"
    message: str


# --- parsing ---------------------------------------------------------------

# Fields of each section's records, in CSV column order.
_SECTION_FIELDS = {
    "trials": ["trial_id", "arms"],
    "estimands": [
        "trial_id",
        "label",
        "population",
        "endpoint_name",
        "units",
        "timepoint_weeks",
        "summary_measure",
        "ie_handlings",
    ],
    "contrasts": [
        "trial_id",
        "estimand_label",
        "endpoint_name",
        "treatment",
        "comparator",
        "md",
        "se",
        "ci_lower",
        "ci_upper",
        "ci_level",
    ],
    "arms": [
        "trial_id",
        "estimand_label",
        "endpoint_name",
        "treatment",
        "n",
        "mean_change",
        "ci_lower",
        "ci_upper",
        "ci_level",
    ],
}

def _optional_number(record: Mapping, name: str) -> Optional[float]:
    value = record.get(name)
    return None if value is None else as_number(value, name)


class _Builder:
    """Turns section records, whichever format they came from, into an EvidenceBase.

    It checks each record's fields, and the trial and estimand rules its trials dict
    keeps; contrasts and arm rows meet `_rule_errors` on the built base."""

    def __init__(self) -> None:
        self.trials: dict[str, TrialRecord] = {}
        self.arms: list[ArmSummary] = []
        self.arm_index: dict[tuple[str, str, str, str], ArmSummary] = {}  # first wins, as in the base
        self.contrast_records: list[Mapping] = []
        self.locators: dict[str, list[str]] = {"contrasts": [], "arms": []}  # beside each section's records

    def add(self, section: str, record: Mapping, locator: str) -> None:
        if section in self.locators:
            self.locators[section].append(locator)
        if section == "contrasts":  # resolved in build(): the SE may need arm rows read later
            self.contrast_records.append(record)
            return
        add = {"trials": self._add_trial, "estimands": self._add_estimand, "arms": self._add_arm}
        with located(locator):
            add[section](record)

    def _add_trial(self, record: Mapping) -> None:
        trial_id = normalize_id(text_of(record, "trial_id"))
        if trial_id in self.trials:
            raise ValueError(f"duplicate trial {trial_id!r}")
        self.trials[trial_id] = TrialRecord(trial_id=trial_id, arms=names_of(record, "arms"), estimands={})

    def _add_estimand(self, record: Mapping) -> None:
        """Declare an estimand of a trial: its five attributes as `Estimand.from_record` reads them."""
        trial_id = normalize_id(text_of(record, "trial_id"))
        trial = self.trials.get(trial_id)
        if trial is None:
            raise ValueError(f"estimand references unknown trial {trial_id!r}")
        estimand = Estimand.from_record(record, trial.arms)
        key = (estimand.label_key, estimand.endpoint.key)
        if key in trial.estimands:
            raise ValueError(
                f"duplicate estimand {estimand.label!r} for endpoint {estimand.endpoint.name!r} "
                f"in trial {trial_id!r}"
            )
        trial.estimands[key] = estimand

    def _add_arm(self, record: Mapping) -> None:
        arm = ArmSummary(
            trial_id=text_of(record, "trial_id"),
            treatment=text_of(record, "treatment"),
            n_randomized=as_integer(value_of(record, "n"), "n"),
            endpoint=text_of(record, "endpoint_name"),
            estimand_label=text_of(record, "estimand_label"),
            mean_change=value_of(record, "mean_change"),
            ci_lower=value_of(record, "ci_lower"),
            ci_upper=value_of(record, "ci_upper"),
            ci_level=value_of(record, "ci_level", 0.95),
        )
        self.arms.append(arm)
        self.arm_index.setdefault(arm.key, arm)

    def _contrast(self, record: Mapping) -> ContrastEstimate:
        trial_id = normalize_id(text_of(record, "trial_id"))
        label = normalize_id(text_of(record, "estimand_label"))
        endpoint_key = canonical(text_of(record, "endpoint_name"))
        treatment, comparator = text_of(record, "treatment"), text_of(record, "comparator")

        se, lo, hi, level = (_optional_number(record, f) for f in ("se", "ci_lower", "ci_upper", "ci_level"))
        has_ci = lo is not None and hi is not None
        if se is not None:
            source = UncertaintySource.REPORTED_SE
        elif has_ci:
            level = 0.95 if level is None else level
            source, se = UncertaintySource.FROM_CI, se_from_ci(lo, hi, level)
        else:
            estimand = (trial_id, canonical(label), endpoint_key)
            arm_t, arm_c = (self.arm_index.get((*estimand, canonical(name))) for name in (treatment, comparator))
            if arm_t is None or arm_c is None:
                raise ValueError(
                    "contrast carries no se and no confidence interval, and arm summaries "
                    "for both treatments are unavailable"
                )
            source, se = UncertaintySource.FROM_ARMS, math.hypot(arm_t.se, arm_c.se)
        return ContrastEstimate(
            trial_id=trial_id,
            treatment=treatment,
            comparator=comparator,
            endpoint=endpoint_key,
            estimand_label=label,
            md=value_of(record, "md"),
            se=se,
            source=source,
            ci_lower=lo,
            ci_upper=hi,
            ci_level=level if has_ci else None,
        )

    def build(self) -> EvidenceBase:
        contrasts = []
        for record, locator in zip(self.contrast_records, self.locators["contrasts"]):
            with located(locator):
                contrasts.append(self._contrast(record))
        base = EvidenceBase(trials=self.trials, contrasts=tuple(contrasts), arm_summaries=tuple(self.arms))
        for section, index, message in _rule_errors(base):  # the first, at its record
            raise EvidenceFormatError(message, locator=self.locators[section][index])
        return base


def _handling_items(cell: str, locator: str) -> list[dict]:
    items = []
    for chunk in filter(str.strip, cell.split(";")):
        event, colon, strategy = chunk.rpartition(":")
        if not colon:
            raise EvidenceFormatError(
                f"intercurrent-event entry {chunk.strip()!r} is not of the form event:strategy",
                locator=locator,
            )
        items.append({"event_name": event, "strategy": strategy})
    return items


def _csv_records(stream: IO[str]) -> Iterator[tuple[str, dict, str]]:
    """Tokenize a section-tagged CSV into (section, record, locator) triples.

    One leading byte-order mark is skipped, here and in `_json_records`, and so are
    the blank cells that end a row.  Each data row becomes the record a JSON array
    element supplies: empty cells are absent fields, `arms` is split on ';', and
    `ie_handlings` (`event:strategy;...`) becomes a list of {event_name, strategy} items.
    """
    reader = csv.reader(line for lines in ([stream.readline().removeprefix("\ufeff")], stream) for line in lines)
    section: str | None = None
    header_seen = False
    for row in reader:
        locator = f"line {reader.line_num}"
        while row and not row[-1].strip():  # a spreadsheet pads each row to the widest one
            row.pop()
        if not row:
            continue
        first = row[0].strip()
        if first.startswith("#"):
            tag = first.lstrip("#").strip().lower()
            if tag in _SECTION_FIELDS:
                section, header_seen = tag, False
            continue  # any other #-line is a comment
        if section is None:
            raise EvidenceFormatError(f"data before any section tag: {first!r}", locator=locator)
        fields = _SECTION_FIELDS[section]
        if not header_seen:
            got = [cell.strip().lower() for cell in row]
            if got != fields:
                raise EvidenceFormatError(
                    f"section #{section} header must be {fields}, got {got}", locator=locator
                )
            header_seen = True
            continue
        if len(row) > len(fields):
            raise EvidenceFormatError(
                f"row has {len(row)} fields, section #{section} allows {len(fields)}",
                locator=locator,
            )
        record: dict = {name: cell for name, cell in zip(fields, row) if cell.strip()}
        if "arms" in record:
            record["arms"] = record["arms"].split(";")
        if "ie_handlings" in record:
            record["ie_handlings"] = _handling_items(record["ie_handlings"], locator)
        yield section, record, locator


def _json_records(stream: IO[str]) -> Iterator[tuple[str, dict, str]]:
    """Tokenize a JSON document into (section, record, locator) triples, one per array element."""
    doc = json_object(stream.read().removeprefix("\ufeff"))  # the text is not kept while records are read
    for section in _SECTION_FIELDS:
        for record, locator in records_of(doc, section):
            yield section, record, locator


def _parse(stream: IO[str], format: str) -> EvidenceBase:
    builder = _Builder()
    with parse_memo():
        for section, record, locator in (_json_records if format == "json" else _csv_records)(stream):
            builder.add(section, record, locator)
        return builder.build()


Source = Union[str, Path, IO[str]]


def parse_evidence(source: Source, format: str | None = None) -> EvidenceBase:
    """Parse an evidence file (format auto-detected from the extension)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        fmt = format or ("json" if path.suffix.lower() == ".json" else "csv")
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return _parse(handle, fmt)
    if format is None:
        raise ValueError("format must be given when parsing from a stream")
    return _parse(source, format)


def parse_evidence_text(text: str, format: str = "csv") -> EvidenceBase:
    return parse_evidence(io.StringIO(text), format=format)


# --- serialization ----------------------------------------------------------


def _cell(value) -> str:
    """One CSV cell of a record: the inverse of the tokenizer's splitting."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(_cell(item) for item in value)
    if isinstance(value, dict):
        return f"{value['event_name']}:{value['strategy']}"
    return repr(value)


def serialize_evidence(base: EvidenceBase, format: str = "csv") -> str:
    """Render an evidence base back into its file format (round-trip safe)."""
    if format == "json":
        return json.dumps(evidence_to_dict(base), indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for section, records in _records(base).items():
        writer.writerow([f"#{section}"])
        writer.writerow(_SECTION_FIELDS[section])
        writer.writerows([_cell(value) for value in record] for record in records)
    return out.getvalue()


def evidence_to_dict(base: EvidenceBase) -> dict:
    """Each section's records as objects keyed by the section's `_SECTION_FIELDS`."""
    return {s: [dict(zip(_SECTION_FIELDS[s], r)) for r in rows] for s, rows in _records(base).items()}


def _records(base: EvidenceBase) -> dict[str, Iterator[tuple]]:
    """Each section's records, one tuple each of the fields `_SECTION_FIELDS` names, in its order."""
    trials = base.trials.values()
    return {
        "trials": ((t.trial_id, list(t.arms)) for t in trials),
        "estimands": (
            (t.trial_id, e.label, e.population, e.endpoint.name, e.endpoint.units, e.endpoint.timepoint_weeks,
             e.summary_measure.value, [{"event_name": h.event_name, "strategy": h.strategy.value} for h in e.ie_handlings])
            for t in trials for e in t.estimands.values()
        ),
        "contrasts": (
            (c.trial_id, c.estimand_label, c.endpoint, c.treatment, c.comparator, c.md,
             c.se if c.source is UncertaintySource.REPORTED_SE else None, c.ci_lower, c.ci_upper, c.ci_level)
            for c in base.contrasts
        ),
        "arms": (
            (a.trial_id, a.estimand_label, a.endpoint, a.treatment, a.n_randomized, a.mean_change,
             a.ci_lower, a.ci_upper, a.ci_level)
            for a in base.arm_summaries
        ),
    }


# --- validation -------------------------------------------------------------


def _rule_errors(base: EvidenceBase) -> Iterator[tuple[str, int, str]]:
    """(section, index, message) for each contrast or arm row that its trial does not
    bear out: an unknown trial, a treatment that is not an arm, an undeclared estimand,
    or a duplicate.  A parse refuses the first; `validate_evidence` reports them all.
    """
    seen: set[tuple] = set()
    for i, c in enumerate(base.contrasts):
        trial = base.trials.get(c.trial_id)
        if trial is None:
            yield "contrasts", i, f"contrast references unknown trial {c.trial_id!r}"
            continue
        for role, name, key in zip(("treatment", "comparator"), (c.treatment, c.comparator),
                                   (c.treatment_key, c.comparator_key)):
            if key not in trial.arm_keys:
                yield "contrasts", i, f"contrast {role} {name!r} is not an arm of {c.trial_id!r}"
        if (c.label_key, c.endpoint) not in trial.estimands:
            yield "contrasts", i, (f"contrast references undeclared estimand {c.estimand_label!r} "
                                   f"({c.endpoint}) in trial {c.trial_id!r}")
        if c.key in seen:
            yield "contrasts", i, f"duplicate contrast {c.treatment!r} vs {c.comparator!r} in {c.trial_id!r}"
        seen.add(c.key)

    seen.clear()
    for i, arm in enumerate(base.arm_summaries):
        trial = base.trials.get(arm.trial_id)
        if trial is None:
            yield "arms", i, f"arm summary references unknown trial {arm.trial_id!r}"
        elif arm.treatment_key not in trial.arm_keys:
            yield "arms", i, f"arm treatment {arm.treatment!r} is not an arm of {arm.trial_id!r}"
        if trial is not None and (arm.label_key, arm.endpoint) not in trial.estimands:
            yield "arms", i, (f"arm summary references undeclared estimand {arm.estimand_label!r} "
                              f"({arm.endpoint}) in trial {arm.trial_id!r}")
        if arm.key in seen:  # the base keeps the first; a serialized copy would not parse
            yield "arms", i, f"duplicate arm summary for {arm.treatment!r} in {arm.trial_id!r}"
        seen.add(arm.key)


def validate_evidence(base: EvidenceBase) -> list[Issue]:
    """Re-check invariants and flag analysis hazards; issues are data, not errors.

    Each multi-arm slot's block is judged by the engine's `group_blocks`, as an analysis's are:
    all slots in one pass, and slot by slot only to name each refused trial.
    """
    from .engine import CovarianceError, group_blocks  # here, as engine imports this module
    issues = [Issue("error", message) for _, _, message in _rule_errors(base)]
    for trial_id, trial in base.trials.items():  # a parse gives each estimand its trial's arms
        issues += [Issue("error", f"estimand {e.label!r} ({e.endpoint.key}) in trial {trial_id!r} treats "
                                  f"{sorted(e.treatments)}, not the trial's arms {list(trial.arms)}")
                   for e in trial.estimands.values() if e.treatment_keys != set(trial.arm_keys)]

    slots: list[list[ContrastEstimate]] = [[] for _ in base.slots]
    for c, slot in zip(base.contrasts, base.slot_ids):
        slots[slot].append(c)
    # in a network's edge order: the block's rows, so its factorization, are the analysis's
    multi = [sorted(group, key=lambda c: (c.treatment_key, c.comparator_key)) for group in slots if len(group) > 1]
    try:
        group_blocks(multi, base)
    except CovarianceError:
        for group in multi:
            try:
                group_blocks([group], base)
            except CovarianceError as exc:
                issues.append(Issue("warning", str(exc)))

    for key in base.endpoint_keys():
        timepoints = sorted({e.endpoint.timepoint_weeks for ests in base.estimands_by_trial(key).values() for e in ests})
        if len(timepoints) > 1:
            listed = ", ".join(str(t) for t in timepoints)
            issues.append(Issue("warning", f"endpoint timepoints differ for {key}: {listed}"))

    issues.extend(_strategy_coverage_issues(base))
    return issues


def _strategy_coverage_issues(base: EvidenceBase) -> list[Issue]:
    """Warn when a pure intercurrent-event strategy is available in some trials only."""
    issues: list[Issue] = []
    for key in base.endpoint_keys():
        per_trial = base.estimands_by_trial(key)
        if len(per_trial) < 2:
            continue
        event_sets = [set().union(*(e.events.keys() for e in ests)) for ests in per_trial.values()]
        common_events = set.intersection(*event_sets)
        if not common_events:
            continue
        estimands = [e for ests in per_trial.values() for e in ests]
        strategies = {e.events[ev] for e in estimands for ev in common_events if ev in e.events}
        for strategy in sorted(strategies, key=lambda s: s.value):
            supporting = [
                tid
                for tid, ests in per_trial.items()
                if any(all(e.events.get(ev) is strategy for ev in common_events) for e in ests)
            ]
            if supporting and len(supporting) < len(per_trial):
                missing = sorted(set(per_trial) - set(supporting))
                issues.append(
                    Issue(
                        "warning",
                        f"no {strategy.value} estimand for {key} in trials: {', '.join(missing)}",
                    )
                )
    return issues
