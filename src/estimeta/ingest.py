"""Evidence-base ingestion: parsing, derivation, and validation.

Accepts a section-tagged CSV or a nested JSON document describing trials,
trial-level estimands, relative-effect contrasts, and per-arm summaries.
Both formats are tokenized into the same records (one dict per CSV row or
JSON array element), and one builder turns records into entities.
Uncertainty is completed at parse time: a contrast may carry a reported
standard error, a confidence interval (SE back-calculated from its width),
or nothing at all, in which case the SE is derived from the two arms'
confidence intervals.  The precedence is reported > interval > arms.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Mapping, Optional, Sequence, Union

from .estimands import (
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    SummaryMeasure,
    canonical,
    normalize_id,
)
from .normal import z_for_level


class EvidenceFormatError(ValueError):
    """Schema or invariant violation in an evidence file."""

    def __init__(self, message: str, *, locator: str | None = None):
        self.locator = locator
        super().__init__(f"{locator}: {message}" if locator else message)


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


def _number(value, name: str) -> float:
    """A finite plain float from a number or a numeral."""
    if isinstance(value, bool):  # JSON true/false is not a number
        raise ValueError(f"field {name!r} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"field {name!r} must be finite: {value!r}")
    return number


def _integer(value, name: str) -> int:
    """A plain int from an integral number or numeral; a fraction is an error, not truncated."""
    number = _number(value, name)
    if not number.is_integer():
        raise ValueError(f"field {name!r} is not an integer: {value!r}")
    return int(number)


def _coerce(entity, convert, *names: str) -> None:
    """Replace each named numeric field of a frozen entity by its converted value."""
    for name in names:
        value = getattr(entity, name)
        if value is not None:
            object.__setattr__(entity, name, convert(value, name))


@dataclass(frozen=True)
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
        _coerce(self, _integer, "n_randomized")
        _coerce(self, _number, "mean_change", "ci_lower", "ci_upper", "ci_level")
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


@dataclass(frozen=True)
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
        _coerce(self, _number, "md", "se", "ci_lower", "ci_upper", "ci_level")
        if self.treatment_key == self.comparator_key:
            raise ValueError(f"contrast compares {self.treatment!r} with itself")
        if not self.se > 0.0:
            raise ValueError(f"se must be a positive finite number, got {self.se!r}")
        _check_se(self.se, "field 'se'")

    @property
    def key(self) -> tuple[str, str, str, str, str]:
        return (self.trial_id, self.treatment_key, self.comparator_key, self.endpoint, self.label_key)


def contrast_from_arms(a: ArmSummary, b: ArmSummary) -> ContrastEstimate:
    """Derive a contrast (a minus b) from two arm summaries of the same trial."""
    if a.trial_id != b.trial_id:
        raise ValueError(f"arms belong to different trials: {a.trial_id!r} vs {b.trial_id!r}")
    if a.endpoint != b.endpoint:
        raise ValueError(f"arms report different endpoints: {a.endpoint!r} vs {b.endpoint!r}")
    if a.label_key != b.label_key:
        raise ValueError(
            f"arms report different estimands: {a.estimand_label!r} vs {b.estimand_label!r}"
        )
    if a.treatment_key == b.treatment_key:
        raise ValueError(f"both arms are {a.treatment!r}")
    return ContrastEstimate(
        trial_id=a.trial_id,
        treatment=a.treatment,
        comparator=b.treatment,
        endpoint=a.endpoint,
        estimand_label=a.estimand_label,
        md=a.mean_change - b.mean_change,
        se=math.hypot(a.se, b.se),
        source=UncertaintySource.FROM_ARMS,
    )


@dataclass(frozen=True)
class TrialRecord:
    """A trial's randomized arms and its declared estimands."""

    trial_id: str
    arms: tuple[str, ...]
    estimands: Mapping[tuple[str, str], Estimand]  # (label key, endpoint key)
    arm_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)  # canonical arms, in order

    def __post_init__(self) -> None:
        object.__setattr__(self, "arm_keys", tuple(canonical(a) for a in self.arms))

    def estimand_for(self, label: str, endpoint_key: str) -> Optional[Estimand]:
        return self.estimands.get((canonical(label), canonical(endpoint_key)))

    @property
    def labels(self) -> tuple[str, ...]:
        seen: dict[str, str] = {}
        for est in self.estimands.values():
            seen.setdefault(est.label_key, est.label)
        return tuple(seen.values())


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

    def __post_init__(self) -> None:
        index: dict[tuple[str, str, str, str], ArmSummary] = {}
        for arm in self.arm_summaries:
            index.setdefault(arm.key, arm)
        object.__setattr__(self, "_arm_index", index)
        by_endpoint: dict[str, dict[str, list[Estimand]]] = {}
        for trial_id, trial in self.trials.items():
            for est in trial.estimands.values():
                by_endpoint.setdefault(est.endpoint.key, {}).setdefault(trial_id, []).append(est)
        object.__setattr__(self, "_estimand_index", by_endpoint)

    def arm_summary(
        self, trial_id: str, estimand_label: str, endpoint_key: str, treatment: str
    ) -> Optional[ArmSummary]:
        key = (trial_id, canonical(estimand_label), canonical(endpoint_key), canonical(treatment))
        return self._arm_index.get(key)

    def endpoint_keys(self) -> tuple[str, ...]:
        return tuple(self._estimand_index)

    def estimands_by_trial(self, endpoint_key: str) -> Mapping[str, Sequence[Estimand]]:
        """Trial id -> the trial's estimands of a canonical endpoint key, in declaration
        order; a trial declaring none for the endpoint is absent."""
        return self._estimand_index.get(endpoint_key, {})

    def treatments(self) -> tuple[str, ...]:
        seen: dict[str, str] = {}
        for trial in self.trials.values():
            for arm, key in zip(trial.arms, trial.arm_keys):
                seen.setdefault(key, arm)
        return tuple(seen.values())

    def estimand_of(self, contrast: ContrastEstimate) -> Optional[Estimand]:
        trial = self.trials.get(contrast.trial_id)
        if trial is None:
            return None
        return trial.estimands.get((contrast.label_key, contrast.endpoint))


@dataclass(frozen=True)
class Issue:
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

_REQUIRED = object()


def _field(record: Mapping, name: str, default=_REQUIRED):
    """A field of a record; JSON null and an empty CSV cell count as absent."""
    value = record.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    return value


def _text(record: Mapping, name: str, default=_REQUIRED) -> str:
    value = _field(record, name, default)
    if not (isinstance(value, str) or value is default):
        raise TypeError(f"field {name!r} must be text, got {value!r}")
    return value


def _names(record: Mapping, name: str, default=_REQUIRED) -> Sequence[str]:
    value = _field(record, name, default)
    if not ((isinstance(value, list) and all(isinstance(v, str) for v in value)) or value is default):
        raise TypeError(f"field {name!r} must be a list of names")
    return value


def _optional_number(record: Mapping, name: str) -> Optional[float]:
    value = record.get(name)
    return None if value is None else _number(value, name)


def _handlings(record: Mapping) -> tuple[IntercurrentEventHandling, ...]:
    items = _field(record, "ie_handlings", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise TypeError("field 'ie_handlings' must be a list of {event_name, strategy} objects")
    return tuple(
        IntercurrentEventHandling(
            _text(item, "event_name"), IntercurrentEventStrategy.parse(_text(item, "strategy"))
        )
        for item in items
    )


def _estimand(record: Mapping, treatments: Sequence[str], kind: type = Estimand, **policy) -> Estimand:
    """An estimand from a record's label, population, endpoint (name, units, timepoint), summary
    measure and intercurrent-event handlings: evidence estimand records and full plan definitions."""
    return kind(
        label=normalize_id(_text(record, "label")),
        population=_text(record, "population").strip(),
        treatments=frozenset(treatments),
        endpoint=EndpointSpec(
            name=normalize_id(_text(record, "endpoint_name")),
            units=_text(record, "units").strip(),
            timepoint_weeks=_integer(_field(record, "timepoint_weeks"), "timepoint_weeks"),
        ),
        summary_measure=SummaryMeasure.parse(_text(record, "summary_measure")),
        ie_handlings=_handlings(record),
        **policy,
    )


@contextmanager
def _located(locator: str) -> Iterator[None]:
    """Report a ValueError or TypeError raised for one record as a format error at its locator."""
    try:
        yield
    except EvidenceFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise EvidenceFormatError(str(exc), locator=locator) from None


class _Builder:
    """Turns section records, whichever format they came from, into an EvidenceBase."""

    def __init__(self) -> None:
        self.trials: dict[str, TrialRecord] = {}
        self.arms: dict[tuple[str, str, str, str], ArmSummary] = {}
        self.contrast_records: list[tuple[Mapping, str]] = []

    def add(self, section: str, record: Mapping, locator: str) -> None:
        if section == "contrasts":  # resolved in build(): the SE may need arm rows read later
            self.contrast_records.append((record, locator))
            return
        add = {"trials": self._add_trial, "estimands": self._add_estimand, "arms": self._add_arm}
        with _located(locator):
            add[section](record)

    def _trial_of(self, record: Mapping, what: str) -> TrialRecord:
        trial_id = normalize_id(_text(record, "trial_id"))
        trial = self.trials.get(trial_id)
        if trial is None:
            raise ValueError(f"{what} references unknown trial {trial_id!r}")
        return trial

    def _add_trial(self, record: Mapping) -> None:
        trial_id = normalize_id(_text(record, "trial_id"))
        if not trial_id:
            raise ValueError("trial_id is empty")
        if trial_id in self.trials:
            raise ValueError(f"duplicate trial {trial_id!r}")
        arms = filter(None, map(normalize_id, _names(record, "arms")))
        trial = TrialRecord(trial_id=trial_id, arms=tuple(arms), estimands={})
        if len(trial.arms) < 2:
            raise ValueError(f"trial {trial_id!r} needs at least two arms")
        if len(set(trial.arm_keys)) != len(trial.arms):
            raise ValueError(f"trial {trial_id!r} lists a duplicate arm")
        self.trials[trial_id] = trial

    def _add_estimand(self, record: Mapping) -> None:
        """Declare an estimand of a trial: its five attributes as `_estimand` reads them."""
        trial = self._trial_of(record, "estimand")
        estimand = _estimand(record, trial.arms)
        key = (estimand.label_key, estimand.endpoint.key)
        if key in trial.estimands:
            raise ValueError(
                f"duplicate estimand {estimand.label!r} for endpoint {estimand.endpoint.name!r} "
                f"in trial {trial.trial_id!r}"
            )
        trial.estimands[key] = estimand

    def _add_arm(self, record: Mapping) -> None:
        trial = self._trial_of(record, "arm")
        arm = ArmSummary(
            trial_id=trial.trial_id,
            treatment=_text(record, "treatment"),
            n_randomized=_integer(_field(record, "n"), "n"),
            endpoint=_text(record, "endpoint_name"),
            estimand_label=_text(record, "estimand_label"),
            mean_change=_field(record, "mean_change"),
            ci_lower=_field(record, "ci_lower"),
            ci_upper=_field(record, "ci_upper"),
            ci_level=_field(record, "ci_level", 0.95),
        )
        if arm.treatment_key not in trial.arm_keys:
            raise ValueError(f"arm treatment {arm.treatment!r} is not in trial {trial.trial_id!r}")
        if arm.key in self.arms:
            raise ValueError(f"duplicate arm summary for {arm.treatment!r} in trial {trial.trial_id!r}")
        self.arms[arm.key] = arm

    def _contrast(self, record: Mapping) -> ContrastEstimate:
        trial = self._trial_of(record, "contrast")
        label = normalize_id(_text(record, "estimand_label"))
        endpoint_name = _text(record, "endpoint_name")
        endpoint_key, label_key = canonical(endpoint_name), canonical(label)
        if (label_key, endpoint_key) not in trial.estimands:
            raise ValueError(
                f"contrast references undeclared estimand {label!r} / {endpoint_name!r} "
                f"in trial {trial.trial_id!r}"
            )
        treatment, comparator = _text(record, "treatment"), _text(record, "comparator")
        arm_keys = canonical(treatment), canonical(comparator)
        for role, name, key in zip(("treatment", "comparator"), (treatment, comparator), arm_keys):
            if key not in trial.arm_keys:
                raise ValueError(f"{role} {name!r} is not an arm of trial {trial.trial_id!r}")

        se, lo, hi, level = (_optional_number(record, f) for f in ("se", "ci_lower", "ci_upper", "ci_level"))
        has_ci = lo is not None and hi is not None
        if se is not None:
            source = UncertaintySource.REPORTED_SE
        elif has_ci:
            level = 0.95 if level is None else level
            source, se = UncertaintySource.FROM_CI, se_from_ci(lo, hi, level)
        else:
            arm_t, arm_c = (self.arms.get((trial.trial_id, label_key, endpoint_key, key)) for key in arm_keys)
            if arm_t is None or arm_c is None:
                raise ValueError(
                    "contrast carries no se and no confidence interval, and arm summaries "
                    "for both treatments are unavailable"
                )
            source, se = UncertaintySource.FROM_ARMS, math.hypot(arm_t.se, arm_c.se)
        return ContrastEstimate(
            trial_id=trial.trial_id,
            treatment=treatment,
            comparator=comparator,
            endpoint=endpoint_key,
            estimand_label=label,
            md=_field(record, "md"),
            se=se,
            source=source,
            ci_lower=lo,
            ci_upper=hi,
            ci_level=level if has_ci else None,
        )

    def build(self) -> EvidenceBase:
        contrasts: dict[tuple, ContrastEstimate] = {}
        for record, locator in self.contrast_records:
            with _located(locator):
                contrast = self._contrast(record)
                if contrast.key in contrasts:
                    raise ValueError(
                        f"duplicate contrast {contrast.treatment!r} vs {contrast.comparator!r} "
                        f"in trial {contrast.trial_id!r}"
                    )
                contrasts[contrast.key] = contrast
        return EvidenceBase(
            trials=self.trials,
            contrasts=tuple(contrasts.values()),
            arm_summaries=tuple(self.arms.values()),
        )


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

    Each data row becomes the record a JSON array element supplies: empty
    cells are absent fields, `arms` is split on ';', and `ie_handlings`
    (`event:strategy;...`) becomes a list of {event_name, strategy} items.
    """
    reader = csv.reader(stream)
    section: str | None = None
    header_seen = False
    for row in reader:
        locator = f"line {reader.line_num}"
        if not any(cell.strip() for cell in row):
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


def _json_object(stream: IO[str], locator: str | None = None) -> dict:
    """A JSON document whose top level is an object."""
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise EvidenceFormatError(f"invalid JSON: {exc}", locator=locator) from None
    if not isinstance(doc, dict):
        raise EvidenceFormatError("top level must be an object", locator=locator)
    return doc


def _objects(doc: Mapping, section: str, locator: str | None = None) -> Iterator[tuple[dict, str]]:
    """The records of a JSON array field (absent: none), each with its locator `section[i]`."""
    records = doc.get(section, [])
    if not isinstance(records, list):
        raise EvidenceFormatError(f"section {section!r} must be an array", locator=locator)
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise EvidenceFormatError("record must be an object", locator=f"{section}[{i}]")
        yield record, f"{section}[{i}]"


def _json_records(stream: IO[str]) -> Iterator[tuple[str, dict, str]]:
    """Tokenize a JSON document into (section, record, locator) triples, one per array element."""
    doc = _json_object(stream)
    for section in _SECTION_FIELDS:
        for record, locator in _objects(doc, section):
            yield section, record, locator


def _parse(stream: IO[str], format: str) -> EvidenceBase:
    builder = _Builder()
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
    doc = evidence_to_dict(base)
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for section, fields in _SECTION_FIELDS.items():
        writer.writerow([f"#{section}"])
        writer.writerow(fields)
        writer.writerows([_cell(record[name]) for name in fields] for record in doc[section])
    return out.getvalue()


def evidence_to_dict(base: EvidenceBase) -> dict:
    doc: dict = {"trials": [], "estimands": [], "contrasts": [], "arms": []}
    for trial in base.trials.values():
        doc["trials"].append({"trial_id": trial.trial_id, "arms": list(trial.arms)})
        for est in trial.estimands.values():
            doc["estimands"].append(
                {
                    "trial_id": trial.trial_id,
                    "label": est.label,
                    "population": est.population,
                    "endpoint_name": est.endpoint.name,
                    "units": est.endpoint.units,
                    "timepoint_weeks": est.endpoint.timepoint_weeks,
                    "summary_measure": est.summary_measure.value,
                    "ie_handlings": [
                        {"event_name": h.event_name, "strategy": h.strategy.value}
                        for h in est.ie_handlings
                    ],
                }
            )
    for c in base.contrasts:
        doc["contrasts"].append(
            {
                "trial_id": c.trial_id,
                "estimand_label": c.estimand_label,
                "endpoint_name": c.endpoint,
                "treatment": c.treatment,
                "comparator": c.comparator,
                "md": c.md,
                "se": c.se if c.source is UncertaintySource.REPORTED_SE else None,
                "ci_lower": c.ci_lower,
                "ci_upper": c.ci_upper,
                "ci_level": c.ci_level,
            }
        )
    for a in base.arm_summaries:
        doc["arms"].append(
            {
                "trial_id": a.trial_id,
                "estimand_label": a.estimand_label,
                "endpoint_name": a.endpoint,
                "treatment": a.treatment,
                "n": a.n_randomized,
                "mean_change": a.mean_change,
                "ci_lower": a.ci_lower,
                "ci_upper": a.ci_upper,
                "ci_level": a.ci_level,
            }
        )
    return doc


# --- validation -------------------------------------------------------------


def _multi_arm_groups(base: EvidenceBase) -> dict[tuple[str, str, str], list[ContrastEstimate]]:
    groups: dict[tuple[str, str, str], list[ContrastEstimate]] = {}
    for c in base.contrasts:
        groups.setdefault((c.trial_id, c.label_key, c.endpoint), []).append(c)
    return {k: v for k, v in groups.items() if len(v) >= 2}


def validate_evidence(base: EvidenceBase) -> list[Issue]:
    """Re-check invariants and flag analysis hazards; issues are data, not errors."""
    issues: list[Issue] = []

    seen: set[tuple] = set()
    for c in base.contrasts:
        trial = base.trials.get(c.trial_id)
        if trial is None:
            issues.append(Issue("error", f"contrast references unknown trial {c.trial_id!r}"))
            continue
        for role, treatment, key in (
            ("treatment", c.treatment, c.treatment_key),
            ("comparator", c.comparator, c.comparator_key),
        ):
            if key not in trial.arm_keys:
                issues.append(
                    Issue("error", f"contrast {role} {treatment!r} is not an arm of {c.trial_id!r}")
                )
        if base.estimand_of(c) is None:
            issues.append(
                Issue(
                    "error",
                    f"contrast references undeclared estimand {c.estimand_label!r} "
                    f"({c.endpoint}) in trial {c.trial_id!r}",
                )
            )
        if c.key in seen:
            issues.append(
                Issue("error", f"duplicate contrast {c.treatment!r} vs {c.comparator!r} in {c.trial_id!r}")
            )
        seen.add(c.key)

    for arm in base.arm_summaries:
        trial = base.trials.get(arm.trial_id)
        if trial is None:
            issues.append(Issue("error", f"arm summary references unknown trial {arm.trial_id!r}"))
        elif arm.treatment_key not in trial.arm_keys:
            issues.append(
                Issue("error", f"arm treatment {arm.treatment!r} is not an arm of {arm.trial_id!r}")
            )

    for (trial_id, label, endpoint), group in _multi_arm_groups(base).items():
        arms_involved = {c.treatment_key for c in group} | {c.comparator_key for c in group}
        missing = sorted(
            a for a in arms_involved if base.arm_summary(trial_id, label, endpoint, a) is None
        )
        if missing:
            issues.append(
                Issue(
                    "warning",
                    f"shared-arm variance unidentifiable for trial {trial_id!r} "
                    f"({label} / {endpoint}): no arm summaries for {', '.join(missing)}",
                )
            )

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
