"""Command-line front end: validate, network, analyze, compare.

Data goes to stdout (or --output); diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 data/parse error, 3 infeasible analysis,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .engine import (
    NmaResult,
    NumericalError,
    league_table,
    result_to_dict,
)
from .estimands import MatchingMode, canonical
from .ingest import EvidenceBase, EvidenceFormatError, parse_evidence, validate_evidence
from .network import (
    ConnectivityCheckError,
    build_network,
    connected_components,
    export_edge_list,
    is_connected,
)
from .pipeline import (
    IncomparableSlicesError,
    InfeasibleAnalysisError,
    StrategyComparison,
    compare_strategies,
    restrict_evidence,
    run_analysis,
    strategy_comparison_to_dict,
)
from .plan import AnalysisConfig, load_config, resolve_meta

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2; we map usage to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="estimeta",
        description="Estimand-aware network meta-analysis of aggregate trial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *formats: str) -> None:
        p.add_argument("--input", required=True, help="evidence file (.csv or .json)")
        if formats:
            p.add_argument("--format", choices=formats, default="text",
                           help="output format (default: text)")
        p.add_argument("--output", default=None, help="write data output to a file")

    def slicing(p: argparse.ArgumentParser) -> None:
        p.add_argument("--endpoint", default=None,
                       help="endpoint key or unique substring (e.g. hba1c)")
        p.add_argument("--config", default=None,
                       help="JSON file defining meta-estimands and defaults")
        p.add_argument("--tolerance", type=int, default=None, metavar="WEEKS",
                       help="timepoint tolerance in weeks (default: 4, or a configured record's)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", action="store_true",
                          help="block trials declaring extra intercurrent events")
        mode.add_argument("--lenient", action="store_true",
                          help="allow extra events with a warning (default, unless a configured "
                               "record is strict)")

    def solving(p: argparse.ArgumentParser) -> None:
        p.add_argument("--reference", default=None, help="reference treatment")
        p.add_argument("--ci-level", type=float, default=None, dest="ci_level",
                       help="confidence level (default: 0.95)")
        p.add_argument("--force", action="store_true",
                       help="downgrade recoverable feasibility errors to warnings")

    p = sub.add_parser("validate", help="parse an evidence file and report issues")
    common(p, "text", "json")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("network", help="export the evidence graph and check connectivity")
    common(p)
    slicing(p)
    p.add_argument("--estimand", default=None,
                   help="restrict to a meta-estimand label or strategy token first")
    p.set_defaults(handler=_cmd_network)

    p = sub.add_parser("analyze", help="run one network meta-analysis slice")
    common(p, "text", "csv", "json")
    slicing(p)
    p.add_argument("--estimand", required=True,
                   help="meta-estimand label (configured) or strategy token")
    solving(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("compare", help="compare two meta-estimand strategies side by side")
    common(p, "text", "csv", "json")
    slicing(p)
    p.add_argument("--estimands", nargs=2, required=True, metavar=("FIRST", "SECOND"),
                   help="two meta-estimand labels or strategy tokens")
    solving(p)
    p.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output == "":
            raise UsageError("--output must name a file, got ''")
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvidenceFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleAnalysisError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for reason in exc.report.reasons:
            print(f"  [{reason.severity}] {reason.code}: {reason.message}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IncomparableSlicesError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalError, ConnectivityCheckError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


# --- helpers -----------------------------------------------------------------


def _emit(text: str, output: Optional[str]) -> None:
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve_endpoint(base: EvidenceBase, given: Optional[str]) -> str:
    keys = base.endpoint_keys()
    if not keys:
        raise EvidenceFormatError("evidence base declares no endpoints")
    if given is None:
        if len(keys) == 1:
            return keys[0]
        raise UsageError(f"--endpoint is required; file has several: {', '.join(keys)}")
    wanted = canonical(given)
    if not wanted:
        raise UsageError(f"--endpoint must name an endpoint, got {given!r}; file has: {', '.join(keys)}")
    if wanted in keys:
        return wanted
    matches = [k for k in keys if wanted in k]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise UsageError(f"unknown endpoint {given!r}; file has: {', '.join(keys)}")
    raise UsageError(f"endpoint {given!r} is ambiguous: {', '.join(matches)}")


def _matching_args(args) -> tuple[Optional[int], Optional[MatchingMode]]:
    """The tolerance and matching mode given on the command line, None where left out."""
    mode = MatchingMode.STRICT if args.strict else MatchingMode.LENIENT if args.lenient else None
    return args.tolerance, mode


def _load_context(args) -> tuple[EvidenceBase, Optional[AnalysisConfig]]:
    base = parse_evidence(args.input)
    config = load_config(args.config, base) if args.config is not None else None
    return base, config


def _report(endpoint: str, results: Mapping[str, NmaResult]) -> None:
    """Each slice's notes and contrast counts, on stderr."""
    for label, result in results.items():
        for note in result.notes:
            print(f"note: {note}", file=sys.stderr)
        if result.provenance:
            used, excluded = len(result.provenance.used), len(result.provenance.excluded)
            print(f"{endpoint} / {label}: {used} contrasts used, {excluded} excluded", file=sys.stderr)


def _fmt2(value: float) -> str:
    return f"{value:.2f}"


def _percent(level: float) -> str:
    """A confidence level as a percentage: "95%" for 0.95, and never "0%" or "100%" within (0, 1)."""
    text = f"{level * 100:.15g}"
    return f"{repr(level * 100) if text == '100' else text}%"


def _slug(label: str) -> str:
    """A meta-estimand label as the prefix of its CSV columns."""
    return canonical(label).replace(" ", "_")


def _text_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in [header, *rows]]
    return "\n".join(lines) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else repr(cell) for cell in row])
    return out.getvalue()


# --- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    base = parse_evidence(args.input)
    issues = validate_evidence(base)
    if args.format == "json":
        payload = {"issues": [{"severity": i.severity, "message": i.message} for i in issues]}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"{issue.severity}: {issue.message}" for issue in issues]
        _emit("".join(line + "\n" for line in lines), args.output)
    errors = sum(1 for i in issues if i.severity == "error")
    warnings = len(issues) - errors
    print(
        f"{len(base.trials)} trials, {len(base.contrasts)} contrasts; "
        f"{errors} errors, {warnings} warnings",
        file=sys.stderr,
    )
    return EXIT_OK if errors == 0 else EXIT_DATA


def _cmd_network(args) -> int:
    if args.estimand is None:  # without a target every contrast is kept, and nothing is matched
        given = {"--config": args.config is not None, "--tolerance": args.tolerance is not None,
                 "--strict": args.strict, "--lenient": args.lenient}
        if flags := [flag for flag, on in given.items() if on]:
            raise UsageError(f"matching flags need --estimand: {', '.join(flags)}")
    base, config = _load_context(args)
    tolerance, mode = _matching_args(args)
    if args.endpoint is not None or len(base.endpoint_keys()) == 1:
        endpoints = [_resolve_endpoint(base, args.endpoint)]
    else:
        endpoints = list(base.endpoint_keys())

    chunks: list[str] = []
    statuses: list[str] = []  # printed once every endpoint is done, after any failure's own line
    failed: list[str] = []
    for key in endpoints:
        if args.estimand is not None:
            meta = resolve_meta(
                base, key, args.estimand, config=config, tolerance_weeks=tolerance, mode=mode
            )
            contrasts = restrict_evidence(base, meta, key).used
        else:
            contrasts = tuple(c for c in base.contrasts if c.endpoint == key)
        if not contrasts:
            statuses.append(f"{key}: no contrasts")
            failed.append(key)
            continue
        net = build_network(contrasts)
        if not (connected := is_connected(net)):
            failed.append(key)
        if len(endpoints) > 1:
            chunks.append(f"#endpoint,{key}\n")
        chunks.append(export_edge_list(net))
        status = "connected" if connected else f"disconnected ({len(connected_components(net))} components)"
        statuses.append(f"{key}: {len(net.nodes)} treatments, {len(net.edges)} comparisons, {status}")
    _emit("".join(chunks), args.output)
    if failed:
        statuses.insert(0, f"infeasible: no connected evidence network for {', '.join(failed)}")
    print("\n".join(statuses), file=sys.stderr)
    return EXIT_INFEASIBLE if failed else EXIT_OK


def _render_league(result: NmaResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result_to_dict(result), indent=2) + "\n"
    rows = league_table(result)
    if fmt == "csv":
        return _csv_text(
            ["treatment", "comparator", "md", "ci_lower", "ci_upper", "se"],
            [[c.treatment, c.comparator, c.md, c.ci_lower, c.ci_upper, c.se] for c in rows],
        )
    return _text_table(
        ["treatment", "comparator", "md", f"{_percent(result.ci_level)} CI"],
        [[c.treatment, c.comparator, _fmt2(c.md), f"({_fmt2(c.ci_lower)}, {_fmt2(c.ci_upper)})"]
         for c in rows],
    )


def _run_slices(args, labels: Sequence[str]) -> tuple[str, float, dict[str, NmaResult]]:
    """Resolve the endpoint and each meta-estimand label, then run one slice per label."""
    base, config = _load_context(args)
    endpoint = _resolve_endpoint(base, args.endpoint)
    tolerance, mode = _matching_args(args)
    reference = args.reference if args.reference is not None else config.reference if config else None
    # an invalid --ci-level such as 0 is rejected downstream, not replaced
    ci_level = args.ci_level if args.ci_level is not None else config.ci_level if config else 0.95
    metas = [resolve_meta(base, endpoint, label, config=config, tolerance_weeks=tolerance, mode=mode)
             for label in labels]
    if len({_slug(m.label) for m in metas}) < len(metas):  # only compare takes two labels
        raise UsageError(f"--estimands names the meta-estimand {metas[0].label!r} twice")
    results = {
        meta.label: run_analysis(base, meta, endpoint, reference=reference, ci_level=ci_level, force=args.force)
        for meta in metas
    }
    return endpoint, ci_level, results


def _cmd_analyze(args) -> int:
    endpoint, _, results = _run_slices(args, [args.estimand])
    (result,) = results.values()
    _emit(_render_league(result, args.format), args.output)
    _report(endpoint, results)
    return EXIT_OK


def _render_comparison(table: StrategyComparison, fmt: str, ci_level: float) -> str:
    labels = list(table.labels)
    if fmt == "json":
        return json.dumps(strategy_comparison_to_dict(table), indent=2) + "\n"
    if fmt == "csv":
        header = ["treatment", "comparator"]
        for slug in map(_slug, labels):
            header += [f"{slug}_md", f"{slug}_ci_lower", f"{slug}_ci_upper"]
        header.append("attenuation")
        rows = []
        for row in table.rows:
            cells: list[object] = [row.treatment, row.comparator]
            for label in labels:
                c = row.by_label[label]
                cells += [c.md, c.ci_lower, c.ci_upper]
            cells.append("true" if row.attenuation else "false")
            rows.append(cells)
        return _csv_text(header, rows)
    header = ["treatment", "comparator", *(f"{label} md ({_percent(ci_level)} CI)" for label in labels), "attenuated"]
    rows = []
    for row in table.rows:
        cells = [row.treatment, row.comparator]
        for label in labels:
            c = row.by_label[label]
            cells.append(f"{_fmt2(c.md)} ({_fmt2(c.ci_lower)}, {_fmt2(c.ci_upper)})")
        cells.append("yes" if row.attenuation else "no")
        rows.append(cells)
    return _text_table(header, rows)


def _cmd_compare(args) -> int:
    endpoint, ci_level, results = _run_slices(args, args.estimands)
    table = compare_strategies(results, endpoint)
    _emit(_render_comparison(table, args.format, ci_level), args.output)
    _report(endpoint, results)
    return EXIT_OK


if __name__ == "__main__":
    entry()
