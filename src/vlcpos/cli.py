"""Command-line interface.

Subcommands: position-sweep, power-sweep, angle-sweep, estimate, replicate.
Errors print a single machine-parsable line to stderr ("error: <Kind>: ...").
Exit codes: 0 success, 1 runtime failure or replication regression, 2 usage,
parse, or config validation errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import DomainError, ParseError, UnsupportedFormat, ValidationError
from .estimator import estimate_position
from .geometry import Point3, RoomSpec
from .reporting import (
    angle_sweep_table,
    config_hash,
    emit,
    estimate_lines,
    load_config,
    position_sweep_table,
    power_sweep_table,
    replication_table,
    replication_text,
)
from .scenario import (
    ScenarioConfig,
    default_config,
    replication_report,
    run_angle_sweep,
    run_position_sweep,
    run_power_distance_sweep,
)

__all__ = ["cli", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcpos",
        description=(
            "Lambertian visible-light channel model and CSA-RSS single-LED "
            "indoor positioning"
        ),
    )
    parser.add_argument("--version", action="version", version=f"vlcpos {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario config file")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument(
        "--format", choices=("csv", "json"), help="output format (default csv)"
    )
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument(
        "--samples", type=int, metavar="N", help="figure-sweep distance sample count"
    )

    # Each subcommand takes only the options it reads: --format where a table
    # is written, --samples where the figure sweep runs.
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "position-sweep",
        parents=[common, table],
        help="walk the PD over the configured positions and estimate each one",
    )
    sub.add_parser(
        "power-sweep",
        parents=[common, table],
        help="received power over positions for each configured transmit power",
    )
    sub.add_parser(
        "angle-sweep",
        parents=[common, table, samples],
        help="figure-style families with the angle factor held fixed",
    )
    estimate = sub.add_parser(
        "estimate",
        parents=[common],
        help="one-shot estimate from a measured power",
    )
    estimate.add_argument(
        "--power", type=float, required=True, help="measured received power in watts"
    )
    estimate.add_argument(
        "--actual",
        type=float,
        nargs=2,
        metavar=("X", "Y"),
        help="true floor position, fills in the positioning error",
    )
    sub.add_parser(
        "replicate",
        parents=[common, table, samples],
        help="grade computed results against the embedded reference dataset",
    )
    return parser


def _metadata(config: ScenarioConfig) -> dict[str, str]:
    return {
        "config": config_hash(config),
        "version": __version__,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_table(table, fmt: str | None, out: str | None) -> None:
    emit(table, fmt or "csv", sys.stdout if out is None else out)


def _floor_point(x: float, y: float, room: RoomSpec) -> Point3:
    """The --actual position, held to the rule the config applies to PD positions."""

    finite = math.isfinite(x) and math.isfinite(y)
    if not (finite and room.contains_floor_point(Point3(x, y, 0.0))):
        raise ValidationError(f"--actual ({x}, {y}) is not a point on the room floor")
    return Point3(x, y, 0.0)


def cli(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)

    try:
        config = load_config(Path(args.config)) if args.config else default_config()
        if getattr(args, "samples", None) is not None:
            config = replace(config, distance_samples=args.samples)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "position-sweep":
            result = run_position_sweep(config)
            _emit_table(
                position_sweep_table(result, _metadata(config)), args.format, args.out
            )
        elif args.command == "power-sweep":
            rows = run_power_distance_sweep(config)
            _emit_table(power_sweep_table(rows, _metadata(config)), args.format, args.out)
        elif args.command == "angle-sweep":
            rows = run_angle_sweep(config)
            _emit_table(angle_sweep_table(rows, _metadata(config)), args.format, args.out)
        elif args.command == "estimate":
            actual = _floor_point(*args.actual, config.room) if args.actual else None
            record = estimate_position(
                args.power,
                config.led,
                config.pd_template,
                azimuth=config.azimuth,
                actual=actual,
            )
            clipped = not config.room.contains_floor_point(record.estimated)
            _write("\n".join(estimate_lines(record, clipped=clipped)) + "\n", args.out)
        elif args.command == "replicate":
            report = replication_report(config)
            if args.format is None:
                _write(replication_text(report), args.out)
            else:
                _emit_table(
                    replication_table(report, _metadata(config)), args.format, args.out
                )
            if not report.ok:
                for check in report.regressions:
                    print(
                        f"error: ReplicationRegression: {check.name} graded "
                        f"{check.verdict.value}, expected {check.expected.value}",
                        file=sys.stderr,
                    )
                return 1
    except (UnsupportedFormat, ValidationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
