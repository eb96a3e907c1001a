"""Command-line interface.

Subcommands: position-sweep, power-sweep, angle-sweep, estimate, replicate.
Errors print a single machine-parsable line to stderr ("error: <Kind>: ...").
Exit codes: 0 success, 1 runtime failure or replication regression, 2 usage,
parse, or config validation errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import DomainError, ParseError, ValidationError
from .estimator import estimate_position
from .geometry import _FINITE, Point3, RoomSpec, _check
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
    table.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument(
        "--samples", type=int, metavar="N", help="figure-sweep distance sample count"
    )

    # Each subcommand takes only the options it reads: --format where a table
    # is written, --samples where the figure sweep runs.
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "position-sweep": ([common, table],
                           "walk the PD over the configured positions and estimate each one"),
        "power-sweep": ([common, table],
                        "received power over positions for each configured transmit power"),
        "angle-sweep": ([common, table, samples],
                        "figure-style families with the angle factor held fixed"),
        "estimate": ([common], "one-shot estimate from a measured power"),
        "replicate": ([common, table, samples],
                      "grade computed results against the embedded reference dataset"),
    }
    for name, (parents, summary) in commands.items():
        sub.add_parser(name, parents=parents, help=summary)
    estimate = sub.choices["estimate"]
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
    return parser


def _metadata(config: ScenarioConfig) -> dict[str, str]:
    return {
        "config": config_hash(config),
        "version": __version__,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
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

    point = tuple.__new__(Point3, (x, y, 0.0))  # nan and inf lie off every floor
    if not room.contains_floor_point(point):
        raise ValidationError(f"--actual ({x}, {y}) is not a point on the room floor")
    return point


def cli(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code. The cyclic garbage collector
    is paused for the run, as a sweep's acyclic rows would only trigger
    collections that trace every row and free nothing, and then left as found.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)

    try:
        config = load_config(Path(args.config)) if args.config else default_config()
        if getattr(args, "samples", None) is not None:
            _check(args.samples, ScenarioConfig._rules["distance_samples"], "--samples",
                   ValidationError)
            config = config._replace(distance_samples=args.samples)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    code = 0
    try:
        # Looked up per call, not held in a module-level table, so a rebound
        # module global (a test spy, a tracing wrapper) is the one that runs.
        sweeps = {
            "position-sweep": (run_position_sweep, position_sweep_table),
            "power-sweep": (run_power_distance_sweep, power_sweep_table),
            "angle-sweep": (run_angle_sweep, angle_sweep_table),
        }
        if args.command in sweeps:
            run, table = sweeps[args.command]
            _emit_table(table(run(config), _metadata(config)), args.format, args.out)
        elif args.command == "estimate":
            _check(args.power, _FINITE, "--power", ValidationError)
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
            checks = replication_report(config)
            if args.format is None:
                _write(replication_text(checks), args.out)
            else:
                _emit_table(
                    replication_table(checks, _metadata(config)), args.format, args.out
                )
            regressions = [check for check in checks if check.regressed]
            for check in regressions:
                print(
                    f"error: ReplicationRegression: {check.name} graded "
                    f"{check.verdict}, expected {check.expected}",
                    file=sys.stderr,
                )
            code = 1 if regressions else 0
        if args.out is None:
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # stdout's reader has gone: exit 1 quietly, with stdout pointed at
            # devnull so that its flush at exit cannot raise again (the
            # SIGPIPE note in the documentation of Python's signal module).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    """Process entry: run the CLI and exit with its code. The heap it leaves
    is frozen first, so the interpreter's shutdown collections skip tracing
    what the exit hands back to the OS whole. os._exit would skip them too,
    but also atexit handlers, the stdio flush and dev mode's warnings for
    leaked objects.
    """

    code = cli()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
