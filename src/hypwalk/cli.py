"""Command-line runner: configuration in, deterministic report files out.

    hypwalk run CONFIG.json [--out DIR] [--jobs N]
    hypwalk preset NAME [--seed S] [--out DIR] [--jobs N]
    hypwalk list-presets
    hypwalk version

Outputs: ``report.json`` (full result with the effective config, seed, and
tool version) and one ``<observable>.csv`` per recorded track, rows sorted
by (trial, n).  Exit status: 0 pass, 1 invalid configuration, 2 a declared
tolerance failed, 3 a resource cap dominated the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import run_config
from .errors import InputError, ResourceError
from .experiments import ExperimentResult
from .presets import list_presets, preset_config

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_RESOURCE = 3


def serialize_report(report: dict) -> str:
    """The canonical byte form: sorted keys, two-space indent, newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_outputs(result: ExperimentResult, config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "report_version": 1,
        "tool_version": __version__,
        "config": config,
        "result": result.to_json_dict(),
    }
    (out_dir / "report.json").write_text(serialize_report(report))
    for track, rows in result.csv_tracks().items():
        lines = ["trial,n,observable,value"]
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        (out_dir / f"{track}.csv").write_text("\r\n".join(lines) + "\r\n")


def _execute(config: dict, out_dir: Path, jobs: int) -> int:
    try:
        result = run_config(config, jobs=jobs)
    except ResourceError as err:
        print(f"resource failure: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as err:  # ConfigError included
        print(f"invalid config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    write_outputs(result, config, out_dir)
    status = "pass" if result.passed in (True, None) else "FAIL"
    print(f"{result.name}: {status} -> {out_dir / 'report.json'}")
    for failure in result.failures:
        print(f"  {failure}")
    if result.passed in (True, None):
        return EXIT_PASS
    if any(f.startswith("resource:") for f in result.failures):
        return EXIT_RESOURCE
    return EXIT_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypwalk",
        description="random-walk experiments on hyperbolic-space actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a configuration file")
    run_parser.add_argument("config", type=Path)
    run_parser.add_argument("--out", type=Path, default=Path("hypwalk-out"))
    run_parser.add_argument("--jobs", type=int, default=1)

    preset_parser = sub.add_parser("preset", help="run a bundled preset")
    preset_parser.add_argument("name")
    preset_parser.add_argument("--seed", type=int, default=None)
    preset_parser.add_argument("--out", type=Path, default=None)
    preset_parser.add_argument("--jobs", type=int, default=1)

    sub.add_parser("list-presets", help="list bundled presets")
    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return EXIT_PASS
    if args.command == "list-presets":
        for name, description in list_presets():
            print(f"{name}: {description}")
        return EXIT_PASS
    if args.command == "preset":
        try:
            config = preset_config(args.name, args.seed)
        except InputError as err:
            print(str(err), file=sys.stderr)
            return EXIT_CONFIG
        out_dir = args.out or Path(f"hypwalk-out-{args.name}")
        return _execute(config, out_dir, args.jobs)

    # run
    try:
        config = json.loads(args.config.read_text())
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as err:
        print(f"invalid config: line {err.lineno}: {err.msg}", file=sys.stderr)
        return EXIT_CONFIG
    return _execute(config, args.out, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
