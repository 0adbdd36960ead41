"""Command-line runner: configuration in, deterministic report files out.

    hypwalk run CONFIG.json [--out DIR] [--jobs N]
    hypwalk preset NAME [--seed S] [--out DIR] [--jobs N]
    hypwalk list-presets
    hypwalk version

Outputs: ``report.json`` (full result with the effective config, seed, and
tool version) and one ``<observable>.csv`` per recorded track, rows sorted
by (trial, n).  Exit status: 0 pass, 1 invalid configuration or ``--jobs``
below 1, 2 a declared tolerance failed, 3 a resource cap dominated the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import run_config
from .errors import InputError, ResourceError
from .experiments import ExperimentResult
from .presets import list_presets, preset_config

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_RESOURCE = 3


def serialize_report(report) -> str:
    """The canonical byte form: sorted keys, two-space indent, newline.

    The bytes are ``json.dumps(report, sort_keys=True, indent=2) + "\n"``
    of the report's plain form: a Fraction is its string, a tuple a list, a
    numpy scalar the Python bool, int or float of its value, a dict key its
    ``str()``, and a non-finite float, Python or numpy, its repr string
    (``"nan"``, ``"inf"``, ``"-inf"``).  One recursive emitter writes them,
    and a dict's layout (its keys in sorted order and a ``%`` template of its
    lines) is made once per key tuple and depth.
    """
    layouts = {}

    def emit(value, depth):
        scalar = _SCALARS.get(type(value))
        if scalar is not None:
            return scalar(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            keys = tuple(value)
            layout = layouts.get((keys, depth))
            if layout is None:
                layout = layouts[keys, depth] = _dict_layout(keys, depth)
            order, template = layout
            if order is None:  # some key is not a string
                return emit({str(k): v for k, v in value.items()}, depth)
            texts = []  # scalars inline: most values are, in flat records
            for key in order:
                item = value[key]
                scalar = _SCALARS.get(type(item))
                texts.append(scalar(item) if scalar else emit(item, depth + 1))
            return template % tuple(texts)
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            pad = "\n" + "  " * (depth + 1)
            items = ("," + pad).join([emit(v, depth + 1) for v in value])
            return "[" + pad + items + "\n" + "  " * depth + "]"
        return _other_scalar(value)

    return emit(report, 0) + "\n"


_escape = json.encoder.encode_basestring_ascii


_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _escape(text) if text in _NON_FINITE else text


_SCALARS = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    Fraction: lambda value: _escape(str(value)),
    np.bool_: lambda value: "true" if value else "false",
    np.integer: lambda value: int.__repr__(int(value)),
    np.floating: lambda value: _float_text(float(value)),
}


def _other_scalar(value) -> str:
    """A scalar whose type is a subclass of one in ``_SCALARS``, as numpy's
    scalar types are."""
    for kind in type(value).__mro__[1:]:
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            return scalar(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dict_layout(keys, depth):
    """The keys in sorted order and the template of the dict's lines, or
    (None, None) when a key is not a string."""
    if any(type(key) is not str for key in keys):
        return None, None
    order = sorted(keys)
    pad = "\n" + "  " * (depth + 1)
    lines = ",".join(
        pad + _escape(key).replace("%", "%%") + ": %s" for key in order
    )
    return order, "{" + lines + "\n" + "  " * depth + "}"


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


# Cells written as their str() (an f-string gives the same text), which never
# holds a comma, quote or newline: no quote scan.
_BARE_CELLS = frozenset({int, float, bool, type(None)})


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
        name = _csv_cell(track)
        lines = ["trial,n,observable,value"]
        lines += [
            f"{trial},{n},{name},{value}"
            if type(trial) is int and type(n) is int and type(value) in _BARE_CELLS
            else ",".join(map(_csv_cell, (trial, n, track, value)))
            for trial, n, _, value in rows
        ]
        (out_dir / f"{track}.csv").write_text("\r\n".join(lines) + "\r\n")


def _execute(config: dict, out_dir: Path, jobs: int) -> int:
    if jobs < 1:
        # by hand: argparse's own usage error exits 2, the tolerance code
        print(f"invalid --jobs {jobs}: must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
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
