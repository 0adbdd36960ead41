"""Workloads of the hypwalk benchmark and the pass that runs one of them.

A pass drives the library the way ``hypwalk preset`` does: for each
experiment call of the workload, ``config.run_config(config, jobs=1)`` and
then ``cli.write_outputs``.  Calls run one after another in one process
(a closed loop with one caller): the next call starts when the previous one
has returned.

Nothing here imports ``hypwalk`` at module import time, so that
``setup_probe.py`` can time the import itself.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: The seed at which every call uses its preset's own seed and parameters
#: (apart from the trial counts and Cremona walk lengths below) and its
#: report must match the recorded digest.
DEFAULT_SEED = 0

#: Coefficient primes for non-default seeds are drawn from the size range of
#: the default primes (1000003, 1000033), where the int64 kernels are exact.
PRIME_RANGE = (1_000_000, 2**21)

#: workload -> experiment calls, in order: (preset name, parameter overrides).
#: Every pass is kept to about a second or less, so that a run holds tens of
#: passes to take the median of, and the calibrations next to a pass (see
#: ``calibrate``) see the load that pass saw.  At the presets' n = 8 a
#: Cremona pass takes 5-8 s, so only four or so would fit in a run.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "tree-fold": [("gromov-sublinearity-f2", {"trials": 500})],
    "tree-geodesic": [
        ("small-cancellation-f2", {"trials": 20}),
        ("acylindricity-f2", {"trials": 50}),
        ("match-non-f2", {"trials": 50}),
        ("match-self-f2", {"trials": 50}),
    ],
    # Trials 0-3 at the preset seed, walked to n = 6 (degree 36 at most).
    # At n = 8 trial 0 alone is a 5 s walk to degree 108; at n = 6 trials
    # 4, 8 and 10 are single cremona.power calls of 8, 40 and 40 s for
    # their dynamical-degree estimates, so none of them is in the range.
    "cremona-mixed": [("degree-growth-cremona", {"n_grid": [2, 4, 6], "trials": 4})],
    # A point mass: both preset trials are the same walk, so one suffices.
    # n <= 7 (degree 128) takes about 0.9 s; n = 8 (degree 256) about 7 s.
    "cremona-henon": [
        ("degree-growth-henon", {"n_grid": [1, 2, 3, 4, 5, 6, 7], "trials": 1})
    ],
}


def import_program():
    """Import ``hypwalk`` from this checkout's ``src``, and nowhere else."""
    if not (SOURCE / "hypwalk" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hypwalk sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import hypwalk

    if SOURCE.resolve() not in Path(hypwalk.__file__).resolve().parents:
        raise SystemExit(f"benchmark: hypwalk imported from {hypwalk.__file__}")
    return hypwalk


def _primes_for(seed: int) -> list[int]:
    import numpy as np
    from hypwalk.polynomials import is_prime

    rng = np.random.Generator(np.random.Philox(key=seed))
    primes: list[int] = []
    while len(primes) < 2:
        candidate = int(rng.integers(*PRIME_RANGE)) | 1
        if is_prime(candidate) and candidate not in primes:
            primes.append(candidate)
    return primes


def workload_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's experiment calls as (preset name, config) at ``seed``.

    Tree calls walk at seed ``preset seed + seed``.  Cremona calls keep the
    preset's walk seed and take their two coefficient primes from ``seed``:
    per-trial cost there ranges from 0.01 s to over 30 s with the words
    drawn, so a new walk seed would time the draw rather than the code,
    while new primes change every coefficient and keep the degree structure.
    """
    from hypwalk.presets import preset_config

    if workload not in WORKLOADS:
        raise KeyError(workload)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    calls = []
    for name, overrides in WORKLOADS[workload]:
        config = preset_config(name)
        config["params"].update(copy.deepcopy(overrides))
        if seed != DEFAULT_SEED:
            if config["model"]["type"] == "cremona":
                config["model"]["primes"] = _primes_for(seed)
            else:
                config["seed"] = (config["seed"] + seed) % 2**64
        calls.append((name, config))
    return calls


def call_dirs(workload: str, calls) -> list[Path]:
    return [OUT_DIR / workload / f"{k}-{name}" for k, (name, _) in enumerate(calls)]


def run_pass(calls, dirs) -> tuple[float, list]:
    """One pass: run and write every call.  Returns the wall time from the
    first ``run_config`` to the return of the last ``write_outputs``, and per
    call the error raised (or None)."""
    from hypwalk import cli, config as C

    errors = []
    start = time.perf_counter()
    for (_, config), out in zip(calls, dirs):
        try:
            result = C.run_config(config, jobs=1)
            cli.write_outputs(result, config, out)
        except Exception as err:  # a failed call is counted, not fatal
            errors.append(f"{type(err).__name__}: {err}")
        else:
            errors.append(None)
    return time.perf_counter() - start, errors


def read_reports(dirs) -> list[bytes | None]:
    reports = []
    for out in dirs:
        path = out / "report.json"
        reports.append(path.read_bytes() if path.is_file() else None)
    return reports


def clear_reports(dirs) -> None:
    for out in dirs:
        (out / "report.json").unlink(missing_ok=True)


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def failed_trials(report: dict) -> int:
    """Trials whose records are truncated (degree cap) or discarded."""
    return len(
        {r.get("trial", 0) for r in report["result"]["records"] if r.get("truncated")}
    )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
