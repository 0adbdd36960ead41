"""Run every workload at the default seed and print its figures.

    python3 bench/record.py [--write]

For each workload this runs ``run.py`` untraced and traced, and prints
setup_s, wall_s, peak_rss_mb and failed_frac, every per-layer metric, and
the tracing overhead (fastest traced minus fastest untraced pass).  ``--write``
first records the sha256 of every call's report at the default seed, then
rewrites ``reference.json`` with the digests, the machine, and each
workload's figures and layer split.  Rewrite it only when a change is meant
to alter report bytes or after the benchmark itself changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import harness

NOTES = {
    "seeds": "At the default seed 0 every call uses its preset's seed and "
    "parameters, except the trial counts and Cremona walk lengths in "
    "harness.WORKLOADS, and must reproduce the digests below.  Tree calls "
    "walk at preset seed + seed.  "
    "Cremona calls keep the preset walk seed and draw two coefficient primes "
    "in [1000000, 2^21) from the seed: their per-trial cost spans 0.01 s to "
    "over 30 s with the words drawn (seed 20260811 trial 12: 36 s in "
    "cremona.power; seed 20260812 trial 8: 35 s in sample_path at degree "
    "192), so a new walk seed would time the draw, not the code.",
    "cremona_mixed_heavy_tail": "At seed 20260810 with n_grid [2, 4, 6, 8] "
    "trial 8's dynamical-degree estimate is a single cremona.power call of "
    "about 40 s, about 65% of a 30-trial pass.  The workload walks to n = 6 "
    "and runs 4 trials (0-3), so it does NOT include that trial, nor the "
    "cremona.power calls of trials 4, 8 and 10 at n = 6 (about 8, 40 and "
    "40 s): a pass is kept to about a second so that a run holds tens of "
    "passes and each calibration sees the load its pass saw (see "
    "'timing').  iterate_budget stays 2, since degree_growth's "
    "dynamical-degree estimate is the only caller of cremona.power.",
    "jobs": "All workloads run with jobs=1.  `hypwalk preset NAME --jobs 2` "
    "fails with `Can't pickle local object` for small-cancellation-f2 "
    "(certificate_obs), acylindricity-f2 (census_obs), match-non-f2 and "
    "match-self-f2 (lambdas in match_census); gromov-sublinearity-f2 runs.  "
    "A --jobs scaling workload waits for that library fix.",
    "known_red": "Criterion 6a (match-axis-f2) is the known-red acceptance "
    "check; it is not a workload and is not counted as a failure.",
    "timing": "wall_s is the median pass of a run and setup_s the median of "
    "set-ups in fresh interpreters (import hypwalk, then build_model and "
    "build_measure for every call); a pass runs run_config, which builds the "
    "model and measure again as `hypwalk preset` does, and write_outputs for "
    "every call.  Both are scaled to a reference machine speed: each pass and "
    "set-up is multiplied by calibrate.REFERENCE_S over the mean time of a "
    "fixed numpy and interpreter computation run just before and after it "
    "(bench/calibrate.py).  On the shared 2-core machine other tenants' load "
    "slowed passes by up to 1.8x for stretches of tens of seconds; the raw "
    "fastest pass of cremona-mixed then spread by a third of its median over "
    "ten runs, the scaled median by under a tenth.  Tracing overhead is the "
    "fastest traced pass minus the fastest untraced one, both raw; on that "
    "machine it is within the noise.",
    "trial_counts": "Every pass is short (see 'cremona_mixed_heavy_tail'): "
    "tree-fold runs 500 trials (the preset 10^4), "
    "tree-geodesic 20 small-cancellation trials and 50 of each other call "
    "(presets 100 and 200), cremona-mixed 4 trials to n = 6 (the preset 50 "
    "to n = 8, where trial 0 alone is a 5 s walk to degree 108), and "
    "cremona-henon one trial to n = 7, degree 128 (the preset reaches "
    "degree 256 at n = 8, a 7 s walk).  The fold is therefore a small "
    "working set; a fold that trades memory for speed shows in peak_rss_mb "
    "only in proportion.",
}


def record_digests() -> dict:
    harness.import_program()
    digests = {}
    for workload in harness.WORKLOADS:
        calls = harness.workload_configs(workload, harness.DEFAULT_SEED)
        dirs = harness.call_dirs(workload, calls)
        harness.clear_reports(dirs)
        _, errors = harness.run_pass(calls, dirs)
        if any(errors):
            raise SystemExit(f"{workload}: {errors}")
        reports = harness.read_reports(dirs)
        digests[workload] = {
            name: harness.digest(report) for (name, _), report in zip(calls, reports)
        }
    return digests


def run_workload(workload: str, trace: int, seconds: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(harness.BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(harness.DEFAULT_SEED),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    print(done.stderr, end="", file=sys.stderr)
    return json.loads(lines[-1])


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    seconds = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    reference = harness.load_reference()
    if args.write:
        reference["digests"] = record_digests()
        harness.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")

    figures = {}
    for workload in harness.WORKLOADS:
        plain = run_workload(workload, 0, seconds)
        traced = run_workload(workload, 1, seconds)
        if not (plain["correct"] and traced["correct"]):
            print(f"{workload}: reports are not correct", file=sys.stderr)
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        print(f"  tracing overhead of {workload}: {overhead:.4f} s\n", flush=True)
        figures[workload] = {
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "failed_frac": plain["failed"] / plain["attempted"],
            "trace_overhead_s": overhead,
            "layer_split": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    if args.write:
        reference.update(
            {"machine": machine(), "seconds": seconds, "workloads": figures, "notes": NOTES}
        )
        harness.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
