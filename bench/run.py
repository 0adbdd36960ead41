"""End-to-end and per-layer benchmark of hypwalk.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``harness.WORKLOADS`` and ``BENCHMARK.json``.  One
run repeats passes over the workload's experiment calls for about
``--seconds`` seconds (at least ``MIN_PASSES``), checks every report, and
prints a summary followed by one JSON line.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
``SETUP_SAMPLES`` set-ups in fresh interpreters spread over the run;
``wall_s``, the median pass; and ``peak_rss_mb``, the process's peak
resident memory (VmHWM).  Set-up and pass times are scaled to a reference
machine speed by ``calibrate``: on a shared machine other tenants' load
slows passes by up to 1.8x for stretches of tens of seconds, so that the
raw fastest pass of a run moved by a third from run to run; the raw times
are printed beside the scaled ones.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.LAYER_METRICS`` (median over traced passes),
``cli.report_bytes``, and the fastest traced pass and its excess over the
fastest untraced one; the spans of every traced pass are written to
``bench/out/WORKLOAD.spans.csv``.

A trial fails when its record is truncated or discarded; every trial of a
call fails when the call raises, when its report bytes differ from the
reference (the recorded digest at the default seed, the run's first pass
otherwise) or when ``checks`` finds it wrong.  ``failed_frac`` is printed
in the summary; the JSON line carries ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import harness
import tracing

SETUP_SAMPLES = 15
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2


def measure_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, timed by the interpreter itself."""
    done = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_bytes() -> int:
    """This process's peak resident memory.  Not ``ru_maxrss``: Linux
    carries the launching process's peak into it across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def keep_going(count: int, minimum: int, started: float, seconds: float, times) -> bool:
    """Another pass while under the minimum, or while one more typical pass
    still ends within the measuring time."""
    if count < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


class Ledger:
    """Attempted and failed trials, and what made calls fail.

    The first pass's reports go through ``checks``; a wrong report fails its
    call in every pass, since every later pass must write the same bytes.
    """

    def __init__(self, calls, reference):
        self.calls = calls
        self.reference = reference  # digest per call, or None to take pass 1
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, None] = {}  # ordered and without repeats
        self.wrong: set[int] | None = None
        self._failed_by_digest: dict[str, int] = {}

    def _check(self, reports) -> set[int]:
        wrong = set()
        for k, ((name, config), report) in enumerate(zip(self.calls, reports)):
            found = checks.check_report(json.loads(report), config) if report else []
            if found:
                wrong.add(k)
                self.problems.update(dict.fromkeys(f"{name}: {p}" for p in found[:5]))
        return wrong

    def record(self, errors, reports) -> None:
        if self.wrong is None:
            self.wrong = self._check(reports)
        if self.reference is None:
            self.reference = [harness.digest(r) if r else None for r in reports]
        for k, ((name, config), error, report) in enumerate(
            zip(self.calls, errors, reports)
        ):
            trials = config["params"]["trials"]
            self.attempted += trials
            digest = harness.digest(report) if report is not None else None
            if error is not None or digest != self.reference[k]:
                self.failed += trials
                self.problems[f"{name}: {error or 'report differs from reference'}"] = None
            elif k in self.wrong:
                self.failed += trials
            else:
                if digest not in self._failed_by_digest:
                    self._failed_by_digest[digest] = harness.failed_trials(
                        json.loads(report)
                    )
                self.failed += self._failed_by_digest[digest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.import_program()
    calls = harness.workload_configs(args.workload, args.seed)
    dirs = harness.call_dirs(args.workload, calls)
    reference = None
    if args.seed == harness.DEFAULT_SEED:
        recorded = harness.load_reference().get("digests", {}).get(args.workload)
        reference = [recorded.get(name) for name, _ in calls] if recorded else [None] * len(calls)

    ledger = Ledger(calls, reference)
    tracer = tracing.Tracer() if args.trace else None
    setup: list[float] = []
    raw_setup: list[float] = []
    calibrations: list[float] = []
    scaled_times: list[float] = []
    plain_times: list[float] = []
    traced_times: list[float] = []
    layer_rows: list[dict] = []
    spans: list[list] = []
    started = time.perf_counter()

    def one_pass(traced: bool):
        harness.clear_reports(dirs)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, errors = harness.run_pass(calls, dirs)
        finally:
            if traced:
                tracer.remove()
        reports = harness.read_reports(dirs)
        ledger.record(errors, reports)
        if traced:
            traced_times.append(wall)
            spans.append(list(tracer.spans))
            row = tracing.layer_metrics(tracer.spans, tracer.counters)
            row["cli.report_bytes"] = sum(len(r) for r in reports if r is not None)
            layer_rows.append(row)
        else:
            plain_times.append(wall)

    if tracer is None:
        # Each set-up and pass is scaled by the calibrations just before and
        # after it.  Set-ups are spread over the run, between passes, so that
        # they meet the same stretch of a shared machine's load as the passes.
        last = calibrate.calibrate()

        def scaled(seconds: float) -> float:
            nonlocal last
            before, last = last, calibrate.calibrate()
            calibrations.append(last)
            return seconds * calibrate.REFERENCE_S * 2 / (before + last)

        def one_setup():
            raw = measure_setup(args.workload, args.seed)
            raw_setup.append(raw)
            setup.append(scaled(raw))

        cycle_times: list[float] = []
        while keep_going(len(cycle_times), MIN_PASSES, started, args.seconds, cycle_times):
            elapsed = (time.perf_counter() - started) / args.seconds
            if len(setup) < SETUP_SAMPLES * min(1.0, elapsed + 1 / SETUP_SAMPLES):
                one_setup()
            cycle_start = time.perf_counter()
            one_pass(traced=False)
            scaled_times.append(scaled(plain_times[-1]))
            cycle_times.append(time.perf_counter() - cycle_start)
        while len(setup) < SETUP_SAMPLES:
            one_setup()
    else:
        pair_times: list[float] = []
        while keep_going(len(pair_times), MIN_TRACE_PAIRS, started, args.seconds, pair_times):
            one_pass(traced=False)
            one_pass(traced=True)
            pair_times.append(plain_times[-1] + traced_times[-1])
        tracing.write_spans(spans, harness.OUT_DIR / f"{args.workload}.spans.csv")

    if None in ledger.reference:
        ledger.problems["no recorded digest for a call at the default seed"] = None
    correct = not ledger.problems

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(scaled_times), "s"),
            "peak_rss_mb": (peak_rss_bytes() / 1e6, "MB"),
        }
    else:
        values = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in layer_rows[0]
        }
        values["trace.wall_s"] = min(traced_times)
        values["trace.overhead_s"] = values["trace.wall_s"] - min(plain_times)
        metrics = {name: (values[name], unit) for name, unit in tracing.UNITS.items()}

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(plain_times)} untraced and {len(traced_times)} traced passes, "
        f"{len(setup)} set-ups"
    )
    print("  pass times (s): " + " ".join(f"{t:.3f}" for t in plain_times + traced_times))
    print(
        f"  untraced pass: median {statistics.median(plain_times):.6g} s, "
        f"fastest {min(plain_times):.6g} s (raw)"
    )
    if setup:
        print("  set-up times (s): " + " ".join(f"{t:.3f}" for t in raw_setup))
        print(f"  set-up: median {statistics.median(raw_setup):.6g} s (raw)")
        print(
            f"  calibration: median {statistics.median(calibrations):.6g} s, "
            f"reference {calibrate.REFERENCE_S} s"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':48s} {ledger.failed / ledger.attempted:14.6g} 1")
    for problem in ledger.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
