"""Tests of the benchmark itself.

    python3 -m pytest bench/

Each workload runs one traced pass at the default seed.  Its reports must be
the bytes ``hypwalk preset`` (or ``hypwalk run`` where the trial count
differs from the preset) writes for the same config, and must match the
recorded digests; every per-layer metric must count calls on the workloads
it is assigned to, so a renamed function cannot silently zero a layer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import tracing

harness.import_program()

from hypwalk import cli, cremona, polynomials  # noqa: E402
from hypwalk import config as C  # noqa: E402
from hypwalk.presets import preset_config  # noqa: E402


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def traced_pass(request, tmp_path_factory):
    workload = request.param
    calls = harness.workload_configs(workload, harness.DEFAULT_SEED)
    dirs = [tmp_path_factory.mktemp(workload) for _ in calls]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, errors = harness.run_pass(calls, dirs)
    finally:
        tracer.remove()
    assert errors == [None] * len(calls)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    return workload, calls, harness.read_reports(dirs), metrics


def test_reports_are_the_cli_bytes_and_match_the_digests(traced_pass, tmp_path):
    workload, calls, reports, _ = traced_pass
    recorded = harness.load_reference()["digests"][workload]
    env = dict(os.environ, PYTHONPATH=str(harness.SOURCE))
    for (name, config), report in zip(calls, reports):
        out = tmp_path / name
        if config == preset_config(name):
            command = ["preset", name]
        else:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            command = ["run", str(path)]
        subprocess.run(
            [sys.executable, "-m", "hypwalk.cli", *command, "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert (out / "report.json").read_bytes() == report
        assert harness.digest(report) == recorded[name]


def test_every_assigned_layer_counts_calls(traced_pass):
    workload, _, _, metrics = traced_pass
    for metric, workloads in tracing.ASSIGNED.items():
        if workload in workloads:
            assert metrics[metric] > 0, f"{metric} is 0 on {workload}"


def test_benchmark_json_lists_every_metric_reported():
    benchmark = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(harness.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert per_layer == tracing.UNITS
    assert [m["name"] for m in benchmark["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_removing_the_tracer_restores_every_binding():
    original = polynomials.substitute
    tracer = tracing.Tracer()
    tracer.install()
    assert cremona.substitute is not original
    assert cremona.substitute is polynomials.substitute
    tracer.remove()
    assert cremona.substitute is original and polynomials.substitute is original


def test_checks_find_wrong_records():
    _, tree = harness.workload_configs("tree-geodesic", 1)[2]
    tree["params"]["trials"] = 5
    _, henon = harness.workload_configs("cremona-henon", 1)[0]
    henon["params"]["n_grid"] = [1, 2, 3]
    for config, key in ((tree, "pattern_s10"), (henon, "degree")):
        result = C.run_config(config)
        report = json.loads(
            cli.serialize_report(
                {"config": config, "result": result.to_json_dict()}
            )
        )
        assert checks.check_report(report, config) == []
        row = report["result"]["records"][-1]
        row[key] = row[key] + 1
        assert checks.check_report(report, config) != []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-fold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
