import copy
import hashlib
import json
import math
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk import cli, experiments
from hypwalk.cli import main, serialize_report, write_outputs
from hypwalk.config import ConfigError, run_config, validate_config
from hypwalk.experiments import ExperimentResult
from hypwalk.presets import PRESETS, preset_config
from hypwalk.walk import FiniteMeasure

SMALL_DRIFT = {
    "experiment": "drift",
    "seed": 99,
    "model": {"type": "free", "rank": 2},
    "measure": {
        "atoms": [
            {"word": "a", "weight": "1/4"},
            {"word": "A", "weight": "1/4"},
            {"word": "b", "weight": "1/4"},
            {"word": "B", "weight": "1/4"},
        ],
        "attest_non_elementary": True,
    },
    "params": {"n": 200, "trials": 40, "expected": 0.5, "tolerance": 0.1},
}


def _write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_drift_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(_write(tmp_path, SMALL_DRIFT)), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["passed"] is True
    assert report["config"]["seed"] == 99
    assert (out / "d.csv").exists()


def test_report_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "out"
    main(["run", str(_write(tmp_path, SMALL_DRIFT)), "--out", str(out)])
    raw = (out / "report.json").read_text()
    assert serialize_report(json.loads(raw)) == raw


def test_csv_sorted_and_rfc4180(tmp_path):
    out = tmp_path / "out"
    main(["run", str(_write(tmp_path, SMALL_DRIFT)), "--out", str(out)])
    body = (out / "d.csv").read_bytes().decode()
    assert body.endswith("\r\n")
    lines = body.split("\r\n")
    assert lines[0] == "trial,n,observable,value"
    data = [line.split(",") for line in lines[1:] if line]
    keys = [(int(r[0]), int(r[1])) for r in data]
    assert keys == sorted(keys)


def test_bad_weights_exit_one(tmp_path, capsys):
    # a weight is an exact rational string: JSON true and 1.0 are not
    for weight, field, message in [
        ("1/5", "$.measure.atoms", "sum to 1"),
        (True, "$.measure.atoms[0].weight", "rational string"),
        (1.0, "$.measure.atoms[0].weight", "rational string"),
    ]:
        config = copy.deepcopy(SMALL_DRIFT)
        config["measure"]["atoms"][0]["weight"] = weight
        code = main(["run", str(_write(tmp_path, config)), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert field in err and message in err


@pytest.mark.parametrize("flag", ["attest_non_elementary", "attest_wpd"])
@pytest.mark.parametrize("value", ["false", 1, None])
def test_attestations_are_booleans(tmp_path, capsys, flag, value):
    # the report echoes them as the measure's attestations
    config = copy.deepcopy(SMALL_DRIFT)
    config["measure"][flag] = value
    _run_invalid(tmp_path, capsys, config, f"$.measure.{flag}: must be true or false")


def test_unknown_key_exit_one(tmp_path, capsys):
    config = copy.deepcopy(SMALL_DRIFT)
    config["params"]["bogus"] = 1
    code = main(["run", str(_write(tmp_path, config)), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, params, message",
    [
        ("match-non-f2", {"trials": 0}, "$.params.trials: must be an integer >= 1"),
        ("small-cancellation-f2", {"trials": 0}, "$.params.trials:"),
        ("degree-growth-henon", {"trials": 0}, "$.params.trials:"),
        ("char-index-z3", {"trials": 0}, "$.params.trials:"),
        ("gromov-sublinearity-f2", {"trials": 0}, "$.params.trials:"),
        ("shadow-decay-f2", {"samples": 0}, "$.params.samples:"),
        ("shadow-decay-f2", {"chunk": 0}, "$.params.chunk:"),
        ("gromov-sublinearity-f2", {"n_grid": []}, "$.params.n_grid: must be"),
        ("degree-growth-henon", {"n_grid": [0, 2]}, "$.params.n_grid:"),
        ("drift-f2", {"trials": None}, "$.params: missing required key 'trials'"),
        # json.loads reads NaN and Infinity, and err > NaN is False at a gate
        ("drift-f2", {"tolerance": math.nan}, "$.params.tolerance: must be a finite"),
        ("drift-f2", {"expected": math.inf}, "$.params.expected: must be a finite"),
        ("gromov-sublinearity-f2", {"epsilon": -math.inf}, "$.params.epsilon:"),
        ("shadow-decay-f2", {"settle_steps": -10}, "$.params.settle_steps: must be >= 0"),
        ("shadow-decay-f2", {"settle_steps": -1}, "$.params.settle_steps: must be >= 0"),
        ("match-non-f2", {"pattern_length": 10}, "$.params.pattern_length: 10 is shorter"),
        # an argument the entry point checks itself is named as a field too
        ("match-non-f2", {"kind": "bogus"}, "$.params.kind: unknown matching census"),
        ("gromov-sublinearity-f2", {"epsilon": 1.5}, "$.params.epsilon: must lie in"),
        ("drift-f2", {"trials": 29}, "$.params.trials: drift estimation needs at least 30"),
        ("match-axis-f2", {"axis_core": None}, "$.params.axis_core: axis matching needs"),
        ("match-non-f2", {"n": None}, "$.params.n: non matching needs it"),
        ("match-self-f2", {"n_grid": None}, "$.params.n_grid: self matching needs it"),
        # an elliptic core has no axis to match
        ("match-axis-f2", {"axis_core": ""}, "$.params.axis_core: must be loxodromic"),
        ("match-axis-f2", {"axis_core": "aA"}, "$.params.axis_core: must be loxodromic"),
        ("acylindricity-f2", {"quantile": 1.5}, "$.params.quantile: must lie in (0, 1]"),
        ("acylindricity-f2", {"K": -1}, "$.params.K: must be >= 0"),
        ("match-axis-f2", {"L": 0}, "$.params.L: must be an integer >= 1"),
        *[
            ("match-self-f2", {"self_match_fraction": f}, "$.params.self_match_fraction:")
            for f in (2.0, -0.5, 0.0)
        ],
        ("degree-growth-cremona", {"iterate_budget": 1}, "$.params.iterate_budget:"),
        ("degree-growth-henon", {"iterate_budget": 1}, "$.params.iterate_budget:"),
        ("translation-growth-f2", {"tau_budget": 0}, "$.params.tau_budget: must be an"),
        # a repeated entry was walked, or sampled, once per repeat and counted
        # twice at its n (or m)
        ("degree-growth-henon", {"n_grid": [3, 3]}, "$.params.n_grid: must not repeat"),
        ("shadow-decay-f2", {"m_grid": [2, 2, 3]}, "$.params.m_grid: must not repeat"),
        ("match-non-f2", {"s_grid": [10, 30, 10]}, "$.params.s_grid: must not repeat"),
        # a budget below 1 skipped every doubling check and passed
        (
            "sigma-involution",
            {"henon_power_budget": 0},
            "$.params.henon_power_budget: must be an integer >= 1",
        ),
    ],
)
def test_bad_counts_and_grids_exit_one(tmp_path, capsys, preset, params, message):
    # rejected before any walk; a None value drops the key
    config = preset_config(preset)
    for key, value in params.items():
        config["params"][key] = value
        if value is None:
            del config["params"][key]
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, config)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid config: {message}")
    assert not out.exists()


def _run_invalid(tmp_path, capsys, config, message):
    """``hypwalk run`` of config exits 1 with ``invalid config: message``
    before writing anything."""
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, config)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid config: {message}")
    assert not out.exists()


_PRIMES_MESSAGE = "must be a nonempty list of primes in [2^16, 2^31)"


@pytest.mark.parametrize(
    "primes",
    [[1000000, 1000002], [2305843009213693951, 1000003], [True, 1000003], [], [3, 5], [65521]],
)
def test_bad_primes_exit_one(tmp_path, capsys, primes):
    # composites, moduli past the exact-product bound 2^31, booleans, and
    # primes below 2^16 (65521 is the largest)
    config = preset_config("degree-growth-henon")
    config["model"]["primes"] = primes
    _run_invalid(tmp_path, capsys, config, f"$.model.primes: {_PRIMES_MESSAGE}")


def test_repeated_prime_exits_one(tmp_path, capsys):
    # a prime tracked twice would only agree with itself
    config = preset_config("degree-growth-cremona")
    config["model"]["primes"] = [1000003, 1000003]
    _run_invalid(tmp_path, capsys, config, "$.model.primes: must not repeat a prime")


@pytest.mark.parametrize(
    "key, message",
    [
        ("primes", _PRIMES_MESSAGE),
        ("degree_cap", "must be an integer >= 2"),
    ],
)
def test_null_cremona_fields_exit_one(tmp_path, capsys, key, message):
    # a key that is present is checked, even when it is null
    config = preset_config("degree-growth-henon")
    config["model"][key] = None
    _run_invalid(tmp_path, capsys, config, f"$.model.{key}: {message}")


def test_small_primes_stay_valid():
    # the least prime a model takes, 2^16 + 1, and the largest, 2^31 - 1
    config = preset_config("degree-growth-henon")
    config["model"]["primes"] = [65537, 2147483647]
    validate_config(config)


def _monomial_model(config):
    config["model"] = {"type": "monomial"}
    config["measure"] = {"atoms": [{"matrix": [1, 1, 0, 1], "weight": "1"}]}


def _monomial_gen(config):
    config["measure"]["atoms"][0]["gen"] = {"name": "monomial", "matrix": [1, 1, 0, 1]}


@pytest.mark.parametrize(
    "preset, prepare, keys, field",
    [
        ("drift-f2", None, ("seed",), "$.seed"),
        ("drift-f2", None, ("params", "trials"), "$.params.trials"),
        ("drift-f2", None, ("params", "n"), "$.params.n"),
        ("shadow-decay-f2", None, ("params", "samples"), "$.params.samples"),
        ("shadow-decay-f2", None, ("params", "m_grid", 1), "$.params.m_grid"),
        ("degree-growth-henon", None, ("params", "n_grid", 1), "$.params.n_grid"),
        ("match-non-f2", None, ("params", "s_grid", 0), "$.params.s_grid"),
        ("drift-f2", None, ("model", "rank"), "$.model.rank"),
        ("char-index-z3", None, ("model", "torsion", "order"), "$.model.torsion.order"),
        ("char-index-z3", None, ("model", "actions", 0, "value"), "$.model.actions[0].value"),
        ("degree-growth-henon", None, ("model", "degree_cap"), "$.model.degree_cap"),
        ("degree-growth-henon", None, ("measure", "atoms", 0, "gen", "n"), "$.measure.atoms[0].gen.n"),
        (
            "degree-growth-cremona",
            None,
            ("measure", "atoms", 1, "gen", "factors", 1, "entries", 8),
            "$.measure.atoms[1].gen.factors[1].entries",
        ),
        ("degree-growth-henon", _monomial_gen, ("measure", "atoms", 0, "gen", "matrix", 3), "$.measure.atoms[0].gen.matrix"),
        ("degree-growth-henon", _monomial_model, ("measure", "atoms", 0, "matrix", 3), "$.measure.atoms[0].matrix"),
    ],
)
@pytest.mark.parametrize("value", [True, False])
def test_boolean_integer_fields_exit_one(tmp_path, capsys, preset, prepare, keys, field, value):
    # JSON true and false are not integers, though Python's bool is an int
    config = preset_config(preset)
    if prepare is not None:
        prepare(config)
    target = config
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    _run_invalid(tmp_path, capsys, config, f"{field}:")


@pytest.mark.parametrize(
    "preset, key, value, message",
    [
        ("match-axis-f2", "axis_core", 5, "must be a string"),
        ("match-axis-f2", "axis_core", None, "must be a string"),
        ("match-axis-f2", "L", "10", "must be an integer"),
        ("gromov-sublinearity-f2", "epsilon", "0.1", "must be a number"),
        ("acylindricity-f2", "K", "2", "must be an integer"),
        ("sigma-involution", "henon_power_budget", "3", "must be an integer"),
        ("drift-f2", "expected", "0.5", "must be a number or null"),
        ("drift-f2", "expected", True, "must be a number or null"),
        ("degree-growth-henon", "iterate_budget", "2", "must be an integer or null"),
        # null leaves out only an argument whose default is None
        ("drift-f2", "trials", None, "must be an integer >= 1"),
        ("gromov-sublinearity-f2", "n_grid", None, "must be a nonempty list of integers >= 1"),
        ("shadow-decay-f2", "m_grid", None, "must be a nonempty list of integers >= 1"),
        ("match-non-f2", "s_grid", None, "must be a nonempty list of integers >= 1"),
    ],
)
def test_params_of_the_wrong_json_type_exit_one(tmp_path, capsys, preset, key, value, message):
    # the types are the entry point's annotations
    config = preset_config(preset)
    config["params"][key] = value
    _run_invalid(tmp_path, capsys, config, f"$.params.{key}: {message}")


class _Walked(Exception):
    """Raised by the first walk step: the arguments were accepted."""


def test_an_integer_is_a_number_and_null_an_optional_param(monkeypatch):
    def walked(*args):
        raise _Walked

    monkeypatch.setattr(FiniteMeasure, "increment_indices", walked)
    config = preset_config("drift-f2")
    config["params"].update(expected=1, tolerance=0)
    with pytest.raises(_Walked):
        run_config(config)
    config = preset_config("degree-growth-cremona")
    config["params"]["iterate_budget"] = None
    with pytest.raises(_Walked):
        run_config(config)


def _set(*keys, value):
    """Set config[keys[0]]...[keys[-1]] to value."""

    def prepare(config):
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return prepare


@pytest.mark.parametrize(
    "preset, prepare, message",
    [
        (
            "degree-growth-cremona",
            _set("measure", "atoms", 1, "gen", "factors", 1, "entries", value=[1, 0, 0] * 3),
            "$.measure.atoms[1].gen.factors[1].entries: linear generator matrix is singular mod p",
        ),
        (
            "degree-growth-henon",
            _set("measure", "atoms", 0, "gen", value={"name": "monomial", "matrix": [2, 0, 0, 1]}),
            "$.measure.atoms[0].gen.matrix: monomial matrix must have determinant +-1",
        ),
        (
            "degree-growth-henon",
            lambda config: config.update(
                model={"type": "monomial"},
                measure={"atoms": [{"matrix": [2, 0, 0, 1], "weight": "1"}]},
            ),
            "$.measure.atoms[0].matrix: monomial matrix must have determinant +-1",
        ),
        (
            "drift-f2",
            _set("measure", "atoms", 2, "word", value="c"),
            "$.measure.atoms[2].word: letter 3 outside generator range 1..2",
        ),
        (
            "drift-f2",
            _set("measure", "atoms", 0, "word", value="a1"),
            "$.measure.atoms[0].word: invalid word character '1'",
        ),
        (
            "match-axis-f2",
            _set("params", "axis_core", value="a1"),
            "$.params.axis_core: invalid word character '1'",
        ),
        (
            "char-index-z3",
            _set("measure", "atoms", 1, "torsion", value=3),
            "$.measure.atoms[1].torsion: torsion index out of range",
        ),
        (
            "char-index-z3",
            _set("model", "actions", 0, "value", value=3),
            "$.model.actions[0].value: 3 is not a unit modulo 3",
        ),
        (
            "drift-f2",
            _set("measure", "atoms", 0, "weight", value="abc"),
            "$.measure.atoms[0].weight: not a rational number",
        ),
    ],
)
def test_build_errors_name_their_field(tmp_path, capsys, preset, prepare, message):
    config = preset_config(preset)
    prepare(config)
    _run_invalid(tmp_path, capsys, config, message + "\n")


def test_tree_only_experiment_on_cremona_exits_one(tmp_path, capsys):
    config = preset_config("small-cancellation-f2")
    cremona = preset_config("degree-growth-cremona")
    config["model"], config["measure"] = cremona["model"], cremona["measure"]
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, config)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid config: small cancellation runs on the tree models\n"
    )
    assert not out.exists()


def test_jobs_two_writes_the_serial_bytes_on_cremona(tmp_path):
    config = preset_config("degree-growth-henon")
    config["params"].update(n_grid=[1, 2, 3, 4], trials=3)
    path = _write(tmp_path, config)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(path), "--out", str(out), "--jobs", jobs]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert "report.json" in outputs[0]


@pytest.fixture
def inline_pools(monkeypatch):
    """``experiments.ProcessPoolExecutor`` replaced by a pool that runs each
    block in this process, so no worker starts; the list of pools made."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            self.max_workers, self.blocks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, block, first, stop):
            self.blocks.append((first, stop))
            future = Future()
            future.set_result(block(first, stop))
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    return pools


def test_jobs_past_the_trial_count_start_one_worker_per_trial(tmp_path, inline_pools):
    config = copy.deepcopy(SMALL_DRIFT)
    config["params"]["trials"] = 30
    path = _write(tmp_path, config)
    outputs = []
    for jobs in ("1", "64"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(path), "--out", str(out), "--jobs", jobs]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    (pool,) = inline_pools
    assert pool.max_workers == 30
    assert pool.blocks == [(trial, trial + 1) for trial in range(30)]


@pytest.mark.parametrize("command", [["run", "CONFIG"], ["preset", "drift-f2"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_one(tmp_path, capsys, inline_pools, command, jobs):
    # exit 1 like an invalid config: argparse's usage error would exit 2
    out = tmp_path / "o"
    config = str(_write(tmp_path, SMALL_DRIFT))
    argv = [config if arg == "CONFIG" else arg for arg in command]
    assert main(argv + ["--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"invalid --jobs {jobs}: must be at least 1\n"
    assert not out.exists() and not inline_pools


def _walk_not_expected(config, jobs=1):
    raise AssertionError("the walk ran")


@pytest.mark.parametrize("command", [["run", "CONFIG"], ["preset", "drift-f2"]])
@pytest.mark.parametrize("below", ["", "sub"])
def test_a_file_as_out_exits_one_before_the_walk(tmp_path, capsys, monkeypatch, command, below):
    # exit 1 like an invalid config, on one line, and the file is kept
    monkeypatch.setattr(cli, "run_config", _walk_not_expected)
    blocker = tmp_path / "o"
    blocker.write_text("kept")
    out = blocker / below if below else blocker
    config = str(_write(tmp_path, SMALL_DRIFT))
    argv = [config if arg == "CONFIG" else arg for arg in command]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid --out {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_a_directory_at_report_json_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    assert main(["run", str(_write(tmp_path, SMALL_DRIFT)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid --out {out}: ") and err.count("\n") == 1
    assert "report.json" in err


def test_a_failed_run_removes_only_the_directories_it_made(tmp_path, capsys):
    config = copy.deepcopy(SMALL_DRIFT)
    config["params"]["bogus"] = 1
    kept = tmp_path / "kept"
    kept.mkdir()
    out = kept / "a" / "b"
    assert main(["run", str(_write(tmp_path, config)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invalid config: ")
    assert kept.is_dir() and not any(kept.iterdir())


def _files(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_a_rerun_writes_new_files_and_an_open_reader_keeps_its_bytes(tmp_path):
    # every output is unlinked and written anew, never truncated in place
    configs = [dict(SMALL_DRIFT, seed=seed) for seed in (1, 2)]
    first, second = (run_config(config) for config in configs)
    write_outputs(second, configs[1], tmp_path / "fresh")
    out = tmp_path / "rerun"
    write_outputs(first, configs[0], out)
    before = _files(out)
    with open(out / "report.json", "rb") as report, open(out / "d.csv", "rb") as csv:
        write_outputs(second, configs[1], out)
        assert report.read() == before["report.json"]
        assert csv.read() == before["d.csv"]
    assert _files(out) == _files(tmp_path / "fresh") != before


def test_tolerance_failure_exit_two(tmp_path):
    config = copy.deepcopy(SMALL_DRIFT)
    config["params"]["expected"] = 0.9
    config["params"]["tolerance"] = 0.01
    code = main(["run", str(_write(tmp_path, config)), "--out", str(tmp_path / "o")])
    assert code == 2


def test_resource_failure_exit_three(tmp_path):
    config = {
        "experiment": "drift",
        "seed": 5,
        "model": {"type": "cremona", "degree_cap": 8},
        "measure": {
            "atoms": [
                {"gen": {"name": "henon", "n": 2}, "weight": "1/2"},
                {"gen": {"name": "sigma"}, "weight": "1/2"},
            ],
            "attest_non_elementary": True,
        },
        "params": {"n": 20, "trials": 30},
    }
    code = main(["run", str(_write(tmp_path, config)), "--out", str(tmp_path / "o")])
    assert code == 3


def test_resource_error_from_an_entry_point_exits_three(tmp_path, capsys):
    # the census cap raises out of the run, before any gate
    config = preset_config("acylindricity-f2")
    config["params"]["K"] = 5
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, config)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "resource failure: census radius 5 above cap 4 (ball has 485 words)\n"
    )
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.json")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_malformed_json_names_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "drift",\n  "seed": }')
    code = main(["run", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_list_presets_and_version(capsys):
    assert main(["list-presets"]) == 0
    listing = capsys.readouterr().out
    assert "drift-f2" in listing and "sigma-involution" in listing
    assert main(["version"]) == 0
    from hypwalk import __version__

    assert __version__ in capsys.readouterr().out


def test_unknown_preset(capsys):
    assert main(["preset", "no-such-thing"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_preset_sigma_involution(tmp_path):
    code = main(["preset", "sigma-involution", "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["result"]["aggregates"]["henon_degrees"] == [2, 4, 8, 16, 32, 64]


def test_preset_seed_override():
    config = preset_config("drift-f2", seed=4242)
    assert config["seed"] == 4242
    assert PRESETS["drift-f2"]["config"]["seed"] != 4242


def test_all_preset_configs_validate():
    for name in PRESETS:
        validate_config(preset_config(name))


def test_validate_rejects_monomial_weighted_wrong():
    config = {
        "experiment": "drift",
        "seed": 1,
        "model": {"type": "monomial"},
        "measure": {"atoms": [{"matrix": [2, 1, 1], "weight": "1"}]},
        "params": {"n": 10, "trials": 30},
    }
    with pytest.raises(ConfigError) as info:
        validate_config(config)
    assert "matrix" in str(info.value)


# ---------------------------------------------------------------------------
# Preset bytes: the sha256 of report.json and of each CSV, per preset at its
# fixed seed, recorded in preset_digests.json.  The four presets that take
# more than 0.8 s standalone are marked slow, which the default run
# deselects: ``pytest -m slow tests/test_cli.py`` checks them.

PRESET_DIGESTS = json.loads(
    (Path(__file__).parent / "preset_digests.json").read_text()
)
_SLOW_PRESETS = {
    "degree-growth-cremona",
    "gromov-sublinearity-f2",
    "char-index-z3",
    "shadow-decay-f2",
}


def test_digests_cover_every_preset():
    assert set(PRESET_DIGESTS) == set(PRESETS)


def _output_digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in _SLOW_PRESETS else name
        for name in sorted(PRESETS)
    ],
)
def test_preset_keeps_its_bytes(name, tmp_path):
    # match-axis-f2 fails its tolerance (the known red check) and still
    # writes its report
    config = preset_config(name)
    write_outputs(run_config(config), config, tmp_path)
    assert _output_digests(tmp_path) == PRESET_DIGESTS[name]


@pytest.mark.parametrize(
    "name",
    [pytest.param("char-index-z3", marks=pytest.mark.slow), "char-index-z3-control"],
)
def test_char_index_keeps_its_bytes_at_two_jobs(name, tmp_path):
    # the image walk folds in the runner's trial blocks, one per worker
    config = preset_config(name)
    write_outputs(run_config(config, jobs=2), config, tmp_path)
    assert _output_digests(tmp_path) == PRESET_DIGESTS[name]


# ---------------------------------------------------------------------------
# The report writer against the standard encoder.

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 0.1, 1e16, 1e-7])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t", "%s", "%%", "é", " ", "😀", "\x00"])
)
_json_keys = st.text() | st.sampled_from(['"', "\\", "%s", "%(a)s", "é", "😀", ""])
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_writer_matches_the_standard_encoder(value):
    assert serialize_report(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_writer_repeats_a_layout_at_each_depth():
    # one key tuple at two depths, and key lists that differ only in order
    value = {"a": {"a": 1, "b": [{"b": 2, "a": 3}, {"a": 4, "b": 5}, {}, []]}, "b": 1}
    assert serialize_report(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_writer_converts_fractions_tuples_numpy_and_keys():
    value = {
        10: Fraction(3, 4),
        2: (1, np.int64(2), np.float64(0.1), np.float32(0.5)),
        "flag": np.bool_(True),
        "nested": {(1, 2): Fraction(-1, 3), None: [np.int32(-7)]},
    }
    plain = {
        "10": "3/4",
        "2": [1, 2, 0.1, 0.5],
        "flag": True,
        "nested": {"(1, 2)": "-1/3", "None": [-7]},
    }
    expected = json.dumps(plain, sort_keys=True, indent=2) + "\n"
    assert serialize_report(value) == expected
    # keys sort as strings: "10" before "2"
    assert expected.index('"10"') < expected.index('"2"')


@pytest.mark.parametrize("make", [float, np.float64, np.float32])
def test_writer_names_non_finite_floats_as_strings(make):
    value = {"a": make("nan"), "b": [make("inf"), make("-inf")], "c": make("1.5")}
    text = serialize_report(value)
    assert json.loads(text) == {"a": "nan", "b": ["inf", "-inf"], "c": 1.5}
    assert "NaN" not in text and "Infinity" not in text


def test_writer_rejects_what_json_cannot_hold():
    with pytest.raises(TypeError, match="set"):
        serialize_report({"a": {1, 2}})


def test_csv_cells_quote_only_text(tmp_path):
    result = ExperimentResult(
        name="drift",
        params={},
        seed=0,
        records=[
            {"trial": 0, "n": 1, "x": 'a,"b"'},
            {"trial": 1, "n": 1, "x": 2.5},
            {"trial": 2, "n": 1, "x": None},
            {"trial": 3, "n": 1, "x": True},
            {"trial": 4, "n": 1, "x": np.float64(0.25)},
        ],
    )
    write_outputs(result, {}, tmp_path)
    assert (tmp_path / "x.csv").read_bytes() == (
        b'trial,n,observable,value\r\n0,1,x,"a,""b"""\r\n1,1,x,2.5\r\n'
        b"2,1,x,None\r\n3,1,x,True\r\n4,1,x,0.25\r\n"
    )
