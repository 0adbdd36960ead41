"""Experiment configuration: a JSON document validated against a published
schema, then compiled into a model, a measure, and an estimator call.

The format is deliberately small and strict: unknown keys are rejected with
the offending field path, weights are exact rationals written as strings
("1/4"), and every value needed to reproduce a run (model parameters,
generator specs, grids, caps, the master seed) lives in the document.
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import numpy as np

from .cremona import CremonaModel, MonomialMap, MonomialModel, valid_primes
from .errors import InputError
from .finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from .freegroup import FreeGroupOracle, SemidirectOracle
from .walk import FiniteMeasure
from . import words as W


class ConfigError(InputError):
    """Invalid configuration; the message names the offending field."""


#: Config ``experiment`` name -> the name of its entry point in
#: :mod:`hypwalk.experiments`.  The entry's keyword parameters, less those
#: the runner supplies (``_SUPPLIED``), are the allowed ``params`` keys.
_ENTRY_POINTS = {
    "drift": "estimate_drift",
    "translation_growth": "translation_growth",
    "gromov_tail": "gromov_tail",
    "shadow_decay": "shadow_decay",
    "match_census": "match_census",
    "stab_acylindricity": "stab_acylindricity",
    "small_cancellation": "small_cancellation_experiment",
    "characteristic_index": "characteristic_index_experiment",
    "degree_growth": "degree_growth_experiment",
    "cremona_exactness": "cremona_exactness",
}

#: Human-readable schema contract (documentation; reports do not embed it).
SCHEMA = {
    "experiment": "one of: " + ", ".join(_ENTRY_POINTS),
    "seed": "unsigned 64-bit integer",
    "model": {
        "type": "free | semidirect | cremona | monomial",
        "rank": "free/semidirect: number of free generators (>= 2)",
        "torsion": {"type": "cyclic", "order": "int >= 1"},
        "actions": "semidirect: one action per generator: "
        '{"type": "identity"} or {"type": "multiplier", "value": int}',
        "primes": "cremona: nonempty list of coefficient primes below 2^31",
        "degree_cap": "cremona: composition degree cap",
    },
    "measure": {
        "atoms": [
            {
                "word": "free/semidirect: reduced word string, e.g. 'aB'",
                "torsion": "semidirect: torsion index (default 0)",
                "gen": "cremona: generator spec, e.g. "
                '{"name": "sigma"} | {"name": "henon", "n": 2} | '
                '{"name": "linear", "entries": [9 ints]} | '
                '{"name": "monomial", "matrix": [4 ints]} | '
                '{"name": "compose", "factors": [specs]} | '
                '{"name": "inverse", "of": spec}',
                "matrix": "monomial model: [a, b, c, d]",
                "weight": "exact rational string, e.g. '1/4'",
            }
        ],
        "attest_non_elementary": "bool (user attestation)",
        "attest_wpd": "bool (user attestation)",
    },
    "params": "keyword arguments of the experiment's entry point in "
    "hypwalk.experiments, less measure, seed and jobs",
}

_MODEL_KEYS = {
    "free": {"type", "rank"},
    "semidirect": {"type", "rank", "torsion", "actions"},
    "cremona": {"type", "primes", "degree_cap"},
    "monomial": {"type"},
}

#: Entry-point arguments the runner supplies itself, never from ``params``.
_SUPPLIED = ("measure", "seed", "jobs")

#: Params that count trials, samples or steps, and grids of them: each must
#: be at least 1, and a grid must be nonempty.
_COUNTS = ("trials", "samples", "chunk", "n")
_GRIDS = ("n_grid", "m_grid", "s_grid")


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: JSON ``true`` and ``false`` load as
    bools, which ``isinstance(value, int)`` would take for 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_counts(params: dict, path: str = "", error=InputError) -> None:
    """Raise ``error``, naming ``path`` and the key, unless every count in
    ``params`` is an integer >= 1, every grid a nonempty list (or tuple)
    of them, and every float finite (a NaN or infinite tolerance would pass
    every gate).  ``validate_config`` runs it on a config's ``params``, and
    the entry points of :mod:`hypwalk.experiments` on the arguments of a
    call."""
    for key, value in params.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise error(f"{path}{key}: must be a finite number")
    for key in _COUNTS:
        if key in params and not (_is_int(params[key]) and params[key] >= 1):
            raise error(f"{path}{key}: must be an integer >= 1")
    for key in _GRIDS:
        grid = params.get(key)
        if key in params and not (
            isinstance(grid, (list, tuple))
            and grid
            and all(_is_int(v) and v >= 1 for v in grid)
        ):
            raise error(f"{path}{key}: must be a nonempty list of integers >= 1")


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set, path: str):
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")


def validate_config(config: dict) -> None:
    """Raise ConfigError (naming the field) unless the document is valid."""
    _require(isinstance(config, dict), "$", "config must be a JSON object")
    _check_keys(config, {"experiment", "seed", "model", "measure", "params"}, "$")
    for key in ("experiment", "seed", "model", "params"):
        _require(key in config, "$", f"missing required key '{key}'")
    name = config["experiment"]
    _require(
        isinstance(name, str) and name in _ENTRY_POINTS,
        "$.experiment",
        f"must be one of {tuple(_ENTRY_POINTS)}",
    )
    parameters = inspect.signature(_entry_point(name)).parameters
    seed = config["seed"]
    _require(
        _is_int(seed) and 0 <= seed < 2**64,
        "$.seed",
        "must be an unsigned 64-bit integer",
    )
    needs_measure = "measure" in parameters
    if needs_measure:
        _require("measure" in config, "$", "missing required key 'measure'")

    model = config["model"]
    _require(isinstance(model, dict), "$.model", "must be an object")
    _require("type" in model, "$.model", "missing 'type'")
    mtype = model["type"]
    _require(
        mtype in _MODEL_KEYS, "$.model.type", f"must be one of {sorted(_MODEL_KEYS)}"
    )
    _check_keys(model, _MODEL_KEYS[mtype], "$.model")
    if mtype in ("free", "semidirect"):
        _require(
            _is_int(model.get("rank")) and model["rank"] >= 2,
            "$.model.rank",
            "must be an integer >= 2",
        )
    if mtype == "semidirect":
        torsion = model.get("torsion")
        _require(isinstance(torsion, dict), "$.model.torsion", "must be an object")
        _check_keys(torsion, {"type", "order"}, "$.model.torsion")
        _require(
            torsion.get("type") == "cyclic",
            "$.model.torsion.type",
            "only 'cyclic' torsion groups are configurable",
        )
        _require(
            _is_int(torsion.get("order")) and torsion["order"] >= 1,
            "$.model.torsion.order",
            "must be an integer >= 1",
        )
        actions = model.get("actions")
        _require(
            isinstance(actions, list) and len(actions) == model["rank"],
            "$.model.actions",
            "need exactly one action per generator",
        )
        for i, action in enumerate(actions):
            path = f"$.model.actions[{i}]"
            _require(isinstance(action, dict), path, "must be an object")
            _check_keys(action, {"type", "value"}, path)
            _require(
                action.get("type") in ("identity", "multiplier"),
                f"{path}.type",
                "must be 'identity' or 'multiplier'",
            )
            if action["type"] == "multiplier":
                _require(
                    _is_int(action.get("value")),
                    f"{path}.value",
                    "must be an integer",
                )
    if mtype == "cremona":
        primes = model.get("primes")
        if primes is not None:
            _require(
                isinstance(primes, list) and valid_primes(primes),
                "$.model.primes",
                "must be a nonempty list of primes below 2^31",
            )
        cap = model.get("degree_cap")
        if cap is not None:
            _require(
                _is_int(cap) and cap >= 2,
                "$.model.degree_cap",
                "must be an integer >= 2",
            )

    if needs_measure:
        _validate_measure(config["measure"], mtype)

    _validate_params(config["params"], parameters)


def _validate_params(params, parameters):
    """``params`` against the entry point's ``inspect`` parameters."""
    _require(isinstance(params, dict), "$.params", "must be an object")
    keys = {k: p for k, p in parameters.items() if k not in _SUPPLIED}
    _check_keys(params, set(keys), "$.params")
    for key, parameter in keys.items():
        _require(
            key in params or parameter.default is not parameter.empty,
            "$.params",
            f"missing required key '{key}'",
        )
    check_counts(params, "$.params.", ConfigError)


def _validate_measure(measure, mtype: str):
    _require(isinstance(measure, dict), "$.measure", "must be an object")
    _check_keys(
        measure, {"atoms", "attest_non_elementary", "attest_wpd"}, "$.measure"
    )
    atoms = measure.get("atoms")
    _require(
        isinstance(atoms, list) and atoms, "$.measure.atoms", "must be a nonempty list"
    )
    total = Fraction(0)
    for i, atom in enumerate(atoms):
        path = f"$.measure.atoms[{i}]"
        _require(isinstance(atom, dict), path, "must be an object")
        if mtype in ("free", "semidirect"):
            allowed = {"word", "weight"} | (
                {"torsion"} if mtype == "semidirect" else set()
            )
            _check_keys(atom, allowed, path)
            _require(isinstance(atom.get("word"), str), f"{path}.word", "must be a string")
        elif mtype == "cremona":
            _check_keys(atom, {"gen", "weight"}, path)
            _validate_genspec(atom.get("gen"), f"{path}.gen")
        else:  # monomial
            _check_keys(atom, {"matrix", "weight"}, path)
            matrix = atom.get("matrix")
            _require(
                isinstance(matrix, list)
                and len(matrix) == 4
                and all(_is_int(v) for v in matrix),
                f"{path}.matrix",
                "must be four integers",
            )
        _require("weight" in atom, path, "missing 'weight'")
        _require(
            isinstance(atom["weight"], str),
            f"{path}.weight",
            "must be an exact rational string, e.g. '1/4'",
        )
        try:
            weight = Fraction(atom["weight"])
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{path}.weight: not a rational number") from None
        _require(weight > 0, f"{path}.weight", "must be positive")
        total += weight
    _require(
        total == 1,
        "$.measure.atoms",
        f"weights must sum to 1 exactly, got {total}",
    )


def _validate_genspec(spec, path: str):
    _require(isinstance(spec, dict), path, "must be an object")
    _require("name" in spec, path, "missing 'name'")
    name = spec["name"]
    if name == "sigma":
        _check_keys(spec, {"name"}, path)
    elif name == "henon":
        _check_keys(spec, {"name", "n"}, path)
        _require(
            _is_int(spec.get("n")) and spec["n"] >= 2,
            f"{path}.n",
            "must be an integer >= 2",
        )
    elif name == "linear":
        _check_keys(spec, {"name", "entries"}, path)
        entries = spec.get("entries")
        _require(
            isinstance(entries, list)
            and len(entries) == 9
            and all(_is_int(v) for v in entries),
            f"{path}.entries",
            "must be nine integers",
        )
    elif name == "monomial":
        _check_keys(spec, {"name", "matrix"}, path)
        matrix = spec.get("matrix")
        _require(
            isinstance(matrix, list)
            and len(matrix) == 4
            and all(_is_int(v) for v in matrix),
            f"{path}.matrix",
            "must be four integers",
        )
    elif name == "compose":
        _check_keys(spec, {"name", "factors"}, path)
        factors = spec.get("factors")
        _require(
            isinstance(factors, list) and len(factors) >= 1,
            f"{path}.factors",
            "must be a nonempty list",
        )
        for k, factor in enumerate(factors):
            _validate_genspec(factor, f"{path}.factors[{k}]")
    elif name == "inverse":
        _check_keys(spec, {"name", "of"}, path)
        _require("of" in spec, path, "missing 'of'")
        _validate_genspec(spec["of"], f"{path}.of")
    else:
        raise ConfigError(
            f"{path}.name: unknown generator {name!r} "
            "(sigma, henon, linear, monomial, compose, inverse)"
        )


# ---------------------------------------------------------------------------
# Compilation.


def build_model(model_spec: dict):
    mtype = model_spec["type"]
    if mtype == "free":
        return FreeGroupOracle(model_spec["rank"])
    if mtype == "semidirect":
        order = model_spec["torsion"]["order"]
        group = FiniteGroup.cyclic(order)
        actions = []
        for action in model_spec["actions"]:
            if action["type"] == "identity":
                actions.append(Automorphism.identity(group))
            else:
                actions.append(cyclic_automorphism(order, action["value"]))
        return SemidirectOracle(model_spec["rank"], group, actions)
    if mtype == "cremona":
        kwargs = {}
        if "primes" in model_spec:
            kwargs["primes"] = tuple(model_spec["primes"])
        if "degree_cap" in model_spec:
            kwargs["degree_cap"] = model_spec["degree_cap"]
        return CremonaModel(**kwargs)
    return MonomialModel()


def _cremona_element(model: CremonaModel, spec: dict):
    name = spec["name"]
    if name == "sigma":
        return model.sigma()
    if name == "henon":
        return model.henon(spec["n"])
    if name == "linear":
        return model.linear(spec["entries"])
    if name == "monomial":
        return model.monomial(spec["matrix"])
    if name == "inverse":
        return model.inverse(_cremona_element(model, spec["of"]))
    element = model.identity()
    for factor in spec["factors"]:
        element = model.multiply(element, _cremona_element(model, factor))
    return element


def _genspec_tag(spec: dict) -> str:
    name = spec["name"]
    if name == "henon":
        return f"henon{spec['n']}"
    if name == "linear":
        return "linear[" + ",".join(str(v) for v in spec["entries"]) + "]"
    if name == "monomial":
        return "monomial[" + ",".join(str(v) for v in spec["matrix"]) + "]"
    if name == "compose":
        return ".".join(_genspec_tag(f) for f in spec["factors"])
    if name == "inverse":
        return _genspec_tag(spec["of"]) + "^-1"
    return name


def build_measure(oracle, measure_spec: dict) -> FiniteMeasure:
    atoms = []
    for atom in measure_spec["atoms"]:
        weight = Fraction(atom["weight"])
        if isinstance(oracle, SemidirectOracle):
            element = oracle.element(
                W.str_to_word(atom["word"], oracle.rank), atom.get("torsion", 0)
            )
            tag = atom["word"] + (
                f"|{atom['torsion']}" if atom.get("torsion") else ""
            )
        elif isinstance(oracle, FreeGroupOracle):
            element = W.str_to_word(atom["word"], oracle.rank)
            tag = atom["word"]
        elif isinstance(oracle, CremonaModel):
            element = _cremona_element(oracle, atom["gen"])
            tag = _genspec_tag(atom["gen"])
        else:
            element = MonomialMap(*atom["matrix"])
            tag = "monomial[" + ",".join(str(v) for v in atom["matrix"]) + "]"
        atoms.append((tag, element, weight))
    return FiniteMeasure(
        oracle,
        atoms,
        attest_non_elementary=measure_spec.get("attest_non_elementary", False),
        attest_wpd=measure_spec.get("attest_wpd", False),
    )


def _entry_point(name: str):
    """The entry point of experiment ``name``, looked up on the module at
    call time, so that a wrapper installed there is the one called."""
    from . import experiments

    return getattr(experiments, _ENTRY_POINTS[name])


def run_config(config: dict, jobs: int = 1):
    """Validate, compile, and execute a configuration document."""
    validate_config(config)
    entry = _entry_point(config["experiment"])
    parameters = inspect.signature(entry).parameters
    params = dict(config["params"])
    if "axis_core" in params:
        params["axis_core"] = W.str_to_word(params["axis_core"])
    supplied = {"seed": config["seed"], "jobs": jobs}
    if "measure" in parameters:
        oracle = build_model(config["model"])
        supplied["measure"] = build_measure(oracle, config["measure"])
    params.update((k, v) for k, v in supplied.items() if k in parameters)
    return entry(**params)
