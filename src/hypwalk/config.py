"""Experiment configuration: a JSON document checked against the schema that
README's command-line section spells out, and compiled, in the same pass,
into a model, a measure, and an estimator call.

The format is deliberately small and strict: unknown keys are rejected with
the offending field path, weights are exact rational strings ("1/4"), and
every value needed to reproduce a run (model parameters, generator specs,
grids, caps, the master seed) lives in the document.  Each value is checked
by what takes it, as a direct call is: a model, generator or measure value
by its constructor, and a ``params`` value by the entry point.  This module
checks only what a JSON document alone needs (object shapes, unknown keys,
rational weight strings, the seed) and names the field of an error raised
while building it: a constructor's ``ParamError(name, reason)`` as
``<path>.<name>: <reason>``.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from typing import get_args

from .cremona import CremonaModel, MonomialModel, monomial_map
from .errors import InputError, ParamError, is_int
from .finitegroups import FiniteGroup, cyclic_automorphism
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

#: The Cremona generator vocabulary: each name, and the keys its spec holds
#: beside ``name`` (one at most).
_GENERATORS = {
    "sigma": (),
    "henon": ("n",),
    "linear": ("entries",),
    "monomial": ("matrix",),
    "compose": ("factors",),
    "inverse": ("of",),
}

_MODEL_KEYS = {
    "free": {"type", "rank"},
    "semidirect": {"type", "rank", "torsion", "actions"},
    "cremona": {"type", "primes", "degree_cap"},
    "monomial": {"type"},
}

#: Entry-point arguments the runner supplies itself, never from ``params``.
_SUPPLIED = ("measure", "seed", "jobs")


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set, path: str):
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")


def _built(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an error it raises named by ``path``: a
    ``ParamError`` as ``<path>.<name>: <reason>``, another InputError as
    ``<path>: <error>``."""
    try:
        return build(*args, **kwargs)
    except ParamError as err:
        raise ConfigError(f"{path}.{err}") from None
    except InputError as err:
        raise ConfigError(f"{path}: {err}") from None


def _word(text, rank, path: str):
    """The reduced word of the string at ``path``."""
    _require(isinstance(text, str), path, "must be a string")
    return _built(path, W.str_to_word, text, rank)


def _matrix(values, path: str, name: str, build):
    """``build(values)``, for the spec or atom at ``path``, and its tag
    ``name[...]``."""
    element = _built(path, build, values)
    return element, f"{name}[" + ",".join(str(v) for v in values) + "]"


def validate_config(config: dict):
    """Check the document and build what it names, in one pass: return the
    entry point of its experiment and the keyword arguments of the call,
    less ``jobs``.  The first invalid field raises ConfigError naming it.
    Of ``params`` only the keys and the word strings are checked here: the
    entry point checks the other values when :func:`run_config` calls it."""
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
    # imported here: building a model or a measure alone does not need it
    from . import experiments

    # looked up at call time, so that a wrapper installed there is called;
    # its signature, annotations evaluated, is the one experiments keeps
    entry = getattr(experiments, _ENTRY_POINTS[name])
    parameters = inspect.signature(entry).parameters
    seed = config["seed"]
    _require(
        is_int(seed, 0) and seed < 2**64,
        "$.seed",
        "must be an unsigned 64-bit integer",
    )
    model = build_model(config["model"])
    kwargs = {"seed": seed} if "seed" in parameters else {}
    if "measure" in parameters:
        _require("measure" in config, "$", "missing required key 'measure'")
        kwargs["measure"] = build_measure(model, config["measure"])
    params = config["params"]
    _require(isinstance(params, dict), "$.params", "must be an object")
    keys = {k: p for k, p in parameters.items() if k not in _SUPPLIED}
    _check_keys(params, set(keys), "$.params")
    for key, parameter in keys.items():
        _require(
            key in params or parameter.default is not parameter.empty,
            "$.params",
            f"missing required key '{key}'",
        )
    for key, value in params.items():
        # a word (annotated W.Word or W.Word | None) is built from its string
        annotation = keys[key].annotation
        is_word = W.Word in (annotation, *get_args(annotation))
        kwargs[key] = _word(value, None, f"$.params.{key}") if is_word else value
    return entry, kwargs


def build_model(spec: dict):
    """Check ``$.model`` and build its model."""
    _require(isinstance(spec, dict), "$.model", "must be an object")
    _require("type" in spec, "$.model", "missing 'type'")
    mtype = spec["type"]
    _require(
        isinstance(mtype, str) and mtype in _MODEL_KEYS,
        "$.model.type",
        f"must be one of {sorted(_MODEL_KEYS)}",
    )
    _check_keys(spec, _MODEL_KEYS[mtype], "$.model")
    if mtype == "cremona":
        arguments = {k: v for k, v in spec.items() if k != "type"}
        return _built("$.model", CremonaModel, **arguments)
    if mtype == "monomial":
        return MonomialModel()
    if mtype == "free":
        return _built("$.model", FreeGroupOracle, spec.get("rank"))
    torsion = spec.get("torsion")
    _require(isinstance(torsion, dict), "$.model.torsion", "must be an object")
    _check_keys(torsion, {"type", "order"}, "$.model.torsion")
    _require(
        torsion.get("type") == "cyclic",
        "$.model.torsion.type",
        "only 'cyclic' torsion groups are configurable",
    )
    group = _built("$.model.torsion", FiniteGroup.cyclic, torsion.get("order"))
    actions = spec.get("actions")
    if isinstance(actions, list):  # the oracle checks their number
        actions = [
            _action(group.order, action, f"$.model.actions[{i}]")
            for i, action in enumerate(actions)
        ]
    return _built("$.model", SemidirectOracle, spec.get("rank"), group, actions)


def _action(order: int, action, path: str):
    """Check the action at ``path`` and build its automorphism of Z/order."""
    _require(isinstance(action, dict), path, "must be an object")
    _check_keys(action, {"type", "value"}, path)
    _require(
        action.get("type") in ("identity", "multiplier"),
        f"{path}.type",
        "must be 'identity' or 'multiplier'",
    )
    # the identity is the multiplier 1
    value = action.get("value") if action["type"] == "multiplier" else 1
    return _built(path, cyclic_automorphism, order, value)


def build_measure(oracle, spec: dict) -> FiniteMeasure:
    """Check ``$.measure`` and build it on ``oracle``: every atom's element,
    weight and report tag."""
    _require(isinstance(spec, dict), "$.measure", "must be an object")
    _check_keys(spec, {"atoms", "attest_non_elementary", "attest_wpd"}, "$.measure")
    atoms = spec.get("atoms")
    if isinstance(atoms, list):  # the measure checks it is nonempty
        atoms = [
            _atom(oracle, atom, f"$.measure.atoms[{i}]") for i, atom in enumerate(atoms)
        ]
    attested = {k: spec.get(k, False) for k in ("attest_non_elementary", "attest_wpd")}
    return _built("$.measure", FiniteMeasure, oracle, atoms, **attested)


def _atom(oracle, atom, path: str):
    """Check the atom at ``path`` and build it on ``oracle``: its report
    tag, its element and its weight."""
    _require(isinstance(atom, dict), path, "must be an object")
    if isinstance(oracle, CremonaModel):
        _check_keys(atom, {"gen", "weight"}, path)
        element, tag = _generator(oracle, atom.get("gen"), f"{path}.gen")
    elif isinstance(oracle, MonomialModel):
        _check_keys(atom, {"matrix", "weight"}, path)
        element, tag = _matrix(atom.get("matrix"), path, "monomial", monomial_map)
    else:
        semidirect = isinstance(oracle, SemidirectOracle)
        keys = {"word", "weight"} | ({"torsion"} if semidirect else set())
        _check_keys(atom, keys, path)
        element = _word(atom.get("word"), oracle.rank, f"{path}.word")
        tag = atom["word"]
        if semidirect:
            torsion = atom.get("torsion", 0)
            element = _built(path, oracle.element, element, torsion)
            tag += f"|{torsion}" if torsion else ""
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
    return tag, element, weight


def _generator(model: CremonaModel, spec, path: str):
    """Check the generator spec at ``path`` and build it: its element of
    ``model`` and its report tag."""
    _require(isinstance(spec, dict), path, "must be an object")
    _require("name" in spec, path, "missing 'name'")
    name = spec["name"]
    _require(
        isinstance(name, str) and name in _GENERATORS,
        f"{path}.name",
        f"unknown generator {name!r} ({', '.join(_GENERATORS)})",
    )
    _check_keys(spec, {"name", *_GENERATORS[name]}, path)
    if name == "sigma":
        return model.sigma(), name
    if name == "henon":
        return _built(path, model.henon, spec.get("n")), f"henon{spec['n']}"
    if name == "inverse":
        _require("of" in spec, path, "missing 'of'")
        element, tag = _generator(model, spec["of"], f"{path}.of")
        return model.inverse(element), tag + "^-1"
    if name == "compose":
        factors = spec.get("factors")
        _require(
            isinstance(factors, list) and factors,
            f"{path}.factors",
            "must be a nonempty list",
        )
        element, tags = model.identity(), []
        for k, factor in enumerate(factors):
            factor, tag = _generator(model, factor, f"{path}.factors[{k}]")
            element = model.multiply(element, factor)
            tags.append(tag)
        return element, ".".join(tags)
    build = model.linear if name == "linear" else model.monomial
    return _matrix(spec.get(_GENERATORS[name][0]), path, name, build)


def run_config(config: dict, jobs: int = 1):
    """Check, build and run a configuration document.  An argument the
    entry point rejects (a ``ParamError``) is named ``$.params.<key>``."""
    entry, kwargs = validate_config(config)
    if "jobs" in inspect.signature(entry).parameters:
        kwargs["jobs"] = jobs
    try:
        return entry(**kwargs)
    except ParamError as err:
        raise ConfigError(f"$.params.{err}") from None
