"""Experiment configuration: a JSON document checked against a published
schema and compiled, in the same pass, into a model, a measure, and an
estimator call.

The format is deliberately small and strict: unknown keys are rejected with
the offending field path, weights are exact rational strings ("1/4"), and
every value needed to reproduce a run (model parameters, generator specs,
grids, caps, the master seed) lives in the document.  Each field is checked
where it is built, and an error raised while building it names its path.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from types import NoneType, UnionType
from typing import get_args

from .cremona import CremonaModel, MonomialMap, MonomialModel, valid_primes
from .errors import InputError
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

#: The Cremona generator vocabulary: each name, and the one key its spec
#: holds beside ``name``, with that key's value.
_GENERATORS = {
    "sigma": (),
    "henon": ("n", "int >= 2"),
    "linear": ("entries", "9 ints"),
    "monomial": ("matrix", "4 ints"),
    "compose": ("factors", "[specs]"),
    "inverse": ("of", "spec"),
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
                "gen": "cremona: generator spec {'name': NAME, KEY: VALUE}: "
                + ", ".join(
                    f"{name} ({arg[0]}: {arg[1]})" if arg else name
                    for name, arg in _GENERATORS.items()
                ),
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

#: The integer lists of the generator specs and of monomial atoms.
_LENGTHS = {"entries": (9, "nine"), "matrix": (4, "four")}

#: The parameter types a config can hold, by their JSON names.
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", NoneType: "null"}


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: JSON ``true`` and ``false`` load as
    bools, which ``isinstance(value, int)`` would take for 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set, path: str):
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")


def _integer(value, path: str, least: int | None = None):
    """``value``, checked to be an integer, and at least ``least``."""
    _require(
        _is_int(value) and (least is None or value >= least),
        path,
        "must be an integer" + ("" if least is None else f" >= {least}"),
    )
    return value


def _built(path: str, build, *args):
    """``build(*args)``, an InputError it raises named by ``path``."""
    try:
        return build(*args)
    except InputError as err:
        raise ConfigError(f"{path}: {err}") from None


def _word(text, rank, path: str):
    """The reduced word of the string at ``path``."""
    _require(isinstance(text, str), path, "must be a string")
    return _built(path, W.str_to_word, text, rank)


def _matrix(spec: dict, key: str, path: str, name: str, build):
    """``spec[key]``, a list of ``_LENGTHS[key]`` integers, built by
    ``build``, and its tag ``name[...]``."""
    values = spec.get(key)
    count, words = _LENGTHS[key]
    _require(
        isinstance(values, list)
        and len(values) == count
        and all(_is_int(v) for v in values),
        f"{path}.{key}",
        f"must be {words} integers",
    )
    tag = f"{name}[" + ",".join(str(v) for v in values) + "]"
    return _built(f"{path}.{key}", build, values), tag


def validate_config(config: dict):
    """Check the document and build what it names, in one pass: return the
    entry point of its experiment and the keyword arguments of the call,
    less ``jobs``.  The first invalid field raises ConfigError naming it."""
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

    # looked up at call time, so that a wrapper installed there is called
    entry = getattr(experiments, _ENTRY_POINTS[name])
    parameters = inspect.signature(entry, eval_str=True).parameters
    seed = config["seed"]
    _require(
        _is_int(seed) and 0 <= seed < 2**64,
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
    experiments.check_counts(params, "$.params.", ConfigError)
    for key, value in params.items():
        kwargs[key] = _param(key, value, keys[key].annotation)
    return entry, kwargs


def _param(key: str, value, annotation):
    """``$.params.<key>`` as the entry point takes it, checked against its
    annotation: a word (``W.Word``) is built from its string, and a value
    annotated with types of ``_JSON_NAMES`` must have one of them (an
    integer is a number, a bool is not).  The grids carry no annotation:
    :func:`~hypwalk.experiments.check_counts` checks them."""
    path = f"$.params.{key}"
    kinds = get_args(annotation) if isinstance(annotation, UnionType) else (annotation,)
    if W.Word in kinds:
        return _word(value, None, path)
    if all(kind in _JSON_NAMES for kind in kinds):
        allowed = (int, *kinds) if float in kinds else kinds
        _require(
            isinstance(value, allowed) and not isinstance(value, bool),
            path,
            "must be " + " or ".join(_JSON_NAMES[kind] for kind in kinds),
        )
    return value


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
        if "primes" in spec:
            _require(
                isinstance(spec["primes"], list) and valid_primes(spec["primes"]),
                "$.model.primes",
                "must be a nonempty list of primes below 2^31",
            )
        if "degree_cap" in spec:
            _integer(spec["degree_cap"], "$.model.degree_cap", 2)
        return CremonaModel(**{k: v for k, v in spec.items() if k != "type"})
    if mtype == "monomial":
        return MonomialModel()
    rank = _integer(spec.get("rank"), "$.model.rank", 2)
    if mtype == "free":
        return FreeGroupOracle(rank)
    torsion = spec.get("torsion")
    _require(isinstance(torsion, dict), "$.model.torsion", "must be an object")
    _check_keys(torsion, {"type", "order"}, "$.model.torsion")
    _require(
        torsion.get("type") == "cyclic",
        "$.model.torsion.type",
        "only 'cyclic' torsion groups are configurable",
    )
    order = _integer(torsion.get("order"), "$.model.torsion.order", 1)
    actions = spec.get("actions")
    _require(
        isinstance(actions, list) and len(actions) == rank,
        "$.model.actions",
        "need exactly one action per generator",
    )
    automorphisms = []
    for i, action in enumerate(actions):
        path = f"$.model.actions[{i}]"
        _require(isinstance(action, dict), path, "must be an object")
        _check_keys(action, {"type", "value"}, path)
        _require(
            action.get("type") in ("identity", "multiplier"),
            f"{path}.type",
            "must be 'identity' or 'multiplier'",
        )
        # the identity is the multiplier 1
        value = action.get("value") if action["type"] == "multiplier" else 1
        value = _integer(value, f"{path}.value")
        automorphisms.append(
            _built(f"{path}.value", cyclic_automorphism, order, value)
        )
    return SemidirectOracle(rank, FiniteGroup.cyclic(order), automorphisms)


def build_measure(oracle, spec: dict) -> FiniteMeasure:
    """Check ``$.measure`` and build it on ``oracle``: every atom's element,
    weight and report tag."""
    _require(isinstance(spec, dict), "$.measure", "must be an object")
    _check_keys(spec, {"atoms", "attest_non_elementary", "attest_wpd"}, "$.measure")
    atoms = spec.get("atoms")
    _require(
        isinstance(atoms, list) and atoms, "$.measure.atoms", "must be a nonempty list"
    )
    built, total = [], Fraction(0)
    for i, atom in enumerate(atoms):
        path = f"$.measure.atoms[{i}]"
        _require(isinstance(atom, dict), path, "must be an object")
        element, tag = _atom(oracle, atom, path)
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
        built.append((tag, element, weight))
    _require(
        total == 1,
        "$.measure.atoms",
        f"weights must sum to 1 exactly, got {total}",
    )
    attested = {k: spec.get(k, False) for k in ("attest_non_elementary", "attest_wpd")}
    for key, flag in attested.items():
        _require(isinstance(flag, bool), f"$.measure.{key}", "must be true or false")
    return FiniteMeasure(oracle, built, **attested)


def _atom(oracle, atom: dict, path: str):
    """Check the atom at ``path``, less its weight, and build it on
    ``oracle``: its element and its report tag."""
    if isinstance(oracle, CremonaModel):
        _check_keys(atom, {"gen", "weight"}, path)
        return _generator(oracle, atom.get("gen"), f"{path}.gen")
    if isinstance(oracle, MonomialModel):
        _check_keys(atom, {"matrix", "weight"}, path)
        return _matrix(atom, "matrix", path, "monomial", lambda m: MonomialMap(*m))
    semidirect = isinstance(oracle, SemidirectOracle)
    _check_keys(atom, {"word", "weight"} | ({"torsion"} if semidirect else set()), path)
    word = _word(atom.get("word"), oracle.rank, f"{path}.word")
    if not semidirect:
        return word, atom["word"]
    torsion = _integer(atom.get("torsion", 0), f"{path}.torsion")
    element = _built(f"{path}.torsion", oracle.element, word, torsion)
    return element, atom["word"] + (f"|{torsion}" if torsion else "")


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
    _check_keys(spec, {"name", *_GENERATORS[name][:1]}, path)
    if name == "sigma":
        return model.sigma(), name
    if name == "henon":
        n = _integer(spec.get("n"), f"{path}.n", 2)
        return model.henon(n), f"henon{n}"
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
    return _matrix(spec, _GENERATORS[name][0], path, name, build)


def run_config(config: dict, jobs: int = 1):
    """Check, build and run a configuration document."""
    entry, kwargs = validate_config(config)
    if "jobs" in inspect.signature(entry).parameters:
        kwargs["jobs"] = jobs
    return entry(**kwargs)
