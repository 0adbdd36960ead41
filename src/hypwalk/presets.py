"""Bundled experiment configurations, one per acceptance check.

Every preset is an ordinary configuration document (see
:mod:`hypwalk.config`): running a preset and running its config through
``hypwalk run`` are the same thing.  Seeds are fixed so the shipped numbers
are reproducible; pass a different seed to resample.
"""

from __future__ import annotations

import copy

from .errors import InputError

#: The uniform measure on a, A, b, B; on the semidirect models too, where each
#: atom's torsion is 0.
_F2_UNIFORM = {
    "atoms": [
        {"word": "a", "weight": "1/4"},
        {"word": "A", "weight": "1/4"},
        {"word": "b", "weight": "1/4"},
        {"word": "B", "weight": "1/4"},
    ],
    "attest_non_elementary": True,
}

_FREE2 = {"type": "free", "rank": 2}

_Z3_MODEL = {
    "type": "semidirect",
    "rank": 2,
    "torsion": {"type": "cyclic", "order": 3},
    "actions": [{"type": "multiplier", "value": 2}, {"type": "identity"}],
}

_Z3_TRIVIAL_MODEL = {
    "type": "semidirect",
    "rank": 2,
    "torsion": {"type": "cyclic", "order": 3},
    "actions": [{"type": "identity"}, {"type": "identity"}],
}

_CREMONA_MIXED_MEASURE = {
    "atoms": [
        {"gen": {"name": "sigma"}, "weight": "1/4"},
        {
            "gen": {
                "name": "compose",
                "factors": [
                    {"name": "sigma"},
                    {"name": "linear", "entries": [1, 2, 0, 0, 1, 3, 1, 0, 1]},
                ],
            },
            "weight": "1/4",
        },
        {"gen": {"name": "henon", "n": 2}, "weight": "1/4"},
        {
            "gen": {"name": "inverse", "of": {"name": "henon", "n": 2}},
            "weight": "1/4",
        },
    ],
    "attest_non_elementary": True,
    "attest_wpd": True,
}

PRESETS: dict[str, dict] = {
    "sigma-involution": {
        "description": "Exact Cremona algebra: the quadratic involution "
        "squares to the identity and henon degrees double per power.",
        "config": {
            "experiment": "cremona_exactness",
            "seed": 0,
            "model": {"type": "cremona"},
            "params": {"henon_power_budget": 6},
        },
    },
    "drift-f2": {
        "description": "Drift of the uniform walk on the rank-2 tree: "
        "mean d(x, w_n x)/n within 0.02 of the birth-death speed 1/2.",
        "config": {
            "experiment": "drift",
            "seed": 20260801,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {"n": 2000, "trials": 200, "expected": 0.5, "tolerance": 0.02},
        },
    },
    "translation-growth-f2": {
        "description": "Translation length grows at the drift rate: "
        "mean tau(w_n)/n within 0.03 of mean d/n.",
        "config": {
            "experiment": "translation_growth",
            "seed": 20260801,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {"n_grid": [2000], "trials": 200, "drift_tolerance": 0.03},
        },
    },
    "gromov-sublinearity-f2": {
        "description": "P(<w_n x, w_n^-1 x> >= 0.1 n) at most 0.01 on "
        "n in {100, 500, 2000} with 10^4 trials per n.",
        "config": {
            "experiment": "gromov_tail",
            "seed": 20260803,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {
                "n_grid": [100, 500, 2000],
                "trials": 10000,
                "epsilon": 0.1,
                "threshold": 0.01,
            },
        },
    },
    "shadow-decay-f2": {
        "description": "Limit-point shadow frequencies match the exact "
        "harmonic measure 1/(4 * 3^(m-1)) within 3 Wilson standard errors; "
        "decay slope within 10% of -log 3.",
        "config": {
            "experiment": "shadow_decay",
            "seed": 20260804,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {"m_grid": [1, 2, 3, 4, 5], "samples": 100000},
        },
    },
    "match-axis-f2": {
        "description": "Axis-matching frequency of [x, w_n x] against the "
        "(ab)-axis: a (10, 0)-match at n = 500 over 200 trials.",
        "config": {
            "experiment": "match_census",
            "seed": 20260805,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {
                "kind": "axis",
                "n": 500,
                "trials": 200,
                "axis_core": "ab",
                "L": 10,
                "axis_threshold": 0.95,
            },
        },
    },
    "match-non-f2": {
        "description": "Non-matching: a fixed random pattern of length 30 "
        "is found in [x, w_500 x] with frequency at most 0.05, "
        "non-increasing over prefix lengths {10, 20, 30}.",
        "config": {
            "experiment": "match_census",
            "seed": 20260805,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {
                "kind": "non",
                "n": 500,
                "trials": 200,
                "pattern_length": 30,
                "s_grid": [10, 20, 30],
                "non_match_threshold": 0.05,
            },
        },
    },
    "match-self-f2": {
        "description": "Self-matching frequency with window 0.2 n is "
        "non-increasing over n in {100, 300, 500}.",
        "config": {
            "experiment": "match_census",
            "seed": 20260805,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {
                "kind": "self",
                "n_grid": [100, 300, 500],
                "trials": 200,
                "self_match_fraction": 0.2,
            },
        },
    },
    "acylindricity-f2": {
        "description": "99%-quantile of |Stab_2(x, w_n x)| identical "
        "across n in {50, 200, 800} (brute-force ball census).",
        "config": {
            "experiment": "stab_acylindricity",
            "seed": 20260807,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {"K": 2, "n_grid": [50, 200, 800], "trials": 200},
        },
    },
    "small-cancellation-f2": {
        "description": "Axis-overlap small-cancellation certificates pass "
        "with frequency at least 0.95 at n = 500, epsilon = 0.1.",
        "config": {
            "experiment": "small_cancellation",
            "seed": 20260808,
            "model": _FREE2,
            "measure": _F2_UNIFORM,
            "params": {
                "n": 500,
                "trials": 100,
                "epsilon": 0.1,
                "A": 1.0,
                "pass_threshold": 0.95,
            },
        },
    },
    "char-index-z3": {
        "description": "Characteristic index 2 for F_2 x| Z/3 (a inverts, "
        "b fixes): trivial-image frequency within 0.03 of 1/2.",
        "config": {
            "experiment": "characteristic_index",
            "seed": 20260809,
            "model": _Z3_MODEL,
            "measure": _F2_UNIFORM,
            "params": {
                "n_grid": [10, 100, 1000],
                "trials": 10000,
                "frequency_tolerance": 0.03,
            },
        },
    },
    "char-index-z3-control": {
        "description": "Control: the trivial action gives characteristic "
        "index 1 (central kernel) and trivial-image frequency 1.",
        "config": {
            "experiment": "characteristic_index",
            "seed": 20260809,
            "model": _Z3_TRIVIAL_MODEL,
            "measure": _F2_UNIFORM,
            "params": {
                "n_grid": [10, 100, 1000],
                "trials": 2000,
                "frequency_tolerance": 0.03,
            },
        },
    },
    "degree-growth-henon": {
        "description": "Point mass at the quadratic henon map: "
        "(1/n) log deg(w_n) equals log 2 exactly for n <= 8.",
        "config": {
            "experiment": "degree_growth",
            "seed": 20260810,
            "model": {"type": "cremona"},
            "measure": {
                "atoms": [{"gen": {"name": "henon", "n": 2}, "weight": "1"}],
                "attest_wpd": True,
            },
            "params": {
                "n_grid": [1, 2, 3, 4, 5, 6, 7, 8],
                "trials": 2,
                "iterate_budget": None,
            },
        },
    },
    "degree-growth-cremona": {
        "description": "Mixed Cremona measure {sigma, sigma.linear, henon, "
        "henon^-1}: positive log-degree rate on n <= 8, dynamical-degree "
        "track within 0.2 at n = 8, two-prime agreement throughout.",
        "config": {
            "experiment": "degree_growth",
            "seed": 20260810,
            "model": {"type": "cremona"},
            "measure": _CREMONA_MIXED_MEASURE,
            "params": {
                "n_grid": [2, 4, 6, 8],
                "trials": 50,
                "iterate_budget": 2,
                "gap_tolerance": 0.2,
            },
        },
    },
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, entry["description"]) for name, entry in sorted(PRESETS.items())]


def preset_config(name: str, seed: int | None = None) -> dict:
    if name not in PRESETS:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    config = copy.deepcopy(PRESETS[name]["config"])
    if seed is not None:
        config["seed"] = seed
    return config
