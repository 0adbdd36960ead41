"""Checks of report contents against facts computed here, not by the library.

At the default seed a report must also match its recorded digest; these
checks are what verifies the reports of every other seed.  Each returns a
list of problems (empty when the report is right).  Trees are checked on
the first ``CHECK_TRIALS`` trials, re-folded from the walk's increments by
an independent letter stack.
"""

from __future__ import annotations

import math

CHECK_TRIALS = 64


def _letters(text: str) -> tuple[int, ...]:
    return tuple(
        (ord(c) - ord("a") + 1) if c.islower() else -(ord(c) - ord("A") + 1)
        for c in text
    )


def _reduce(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _inverse(word) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def _folded_words(measure, seed: int, trial: int, marks) -> dict[int, tuple]:
    atoms = [atom.element for atom in measure.atoms]
    indices = measure.increment_indices(max(marks), seed, trial)
    letters = [letter for index in indices for letter in atoms[index]]
    steps = [0]
    for index in indices:
        steps.append(steps[-1] + len(atoms[index]))
    return {n: _reduce(letters[: steps[n]]) for n in marks}


def _core_length(word) -> int:
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == -word[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return hi - lo


def _ball(rank: int, radius: int):
    """All reduced words of length <= radius."""
    layer = [()]
    words = [()]
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    for _ in range(radius):
        layer = [w + (a,) for w in layer for a in alphabet if not w or w[-1] != -a]
        words += layer
    return words


def _contains(word, pattern) -> bool:
    s = len(pattern)
    mirrored = _inverse(pattern)
    return any(word[i : i + s] in (pattern, mirrored) for i in range(len(word) - s + 1))


def _self_match(word, L: int) -> bool:
    windows = [word[i : i + L] for i in range(len(word) - L + 1)]
    for i, first in enumerate(windows):
        mirrored = _inverse(first)
        for j, second in enumerate(windows):
            if abs(i - j) >= L and (second == mirrored or (j > i and second == first)):
                return True
    return False


def _tree_row_check(kind: str, params: dict, rank: int, word: tuple, row: dict) -> str | None:
    n = row["n"]
    if kind == "gromov_tail":
        inverse = _inverse(word)
        gp = next((i for i, (x, y) in enumerate(zip(word, inverse)) if x != y), len(word))
        return None if row["sym_gp"] == gp else f"sym_gp {row['sym_gp']} != {gp}"
    if kind == "small_cancellation":
        tau = _core_length(word)
        ok = row["tau"] == tau and row["loxodromic"] == int(tau > 0)
        if tau > 0:
            ok = ok and 0 <= row["delta"] <= 2 * tau
            ok = ok and row["pass"] == int(row["delta"] <= params["epsilon"] * tau)
        return None if ok else f"certificate {row} disagrees with tau {tau}"
    if kind == "stab_acylindricity":
        K = params["K"]
        count = sum(
            len(_reduce(_inverse(word) + u + word)) <= K for u in _ball(rank, K)
        )
        return None if row["census"] == count else f"census {row['census']} != {count}"
    if kind == "match_census_non":
        pattern = _letters(params["pattern"])
        for s in params["s_grid"]:
            if row[f"pattern_s{s}"] != int(_contains(word, pattern[:s])):
                return f"pattern_s{s} wrong"
        return None
    if kind == "match_census_self":
        if n > 100:  # the quadratic reference is kept to the shortest walks
            return None
        L = max(1, int(params["self_match_fraction"] * n))
        expected = int(_self_match(word, L))
        return None if row["self_match"] == expected else "self_match wrong"
    return f"no check for experiment {kind}"


def check_tree(report: dict, measure) -> list[str]:
    result = report["result"]
    kind, params, seed = result["experiment"], result["params"], result["seed"]
    marks = params["n_grid"] if "n_grid" in params else [params["n"]]
    by_trial: dict[int, list] = {}
    for row in result["records"]:
        by_trial.setdefault(row["trial"], []).append(row)
    problems = []
    if len(by_trial) != params["trials"]:
        problems.append(f"{len(by_trial)} trials recorded, {params['trials']} run")
    for trial in sorted(by_trial)[:CHECK_TRIALS]:
        words = _folded_words(measure, seed, trial, marks)
        for row in by_trial[trial]:
            problem = _tree_row_check(
                kind, params, measure.oracle.rank, words[row["n"]], row
            )
            if problem:
                problems.append(f"trial {trial} n {row['n']}: {problem}")
    return problems


def check_degree_growth(report: dict, config: dict) -> list[str]:
    """Degrees of the Henon point mass are exactly 2^n.  For other measures
    of quadratic generators, deg(w_n) <= deg(w_m) * 2^(n - m) for m < n, the
    logged rates are the logs of the degrees, and the dynamical-degree rate
    does not exceed the degree rate."""
    gens = [atom["gen"] for atom in config["measure"]["atoms"]]
    henon = gens == [{"name": "henon", "n": 2}]
    result = report["result"]
    problems = []
    by_trial: dict[int, dict] = {}
    for row in result["records"]:
        by_trial.setdefault(row["trial"], {})[row["n"]] = row
    if len(by_trial) != result["params"]["trials"]:
        problems.append("trial count differs from params")
    for trial, rows in by_trial.items():
        previous_n, previous_degree = 0, 1
        for n in sorted(rows):
            row = rows[n]
            if row["truncated"]:
                continue
            degree = row["degree"]
            bound = previous_degree * 2 ** (n - previous_n)
            if henon and degree != 2**n:
                problems.append(f"trial {trial}: deg H^{n} = {degree}, not {2**n}")
            elif not 1 <= degree <= bound:
                problems.append(f"trial {trial}: degree {degree} at n={n} above {bound}")
            if not math.isclose(row["log_deg_rate"], math.log(degree) / n):
                problems.append(f"trial {trial}: log_deg_rate at n={n} wrong")
            if "lambda_rate" in row and row["lambda_rate"] > row["log_deg_rate"] + 1e-12:
                problems.append(f"trial {trial}: lambda rate above degree rate")
            previous_n, previous_degree = n, degree
    return problems


def check_report(report: dict, config: dict) -> list[str]:
    """Problems found in one call's report, checked against its config."""
    from hypwalk import config as C

    problems = []
    if report["config"] != config:
        problems.append("report config differs from the config run")
    if report["result"]["seed"] != config["seed"]:
        problems.append("report seed differs from the config seed")
    if config["model"]["type"] == "cremona":
        return problems + check_degree_growth(report, config)
    measure = C.build_measure(C.build_model(config["model"]), config["measure"])
    return problems + check_tree(report, measure)
