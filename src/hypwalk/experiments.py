"""Desk-scale experiments measuring the asymptotic behaviour of random walks.

Each experiment turns one quantitative statement about random walks on
hyperbolic-space actions into a seeded Monte-Carlo run with explicit
statistics: linear drift of the displacement, linear growth of translation
length, sublinearity of the symmetric Gromov product, exponential decay of
shadow hitting, matching/non-matching/self-matching frequencies along
geodesics, boundedness of joint coarse stabilizers, small-cancellation
certificates for the axis of a random element, the characteristic index of a
measure with a finite kernel, and exponential degree growth of random plane
Cremona maps.

The decayed quantities whose true rates involve existential constants (the
``B c^sqrt(n)`` bounds) are checked as trends and thresholds only; sample
sizes at desk scale cannot identify such rates, and no fitting of them is
attempted.

Every result is reproducible bit for bit from ``(name, params, seed)``: all
randomness flows through the per-trial streams of :mod:`hypwalk.walk`, and
aggregates are pure functions of the stored per-trial records (re-derivable
through :meth:`ExperimentResult.recompute_aggregates`).
"""

from __future__ import annotations

import inspect
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, wraps

import numpy as np

from . import stats
from . import words as W
from .cremona import CremonaModel, dynamical_degree_estimate
from .errors import InputError, ResourceError
from .freegroup import (
    FreeGroupOracle,
    SemidirectOracle,
    exact_shadow_measure,
    fellow_traveling_delta,
    stab_census,
)
from .geometry import gromov_product
from .walk import FiniteMeasure, at_trial_primes, fold_words, sample_path, trial_rng

DRIFT_MIN_TRIALS = 30
MAX_TRUNCATED_FRACTION = 0.10


# ---------------------------------------------------------------------------
# Result container.


@dataclass
class ExperimentResult:
    name: str
    params: dict
    seed: int
    records: list
    aggregates: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool | None = None
    failures: list = field(default_factory=list)

    def recompute_aggregates(self) -> dict:
        """Re-derive the aggregates from the stored per-trial records."""
        aggregate, _ = REPORTS[self.name]
        return aggregate(self.records, self.params)

    def to_json_dict(self) -> dict:
        from . import __version__

        return {
            "experiment": self.name,
            "tool_version": __version__,
            "seed": self.seed,
            "params": self.params,
            "tolerances": self.tolerances,
            "records": self.records,
            "aggregates": self.aggregates,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def csv_tracks(self) -> dict:
        """One table per observable: rows (trial, n, observable, value),
        sorted by (trial, n)."""
        tracks: dict[str, list] = {}
        for record in self.records:
            trial = record.get("trial", 0)
            n = record.get("n", 0)
            for key, value in record.items():
                if key in ("trial", "n"):
                    continue
                tracks.setdefault(key, []).append((trial, n, key, value))
        for rows in tracks.values():
            rows.sort(key=lambda row: (row[0], row[1]))
        return tracks


# ---------------------------------------------------------------------------
# Bounds on counts and grids: a direct call is checked as a config is.

#: Params that count trials, samples or steps, and grids of them: each must
#: be at least 1, and a grid must be nonempty.
_COUNTS = ("trials", "samples", "chunk", "n")
_GRIDS = ("n_grid", "m_grid", "s_grid")


def _is_count(value) -> bool:
    """An int >= 1 that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def check_counts(params: dict, path: str = "", error=InputError) -> None:
    """Raise ``error``, naming ``path`` and the key, unless every count in
    ``params`` is an integer >= 1, every grid a nonempty list (or tuple)
    of them, and every float finite (a NaN or infinite tolerance would pass
    every gate).  The entry points run it on the arguments of a call, and
    :func:`hypwalk.config.validate_config` on a config's ``params``."""
    for key, value in params.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise error(f"{path}{key}: must be a finite number")
    for key in _COUNTS:
        if key in params and not _is_count(params[key]):
            raise error(f"{path}{key}: must be an integer >= 1")
    for key in _GRIDS:
        grid = params.get(key)
        if key in params and not (
            isinstance(grid, (list, tuple)) and grid and all(map(_is_count, grid))
        ):
            raise error(f"{path}{key}: must be a nonempty list of integers >= 1")


def _counts_checked(entry):
    """The entry point ``entry``, running :func:`check_counts` on the counts
    and grids of each call before any walk; an optional one passed as None
    is not checked."""
    signature = inspect.signature(entry)

    @wraps(entry)
    def checked(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        check_counts({k: v for k, v in arguments.items() if v is not None})
        return entry(*args, **kwargs)

    return checked


# ---------------------------------------------------------------------------
# The runner: trials in blocks, then aggregation and gates.


def _run_trials(block, trials: int, jobs: int = 1) -> list:
    """Rows of trials 0..trials-1 in trial order, from ``block(first, stop)``.

    ``block`` is a module-level function, or a partial of one, so that it
    pickles.  With ``jobs`` > 1 the trials are split into ``jobs`` contiguous
    blocks, one per spawned worker process, and never into more blocks than
    trials; every trial draws from its own stream, so the rows do not depend
    on the split.  With ``jobs`` <= 1, or a single trial, the block runs in
    this process and no pool starts.
    """
    jobs = min(jobs, trials)
    if jobs <= 1:
        return block(0, trials)
    cuts = [trials * b // jobs for b in range(jobs + 1)]
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        blocks = [pool.submit(block, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        return [row for future in blocks for row in future.result()]


def _result(name, params, seed, records, tolerances=None, failures=()):
    """The result of a run: its records aggregated, then gated.

    The gate of ``REPORTS[name]`` adds its failures to ``failures`` (those
    met while running) and sets ``passed``; a gate that returns None gives
    no verdict, and ``passed`` stays None.
    """
    aggregate, gate = REPORTS[name]
    result = ExperimentResult(
        name, params, seed, records, aggregate(records, params), tolerances or {}
    )
    verdict = gate(result)
    if verdict is not None:
        result.failures = [*failures, *verdict]
        result.passed = not result.failures
    return result


def _truncated(path, n, reason=None) -> dict:
    """The row of trial ``path.trial`` cut short at n.  The reason defaults
    to the walk's own ``path.truncation_reason``."""
    reason = reason or path.truncation_reason
    return {"trial": path.trial, "n": n, "truncated": True, "truncation_reason": reason}


def _untruncated(records, n) -> list:
    """The rows at n that were not truncated; an aggregator reports null
    statistics at an n without any, and its gate fails there."""
    return [r for r in records if r["n"] == n and not r.get("truncated", False)]


def _truncation_failures(aggregates) -> list:
    fraction = aggregates["truncated_fraction"]
    if fraction > MAX_TRUNCATED_FRACTION:
        return [
            f"resource: truncated fraction {fraction:.3f} "
            f"exceeds {MAX_TRUNCATED_FRACTION}"
        ]
    return []


# ---------------------------------------------------------------------------
# Tree experiments: trials fold in blocks through walk.fold_words, and each
# observable reads the reduced word w_n at its marks.


# Trials folded as one block.  fold_words holds a (block x n) index array and
# the block's stacks at once, so a run's fold memory stops growing with its
# trial count past this many trials.
_FOLD_TRIALS = 2000


def _tree_trial_rows(measure, marks, seed, first, stop, observables) -> list:
    """Fold trials first..stop-1, at most ``_FOLD_TRIALS`` together,
    evaluating observables at marks; rows come back trial-major."""
    marks = sorted(set(marks))
    rows = []
    for lo in range(first, stop, _FOLD_TRIALS):
        trials = range(lo, min(lo + _FOLD_TRIALS, stop))
        indices = np.empty(
            (len(trials), marks[-1]), dtype=np.min_scalar_type(len(measure.atoms) - 1)
        )
        for row, trial in enumerate(trials):
            indices[row] = measure.increment_indices(marks[-1], seed, trial)
        folded = fold_words(measure, indices, marks)
        del indices  # the rows below need only the folded words
        for row, trial in enumerate(trials):
            for n, (stack, length) in zip(marks, folded):
                word = tuple(stack[row, : length[row]].tolist())
                record = {"trial": trial, "n": n}
                for name, evaluate in observables:
                    record[name] = evaluate(word, n)
                rows.append(record)
    return rows


def _obs_displacement(word, n):
    return len(word)


def _obs_tau(word, n):
    return W.translation_length(word)


def _sym_gp_of_word(word, n) -> int:
    """Common prefix length of w and w^-1: compare w[i] against -w[-1-i]."""
    size = len(word)
    i = 0
    while i < size and word[i] == -word[size - 1 - i]:
        i += 1
    return i


def _is_tree(measure: FiniteMeasure) -> bool:
    return isinstance(measure.oracle, (FreeGroupOracle, SemidirectOracle))


def _require_tree(measure: FiniteMeasure, experiment: str) -> None:
    """Reject, before any walk, a measure on a model other than the trees."""
    if not _is_tree(measure):
        raise InputError(f"{experiment} runs on the tree models")


# ---------------------------------------------------------------------------
# Other models (Cremona and monomial maps): each trial walks once through
# walk.sample_path, and an observer reads the path at each mark.


def _walk_trial_rows(measure, marks, seed, first, stop, observe) -> list:
    """Walk trials first..stop-1 once each, to the last of the sorted
    ``marks``, keeping the endpoints at every mark.  The row at mark n is
    ``observe(path, n)``, or a truncated row when the walk was cut before
    step n (every mark of a discarded trial); rows come back trial-major."""
    rows = []
    for trial in range(first, stop):
        path = sample_path(measure, marks[-1], seed, trial, marks=marks)
        for n in marks:
            if path.truncated_at is not None and n > path.truncated_at:
                rows.append(_truncated(path, n))
            else:
                rows.append(observe(path, n))
    return rows


def _obs_endpoint(tau_budget, path, n) -> dict:
    """d(x, w_n x), the symmetric Gromov product of w_n and, with a
    ``tau_budget``, the budgeted translation length of w_n.

    These compose maps outside the walk, so they run under
    ``walk.at_trial_primes``: first on the model the walk ended on (a
    retried trial lives over its fresh primes, and the base primes already
    failed its word), then at the retry pairs past those the walk used.  A
    row whose every attempt meets a bad prime is truncated with reason
    ``"bad_prime"``, and one whose observable passes the degree cap with
    reason ``"degree_cap"``.
    """

    def observe(model, rebuild):
        w, winv = (rebuild(g) for g in path.endpoints[n])
        d = path.displacements[n]
        row = {
            "trial": path.trial,
            "n": n,
            "d": d,
            "sym_gp": gromov_product(
                d, model.displacement(winv), model.pairwise_distance(w, winv)
            ),
            "truncated": False,
        }
        if tau_budget is not None:
            row["tau"] = model.translation_length_estimate(w, tau_budget)
        return row

    try:
        row = at_trial_primes(
            path.oracle, path.seed, path.trial, observe, used=path.prime_retries
        )
    except ResourceError:
        return _truncated(path, n, "degree_cap")
    return row[0] if row is not None else _truncated(path, n, "bad_prime")


# ---------------------------------------------------------------------------
# Drift.


@_counts_checked
def estimate_drift(
    measure: FiniteMeasure,
    n: int,
    trials: int,
    seed: int,
    expected: float | None = None,
    tolerance: float = 0.02,
    jobs: int = 1,
) -> ExperimentResult:
    """Mean of d(x, w_n x)/n with a normal confidence interval.

    For Cremona and monomial measures the record also carries
    log(deg w_n)/n, the exponential-growth version of the same limit, and
    trials cut short by the degree cap are reported (the run fails if more
    than 10% truncate).
    """
    if trials < DRIFT_MIN_TRIALS:
        raise InputError(f"drift estimation needs at least {DRIFT_MIN_TRIALS} trials")
    params = {
        "n": n,
        "trials": trials,
        "expected": expected,
        "measure": describe_measure(measure),
    }
    if _is_tree(measure):
        block = partial(
            _tree_trial_rows, measure, [n], seed, observables=[("d", _obs_displacement)]
        )
    else:
        block = partial(_walk_trial_rows, measure, [n], seed, observe=_obs_degree)
    records = _run_trials(block, trials, jobs)
    return _result("drift", params, seed, records, {"mean_abs_error": tolerance})


def _aggregate_drift(records, params):
    n = params["n"]
    complete = _untruncated(records, n)
    speeds = [r["d"] / n for r in complete]
    out = {
        "mean_speed": stats.mean(speeds) if speeds else None,
        "speed_se": stats.standard_error(speeds) if speeds else None,
        "speed_ci95": stats.normal_ci(speeds) if speeds else None,
        "truncated_fraction": 1.0 - len(complete) / len(records),
        "trials_used": len(complete),
    }
    if complete and "log_deg" in complete[0]:
        rates = [r["log_deg"] / n for r in complete]
        out["mean_log_degree_rate"] = stats.mean(rates)
        out["log_degree_rate_se"] = stats.standard_error(rates)
    return out


def _gate_drift(result):
    failures = _truncation_failures(result.aggregates)
    expected = result.params["expected"]
    tolerance = result.tolerances["mean_abs_error"]
    mean_speed = result.aggregates["mean_speed"]
    if mean_speed is None:
        failures.append(f"no untruncated trials at n={result.params['n']}")
    elif expected is not None:
        err = abs(mean_speed - expected)
        if err > tolerance:
            failures.append(
                f"|mean speed - {expected}| = {err:.4f} exceeds {tolerance}"
            )
    return failures


def _obs_degree(path, n) -> dict:
    d = path.displacements[n]
    degree = round(math.cosh(d))
    return {
        "trial": path.trial,
        "n": n,
        "truncated": False,
        "d": d,
        "log_deg": math.log(degree),
        "degree": degree,
        "prime_retries": path.prime_retries,
    }


# ---------------------------------------------------------------------------
# Translation length growth.


@_counts_checked
def translation_growth(
    measure: FiniteMeasure,
    n_grid,
    trials: int,
    seed: int,
    drift_tolerance: float = 0.03,
    tau_budget: int = 4,
    jobs: int = 1,
) -> ExperimentResult:
    """tau(w_n)/n against the drift, plus the thin-triangle residual
    d(x, w_n x) - 2<w_n x, w_n^-1 x>_x - tau(w_n), reported as a diagnostic
    (it is O(delta), identically 0 on a tree).

    Tree models use the exact cyclic-reduction translation length; other
    oracles fall back to the budgeted one-sided estimate, whose excess is at
    most d(x, w_n x)/budget.
    """
    marks = sorted(n_grid)
    params = {
        "n_grid": marks,
        "trials": trials,
        "measure": describe_measure(measure),
    }
    if _is_tree(measure):
        observables = [
            ("d", _obs_displacement), ("tau", _obs_tau), ("sym_gp", _sym_gp_of_word)
        ]
        block = partial(_tree_trial_rows, measure, marks, seed, observables=observables)
    else:
        params["tau_budget"] = tau_budget
        observe = partial(_obs_endpoint, tau_budget)
        block = partial(_walk_trial_rows, measure, marks, seed, observe=observe)
    records = _run_trials(block, trials, jobs)
    return _result(
        "translation_growth", params, seed, records, {"drift_gap": drift_tolerance}
    )


def _aggregate_translation(records, params):
    per_n = {}
    for n in params["n_grid"]:
        rows = _untruncated(records, n)
        if not rows:
            per_n[str(n)] = dict.fromkeys(
                ("mean_tau_over_n", "tau_se", "mean_speed", "drift_gap", "max_abs_residual")
            )
            continue
        taus = [r["tau"] / n for r in rows]
        speeds = [r["d"] / n for r in rows]
        residuals = [r["d"] - 2 * r["sym_gp"] - r["tau"] for r in rows]
        per_n[str(n)] = {
            "mean_tau_over_n": stats.mean(taus),
            "tau_se": stats.standard_error(taus),
            "mean_speed": stats.mean(speeds),
            "drift_gap": abs(stats.mean(taus) - stats.mean(speeds)),
            "max_abs_residual": max(abs(r) for r in residuals),
        }
    return {"per_n": per_n}


def _gate_translation(result):
    marks = result.params["n_grid"]
    per_n = result.aggregates["per_n"]
    tolerance = result.tolerances["drift_gap"]
    failures = [
        f"no untruncated trials at n={n}"
        for n in marks
        if per_n[str(n)]["drift_gap"] is None
    ]
    gap = per_n[str(marks[-1])]["drift_gap"]
    if gap is not None and gap > tolerance:
        failures.append(f"|mean tau/n - mean d/n| = {gap:.4f} exceeds {tolerance}")
    return failures


# ---------------------------------------------------------------------------
# Sublinearity of the symmetric Gromov product.


@_counts_checked
def gromov_tail(
    measure: FiniteMeasure,
    n_grid,
    trials: int,
    seed: int,
    epsilon: float = 0.1,
    threshold: float = 0.01,
    jobs: int = 1,
) -> ExperimentResult:
    """Tail frequency P(<w_n x, w_n^-1 x>_x >= epsilon n) per n.

    The product is stochastically bounded while the threshold grows
    linearly, so the frequencies should sit near zero at every n; the
    median track is reported as the sublinearity proxy."""
    if not 0 < epsilon < 1:
        raise InputError("epsilon must lie in (0, 1)")
    marks = sorted(n_grid)
    params = {
        "n_grid": marks,
        "trials": trials,
        "epsilon": epsilon,
        "measure": describe_measure(measure),
    }
    if _is_tree(measure):
        observables = [("sym_gp", _sym_gp_of_word)]
        block = partial(_tree_trial_rows, measure, marks, seed, observables=observables)
    else:
        observe = partial(_obs_endpoint, None)
        block = partial(_walk_trial_rows, measure, marks, seed, observe=observe)
    records = _run_trials(block, trials, jobs)
    return _result("gromov_tail", params, seed, records, {"tail_threshold": threshold})


def _aggregate_gromov_tail(records, params):
    epsilon = params["epsilon"]
    per_n = {}
    log_points = []
    for n in params["n_grid"]:
        rows = _untruncated(records, n)
        if not rows:
            per_n[str(n)] = dict.fromkeys(("tail_frequency", "tail_wilson95", "median_sym_gp"))
            continue
        hits = sum(1 for r in rows if r["sym_gp"] >= epsilon * n)
        freq = hits / len(rows)
        per_n[str(n)] = {
            "tail_frequency": freq,
            "tail_wilson95": stats.wilson_interval(hits, len(rows), 1.96),
            "median_sym_gp": stats.median([r["sym_gp"] for r in rows]),
        }
        if freq > 0:
            log_points.append((n, math.log(freq)))
    slope = (
        stats.least_squares_slope(*zip(*log_points)) if len(log_points) >= 2 else None
    )
    return {"per_n": per_n, "log_frequency_slope": slope}


def _gate_gromov_tail(result):
    threshold = result.tolerances["tail_threshold"]
    failures = []
    for n in result.params["n_grid"]:
        freq = result.aggregates["per_n"][str(n)]["tail_frequency"]
        if freq is None:
            failures.append(f"no untruncated trials at n={n}")
        elif freq > threshold:
            failures.append(f"tail frequency {freq:.4f} at n={n} exceeds {threshold}")
    return failures


# ---------------------------------------------------------------------------
# Shadow decay.


@_counts_checked
def shadow_decay(
    measure: FiniteMeasure,
    m_grid,
    samples: int,
    seed: int,
    wilson_z: float = 3.0,
    slope_rtol: float = 0.10,
    settle_steps: int = 64,
    chunk: int = 10_000,
) -> ExperimentResult:
    """Frequency of the walk's limit point falling behind a fixed vertex at
    distance m, against the exact harmonic measure 1/(2k (2k-1)^(m-1)).

    The limit's depth-m prefix is read off after m + settle_steps steps; the
    probability that the prefix changes later is below (2k-1)^-settle_steps,
    negligible against the Monte-Carlo error.  Exact comparison requires the
    uniform measure; other measures get an empirical-only report.
    """
    _require_tree(measure, "shadow decay")
    if settle_steps < 0:
        raise InputError("settle_steps must be >= 0")
    rank = measure.oracle.rank
    m_grid = sorted(m_grid)
    uniform = _is_uniform_letter_measure(measure)
    params = {
        "m_grid": m_grid,
        "samples": samples,
        "rank": rank,
        "uniform": uniform,
        "wilson_z": wilson_z,
        "chunk": chunk,
        "measure": describe_measure(measure),
    }
    # Fixed target prefix: alternating generators 1, 2, 1, 2, ...  Samples
    # are drawn in chunks, one Philox stream per (m, chunk) with the chunk
    # index as the trial key; this scheme is part of the declared parameters.
    records = []
    for mark, m in enumerate(m_grid):
        target = np.array([(1, 2)[i % 2] for i in range(m)])
        n_steps = m + settle_steps
        done = 0
        chunk_id = 0
        while done < samples:
            batch = min(chunk, samples - done)
            stream_trial = (mark << 32) | chunk_id
            indices = measure.increment_indices(
                n_steps * batch, seed, stream_trial
            ).reshape(batch, n_steps)
            ((stack, length),) = fold_words(measure, indices, [n_steps])
            reached = length >= m
            hits = (
                int((stack[reached, :m] == target).all(axis=1).sum())
                if reached.any()
                else 0
            )
            records.append(
                {"trial": chunk_id, "n": m, "hits": hits, "samples": batch}
            )
            done += batch
            chunk_id += 1
    return _result(
        "shadow_decay",
        params,
        seed,
        records,
        {"wilson_z": wilson_z, "slope_rtol": slope_rtol},
    )


def _is_uniform_letter_measure(measure: FiniteMeasure) -> bool:
    rank = measure.oracle.rank
    if len(measure.atoms) != 2 * rank:
        return False
    expected = {(g,) for g in range(1, rank + 1)} | {
        (-g,) for g in range(1, rank + 1)
    }
    support = {a.element for a in measure.atoms}
    weights = {a.weight for a in measure.atoms}
    return support == expected and weights == {Fraction(1, 2 * rank)}


def _aggregate_shadow(records, params):
    rank = params["rank"]
    z = params["wilson_z"]
    per_m = {}
    points = []
    for m in params["m_grid"]:
        rows = [r for r in records if r["n"] == m]
        hits = sum(r["hits"] for r in rows)
        total = sum(r["samples"] for r in rows)
        freq = hits / total
        entry = {
            "frequency": freq,
            "hits": hits,
            "samples": total,
            "wilson_band": stats.wilson_interval(hits, total, z),
        }
        if params["uniform"]:
            entry["exact"] = float(exact_shadow_measure(m, rank))
        per_m[str(m)] = entry
        if freq > 0:
            points.append((m, math.log(freq)))
    slope = stats.least_squares_slope(*zip(*points)) if len(points) >= 2 else None
    return {"per_m": per_m, "decay_slope": slope}


def _gate_shadow(result):
    """Only the uniform measure has an exact harmonic measure to test
    against; any other measure gets no verdict."""
    params, tolerances = result.params, result.tolerances
    if not params["uniform"]:
        return None
    failures = []
    for m in params["m_grid"]:
        agg = result.aggregates["per_m"][str(m)]
        lo, hi = agg["wilson_band"]
        exact = agg["exact"]
        if not (lo <= exact <= hi):
            failures.append(
                f"m={m}: exact measure {exact:.6f} outside the "
                f"{tolerances['wilson_z']}-sigma Wilson band ({lo:.6f}, {hi:.6f})"
            )
    slope = result.aggregates["decay_slope"]
    slope_rtol = tolerances["slope_rtol"]
    target_slope = -math.log(2 * params["rank"] - 1)
    if slope is None or abs(slope - target_slope) > slope_rtol * abs(target_slope):
        failures.append(
            f"fitted decay slope {slope} deviates more than {slope_rtol:.0%} "
            f"from {target_slope:.4f}"
        )
    return failures


# ---------------------------------------------------------------------------
# Matching census (axis matches, non-matches, self matches).


@_counts_checked
def match_census(
    kind: str,
    measure: FiniteMeasure,
    seed: int,
    trials: int,
    n: int | None = None,
    n_grid=None,
    axis_core: W.Word | None = None,
    L: int = 10,
    pattern_length: int = 30,
    s_grid=(10, 20, 30),
    self_match_fraction: float = 0.2,
    axis_threshold: float = 0.95,
    non_match_threshold: float = 0.05,
    jobs: int = 1,
) -> ExperimentResult:
    """Frequencies of geodesic matching events along [x, w_n x].

    kind "axis": a length-L subword lying on a group translate of the axis
    of ``axis_core`` (both reading directions).  kind "non": a translate of
    a fixed random test pattern (its length-s prefixes, s in ``s_grid``)
    occurring inside the geodesic.  kind "self": two disjoint subsegments of
    length ``self_match_fraction * n`` equal up to a group translate.
    """
    _require_tree(measure, "matching census")
    if kind == "axis":
        if axis_core is None or n is None:
            raise InputError("axis matching needs axis_core and n")
        core = tuple(axis_core)
        observables = [("match", partial(_obs_axis_match, core, L))]
        marks = [n]
        params = {
            "kind": kind,
            "n": n,
            "L": L,
            "trials": trials,
            "axis_core": W.word_to_str(core),
            "measure": describe_measure(measure),
        }
        tolerances = {"axis_threshold": axis_threshold}
    elif kind == "non":
        if n is None:
            raise InputError("non-matching needs n")
        s_grid = sorted(s_grid)
        if pattern_length < s_grid[-1]:
            # pattern[:s] would be the whole, shorter pattern
            raise InputError(
                f"pattern_length {pattern_length} is shorter than the largest "
                f"s in s_grid ({s_grid[-1]})"
            )
        pattern = _fixed_test_pattern(measure, pattern_length, seed)
        observables = [
            (f"pattern_s{s}", partial(_obs_contains_translate, pattern[:s]))
            for s in s_grid
        ]
        marks = [n]
        params = {
            "kind": kind,
            "n": n,
            "trials": trials,
            "pattern": W.word_to_str(pattern),
            "s_grid": list(s_grid),
            "measure": describe_measure(measure),
        }
        tolerances = {"non_match_threshold": non_match_threshold}
    elif kind == "self":
        if n_grid is None:
            raise InputError("self matching needs n_grid")
        marks = sorted(n_grid)
        observables = [("self_match", partial(_obs_self_match, self_match_fraction))]
        params = {
            "kind": kind,
            "n_grid": marks,
            "trials": trials,
            "self_match_fraction": self_match_fraction,
            "measure": describe_measure(measure),
        }
        tolerances = {}
    else:
        raise InputError(f"unknown matching census kind {kind!r}")

    block = partial(_tree_trial_rows, measure, marks, seed, observables=observables)
    records = _run_trials(block, trials, jobs)
    return _result(f"match_census_{kind}", params, seed, records, tolerances)


def _fixed_test_pattern(measure, length: int, seed: int) -> tuple:
    """A fixed random reduced word over the measure's support alphabet,
    drawn from the trial-(2^32) stream so it never collides with walk
    trials."""
    rank = measure.oracle.rank
    rng = trial_rng(seed, 2**32)
    letters: list[int] = []
    while len(letters) < length:
        g = int(rng.integers(1, rank + 1))
        s = 1 if int(rng.integers(0, 2)) else -1
        letter = s * g
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return tuple(letters)


def _obs_axis_match(core, L, word, step) -> int:
    return int(W.match_detect(word, core, L))


def _obs_contains_translate(pattern, word, step) -> int:
    """Does the geodesic word contain the pattern or its reversal-inverse?"""
    n, s = len(word), len(pattern)
    if s == 0 or n < s:
        return 0
    mirrored = W.invert(pattern)
    for i in range(n - s + 1):
        window = word[i : i + s]
        if window == pattern or window == mirrored:
            return 1
    return 0


def _obs_self_match(fraction, word, step) -> int:
    return int(W.self_match_detect(word, max(1, int(fraction * step))))


def _frequency(hits, total) -> dict:
    return {
        "frequency": hits / total,
        "wilson95": stats.wilson_interval(hits, total, 1.96),
    }


def _aggregate_match_axis(records, params):
    return _frequency(sum(r["match"] for r in records), len(records))


def _aggregate_match_non(records, params):
    per_s = {}
    for s in params["s_grid"]:
        hits = sum(r[f"pattern_s{s}"] for r in records)
        per_s[str(s)] = _frequency(hits, len(records))
    return {"per_s": per_s}


def _aggregate_match_self(records, params):
    per_n = {}
    for n in params["n_grid"]:
        rows = [r for r in records if r["n"] == n]
        per_n[str(n)] = _frequency(sum(r["self_match"] for r in rows), len(rows))
    return {"per_n": per_n}


def _gate_match_axis(result):
    freq = result.aggregates["frequency"]
    threshold = result.tolerances["axis_threshold"]
    if freq < threshold:
        return [f"axis match frequency {freq:.4f} below {threshold}"]
    return []


def _gate_match_non(result):
    s_grid = result.params["s_grid"]
    threshold = result.tolerances["non_match_threshold"]
    freqs = result.aggregates["per_s"]
    failures = []
    last = freqs[str(s_grid[-1])]["frequency"]
    if last > threshold:
        failures.append(
            f"non-match frequency {last:.4f} at s={s_grid[-1]} exceeds {threshold}"
        )
    series = [freqs[str(s)]["frequency"] for s in s_grid]
    if any(b > a for a, b in zip(series, series[1:])):
        failures.append(f"non-match frequencies {series} not non-increasing in s")
    return failures


def _gate_match_self(result):
    per_n = result.aggregates["per_n"]
    series = [per_n[str(n)]["frequency"] for n in result.params["n_grid"]]
    if any(b > a for a, b in zip(series, series[1:])):
        return [f"self-match frequencies {series} not non-increasing in n"]
    return []


# ---------------------------------------------------------------------------
# Asymptotic acylindricality: joint coarse stabilizer census.


@_counts_checked
def stab_acylindricity(
    measure: FiniteMeasure,
    K: int,
    n_grid,
    trials: int,
    seed: int,
    quantile: float = 0.99,
    census_cap: int = 4,
    jobs: int = 1,
) -> ExperimentResult:
    """Distribution of |Stab_K(x, w_n x)| per n; the minimal count covering
    a ``quantile`` fraction of trials must not depend on n."""
    _require_tree(measure, "stabilizer census")
    oracle = measure.oracle
    rank = oracle.rank
    torsion_order = (
        oracle.torsion_group.order if isinstance(oracle, SemidirectOracle) else 1
    )
    marks = sorted(n_grid)
    params = {
        "K": K,
        "n_grid": marks,
        "trials": trials,
        "quantile": quantile,
        "torsion_order": torsion_order,
        "measure": describe_measure(measure),
    }
    census = partial(_obs_census, K, rank, torsion_order, census_cap)
    observables = [("census", census)]
    block = partial(_tree_trial_rows, measure, marks, seed, observables=observables)
    records = _run_trials(block, trials, jobs)
    return _result("stab_acylindricity", params, seed, records)


def _obs_census(K, rank, torsion_order, cap, word, step) -> int:
    return stab_census(word, K, rank, torsion_order, cap=cap)


def _aggregate_stab(records, params):
    per_n = {}
    for n in params["n_grid"]:
        counts = [r["census"] for r in records if r["n"] == n]
        per_n[str(n)] = {
            "quantile_count": stats.empirical_quantile(counts, params["quantile"]),
            "max_count": max(counts),
            "mean_count": stats.mean(counts),
        }
    return {"per_n": per_n}


def _gate_stab(result):
    quantile = result.params["quantile"]
    per_n = result.aggregates["per_n"]
    quantiles = [per_n[str(n)]["quantile_count"] for n in result.params["n_grid"]]
    if len(set(quantiles)) == 1:
        return []
    return [f"{quantile:.0%}-quantile census counts {quantiles} vary across n"]


# ---------------------------------------------------------------------------
# Small cancellation certificates.


@dataclass(frozen=True)
class CancellationCertificate:
    """Small-cancellation data for the conjugates of one loxodromic word.

    ``delta`` is the fellow-travelling constant (largest axis overlap with a
    translate by anything outside the axis stabilizer); on a tree it is
    computed exactly, so ``certified`` is always True here.  The injectivity
    radius of the conjugacy family equals tau on a tree.  The first
    small-cancellation requirement, inj >= A * delta_hyp, is vacuous on a
    0-hyperbolic space and reported as such.
    """

    tau: int
    delta: int
    certified: bool
    epsilon: float
    hyperbolicity_note: str
    passed: bool


def small_cancellation_certificate(
    w_word, A: float, epsilon: float
) -> CancellationCertificate:
    tau = W.translation_length(tuple(w_word))
    if tau == 0:
        raise InputError("small cancellation certificate needs a loxodromic word")
    delta = fellow_traveling_delta(tuple(w_word))
    return CancellationCertificate(
        tau=tau,
        delta=delta,
        certified=True,
        epsilon=epsilon,
        hyperbolicity_note=(
            f"inj >= A*delta holds vacuously on the tree (delta = 0, A = {A})"
        ),
        passed=delta <= epsilon * tau,
    )


@_counts_checked
def small_cancellation_experiment(
    measure: FiniteMeasure,
    n: int,
    trials: int,
    seed: int,
    epsilon: float = 0.1,
    A: float = 1.0,
    pass_threshold: float = 0.95,
    jobs: int = 1,
) -> ExperimentResult:
    """Frequency of random words whose conjugacy family satisfies the
    axis-overlap half of the small-cancellation condition at ratio epsilon."""
    _require_tree(measure, "small cancellation")
    params = {
        "n": n,
        "trials": trials,
        "epsilon": epsilon,
        "A": A,
        "measure": describe_measure(measure),
    }
    certificate = partial(_obs_certificate, A, epsilon)
    observables = [("cert", certificate)]
    block = partial(_tree_trial_rows, measure, [n], seed, observables=observables)
    records = _run_trials(block, trials, jobs)
    for row in records:
        row.update(row.pop("cert"))
    return _result(
        "small_cancellation", params, seed, records, {"pass_threshold": pass_threshold}
    )


def _obs_certificate(A, epsilon, word, step) -> dict:
    tau = W.translation_length(word)
    if tau == 0:
        return {"tau": 0, "delta": -1, "pass": 0, "loxodromic": 0}
    cert = small_cancellation_certificate(word, A, epsilon)
    return {
        "tau": cert.tau,
        "delta": cert.delta,
        "pass": int(cert.passed),
        "loxodromic": 1,
    }


def _aggregate_small_cancellation(records, params):
    passes = sum(r["pass"] for r in records)
    return {
        "pass_frequency": passes / len(records),
        "loxodromic_frequency": stats.mean([r["loxodromic"] for r in records]),
        "max_delta": max(r["delta"] for r in records),
        "mean_tau": stats.mean([r["tau"] for r in records]),
    }


def _gate_small_cancellation(result):
    freq = result.aggregates["pass_frequency"]
    threshold = result.tolerances["pass_threshold"]
    if freq >= threshold:
        return []
    return [f"certificate pass frequency {freq:.4f} below {threshold}"]


# ---------------------------------------------------------------------------
# Characteristic index.


@_counts_checked
def characteristic_index_experiment(
    measure: FiniteMeasure,
    n_grid,
    trials: int,
    seed: int,
    frequency_tolerance: float = 0.03,
) -> ExperimentResult:
    """The finite-kernel homomorphism under the random walk.

    Reports the characteristic index k (order of the image of the support's
    conjugation action inside Aut of the kernel), the per-n frequency of the
    walk's image being trivial (limit 1/k by equidistribution on the image
    group), the frequency for the k-th power (identically 1, not a
    statistic), and whether k = 1 coincides with the kernel being central.
    """
    oracle = measure.oracle
    if not isinstance(oracle, SemidirectOracle):
        raise InputError("characteristic index needs the semidirect model")
    if not measure.reversible:
        raise InputError(
            "characteristic index requires a reversible measure "
            "(support closed under inverses)"
        )
    marks = sorted(n_grid)

    # the image group H of the support inside Aut(kernel), as a Cayley table
    atom_images = [oracle.conjugation_on_kernel(a.element) for a in measure.atoms]
    elements = [tuple(range(oracle.torsion_group.order))]
    index_of = {elements[0]: 0}
    frontier = [elements[0]]
    while frontier:
        new_frontier = []
        for phi in frontier:
            for gen in atom_images:
                composed = tuple(gen(v) for v in phi)
                if composed not in index_of:
                    index_of[composed] = len(elements)
                    elements.append(composed)
                    new_frontier.append(composed)
        frontier = new_frontier
    k = len(elements)
    # table[state, image] = index of composition state . image
    table = np.zeros((k, len(measure.atoms)), dtype=np.int64)
    for s, phi in enumerate(elements):
        for a, gen in enumerate(atom_images):
            table[s, a] = index_of[tuple(phi[v] for v in gen.images)]

    n_max = marks[-1]
    increments = np.vstack(
        [measure.increment_indices(n_max, seed, t) for t in range(trials)]
    )
    state = np.zeros(trials, dtype=np.int64)
    records = []
    mark_set = set(marks)
    order_of = [_automorphism_order(phi, elements, index_of) for phi in elements]
    for step in range(1, n_max + 1):
        state = table[state, increments[:, step - 1]]
        if step in mark_set:
            for trial in range(trials):
                image = int(state[trial])
                records.append(
                    {
                        "trial": trial,
                        "n": step,
                        "image_trivial": int(image == 0),
                        # phi(w_n^k) = phi(w_n)^k: trivial iff the image's
                        # order divides k, which it always does in a group
                        # of order k
                        "kth_power_trivial": int(k % order_of[image] == 0),
                    }
                )

    from .freegroup import characteristic_index

    k_check = characteristic_index(oracle, [a.element for a in measure.atoms])
    if k_check != k:
        raise AssertionError(
            f"closure orders disagree: table build {k}, direct closure {k_check}"
        )
    kernel_central = oracle.torsion_group.is_abelian() and all(
        phi.images == tuple(range(oracle.torsion_group.order))
        for phi in atom_images
    )
    params = {
        "n_grid": marks,
        "trials": trials,
        "characteristic_index": k,
        "kernel_central": kernel_central,
        "expected_trivial_frequency": 1.0 / k,
        "measure": describe_measure(measure),
    }
    return _result(
        "characteristic_index",
        params,
        seed,
        records,
        {"frequency_tolerance": frequency_tolerance},
    )


def _automorphism_order(phi, elements, index_of) -> int:
    order = 1
    current = phi
    identity = elements[0]
    while tuple(current) != identity:
        current = tuple(phi[v] for v in current)
        order += 1
    return order


def _aggregate_char_index(records, params):
    per_n = {}
    for n in params["n_grid"]:
        rows = [r for r in records if r["n"] == n]
        per_n[str(n)] = {
            "trivial_frequency": stats.mean([r["image_trivial"] for r in rows]),
            "kth_power_frequency": stats.mean(
                [r["kth_power_trivial"] for r in rows]
            ),
        }
    return {"per_n": per_n, "characteristic_index": params["characteristic_index"]}


def _gate_char_index(result):
    k = result.params["characteristic_index"]
    tolerance = result.tolerances["frequency_tolerance"]
    failures = []
    for n in result.params["n_grid"]:
        agg = result.aggregates["per_n"][str(n)]
        if abs(agg["trivial_frequency"] - 1.0 / k) > tolerance:
            failures.append(
                f"trivial-image frequency {agg['trivial_frequency']:.4f} at "
                f"n={n} outside {tolerance} of {1.0 / k:.4f}"
            )
        if agg["kth_power_frequency"] != 1.0:
            failures.append(f"phi(w_n^k) not identically trivial at n={n}")
    if (k == 1) != result.params["kernel_central"]:
        failures.append(
            "characteristic index 1 must coincide with a central kernel"
        )
    return failures


# ---------------------------------------------------------------------------
# Cremona degree growth.


@_counts_checked
def degree_growth_experiment(
    measure: FiniteMeasure,
    n_grid,
    trials: int,
    seed: int,
    iterate_budget: int | None = 2,
    gap_tolerance: float = 0.2,
    lambda_degree_bound: int = 12,
    jobs: int = 1,
) -> ExperimentResult:
    """Exponential degree growth of random Cremona words.

    Tracks (1/n) log deg(w_n) on the grid.  On the subsample of trials whose
    endpoint degree is at most ``lambda_degree_bound`` (so that iterating it
    stays comfortably below the degree cap), also tracks (1/n) log of the
    budgeted dynamical-degree estimate and reports the gap between the two
    tracks at the largest n.  The subsample rule is part of the declared
    parameters; trials outside it are counted, not silently dropped.
    """
    model = measure.oracle
    if not isinstance(model, CremonaModel):
        raise InputError("degree growth runs on the Cremona model")
    marks = sorted(n_grid)
    params = {
        "n_grid": marks,
        "trials": trials,
        "iterate_budget": iterate_budget,
        "degree_cap": model.degree_cap,
        "lambda_degree_bound": lambda_degree_bound,
        "measure": describe_measure(measure),
    }
    observe = partial(_obs_degree_growth, iterate_budget, lambda_degree_bound)
    block = partial(_walk_trial_rows, measure, marks, seed, observe=observe)
    records = _run_trials(block, trials, jobs)
    return _result(
        "degree_growth", params, seed, records, {"gap_tolerance": gap_tolerance}
    )


def _obs_degree_growth(iterate_budget, lambda_degree_bound, path, n) -> dict:
    degree = int(round(math.cosh(path.displacements[n])))
    row = {
        "trial": path.trial,
        "n": n,
        "truncated": False,
        "degree": degree,
        "log_deg_rate": math.log(degree) / n if degree >= 1 else 0.0,
        "prime_retries": path.prime_retries,
    }
    if n == path.n:
        rate, skipped = _lambda_rate(path, iterate_budget, lambda_degree_bound)
        if rate is not None:
            row["lambda_rate"] = rate
        else:
            row["lambda_skipped"] = skipped
    return row


def _gate_degree_growth(result):
    agg = result.aggregates
    gap_tolerance = result.tolerances["gap_tolerance"]
    failures = []
    for n in result.params["n_grid"]:
        rate = agg["per_n"][str(n)]["mean_log_deg_rate"]
        if rate is None:
            failures.append(f"no untruncated trials at n={n}")
        elif rate <= 0:
            failures.append(f"mean log-degree rate not positive at n={n}")
    if result.params["iterate_budget"] is not None:
        if agg["lambda_track"]["subsample"] == 0:
            failures.append("resource: dynamical-degree subsample is empty")
        elif agg["lambda_track"]["gap"] > gap_tolerance:
            failures.append(
                f"gap {agg['lambda_track']['gap']:.4f} between degree and "
                f"dynamical-degree tracks exceeds {gap_tolerance}"
            )
    return failures + _truncation_failures(agg)


def _lambda_rate(path, budget, degree_bound):
    """``(rate, None)``, the rate (1/n) log of the budgeted dynamical-degree
    estimate of ``path.final``, or ``(None, reason)`` for a trial outside the
    subsample.  An estimate of 0 gives ``(None, None)``."""
    if budget is None:
        return None, "disabled"
    final_degree = int(round(math.cosh(path.displacements[-1])))
    cap = path.oracle.degree_cap
    if final_degree > degree_bound or final_degree**budget > cap:
        return None, "cap"
    try:
        est = at_trial_primes(
            path.oracle,
            path.seed,
            path.trial,
            lambda trial_model, rebuild: dynamical_degree_estimate(
                trial_model, rebuild(path.final), budget
            ),
            used=path.prime_retries,
        )
    except ResourceError:
        # a suffix product of a power can pass the cap even when
        # final_degree ** budget does not
        return None, "cap"
    if est is None:
        return None, "bad_prime"
    value = est[0].value
    return (math.log(value) / path.n if value > 0 else None), None


def _aggregate_degree_growth(records, params):
    marks = params["n_grid"]
    n_max = marks[-1]
    per_n = {}
    for n in marks:
        rows = _untruncated(records, n)
        rates = [r["log_deg_rate"] for r in rows]
        per_n[str(n)] = {
            "mean_log_deg_rate": stats.mean(rates) if rates else None,
            "rate_se": stats.standard_error(rates) if rates else None,
            "trials_used": len(rows),
        }
    top_rows = _untruncated(records, n_max)
    matched = [r for r in top_rows if "lambda_rate" in r]
    lambda_track = {"subsample": len(matched)}
    if matched:
        deg_rates = [r["log_deg_rate"] for r in matched]
        lam_rates = [r["lambda_rate"] for r in matched]
        lambda_track.update(
            {
                "mean_log_deg_rate": stats.mean(deg_rates),
                "mean_lambda_rate": stats.mean(lam_rates),
                "gap": abs(stats.mean(deg_rates) - stats.mean(lam_rates)),
            }
        )
    total = sum(1 for r in records if r["n"] == n_max)
    truncated = sum(1 for r in records if r["n"] == n_max and r["truncated"])
    retried = sum(
        1
        for r in records
        if r["n"] == n_max and not r["truncated"] and r.get("prime_retries", 0) > 0
    )
    # the primes must agree on every composition, and a trial whose every
    # attempt met a disagreement (or another bad prime) is discarded
    discarded = sum(
        1
        for r in records
        if r["n"] == n_max and r.get("truncation_reason") == "discarded"
    )
    return {
        "per_n": per_n,
        "lambda_track": lambda_track,
        "truncated_fraction": truncated / total,
        "retried_trials": retried,
        "two_prime_agreement": (total - discarded) / total,
    }


# ---------------------------------------------------------------------------
# Exactness checks for the Cremona algebra (deterministic, no sampling).


def cremona_exactness(henon_power_budget: int = 6) -> ExperimentResult:
    """Exact composition identities: the quadratic involution squares to the
    identity, and the henon map's degree doubles under every power."""
    model = CremonaModel()
    sigma = model.sigma()
    records = []
    failures = []
    records.append({"trial": 0, "n": 0, "sigma_degree": sigma.degree})
    if sigma.degree != 2:
        failures.append(f"sigma degree {sigma.degree} != 2")
    square = model.multiply(sigma, sigma)
    records.append({"trial": 0, "n": 2, "sigma_square_degree": square.degree})
    if square != model.identity():
        failures.append("sigma squared is not the identity map")
    h = model.henon(2)
    power = h
    for n in range(1, henon_power_budget + 1):
        if n > 1:
            power = model.multiply(h, power)
        records.append({"trial": 1, "n": n, "henon_degree": power.degree})
        if power.degree != 2**n:
            failures.append(f"deg(henon^{n}) = {power.degree} != {2**n}")
    return _result(
        "cremona_exactness",
        {"henon_power_budget": henon_power_budget},
        0,
        records,
        failures=failures,
    )


def _aggregate_exactness(records, params):
    henon_rows = [r for r in records if "henon_degree" in r]
    return {
        "sigma_degree": next(r["sigma_degree"] for r in records if "sigma_degree" in r),
        "henon_degrees": [r["henon_degree"] for r in sorted(henon_rows, key=lambda r: r["n"])],
    }


# ---------------------------------------------------------------------------
# Measure description for reports.


def describe_measure(measure: FiniteMeasure) -> dict:
    return {
        "atoms": [
            {"tag": a.tag, "weight": str(a.weight)} for a in measure.atoms
        ],
        "symmetric": measure.symmetric,
        "reversible": measure.reversible,
        "bounded_displacement": measure.bounded_displacement,
        "attested_non_elementary": measure.attest_non_elementary,
        "attested_wpd": measure.attest_wpd,
    }


# ---------------------------------------------------------------------------
# Report name -> (aggregator, gate).  An aggregator maps (records, params) to
# the aggregates; a gate maps the aggregated result to its failures, or to
# None when the run gives no verdict.


REPORTS = {
    "drift": (_aggregate_drift, _gate_drift),
    "translation_growth": (_aggregate_translation, _gate_translation),
    "gromov_tail": (_aggregate_gromov_tail, _gate_gromov_tail),
    "shadow_decay": (_aggregate_shadow, _gate_shadow),
    "match_census_axis": (_aggregate_match_axis, _gate_match_axis),
    "match_census_non": (_aggregate_match_non, _gate_match_non),
    "match_census_self": (_aggregate_match_self, _gate_match_self),
    "stab_acylindricity": (_aggregate_stab, _gate_stab),
    "small_cancellation": (_aggregate_small_cancellation, _gate_small_cancellation),
    "characteristic_index": (_aggregate_char_index, _gate_char_index),
    "degree_growth": (_aggregate_degree_growth, _gate_degree_growth),
    # the identities are checked while composing; nothing is left to gate
    "cremona_exactness": (_aggregate_exactness, lambda result: []),
}
