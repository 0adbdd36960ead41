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

The per-trial experiments run through one runner, ``_sampled``.  It adds the
trial count and the measure to the params; folds the trials of a tree
measure, or walks those of any other once each; splits the trials into
``jobs`` worker blocks; and aggregates and gates the rows.  An entry point
gives it only its params, tolerances and observers: ``tree(value, n)`` reads
what the fold gives at mark n (by default the reduced word w_n; the
characteristic index folds the image in Aut of the kernel instead),
``walk(path, n)`` the sampled path, and each returns only its row's fields,
which the runner stores after ``trial`` and ``n``.  Only shadow decay (one
stream per (m, chunk)) samples its own way.  Every entry point checks the
argument values of each call, from a config run or from Python alike, before
any walk, and raises ``ParamError`` named by the argument it rejects.
"""

from __future__ import annotations

import inspect
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, wraps
from numbers import Integral, Real
from types import NoneType, UnionType
from typing import get_args

import numpy as np

from . import stats
from . import words as W
from .cremona import CremonaModel, dynamical_degree_estimate
from .errors import InputError, ParamError, ResourceError, is_int
from .finitegroups import closure
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
# Argument checks: a config run and a direct call meet the same ones.

#: Params that count trials, samples, steps, match letters or powers, and
#: grids of them: each must be at least 1, and a grid must be nonempty and
#: name each entry once (the aggregators key their rows by the entry).
_COUNTS = ("trials", "samples", "chunk", "n", "L", "tau_budget", "henon_power_budget")
_GRIDS = ("n_grid", "m_grid", "s_grid")

#: The annotated argument types a check names, by their JSON names, and the
#: abstract type a numeric one accepts from a direct call.
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", NoneType: "null"}
_ABSTRACT = {int: Integral, float: Real}


def _check_arguments(arguments: dict, parameters) -> None:
    """Raise ``ParamError(key, reason)`` unless every float in ``arguments``
    is finite (a NaN or infinite tolerance would pass every gate), every
    count an integer >= 1, every grid a nonempty list (or tuple) of distinct
    ones, and every argument whose annotation in ``parameters`` names only
    types of ``_JSON_NAMES`` has one of them (a ``numbers.Integral`` is an
    integer, a ``numbers.Real`` a number, a bool neither).  None passed
    where the default is None is an optional argument left out."""
    given = {
        k: v for k, v in arguments.items() if v is not None or parameters[k].default is not None
    }
    for key, value in given.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ParamError(key, "must be a finite number")
    for key in _COUNTS:
        if key in given and not is_int(given[key], 1):
            raise ParamError(key, "must be an integer >= 1")
    for key in _GRIDS:
        grid = given.get(key)
        if key in given and not (
            isinstance(grid, (list, tuple)) and grid and all(is_int(v, 1) for v in grid)
        ):
            raise ParamError(key, "must be a nonempty list of integers >= 1")
        if key in given and len(set(grid)) < len(grid):
            raise ParamError(key, "must not repeat an entry")
    for key, value in arguments.items():
        annotation = parameters[key].annotation
        kinds = get_args(annotation) if isinstance(annotation, UnionType) else (annotation,)
        if all(kind in _JSON_NAMES for kind in kinds):
            allowed = tuple(_ABSTRACT.get(kind, kind) for kind in kinds)
            if not isinstance(value, allowed) or isinstance(value, bool):
                reason = " or ".join(_JSON_NAMES[kind] for kind in kinds)
                raise ParamError(key, f"must be {reason}")


def _checked(entry):
    """The entry point ``entry``, running :func:`_check_arguments` on the
    arguments of each call before any walk."""
    signature = inspect.signature(entry, eval_str=True)

    @wraps(entry)
    def checked(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        _check_arguments(arguments, signature.parameters)
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


def _sampled(
    name, measure, marks, seed, trials, jobs, params, tolerances=None,
    tree=None, walk=None, fold=None,
):
    """The per-trial experiment ``name``: ``trials`` trials of ``measure``,
    read at the sorted ``marks``, in ``jobs`` blocks, then aggregated and
    gated; ``params`` gains the trial count and the measure.

    A tree measure folds its trials a block at a time through ``fold`` (by
    default to the reduced words w_n) and reads ``tree(block, n)``, one
    column per field, off each mark's folded block; any other walks each
    trial once and reads ``walk(path, n)`` off the path.  An observer
    returns only its rows' fields: the row is ``{"trial": t, "n": n,
    **fields}``.  Observers and folds are module-level functions or
    partials of them, so that a block pickles.
    """
    params = {**params, "trials": trials, "measure": describe_measure(measure)}
    if _is_tree(measure):
        block = partial(_tree_trial_rows, measure, marks, seed, observe=tree, fold=fold)
    else:
        block = partial(_walk_trial_rows, measure, marks, seed, observe=walk)
    return _result(name, params, seed, _run_trials(block, trials, jobs), tolerances)


def _truncated(reason) -> dict:
    """The fields of a row cut short, for ``reason``."""
    return {"truncated": True, "truncation_reason": reason}


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
# Tree experiments: trials fold in blocks, by default through
# walk.fold_words, and an observer reads each mark's folded block once.


# Trials folded as one block.  fold_words holds a (block x n) index array and
# the block's stacks at once, so a run's fold memory stops growing with its
# trial count past this many trials.
_FOLD_TRIALS = 2000

# The first window of positions _symmetric_prefixes compares; the symmetric
# prefix of a random walk's word is rarely longer.
_PROBE = 8


def _tree_trial_rows(measure, marks, seed, first, stop, observe, fold=None) -> list:
    """Fold trials first..stop-1, at most ``_FOLD_TRIALS`` together.

    A block's (trials x steps) atom indices are drawn in one call, and
    ``fold(indices, marks)`` returns one folded block per mark, by default
    ``fold_words``'s ``(stack, length)``.  ``observe(block, n)`` returns
    one column per field, a value per trial of the block; the row of a
    trial at mark n holds its values, and rows come back trial-major.
    """
    fold = fold or partial(fold_words, measure)
    marks = sorted(set(marks))
    rows = []
    for lo in range(first, stop, _FOLD_TRIALS):
        trials = range(lo, min(lo + _FOLD_TRIALS, stop))
        indices = measure.increment_indices(marks[-1], seed, trials)
        per_mark = []
        for n, block in zip(marks, fold(indices, marks)):
            columns = observe(block, n)
            per_mark.append(
                (n, [dict(zip(columns, values)) for values in zip(*columns.values())])
            )
        del indices  # the rows below need only the observed fields
        for row, trial in enumerate(trials):
            for n, fields in per_mark:
                rows.append({"trial": trial, "n": n, **fields[row]})
    return rows


def _each_word(observe, block, n) -> dict:
    """The block observer of a word observer ``observe(word, n)``: it reads
    each row's reduced word w_n off ``fold_words``'s block as a tuple."""
    stack, length = block
    found = [
        observe(tuple(stack[row, :size].tolist()), n)
        for row, size in enumerate(length.tolist())
    ]
    return {field: [fields[field] for fields in found] for field in found[0]}


def _symmetric_prefixes(stack, length) -> np.ndarray:
    """Per row of ``fold_words``'s block, the symmetric Gromov product of
    the reduced word w: its common prefix length with w^-1, the number of
    leading i < |w|/2 with w[i] = -w[|w|-1-i].

    The positions are compared a window at a time, starting with
    ``_PROBE`` of them; only the rows that match through a window go on to
    the next, which ends twice as far."""
    prefix = np.zeros(len(length), dtype=np.int64)
    rows = np.flatnonzero(length >= 2)
    start, stop = 0, _PROBE
    while len(rows):
        live = length[rows, None]
        half = live // 2
        at = np.arange(start, min(stop, stack.shape[1] // 2))
        mirror = np.maximum(live - 1 - at, 0)
        matched = (at < half) & (stack[rows[:, None], at] == -stack[rows[:, None], mirror])
        ended = ~matched.all(axis=1)
        prefix[rows] = start + np.where(ended, (~matched).argmax(axis=1), len(at))
        rows = rows[~ended & (start + len(at) < half[:, 0])]
        start, stop = stop, 2 * stop
    return prefix


def _sym_gp_of_word(block, n) -> dict:
    """The symmetric Gromov product of each reduced word w_n: the common
    prefix length of w and w^-1."""
    return {"sym_gp": _symmetric_prefixes(*block).tolist()}


def _is_tree(measure: FiniteMeasure) -> bool:
    return isinstance(measure.oracle, FreeGroupOracle)


def _require_tree(measure: FiniteMeasure, experiment: str) -> None:
    """Reject, before any walk, a measure on a model other than the trees."""
    if not _is_tree(measure):
        raise InputError(f"{experiment} runs on the tree models")


# ---------------------------------------------------------------------------
# Other models (Cremona and monomial maps): each trial walks once through
# walk.sample_path, and an observer reads the path at each mark.


def _walk_trial_rows(measure, marks, seed, first, stop, observe) -> list:
    """Walk trials first..stop-1 once each, to the last of the sorted
    ``marks``, keeping the endpoints at every mark.  The row at mark n holds
    ``observe(path, n)``, or the walk's truncation when it was cut before
    step n (every mark of a discarded trial); rows come back trial-major."""
    rows = []
    for trial in range(first, stop):
        path = sample_path(measure, marks[-1], seed, trial, marks=marks)
        for n in marks:
            if path.truncated_at is not None and n > path.truncated_at:
                fields = _truncated(path.truncation_reason)
            else:
                fields = observe(path, n)
            rows.append({"trial": trial, "n": n, **fields})
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
        fields = {
            "d": d,
            "sym_gp": gromov_product(
                d, model.displacement(winv), model.pairwise_distance(w, winv)
            ),
            "truncated": False,
        }
        if tau_budget is not None:
            fields["tau"] = model.translation_length_estimate(w, tau_budget)
        return fields

    try:
        fields = at_trial_primes(
            path.oracle, path.seed, path.trial, observe, used=path.prime_retries
        )
    except ResourceError:
        return _truncated("degree_cap")
    return fields[0] if fields is not None else _truncated("bad_prime")


# ---------------------------------------------------------------------------
# Drift.


@_checked
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
        raise ParamError(
            "trials", f"drift estimation needs at least {DRIFT_MIN_TRIALS}"
        )
    return _sampled(
        "drift", measure, [n], seed, trials, jobs, {"n": n, "expected": expected},
        {"mean_abs_error": tolerance}, tree=_obs_tree_displacement, walk=_obs_degree,
    )


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


def _obs_tree_displacement(block, n) -> dict:
    return {"d": block[1].tolist()}


def _obs_degree(path, n) -> dict:
    degree = path.endpoints[n][0].degree
    return {
        "truncated": False,
        "d": path.displacements[n],
        "log_deg": math.log(degree),
        "degree": degree,
        "prime_retries": path.prime_retries,
    }


# ---------------------------------------------------------------------------
# Translation length growth.


@_checked
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
    params = {"n_grid": marks}
    if not _is_tree(measure):  # the trees skip the budgeted estimate
        params["tau_budget"] = tau_budget
    return _sampled(
        "translation_growth", measure, marks, seed, trials, jobs, params,
        {"drift_gap": drift_tolerance},
        tree=_obs_tree_translation, walk=partial(_obs_endpoint, tau_budget),
    )


def _obs_tree_translation(block, n) -> dict:
    """d(x, w_n x), the exact translation length and the symmetric Gromov
    product of each reduced word w_n: w = p c p^-1 for the cyclically
    reduced core c and |p| the symmetric Gromov product, so tau = |w| - 2 |p|."""
    length = block[1]
    sym_gp = _symmetric_prefixes(*block)
    tau = length - 2 * sym_gp
    return {"d": length.tolist(), "tau": tau.tolist(), "sym_gp": sym_gp.tolist()}


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


@_checked
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
        raise ParamError("epsilon", "must lie in (0, 1)")
    marks = sorted(n_grid)
    return _sampled(
        "gromov_tail", measure, marks, seed, trials, jobs,
        {"n_grid": marks, "epsilon": epsilon}, {"tail_threshold": threshold},
        tree=_sym_gp_of_word, walk=partial(_obs_endpoint, None),
    )


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


@_checked
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
        raise ParamError("settle_steps", "must be >= 0")
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
    if slope is None:
        failures.append("no decay slope: fewer than two m with positive frequency")
    elif abs(slope - target_slope) > slope_rtol * abs(target_slope):
        failures.append(
            f"fitted decay slope {slope:.4f} deviates more than "
            f"{slope_rtol * 100:g}% from {target_slope:.4f}"
        )
    return failures


# ---------------------------------------------------------------------------
# Matching census (axis matches, non-matches, self matches).


@_checked
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
    if not 0 < self_match_fraction <= 0.5:
        # two disjoint segments of that fraction of n fit only up to 1/2
        raise ParamError("self_match_fraction", "must lie in (0, 1/2]")
    needs = {
        "axis": {"axis_core": axis_core, "n": n},
        "non": {"n": n},
        "self": {"n_grid": n_grid},
    }
    if kind not in needs:
        raise ParamError("kind", f"unknown matching census kind {kind!r}")
    for key, value in needs[kind].items():
        if value is None:
            raise ParamError(key, f"{kind} matching needs it")
    if kind == "axis":
        core = tuple(axis_core)
        if W.translation_length(core) == 0:
            raise ParamError("axis_core", "must be loxodromic (a nonempty cyclic core)")
        marks = [n]
        params = {"n": n, "L": L, "axis_core": W.word_to_str(core)}
        tolerances = {"axis_threshold": axis_threshold}
        factors = W.periodic_factors(W.cyclic_reduce(core)[1], L)
        observe = partial(_obs_factor_match, {"match": W.FactorCodes(factors)})
    elif kind == "non":
        s_grid = sorted(s_grid)
        if pattern_length < s_grid[-1]:
            # pattern[:s] would be the whole, shorter pattern
            raise ParamError(
                "pattern_length",
                f"{pattern_length} is shorter than the largest s in s_grid "
                f"({s_grid[-1]})",
            )
        pattern = _fixed_test_pattern(measure, pattern_length, seed)
        marks = [n]
        params = {"n": n, "pattern": W.word_to_str(pattern), "s_grid": s_grid}
        tolerances = {"non_match_threshold": non_match_threshold}
        patterns = {
            f"pattern_s{s}": W.FactorCodes({pattern[:s], W.invert(pattern[:s])})
            for s in s_grid
        }
        observe = partial(_obs_factor_match, patterns)
    else:
        marks = sorted(n_grid)
        params = {"n_grid": marks, "self_match_fraction": self_match_fraction}
        tolerances = {}
        observe = partial(_obs_self_match, self_match_fraction)
    return _sampled(
        f"match_census_{kind}", measure, marks, seed, trials, jobs,
        {"kind": kind, **params}, tolerances, tree=partial(_each_word, observe),
    )


def _fixed_test_pattern(measure, length: int, seed: int) -> tuple:
    """A fixed random reduced word over all 2 * rank letters of the
    measure's oracle, drawn from the trial-(2^32) stream so it never
    collides with walk trials."""
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


def _obs_factor_match(fields, word, step) -> dict:
    """Per field's :class:`~hypwalk.words.FactorCodes`, the words encoded
    once per run, 1 when the geodesic word holds one of them, else 0: the
    axis factors for kind "axis", a prefix of the test pattern and its
    reversed inverse for kind "non".  The geodesic word is encoded once for
    all fields."""
    data, width = W.letter_bytes(word)
    return {name: int(codes.held_in(data, width)) for name, codes in fields.items()}


def _obs_self_match(fraction, word, step) -> dict:
    return {"self_match": int(W.self_match_detect(word, max(1, int(fraction * step))))}


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


@_checked
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
    if K < 0:
        raise ParamError("K", "must be >= 0")
    if not 0 < quantile <= 1:
        raise ParamError("quantile", "must lie in (0, 1]")
    torsion = measure.oracle.torsion_order
    marks = sorted(n_grid)
    params = {"K": K, "n_grid": marks, "quantile": quantile, "torsion_order": torsion}
    return _sampled(
        "stab_acylindricity", measure, marks, seed, trials, jobs, params,
        tree=partial(
            _each_word, partial(_obs_census, K, measure.oracle.rank, torsion, census_cap)
        ),
    )


def _obs_census(K, rank, torsion_order, cap, word, step) -> dict:
    return {"census": stab_census(word, K, rank, torsion_order, cap=cap)}


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


@_checked
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
    return _sampled(
        "small_cancellation", measure, [n], seed, trials, jobs,
        {"n": n, "epsilon": epsilon, "A": A}, {"pass_threshold": pass_threshold},
        tree=partial(_each_word, partial(_obs_certificate, A, epsilon)),
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


@_checked
def characteristic_index_experiment(
    measure: FiniteMeasure,
    n_grid,
    trials: int,
    seed: int,
    frequency_tolerance: float = 0.03,
    jobs: int = 1,
) -> ExperimentResult:
    """The finite-kernel homomorphism under the random walk.

    Reports the characteristic index k (order of the image of the support's
    conjugation action inside Aut of the kernel), the per-n frequency of the
    walk's image being trivial (limit 1/k by equidistribution on the image
    group), and whether k = 1 coincides with the kernel being central.
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

    atom_images = [oracle.conjugation_on_kernel(a.element) for a in measure.atoms]
    elements, table = _image_table(atom_images, oracle.torsion_group)
    k = len(elements)
    kernel_central = oracle.torsion_group.is_abelian() and all(
        phi.images == tuple(range(oracle.torsion_group.order))
        for phi in atom_images
    )
    params = {
        "n_grid": marks,
        "characteristic_index": k,
        "kernel_central": kernel_central,
        "expected_trivial_frequency": 1.0 / k,
    }
    result = _sampled(
        "characteristic_index", measure, marks, seed, trials, jobs, params,
        {"frequency_tolerance": frequency_tolerance},
        tree=_obs_image_trivial, fold=partial(_table_fold, table),
    )
    # the runner returns rows trial-major; report.json lists them n-major
    result.records.sort(key=lambda r: (r["n"], r["trial"]))
    return result


def _image_table(atom_images, kernel):
    """The image group H of the support inside Aut(kernel), as image tuples
    with the identity first, and its Cayley table against the atoms:
    ``table[state, atom]`` is the index of the composition state . atom."""
    elements = closure(atom_images, kernel)
    index_of = {phi: i for i, phi in enumerate(elements)}
    table = np.zeros((len(elements), len(atom_images)), dtype=np.int64)
    for s, phi in enumerate(elements):
        for a, gen in enumerate(atom_images):
            table[s, a] = index_of[tuple(phi[v] for v in gen.images)]
    return elements, table


def _table_fold(table, indices, marks) -> list:
    """Each row's image at each mark, as its row in ``table``: the image
    starts at row 0 (the identity), and step j moves it to
    ``table[image, indices[:, j]]``."""
    image = np.zeros(len(indices), dtype=table.dtype)
    images = []
    for start, stop in zip([0, *marks], marks):
        for step in range(start, stop):
            image = table[image, indices[:, step]]
        images.append(image)
    return images


def _obs_image_trivial(image, n) -> dict:
    return {"image_trivial": (image == 0).astype(int).tolist()}


def _aggregate_char_index(records, params):
    per_n = {}
    for n in params["n_grid"]:
        trivial = [r["image_trivial"] for r in records if r["n"] == n]
        per_n[str(n)] = {"trivial_frequency": stats.mean(trivial)}
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
    if (k == 1) != result.params["kernel_central"]:
        failures.append(
            "characteristic index 1 must coincide with a central kernel"
        )
    return failures


# ---------------------------------------------------------------------------
# Cremona degree growth.


@_checked
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
    if iterate_budget is not None and iterate_budget < 2:
        raise ParamError("iterate_budget", "the dynamical-degree budget must be >= 2")
    marks = sorted(n_grid)
    params = {
        "n_grid": marks,
        "iterate_budget": iterate_budget,
        "degree_cap": model.degree_cap,
        "lambda_degree_bound": lambda_degree_bound,
    }
    return _sampled(
        "degree_growth", measure, marks, seed, trials, jobs, params,
        {"gap_tolerance": gap_tolerance},
        walk=partial(_obs_degree_growth, iterate_budget, lambda_degree_bound),
    )


def _obs_degree_growth(iterate_budget, lambda_degree_bound, path, n) -> dict:
    degree = path.endpoints[n][0].degree
    row = {
        "truncated": False,
        "degree": degree,
        "log_deg_rate": math.log(degree) / n,
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
    subsample."""
    if budget is None:
        return None, "disabled"
    final_degree = path.final.degree
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
    return math.log(est[0].value) / path.n, None


def _aggregate_degree_growth(records, params):
    per_n = {}
    for n in params["n_grid"]:
        at_n = [r for r in records if r["n"] == n]
        rows = [r for r in at_n if not r["truncated"]]
        rates = [r["log_deg_rate"] for r in rows]
        per_n[str(n)] = {
            "mean_log_deg_rate": stats.mean(rates) if rates else None,
            "rate_se": stats.standard_error(rates) if rates else None,
            "trials_used": len(rows),
        }
    # n_grid is sorted: at_n and rows are left holding the last mark's rows
    matched = [r for r in rows if "lambda_rate" in r]
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
    total = len(at_n)
    truncated = total - len(rows)
    retried = sum(1 for r in rows if r.get("prime_retries", 0) > 0)
    # the primes must agree on every composition, and a trial whose every
    # attempt met a disagreement (or another bad prime) is discarded
    discarded = sum(1 for r in at_n if r.get("truncation_reason") == "discarded")
    return {
        "per_n": per_n,
        "lambda_track": lambda_track,
        "truncated_fraction": truncated / total,
        "retried_trials": retried,
        "two_prime_agreement": (total - discarded) / total,
    }


# ---------------------------------------------------------------------------
# Exactness checks for the Cremona algebra (deterministic, no sampling).


@_checked
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
