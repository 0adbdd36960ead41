"""Spans around the library's layer boundaries, recorded from outside.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that records a span (name, start, end, parent) in memory.  A
function is replaced everywhere it is looked up: ``cremona`` binds
``substitute`` by ``from .polynomials import ...``, so patching
``hypwalk.polynomials.substitute`` alone would miss every call from
``cremona``.  The wrapper therefore replaces the function in every loaded
``hypwalk`` module that holds it, and methods on their class.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


def _gcd_nontrivial(result) -> int:
    return int(result.degree > 0)


#: span name -> (module, attribute or Class.method, outcome counters).
#: An outcome counter maps a call's result to a number summed per pass.
TARGETS = {
    "walk.increment_indices": ("hypwalk.walk", "FiniteMeasure.increment_indices", {}),
    "walk.sample_path": ("hypwalk.walk", "sample_path", {}),
    "words.translation_length": ("hypwalk.words", "translation_length", {}),
    "words.self_match_detect": ("hypwalk.words", "self_match_detect", {}),
    "freegroup.fellow_traveling_delta": (
        "hypwalk.freegroup", "fellow_traveling_delta", {}
    ),
    "freegroup.stab_census": ("hypwalk.freegroup", "stab_census", {}),
    "cremona.multiply": ("hypwalk.cremona", "CremonaModel.multiply", {}),
    "cremona.inverse": ("hypwalk.cremona", "CremonaModel.inverse", {}),
    "cremona.power": ("hypwalk.cremona", "CremonaModel.power", {}),
    "polynomials.substitute": (
        "hypwalk.polynomials", "substitute", {"out_terms": lambda r: r.num_terms()}
    ),
    "polynomials.normalize_triple": ("hypwalk.polynomials", "normalize_triple", {}),
    "polynomials.gcd3": (
        "hypwalk.polynomials", "gcd3", {"nontrivial": _gcd_nontrivial}
    ),
    "polynomials.coprimality_certificate": (
        "hypwalk.polynomials", "coprimality_certificate", {"hit": bool}
    ),
    "polynomials.divexact": (
        "hypwalk.polynomials", "divexact", {"none": lambda r: r is None}
    ),
    "config.build_measure": ("hypwalk.config", "build_measure", {}),
    "cli.write_outputs": ("hypwalk.cli", "write_outputs", {}),
}

#: The experiment entry points the workloads reach through ``run_config``;
#: all are recorded as one span name, the ``experiments`` layer.
EXPERIMENT_ENTRIES = (
    "gromov_tail",
    "match_census",
    "stab_acylindricity",
    "small_cancellation_experiment",
    "degree_growth_experiment",
)

#: Per-layer metrics, each "<span>.<statistic>".  Statistics: calls, self_s,
#: total_s (inclusive), p50_s and max_s (per call), and for an outcome
#: counter its sum and its share of calls (<counter>_frac).
LAYER_METRICS = (
    "walk.increment_indices.calls",
    "walk.increment_indices.self_s",
    "walk.sample_path.calls",
    "walk.sample_path.self_s",
    "walk.sample_path.p50_s",
    "experiments.calls",
    "experiments.self_s",
    "words.translation_length.calls",
    "words.translation_length.self_s",
    "words.self_match_detect.calls",
    "words.self_match_detect.self_s",
    "freegroup.fellow_traveling_delta.calls",
    "freegroup.fellow_traveling_delta.self_s",
    "freegroup.stab_census.calls",
    "freegroup.stab_census.self_s",
    "cremona.multiply.calls",
    "cremona.multiply.total_s",
    "cremona.inverse.calls",
    "cremona.inverse.total_s",
    "cremona.power.calls",
    "cremona.power.total_s",
    "cremona.power.max_s",
    "polynomials.substitute.calls",
    "polynomials.substitute.self_s",
    "polynomials.substitute.out_terms",
    "polynomials.normalize_triple.calls",
    "polynomials.normalize_triple.self_s",
    "polynomials.gcd3.calls",
    "polynomials.gcd3.self_s",
    "polynomials.gcd3.nontrivial_frac",
    "polynomials.coprimality_certificate.calls",
    "polynomials.coprimality_certificate.self_s",
    "polynomials.coprimality_certificate.hit_frac",
    "polynomials.divexact.calls",
    "polynomials.divexact.self_s",
    "polynomials.divexact.none_frac",
    "config.build_measure.calls",
    "config.build_measure.self_s",
    "config.build_measure.total_s",
    "cli.write_outputs.calls",
    "cli.write_outputs.self_s",
)


def _unit(metric: str) -> str:
    statistic = metric.rsplit(".", 1)[1]
    if statistic.endswith("_s"):
        return "s"
    if statistic.endswith("_frac"):
        return "1"
    return "bytes" if statistic.endswith("bytes") else "count"


#: Every metric of a traced run, with its unit: the layer metrics, the
#: report size, and the traced pass time and its excess over an untraced one.
UNITS = {
    metric: _unit(metric)
    for metric in [*LAYER_METRICS, "cli.report_bytes", "trace.wall_s", "trace.overhead_s"]
}

#: metric -> workloads on which it must count calls > 0: the workloads whose
#: end-to-end figures that layer is expected to move.
ASSIGNED = {
    "walk.increment_indices.calls": ["tree-fold"],
    "walk.sample_path.calls": ["cremona-mixed", "cremona-henon"],
    "experiments.calls": ["tree-fold", "tree-geodesic", "cremona-mixed", "cremona-henon"],
    "words.translation_length.calls": ["tree-geodesic"],
    "words.self_match_detect.calls": ["tree-geodesic"],
    "freegroup.fellow_traveling_delta.calls": ["tree-geodesic"],
    "freegroup.stab_census.calls": ["tree-geodesic"],
    "cremona.multiply.calls": ["cremona-mixed", "cremona-henon"],
    "cremona.inverse.calls": ["cremona-mixed", "cremona-henon"],
    "cremona.power.calls": ["cremona-mixed"],
    "polynomials.substitute.calls": ["cremona-mixed", "cremona-henon"],
    "polynomials.normalize_triple.calls": ["cremona-mixed", "cremona-henon"],
    "polynomials.gcd3.calls": ["cremona-mixed", "cremona-henon"],
    # gcd3 skips the certificate when a component is a monomial after the
    # common monomial content is divided out; on the Henon walk it never
    # reaches it.
    "polynomials.coprimality_certificate.calls": ["cremona-mixed"],
    "polynomials.divexact.calls": ["cremona-mixed", "cremona-henon"],
    "config.build_measure.calls": ["tree-fold", "tree-geodesic", "cremona-mixed", "cremona-henon"],
    "cli.write_outputs.calls": ["tree-fold", "tree-geodesic", "cremona-mixed", "cremona-henon"],
}


class Tracer:
    """Records spans while installed; restores every original on removal."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, outcomes):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, outcome in outcomes.items():
                counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + outcome(result)
            return result

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        targets = [(name, *spec) for name, spec in TARGETS.items()]
        targets += [("experiments", "hypwalk.experiments", e, {}) for e in EXPERIMENT_ENTRIES]
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "hypwalk"]
        for name, module, attribute, outcomes in targets:
            owner = sys.modules[module]
            if "." in attribute:
                cls, method = attribute.split(".")
                owner = getattr(owner, cls)
                self._patch(owner, method, self._wrap(name, getattr(owner, method), outcomes))
                continue
            original = getattr(owner, attribute)
            traced = self._wrap(name, original, outcomes)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, traced)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def span_stats(spans, counters) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s, p50_s, max_s and counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list] = {}
    self_time: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - children)
    stats = {}
    for name, times in durations.items():
        entry = {
            "calls": len(times),
            "total_s": sum(times),
            "self_s": self_time[name],
            "p50_s": statistics.median(times),
            "max_s": max(times),
        }
        prefix = name + "."
        for key, value in counters.items():
            if key.startswith(prefix):
                counter = key[len(prefix):]
                entry[counter] = value
                entry[f"{counter}_frac"] = value / len(times)
        stats[name] = entry
    return stats


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every LAYER_METRICS value for one pass; 0 for a layer not reached."""
    stats = span_stats(spans, counters)
    values = {}
    for metric in LAYER_METRICS:
        span, statistic = metric.rsplit(".", 1)
        values[metric] = stats.get(span, {}).get(statistic, 0)
    return values


def write_spans(spans, path) -> None:
    """One line per span: pass, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        out.write("pass,name,start,end,parent\n")
        for pass_index, pass_spans in enumerate(spans):
            for name, start, end, parent in pass_spans:
                out.write(f"{pass_index},{name},{start:.9f},{end:.9f},{parent}\n")
