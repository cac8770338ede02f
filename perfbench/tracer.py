"""Outside-in span tracing of dbnlab's layers.

The program has no instrumentation of its own, so the benchmark wraps the
public functions of each layer from here.  A module that did
``from .zeros import verify_all_real`` holds its own reference to the
function, so a function is replaced in every dbnlab module that binds it
by name, not only in the module that defines it; otherwise those calls
would bypass the wrapper.

Each call becomes a span ``[name, parent, start, end, error, n_evals]`` kept
in memory; ``write_spans`` writes them out after the timed part, and
``layer_metrics`` turns one run's spans into the per-layer metrics.
"""

import functools
import json
import sys
import time

#: (module, attribute, span name) of every traced entry point
TARGETS = (
    ("dbnlab.numerics", "integrate_adaptive", "numerics.integrate_adaptive"),
    ("dbnlab.numerics", "eval_H_density_parts", "numerics.eval_H_density_parts"),
    ("dbnlab.numerics", "eval_xi_reference", "numerics.eval_xi_reference"),
    ("dbnlab.measures", "eval_H_parts", "measures.eval_H_parts"),
    ("dbnlab.zeros", "verify_all_real", "zeros.verify_all_real"),
    ("dbnlab.zeros", "locate_zeros", "zeros.locate_zeros"),
    ("dbnlab.zeros", "locate_real_zeros", "zeros.locate_real_zeros"),
    ("dbnlab.zeros", "count_zeros", "zeros.count_zeros"),
    ("dbnlab.estimator", "bisect_lambda", "estimator.bisect_lambda"),
    ("dbnlab.estimator", "lehmer_lower_bound", "estimator.lehmer_lower_bound"),
    ("dbnlab.cli", "command_surface", "cli.command_surface"),
)

NAME, PARENT, START, END, ERROR, N_EVALS = range(6)

QUAD = "numerics.eval_H_density_parts"
INTEGRATE = "numerics.integrate_adaptive"
EVAL = "measures.eval_H_parts"
VERDICT = "zeros.verify_all_real"
LOCATE = "zeros.locate_zeros"
AXIS = "zeros.locate_real_zeros"
COUNT = "zeros.count_zeros"
NUDGE = "zeros.Rectangle.nudged"
BISECT = "estimator.bisect_lambda"

#: unit of every per-layer metric, in report order; counts repeat exactly
UNITS = {
    "numerics.quad_evals": "count",
    "numerics.integrand_evals": "count",
    "numerics.quad_self_s": "s",
    "numerics.quad_failed": "count",
    "numerics.density_nodes": "count",
    "numerics.density_cache_hit_ratio": "ratio",
    "numerics.xi_ref_calls": "count",
    "numerics.xi_ref_s": "s",
    "measures.evals_closed": "count",
    "measures.evals_quad": "count",
    "measures.closed_self_s": "s",
    "measures.closed_us_per_eval": "us",
    "zeros.verdicts": "count",
    "zeros.verdict_s": "s",
    "zeros.evals_per_verdict": "evals/verdict",
    "zeros.axis_evals": "count",
    "zeros.axis_scan_s": "s",
    "zeros.double_zero_checks": "count",
    "zeros.double_zero_s": "s",
    "zeros.contour_evals": "count",
    "zeros.edge_integrals": "count",
    "zeros.edge_failed": "count",
    "zeros.nudges": "count",
    "zeros.probe_evals": "count",
    "zeros.locate_s": "s",
    "estimator.bisections": "count",
    "estimator.verdicts_per_bisection": "verdicts/bisect",
    "estimator.bisect_self_s": "s",
    "estimator.lehmer_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

#: spans that own the transform evaluations made directly under them
_EVAL_OWNERS = {INTEGRATE, VERDICT, LOCATE, AXIS, COUNT}


class Tracer:
    """Span recorder; ``install`` swaps the wrappers into the dbnlab modules."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if name == INTEGRATE:
                rec[N_EVALS] = out[2]
            return out

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "dbnlab" or k.startswith("dbnlab.")]
        for home, attr, name in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        rect = sys.modules["dbnlab.zeros"].Rectangle
        rect.nudged = self.wrap(NUDGE, rect.nudged)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "error": s[ERROR],
                }) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, density_cache=None):
    """Per-layer counts and times of one run, from its spans.

    A span's self time is its duration minus the time covered by child spans
    of another layer, so ``numerics.quad_self_s`` keeps the adaptive
    integration it runs while ``estimator.bisect_self_s`` drops the verdicts.
    A transform evaluation is a top-level ``eval_H_parts`` call (recursion
    for multiplied measures is not counted twice); it belongs to the nearest
    enclosing edge integral, axis scan, location, count or verdict.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        lay = _layer(spans[i][NAME])
        return dur(i) - sum(dur(c) for c in children[i] if _layer(spans[c][NAME]) != lay)

    def has_quad(i):
        return any(spans[c][NAME] == QUAD or has_quad(c) for c in children[i])

    def owner(i):
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in _EVAL_OWNERS:
            p = spans[p][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def inside(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    evals = [i for i in named(EVAL) if parent_name(i) != EVAL]
    quad = [i for i in evals if has_quad(i)]
    closed = [i for i in evals if not has_quad(i)]
    closed_s = sum(self_time(i) for i in closed)
    owners = [owner(i) for i in evals]
    edges = [i for i in named(INTEGRATE) if parent_name(i) != QUAD]
    verdicts = named(VERDICT)
    verdict_evals = sum(1 for i in evals if inside(i, VERDICT))
    double_checks = [i for i in named(LOCATE) if parent_name(i) == AXIS]
    bisections = named(BISECT)

    m = {
        "numerics.quad_evals": len(named(QUAD)),
        "numerics.integrand_evals": sum(
            spans[i][N_EVALS] for i in named(INTEGRATE) if parent_name(i) == QUAD
        ),
        "numerics.quad_self_s": sum(self_time(i) for i in named(QUAD)),
        "numerics.quad_failed": sum(1 for i in named(QUAD) if spans[i][ERROR]),
        "numerics.xi_ref_calls": len(named("numerics.eval_xi_reference")),
        "numerics.xi_ref_s": sum(dur(i) for i in named("numerics.eval_xi_reference")),
        "measures.evals_closed": len(closed),
        "measures.evals_quad": len(quad),
        "measures.closed_self_s": closed_s,
        "measures.closed_us_per_eval": 1e6 * closed_s / len(closed) if closed else 0.0,
        "zeros.verdicts": len(verdicts),
        "zeros.verdict_s": sum(dur(i) for i in verdicts),
        "zeros.evals_per_verdict": verdict_evals / len(verdicts) if verdicts else 0.0,
        "zeros.axis_evals": owners.count(AXIS),
        "zeros.axis_scan_s": sum(
            dur(i) - sum(dur(c) for c in children[i] if spans[c][NAME] == LOCATE)
            for i in named(AXIS)
        ),
        "zeros.double_zero_checks": len(double_checks),
        "zeros.double_zero_s": sum(dur(i) for i in double_checks),
        "zeros.contour_evals": owners.count(INTEGRATE),
        "zeros.edge_integrals": len(edges),
        "zeros.edge_failed": sum(1 for i in edges if spans[i][ERROR] == "QuadratureError"),
        "zeros.nudges": len(named(NUDGE)),
        "zeros.probe_evals": sum(owners.count(o) for o in (VERDICT, LOCATE, COUNT)),
        "zeros.locate_s": sum(dur(i) for i in named(LOCATE) if parent_name(i) == VERDICT),
        "estimator.bisections": len(bisections),
        "estimator.verdicts_per_bisection": (
            sum(1 for i in verdicts if parent_name(i) == BISECT) / len(bisections)
            if bisections else 0.0
        ),
        "estimator.bisect_self_s": sum(self_time(i) for i in bisections),
        "estimator.lehmer_s": sum(dur(i) for i in named("estimator.lehmer_lower_bound")),
        "cli.overhead_s": sum(self_time(i) for i in named("cli.command_surface")),
    }
    if density_cache is not None:
        lookups = density_cache.hits + density_cache.misses
        m["numerics.density_nodes"] = density_cache.currsize
        m["numerics.density_cache_hit_ratio"] = density_cache.hits / lookups if lookups else 0.0
    return m
