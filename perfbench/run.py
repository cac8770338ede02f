"""dbnlab benchmark: time to a checked solution, per workload.

Usage, from the root of a dbnlab checkout:

    python3 perfbench/run.py --workload phi_verdict --seed 1 --seconds 42 --trace 0

Workloads are defined in ``workloads.py`` and explained in ``README.md``.
A run first times the set-up alone in a few fresh interpreters, then
repeats the workload, each repetition in a fresh interpreter with the same
seeded inputs, until the next repetition would overrun ``--seconds`` (at
least one repetition, two with tracing).  It prints a host record and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs the first repetition untraced and the rest
with every layer wrapped (``tracer.py``), and reports the per-layer metrics
as medians over the traced repetitions, plus the tracing overhead.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracer  # noqa: E402  (imports no dbnlab module)

WORKLOADS = ("phi_verdict", "bisect_closed", "offender_locate")
SCRATCH = ".perfbench_tmp"
SPANS = ".perfbench_spans"
#: set-up-only interpreters per run, so that setup_s is a median of several
SETUPS = 5
#: a run must exit within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _host():
    import mpmath

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_before": _loadavg(),
    }


def _child(args, started, *extra):
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--tmp", SCRATCH, *extra,
    ]
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(budget, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("repetition failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in ("src/dbnlab/__init__.py", "tests/data/xi_zeros_100.txt")
               if not os.path.isfile(f)]
    if missing:
        raise SystemExit("not a dbnlab checkout (missing %s); run from its root"
                         % ", ".join(missing))
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(SPANS, exist_ok=True)
    spans = os.path.join(SPANS, "%s-%d.jsonl" % (args.workload, args.seed))

    host = _host()
    started = time.perf_counter()
    setups = [_child(args, started, "--setup-only") for _ in range(SETUPS)]
    untraced, traced, longest = [], [], 0.0
    while True:
        elapsed = time.perf_counter() - started
        enough = len(untraced) + len(traced) >= 1 + args.trace
        if enough and elapsed + longest > args.seconds:
            break
        t = time.perf_counter()
        if args.trace and untraced:
            traced.append(_child(args, started, "--trace", "1", "--spans", spans))
        else:
            untraced.append(_child(args, started))
        longest = max(longest, time.perf_counter() - t)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    host["loadavg_after"] = _loadavg()
    host["repetitions"] = {"untraced": len(untraced), "traced": len(traced)}
    host["wall_s_each"] = {"untraced": [r["wall_s"] for r in untraced],
                           "traced": [r["wall_s"] for r in traced]}

    reps = untraced + traced
    ops = [op for r in reps for op in r["ops"]]
    failed = sum(1 for op in ops if op["status"] != "ok")
    answers = {json.dumps([(op["name"], op["output"]) for op in r["ops"]]) for r in reps}
    # every repetition, traced or not, must give the same checked answers
    correct = len(answers) == 1 and not any(op["status"] == "wrong" for op in ops)
    for op in ops:
        if op["status"] != "ok":
            sys.stderr.write("%(name)s %(status)s: %(output)s %(detail)s\n" % op)
    print(json.dumps({"host": host, "ops": reps[0]["ops"]}))

    if args.trace:
        layers = [r["layers"] for r in traced]
        # a metric whose source is gone (a deleted cache) is left out
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in tracer.UNITS if k in layers[0]}
        metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
        units = tracer.UNITS
    else:
        metrics = {
            "wall_s": _median(reps, "wall_s"),
            "setup_s": _median(setups + reps, "setup_s"),
            "peak_rss_mb": _median(reps, "peak_rss_mb"),
            "pass_ratio": (len(ops) - failed) / len(ops),
        }
        units = E2E_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
