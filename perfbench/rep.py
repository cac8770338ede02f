"""One repetition of a workload in a fresh interpreter.

Run from the root of a dbnlab checkout by ``perfbench/run.py``; prints one
JSON object.  A fresh interpreter per repetition starts every module-level
``lru_cache`` cold, as it is for each ``dbnlab`` command a user runs.

Set-up (importing dbnlab, building contexts, measures, windows and measure
files) is timed apart from the job.  With ``--trace 1`` the layers are
wrapped after set-up and the spans are written to ``--spans`` after the
timed part.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

_t0 = time.perf_counter()
sys.path.insert(0, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--tmp", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import workloads

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmpdir:
        job = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        setup_s = time.perf_counter() - _t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        t1 = time.perf_counter()
        ops = job()
        wall_s = time.perf_counter() - t1

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [vars(op) for op in ops],
    }
    if tracer is not None:
        cache = getattr(sys.modules["dbnlab.measures"], "_density_value_cached", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        out["layers"] = tracing.layer_metrics(tracer.spans, info)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
