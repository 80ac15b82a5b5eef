"""One workload process of the meanex benchmark.

Started by ``run.py``; not meant to be run by hand. Phases:

    setup   import meanex, make the warm-up inputs, run the (reduced) warm-up op,
            print ``@@READY`` and exit
    run     as setup, then run the fixed op list untraced: fresh inputs
            per op (untimed), the op (timed) between two timings of
            the reference kernel, its output checks (untimed)
    traced  as run, with the module-boundary tracer installed; then
            time the tracer's cost per wrapped call
    probe   time stallion with MEANEX_THREADS at 1 and 2 and compare
            the two curves bitwise

The last line on stdout is ``@@RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer, call_overhead_s  # noqa: E402
from workloads import WARMUP_SEED, WORKLOADS  # noqa: E402


class Api(dict):
    """"module.function" -> meanex callable, wrapped in a span when traced."""

    def __init__(self, tracer: Tracer | None):
        super().__init__()
        self.tracer = tracer

    def __missing__(self, key):
        import importlib

        module, func = key.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"meanex.{module}"), func)
        if self.tracer is not None:
            fn = self.tracer.wrap(module, key, fn)
        self[key] = fn
        return fn


def _import_meanex(src: str):
    sys.path.insert(0, src)
    import meanex

    if not os.path.abspath(meanex.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"meanex was imported from {meanex.__file__}, not from {src}")
    return meanex


def _emit(tag: str, payload=None) -> None:
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _timed_op(run, inp, api, tracer):
    """Run one op; only this interval is timed and traced."""
    if tracer:
        tracer.active = True
    try:
        t0 = time.perf_counter()
        out = run(inp, api)
        return time.perf_counter() - t0, out
    finally:
        if tracer:
            tracer.active = False


# Median time of one reference_s() call on the reference machine (2 vCPUs,
# Python 3.11.7, numpy 2.4.6). Its value only fixes the unit of the
# "_ref" metrics: seconds at that machine's typical speed.
REFERENCE_S = 0.30
_REF_FLOATS = np.random.default_rng(0).random(100_000)
_REF_TEXT = np.random.default_rng(1).random(20_000).tolist()


def reference_s() -> float:
    """Time a fixed kernel that does not touch meanex: an interpreted
    float loop, numpy sort and transcendentals, and float <-> text, on
    small inputs so that it adds little to the worker's peak memory. The
    host changes speed by up to a quarter over minutes and this kernel
    slows with it, so an op timed between two of these calls can be
    scaled to the reference speed (see ``run_ops``)."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(480_000):
        acc += math.sqrt(i) * 1.0000001
        seen[i & 1023] = acc
    for _ in range(75):
        a = np.sort(_REF_FLOATS.copy())
        acc += float(np.exp(-a).cumsum()[-1] + np.log1p(a).sum())
    for _ in range(4):
        text = "\n".join(map(repr, _REF_TEXT))
        acc += sum(float(x) for x in text.split())
    return time.perf_counter() - t0


def _empty(workdir: str) -> None:
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))


def run_ops(args, meanex) -> dict:
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.phase == "traced" else None
    rebound = tracer.install(meanex) if tracer else []
    api = Api(tracer)
    run = tracer.wrap("bench", "bench.op", wl.run) if tracer else wl.run
    wl.run(wl.make_input(WARMUP_SEED, 0, 1, args.workdir, warm=True), api)
    _empty(args.workdir)
    _emit("READY")
    if args.phase == "setup":
        return {}
    # untraced ops are timed between two reference_s() calls; the op's
    # speed factor is REFERENCE_S over their mean
    durations, scales, failures, digests, failed = [], [], [], [], 0
    for i in range(args.ops):
        inp = wl.make_input(args.seed, i, args.ops, args.workdir)
        if tracer:
            tracer.op = i
        try:
            before = None if tracer else reference_s()
            seconds, out = _timed_op(run, inp, api, tracer)
            if not tracer:
                scales.append(2 * REFERENCE_S / (before + reference_s()))
            durations.append(seconds)
            fails, dig = wl.check(inp, out)
            digests.append(dig)
        except Exception:  # an op or check that raises counts as failed; keep measuring
            fails = [f"raised\n{traceback.format_exc()}"]
        _empty(args.workdir)
        failed += bool(fails)
        failures.extend(f"op {i}: {msg}" for msg in fails)
    result = {
        "ops": args.ops,
        "failed": failed,
        "failures": failures,
        "durations": durations,
        "scales": scales,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scipy_stats_loaded": int("scipy.stats" in sys.modules),
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["traced_calls"] = tracer.calls()
        result["overhead_per_call_s"] = call_overhead_s()
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": wl.name, "seed": args.seed, "ops": args.ops,
                                          "durations": durations, "rebound": rebound})
    return result


def run_probe(args, meanex) -> dict:
    from meanex.distributions import make_spec
    from meanex.montecarlo import stallion
    from meanex.types import make_grid

    exp1 = make_spec("exponential", **{"lambda": 1.0})
    grid = make_grid(np.linspace(-np.log(0.99), np.log(100.0), 200))
    stallion(exp1, n_reps=128, sample_size=4000, grid=grid, seed=args.seed)  # warm-up
    times, curves = {}, {}
    for workers in (1, 2):
        os.environ["MEANEX_THREADS"] = str(workers)
        t0 = time.perf_counter()
        res = stallion(exp1, n_reps=6000, sample_size=4000, grid=grid, seed=args.seed)
        times[workers] = time.perf_counter() - t0
        curves[workers] = np.asarray(res.curve.values).tobytes() + np.asarray(res.contributors).tobytes()
    del os.environ["MEANEX_THREADS"]
    same = curves[1] == curves[2]
    return {
        "stallion_1worker_s": times[1],
        "stallion_2workers_s": times[2],
        "failures": [] if same else ["stallion curves differ between 1 and 2 workers"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--phase", choices=["setup", "run", "traced", "probe"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, default=1)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    meanex = _import_meanex(args.src)
    if args.phase == "probe":
        result = run_probe(args, meanex)
    else:
        result = run_ops(args, meanex)
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
