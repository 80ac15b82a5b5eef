"""meanex benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {mc-protocol,gh-compare,tail-report}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The library is imported from ``src/``;
nothing is installed. Each workload runs in its own worker process, a
closed loop with one caller and ``MEANEX_THREADS`` unset (serial).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
over ``SETUP_REPS`` fresh worker processes of the time from launch to
the end of the warm-up op; ``wall_ref_s`` is the timed wall time of the
fixed op list: ``ceil(S / nominal op time)`` ops, rounded up to whole
rounds of the workload's op rotation, so that the amount of work does
not depend on the speed of the code under test. The ``_ref`` metrics
scale each op's wall time by the host's speed next to it, as timed by
``worker.reference_s``, to the reference machine's typical speed; the
unscaled ``wall_s``, ``op_p50_s`` and throughput are printed as notes.

``--trace 1`` profiles one round of ops of every workload, each in its
own fresh process with the module-boundary tracer, so that each
per-layer metric is measured on the workload it is named after
(``<workload>.<layer metric>``) whichever workload is asked for. The
tracing overhead of a round is its number of traced calls times the
cost of one traced call, timed in the same process. It also runs the
pool and import probes. Spans are written to
``.bench_out/trace-<workload>-seed<N>.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
COLD_IMPORT_REPS = 3


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes against one deadline and collects results."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("MEANEX_THREADS", None)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("deadline exceeded")
        return left

    def _spawn(self, argv):
        left = self._remaining()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        timer = threading.Timer(left, proc.kill)
        timer.start()
        return proc, timer

    def worker(self, workload: str, phase: str, ops: int = 1, trace_out: str | None = None):
        """Run one worker; return (seconds from launch to @@READY, result)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--phase", phase, "--seed", str(self.seed), "--ops", str(ops), "--src", SRC,
                "--workdir", self.workdir]
        if trace_out:
            argv += ["--trace-out", trace_out]
        t0 = time.perf_counter()
        proc, timer = self._spawn(argv)
        ready, result = None, None
        try:
            for line in proc.stdout:
                if line.startswith("@@READY"):
                    ready = time.perf_counter() - t0
                elif line.startswith("@@RESULT "):
                    result = json.loads(line[len("@@RESULT "):])
                else:
                    sys.stderr.write(line)
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or result is None:
            raise BenchError(f"worker phase={phase} exited with {code}")
        return ready, result

    def cold_import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import meanex; print(time.perf_counter() - t)"
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, capture_output=True,
                             text=True, timeout=self._remaining(), check=True)
        return float(out.stdout.strip())


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(runner: Runner, wl, ops: int):
    ready, res = runner.worker(wl.name, "run", ops)
    setups = [ready] + [runner.worker(wl.name, "setup")[0] for _ in range(SETUP_REPS - 1)]
    wall = sum(res["durations"])
    ref = [d * s for d, s in zip(res["durations"], res["scales"])]
    wall_ref = sum(ref)
    items = wl.items_per_op * len(ref)
    metrics = {
        "setup_s": (_median(setups), "s"),
        "wall_ref_s": (wall_ref, "s"),
        "op_p50_ref_s": (_median(ref), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "items_per_ref_s": (items / wall_ref if wall_ref > 0 else 0.0, "1/s"),
    }
    notes = {
        "ops": res["ops"],
        "failed_frac": res["failed"] / res["ops"],
        "wall_s": wall,
        "op_p50_s": _median(res["durations"]),
        f"{wl.item}_per_s": items / wall if wall > 0 else 0.0,
        "speed_factor_p50": _median(res["scales"]),
        "setup_samples_s": setups,
        "scipy_stats_loaded": res["scipy_stats_loaded"],
        "csv_sha256": res["digests"],
    }
    return metrics, notes, res["ops"], res["failed"], res["failures"]


def per_layer(runner: Runner, probe_workload: str, layer_names):
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    found = {}
    notes = {"trace_overhead_frac": {}, "traced_calls": {}, "overhead_per_call_us": {}, "self_time_share": {},
             "scipy_stats_loaded": {}, "trace_files": []}
    attempted = failed = 0
    failures = []
    for wl in WORKLOADS.values():
        trace_out = os.path.join(ROOT, ".bench_out", f"trace-{wl.name}-seed{runner.seed}.json")
        _, res = runner.worker(wl.name, "traced", wl.op_multiple, trace_out)
        found.update({f"{wl.name}.{k}": v for k, v in res["trace"].items()})
        traced_wall = sum(res["durations"])
        overhead = res["traced_calls"] * res["overhead_per_call_s"]
        found[f"{wl.name}.trace.overhead_s"] = overhead
        found[f"{wl.name}.scipy_stats_loaded"] = res["scipy_stats_loaded"]
        if traced_wall > overhead:
            notes["trace_overhead_frac"][wl.name] = overhead / (traced_wall - overhead)
        notes["traced_calls"][wl.name] = res["traced_calls"]
        notes["overhead_per_call_us"][wl.name] = res["overhead_per_call_s"] * 1e6
        notes["self_time_share"][wl.name] = {
            k[:-len(".self_s")]: round(v / traced_wall, 4)
            for k, v in sorted(res["trace"].items()) if k.endswith(".self_s") and traced_wall > 0}
        notes["scipy_stats_loaded"][wl.name] = res["scipy_stats_loaded"]
        notes["trace_files"].append(os.path.relpath(trace_out, ROOT))
        attempted += res["ops"]
        failed += res["failed"]
        failures += [f"{wl.name} {msg}" for msg in res["failures"]]
    _, probe = runner.worker(probe_workload, "probe")
    found["montecarlo.stallion_1worker_s"] = probe["stallion_1worker_s"]
    found["montecarlo.stallion_2workers_s"] = probe["stallion_2workers_s"]
    found["import.meanex_s"] = _median([runner.cold_import_s() for _ in range(COLD_IMPORT_REPS)])
    attempted += 1
    failed += bool(probe["failures"])
    failures += probe["failures"]
    # a layer that a workload no longer calls has no spans and reads 0
    metrics = {name: (found.get(name, 0), unit) for name, unit in layer_names}
    return metrics, notes, attempted, failed, failures


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="meanex benchmark (see the module docstring)")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meanex", "__init__.py")):
        print(f"error: no meanex source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(SRC, "meanex"), quiet=1):
        print("error: meanex source does not compile", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    rounds = math.ceil(math.ceil(args.seconds / wl.nominal_op_s) / wl.op_multiple)
    ops = wl.op_multiple * max(1, rounds)
    workdir = os.path.join(ROOT, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args.seed, workdir)
    try:
        if args.trace:
            names = [(m["name"], m["unit"]) for m in _spec()["per_layer"]]
            metrics, notes, attempted, failed, failures = per_layer(runner, wl.name, names)
        else:
            metrics, notes, attempted, failed, failures = end_to_end(runner, wl, ops)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# meanex benchmark: workload={wl.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in notes.items():
        print(f"# {name} = {json.dumps(value)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
