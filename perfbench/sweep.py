"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --sets 1-10 [11-20 ...] [--workloads a,b]
                               [--trace 0] [--seconds S] [--out FILE]

Each ``--sets`` item is one set of seeds. The sets run interleaved, seed
by seed and workload by workload, so that a slow stretch of the machine
hits every set alike. For every set, workload and end-to-end (or, with
--trace 1, per-layer) metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the inter-quartile
spread as a share of the median next to the metric's bound from
BENCHMARK.json. With two or more sets it also prints by how much each
set's median is worse than the first set's, against the bound.
``--out`` writes the runs and the summaries, with machine info and the
git SHA, as JSON (this is how ``baseline.json`` is made).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _machine() -> dict:
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    versions = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout.split()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0] if versions else None,
        "scipy": versions[1] if len(versions) > 1 else None,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _summary(values, bound):
    """Median, quartiles and spread of one metric; None for a single run."""
    if len(values) < 2:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    row = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        row["bound"] = bound
        row["spread_ok"] = spread is not None and spread <= bound / 3
    return row


def _worse(med, ref, better):
    """By how much ``med`` is worse than ``ref``, as a share of ``ref``."""
    if not ref:
        return None
    return (med - ref) / ref if better == "lower" else (ref - med) / ref


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", nargs="+", default=["1-10"], help="one seed list per set, e.g. 1-10 11-20")
    p.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    sets = [{"seeds": _seeds(text), "runs": {wl: [] for wl in workloads}} for text in args.sets]
    for k in range(max(len(s["seeds"]) for s in sets)):
        for wl in workloads:
            for j, s in enumerate(sets):
                if k >= len(s["seeds"]):
                    continue
                seed = s["seeds"][k]
                cmd = [*spec["command"], "--workload", wl, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{wl} seed {seed}: exit {proc.returncode}")
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                result["seed"] = seed
                notes = (ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# ") and " = " in ln)
                result["notes"] = {k: json.loads(v) for k, v in notes if k != "csv_sha256"}
                s["runs"][wl].append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {j} {wl} seed={seed} correct={result['correct']} {values}", flush=True)
    for j, s in enumerate(sets):
        s["summary"] = {}
        for wl in workloads:
            s["summary"][wl] = {}
            for m in metric_specs:
                values = [r["metrics"][m["name"]]["value"] for r in s["runs"][wl]]
                row = _summary(values, m.get("bound"))
                s["summary"][wl][m["name"]] = row
                if row is None:
                    continue
                flag = "" if "bound" not in row else f"  bound {row['bound']}  {'ok' if row['spread_ok'] else 'WIDE'}"
                spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
                print(f"  set {j} {wl:12s} {m['name']:40s} median {row['median']:.6g}  spread {spread}{flag}")
    agreement = {}
    for wl in workloads:
        agreement[wl] = {}
        for m in metric_specs:
            rows = [s["summary"][wl][m["name"]] for s in sets[1:]]
            ref = sets[0]["summary"][wl][m["name"]]
            if ref is None or not rows or any(r is None for r in rows):
                continue
            worse = [_worse(r["median"], ref["median"], m["better"]) for r in rows]
            agreement[wl][m["name"]] = worse
            bound = m.get("bound")
            if bound is not None and None not in worse:
                flag = "ok" if all(abs(w) <= bound for w in worse) else "APART"
                shown = ", ".join(f"{w:+.4f}" for w in worse)
                print(f"  sets 1.. vs 0 {wl:12s} {m['name']:32s} worse by {shown}  bound {bound}  {flag}")
    if args.out:
        doc = {"machine": _machine(), "seconds": seconds, "trace": args.trace, "interleaved": True,
               "sets": sets, "worse_than_set_0": agreement}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
