"""The three benchmark workloads: seeded inputs, the timed op, and the
per-op output checks against independent oracles.

Inputs are drawn with numpy (and scipy for the GH returns) from the
workload seed, never with meanex's own samplers, so a change to meanex
cannot change its own inputs. ``tail-report`` uses numpy only, so that
the harness itself never loads ``scipy.stats`` there.

Each op calls meanex only through ``api``, a mapping from
"module.function" to a callable, so a traced run can put a span around
every call the benchmark makes into the library. Files an op writes
stay in the work directory, which the worker empties after each op.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
from datetime import date, timedelta

import numpy as np

# The warm-up op is the same op at about a tenth of the size, on inputs
# that do not depend on --seed: it pays imports and first-use costs, and
# keeps setup_s cheap enough to measure several times per run.
WARMUP_SEED = 20150921
DESIGN_SEED = 20150922  # fixes the pairing of parameter strata, see _stratified


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _stratified(seed: int, index: int, count: int, key: int, lo: float, hi: float) -> float:
    """Op ``index`` of ``count`` gets its own stratum of [lo, hi) (a Latin
    hypercube over the op list), so that each run covers the whole range.
    Which stratum of each parameter goes to which op is fixed; the seed
    only places the value inside its stratum. The cost of a GH op depends
    on how its parameters combine (family, alpha, beta, delta), so a
    seed-drawn pairing made the work per run differ by seed by more than
    the metrics' bounds."""
    perm = np.random.default_rng(np.random.SeedSequence(entropy=DESIGN_SEED, spawn_key=(count, key)))
    jitter = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(count, key)))
    return float(lo + (hi - lo) * (perm.permutation(count)[index] + jitter.random(count)[index]) / count)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(api, argv) -> str:
    """Run meanex's CLI in-process; return its stdout, raise on exit != 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api["cli.main"](argv)
    if code != 0:
        raise RuntimeError(f"meanex {argv[0]} exited with {code}")
    return buf.getvalue()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class McProtocol:
    """The paper's Monte Carlo reference protocols on one seed per op."""

    name = "mc-protocol"
    item = "draws"
    op_multiple = 1
    nominal_op_s = 2.3  # seconds per op on the reference machine
    SIZES = (100, 1000, 10000)
    REPS = (6000, 500, 50, 1000)  # stallion exp, coverage, convergence, stallion NIG
    WARM_REPS = (300, 50, 5, 50)
    items_per_op = REPS[0] * 4000 + REPS[1] * 4000 + REPS[2] * sum(SIZES) + REPS[3] * 4000

    def make_input(self, seed: int, index: int, count: int, workdir: str, warm: bool = False) -> dict:
        from scipy import stats

        rng = _rng(seed, index)
        alpha = rng.uniform(1.5, 3.0)
        nig = dict(alpha=alpha, beta=alpha * rng.uniform(-0.3, 0.3), delta=rng.uniform(0.5, 1.5), mu=0.0)
        law = stats.genhyperbolic(p=-0.5, a=nig["alpha"] * nig["delta"], b=nig["beta"] * nig["delta"],
                                  loc=nig["mu"], scale=nig["delta"])
        return {
            "reps": self.WARM_REPS if warm else self.REPS,
            "seeds": [int(s) for s in rng.integers(0, 2**31, size=4)],
            "exp_grid": np.linspace(-math.log(0.99), math.log(100.0), 200),
            "nig": nig,
            "nig_grid": np.linspace(float(law.ppf(0.01)), float(law.isf(0.01)), 200),
        }

    def run(self, inp: dict, api) -> dict:
        exp1 = api["distributions.make_spec"]("exponential", **{"lambda": 1.0})
        nig = api["distributions.make_spec"]("gh", **{"lambda": -0.5}, **inp["nig"])
        s1, s2, s3, s4 = inp["seeds"]
        r1, r2, r3, r4 = inp["reps"]
        stall = api["montecarlo.stallion"](exp1, n_reps=r1, sample_size=4000,
                                           grid=api["types.make_grid"](inp["exp_grid"]), seed=s1)
        cov = api["montecarlo.coverage_experiment"](
            exp1, 0.0, 1.0, api["mef.band_constants"](0.0, 1.0, A=1.0, A1=1.0),
            sample_size=4000, n_reps=r2, seed=s2, oracle=True)
        conv = api["montecarlo.convergence_experiment"](exp1, u1=math.log(10.0), sizes=self.SIZES,
                                                        n_reps=r3, seed=s3)
        nig_stall = api["montecarlo.stallion"](nig, n_reps=r4, sample_size=4000,
                                               grid=api["types.make_grid"](inp["nig_grid"]), seed=s4)
        return {"stallion": stall, "coverage": cov, "convergence": conv, "nig": nig_stall}

    def check(self, inp: dict, out: dict):
        from scipy import stats

        fails = []
        level = np.asarray(out["stallion"].curve.values)[:100]
        worst = float(np.max(np.abs(level - 1.0)))
        if not worst <= 0.05:
            fails.append(f"exp stallion level off 1/lambda by {worst:.4g} on the lower grid")
        cov = dict(out["coverage"].metrics)["coverage"]
        if not cov >= 0.95:
            fails.append(f"coverage {cov:.4g} < 0.95")
        meds = [v for _, v in out["convergence"].metrics]
        if not all(a > b for a, b in zip(meds, meds[1:])):
            fails.append(f"convergence medians do not decrease: {meds}")
        p = inp["nig"]
        law = stats.genhyperbolic(p=-0.5, a=p["alpha"] * p["delta"], b=p["beta"] * p["delta"],
                                  loc=p["mu"], scale=p["delta"])
        curve = np.asarray(out["nig"].curve.values)
        for i in (20, 80, 140):
            u = float(inp["nig_grid"][i])
            truth = law.expect(lambda x: x - u, lb=u, conditional=True)
            if not _rel(float(curve[i]), truth) <= 0.02:
                fails.append(f"NIG stallion at u={u:.6g}: {curve[i]:.8g} vs scipy {truth:.8g}")
        return fails, {}


class GhCompare:
    """One GH model fit overlay (``meanex compare``) plus E|X| per op."""

    name = "gh-compare"
    item = "thresholds"
    nominal_op_s = 4.7
    items_per_op = 101
    op_multiple = 3  # one op per family in turn
    ROWS = 5000

    def make_input(self, seed: int, index: int, count: int, workdir: str, warm: bool = False) -> dict:
        from scipy import stats

        rng = _rng(seed, index)
        draw = functools.partial(_stratified, seed, index, count)
        # NIG, hyperbolic, then an interior lambda stratified over the interior ops
        lam = (-0.5, 1.0, None)[index % 3]
        if lam is None:
            lam = _stratified(seed, index // 3, count // 3, 0, -2.0, 2.0)
        alpha = draw(1, 30.0, 120.0)
        params = dict(alpha=alpha, beta=alpha * draw(2, -0.2, 0.2), delta=draw(3, 0.005, 0.02),
                      mu=draw(4, -5e-4, 5e-4))
        law = stats.genhyperbolic(p=lam, a=params["alpha"] * params["delta"],
                                  b=params["beta"] * params["delta"], loc=params["mu"],
                                  scale=params["delta"])
        r = law.rvs(size=self.ROWS // 10 if warm else self.ROWS, random_state=rng)
        close = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r))))
        opn = np.concatenate(([100.0], close[:-1]))
        high = np.maximum(opn, close) * np.exp(np.abs(rng.normal(0.0, 0.002, close.size)))
        low = np.minimum(opn, close) * np.exp(-np.abs(rng.normal(0.0, 0.002, close.size)))
        vol = rng.integers(1000, 1_000_000, close.size)
        day0 = date(1990, 1, 1)
        lines = ["date,open,high,low,close,volume"]
        for t in range(close.size):
            lines.append(f"{(day0 + timedelta(days=t)).isoformat()},{opn[t]:.17g},{high[t]:.17g},"
                         f"{low[t]:.17g},{close[t]:.17g},{vol[t]}")
        data = os.path.join(workdir, f"ohlcv-{index}.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        body = ",".join(f"{k}={v!r}" for k, v in
                        (("lambda", lam), ("alpha", params["alpha"]), ("beta", params["beta"]),
                         ("delta", params["delta"]), ("mu", params["mu"])))
        # the warm-up skips dist_mean_abs: its nested quadrature costs 3-5 s on
        # any spec and pays no first-use cost that compare has not paid
        return {"data": data, "dist": f"gh({body})", "law": (lam, params), "grid": "11" if warm else "101",
                "mean_abs": not warm, "csv": os.path.join(workdir, f"compare-{index}.csv"),
                "svg": os.path.join(workdir, f"compare-{index}.svg")}

    def run(self, inp: dict, api) -> dict:
        printed = _cli(api, ["compare", "--data", inp["data"], "--dist", inp["dist"], "--log-returns",
                             "--grid", inp["grid"], "--csv", inp["csv"], "--svg", inp["svg"]])
        if not inp["mean_abs"]:
            return {"printed": printed}
        spec = api["distributions.parse_distribution_spec"](inp["dist"])
        return {"printed": printed, "mean_abs": api["distributions.dist_mean_abs"](spec)}

    def check(self, inp: dict, out: dict):
        from scipy import stats

        fails = []
        lam, p = inp["law"]
        law = stats.genhyperbolic(p=lam, a=p["alpha"] * p["delta"], b=p["beta"] * p["delta"],
                                  loc=p["mu"], scale=p["delta"])
        table = np.loadtxt(inp["csv"], delimiter=",", skiprows=1)
        u, e_data, e_model = table[:, 0], table[:, 1], table[:, 2]
        for i in (0, 50, 100):
            truth = law.expect(lambda x: x - u[i], lb=u[i], conditional=True)
            if not _rel(e_model[i], truth) <= 1e-8:
                fails.append(f"model mef at u={u[i]:.6g}: {e_model[i]:.12g} vs scipy {truth:.12g}")
        mabs = law.expect(lambda x: x, lb=0.0) - law.expect(lambda x: x, ub=0.0)
        if not _rel(out["mean_abs"], mabs) <= 1e-5:
            fails.append(f"dist_mean_abs {out['mean_abs']:.12g} vs scipy {mabs:.12g}")
        lines = [ln for ln in out["printed"].splitlines() if ln.startswith("sup_deviation = ")]
        sup = float(np.max(np.abs(e_data - e_model)))
        if len(lines) != 1:
            fails.append("compare printed no sup_deviation line")
        elif not abs(float(lines[0].split("=")[1]) - sup) <= 1e-11 * max(np.max(np.abs(table[:, 1:])), sup):
            fails.append(f"printed {lines[0]!r} but the CSV gives {sup:.12g}")
        return fails, {"compare.csv": _sha256(inp["csv"])}


class TailReport:
    """emef, band and fit-gpd on one long GPD series, plus the curve's
    pointwise asymptotic variance."""

    name = "tail-report"
    item = "values"
    op_multiple = 1
    nominal_op_s = 4.5
    N = 200_000
    XI = 0.25
    U1 = 5.0
    items_per_op = N

    def make_input(self, seed: int, index: int, count: int, workdir: str, warm: bool = False) -> dict:
        rng = _rng(seed, index)
        n = self.N // 10 if warm else self.N
        # GPD(xi, beta=1) by inversion of F_bar(x) = (1 + xi x)^(-1/xi)
        x = ((1.0 - rng.random(n)) ** (-self.XI) - 1.0) / self.XI
        series = os.path.join(workdir, f"series-{index}.txt")
        with open(series, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(repr, x.tolist())) + "\n")  # repr round-trips exactly
        files = {k: os.path.join(workdir, f"{k}-{index}.{ext}") for k, ext in
                 (("emef", "csv"), ("emef_svg", "svg"), ("band", "csv"), ("band_svg", "svg"),
                  ("fit", "csv"))}
        return {"series": series, "values": x, "files": files,
                "thresholds": np.quantile(x, np.linspace(0.01, 0.99, 10 if warm else 100)),
                "probe": rng.integers(0, n - 1, size=20)}

    def run(self, inp: dict, api) -> dict:
        f = inp["files"]
        _cli(api, ["emef", inp["series"], "--csv", f["emef"], "--svg", f["emef_svg"]])
        _cli(api, ["band", inp["series"], "--u0", "0", "--u1", repr(self.U1),
                   "--csv", f["band"], "--svg", f["band_svg"]])
        printed = _cli(api, ["fit-gpd", inp["series"], "--csv", f["fit"]])
        sample = api["types.make_sample"](inp["values"])
        avar = [api["mef.asymptotic_variance"](sample, float(u)) for u in inp["thresholds"]]
        return {"printed": printed, "avar": np.asarray(avar)}

    def check(self, inp: dict, out: dict):
        fails = []
        f = inp["files"]
        x = inp["values"]
        grid = np.unique(x)[:-1]  # the order-statistics grid
        emef = np.loadtxt(f["emef"], delimiter=",", skiprows=1)
        if emef.shape[0] != grid.size:
            fails.append(f"emef has {emef.shape[0]} rows for {grid.size} grid points")
        else:
            for k in inp["probe"] % grid.size:
                u = grid[k]
                truth = float(np.mean(x[x > u] - u))
                if not (_rel(emef[k, 0], u) <= 1e-11 and abs(emef[k, 1] - truth) <= 1e-8 + 1e-9 * truth):
                    fails.append(f"emef at u={u:.12g}: {emef[k, 1]:.12g} vs numpy {truth:.12g}")
        band = np.loadtxt(f["band"], delimiter=",", skiprows=1)
        e, lo, hi = band[:, 1], band[:, 2], band[:, 3]
        asym = np.max(np.abs((hi - e) - (e - lo)))
        if not asym <= 1e-10 * max(1.0, float(np.max(np.abs(band[:, 1:])))):
            fails.append(f"band not symmetric about the curve (max gap {asym:.3g})")
        fit = dict(ln.split(" = ") for ln in out["printed"].splitlines() if " = " in ln)
        xi = float(fit.get("xi_hat", "nan"))
        if not abs(xi - self.XI) <= 0.05 or fit.get("tail") != "heavy":
            fails.append(f"fit-gpd gave xi_hat={xi:.6g} tail={fit.get('tail')}")
        n = x.size
        for u, got in zip(inp["thresholds"], out["avar"]):
            exc = x[x > u]
            truth = float(np.var(exc)) / (exc.size / n)  # Var(X | X>u) / P(X>u)
            if not _rel(got, truth) <= 1e-8:
                fails.append(f"asymptotic_variance at u={u:.6g}: {got:.12g} vs {truth:.12g}")
                break
        return fails, {f"{k}.csv": _sha256(f[k]) for k in ("emef", "band", "fit")}


WORKLOADS = {w.name: w for w in (McProtocol(), GhCompare(), TailReport())}
