"""
The generalized hyperbolic family in five silhouettes
=====================================================

"""

# one five-parameter density nests hyperbolic, NIG, variance gamma and
# Student-like shapes, and near-Gaussian ones as alpha and delta grow;
# lam picks the subfamily, alpha/beta set tail weight and skew, delta
# scales, mu shifts. Limit classes sit at exact values: skew-Laplace
# needs delta = 0, and any delta > 0 is a hyperbolic law
import numpy as np
from meanex import GhParams, gh_pdf, gh_validate, gh_sample, gh_mean, gh_variance

rows = [
    ("hyperbolic", GhParams(1.0, 1.5, -0.5, 0.75, 0.2)),
    ("nig", GhParams(-0.5, 8.03, -1.37, 0.051, 0.0105)),
    ("student-like", GhParams(-2.0, 1e-8, 0.0, 2.0, 0.0)),
    ("cauchy limit", GhParams(-0.5, 0.0, 0.0, 1.0, 7.0)),
    ("skew-laplace", GhParams(1.0, 1.1, 0.1, 0.0, 2.0)),
]
for name, p in rows:
    print(f"{name:13s} classified as {gh_validate(p)}")

# density silhouettes on a shared axis, each standardized by its own scale
from meanex import svg_plot, line_series, PlotSpec, write_text

series = []
for name, p in rows[:3]:
    x = np.linspace(p.mu - 6 * max(p.delta, 0.1), p.mu + 6 * max(p.delta, 0.1), 400)
    series.append(line_series(name, x - p.mu, gh_pdf(p, x)))
svg = svg_plot(series, PlotSpec(title="GH densities, centered", xlabel="x - mu", ylabel="pdf"))
write_text("demos/gh_family_tour.svg", svg)
print("wrote demos/gh_family_tour.svg")

# sampling goes through the normal mean-variance mixture; moments close
p = rows[0][1]
rng = np.random.default_rng(0)
draws = gh_sample(p, rng, 200000)
print("sample mean", float(np.mean(draws)), "model mean", gh_mean(p))
print("sample var ", float(np.var(draws)), "model var ", gh_variance(p))
