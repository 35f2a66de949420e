"""Single index models: drawing data and measuring signal strength.

A single index model hides a sparse unit direction beta inside
y = f(x' beta, eps).  This demo builds the named model families, draws
synthetic samples, and estimates the per-model signal-strength constant
that controls how hard support recovery will be.
"""

import numpy as np

from sirsupport import ModelSpec, estimate_cv, generate_beta, sample_sim

# ---------------------------------------------------------------------------
# The five named links, evaluated at a few points.  Each maps the index
# u = x' beta (plus noise eps) to the response.
# ---------------------------------------------------------------------------
u = np.array([-2.0, 0.0, 1.0])
eps = np.zeros(3)
for link in ("linear", "sin_plus_identity", "atan2", "cubic", "sinh"):
    model = ModelSpec(link=link, noise_sd=1.0)
    print(f"{link:>18}: f(u, 0) = {np.round(model.response(u, eps), 4)}")

# A custom link works too: any callable of (u, eps).
bumpy = ModelSpec(link="custom", noise_sd=0.5, custom_link=lambda u, e: np.cos(u) + e)
print(f"{'custom cos':>18}: f(u, 0) = {np.round(bumpy.response(u, eps), 4)}")

# ---------------------------------------------------------------------------
# Sparse directions.  "fixed" puts +-1/sqrt(s) on the first s coordinates;
# "random_uniform" draws magnitudes from U(1/2, 1) and renormalizes, so the
# support is the same but the loadings vary with the seed.
# ---------------------------------------------------------------------------
beta = generate_beta(p=12, s=4, scheme="fixed", seed=0)
print("\nfixed direction:     ", np.round(beta.values, 4))
beta_r = generate_beta(p=12, s=4, scheme="random_uniform", seed=7)
print("random direction:    ", np.round(beta_r.values, 4))
print("support and signs:   ", beta_r.support, beta_r.signs()[list(beta_r.support)])

# ---------------------------------------------------------------------------
# Drawing a dataset.  Rows of x are i.i.d. standard Gaussian; y follows the
# chosen link.  The same seed always draws the same dataset.
# ---------------------------------------------------------------------------
model = ModelSpec(link="atan2", noise_sd=1.0)
data = sample_sim(model, beta, n=500, seed=42)
print(f"\ndataset: n={data.n}, p={data.p}, first response {data.y[0]:.4f}")

# ---------------------------------------------------------------------------
# Signal strength.  estimate_cv returns Var(E[Z | Y]) for scalar Z ~ N(0,1):
# the share of index variance that survives conditioning on the response.
# For the linear link with noise sigma it equals 1 / (1 + sigma^2) exactly,
# which makes a nice calibration check.
# ---------------------------------------------------------------------------
print("\nlink             sigma  estimated   closed form")
for sigma in (0.5, 1.0, 2.0):
    est = estimate_cv(ModelSpec(link="linear", noise_sd=sigma), mc_n=200_000, seed=0)
    print(f"linear           {sigma:4.1f}  {est:9.4f}   {1 / (1 + sigma ** 2):.4f}")

# The bounded links keep less of the signal; the cubic keeps more of it.
for link in ("sin_plus_identity", "atan2", "cubic", "sinh"):
    est = estimate_cv(ModelSpec(link=link, noise_sd=1.0), mc_n=200_000, seed=0)
    print(f"{link:<16} {1.0:4.1f}  {est:9.4f}   (no closed form)")
