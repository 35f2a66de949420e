"""Slice-mean moment matrices: where the support shows up.

Sorting the sample by the response and averaging x within consecutive
slices gives per-slice means that point roughly along beta.  Averaging
their outer products produces a p x p matrix whose large diagonal
entries mark the support.  This demo builds the raw, centered, and
whitened variants and shows the on/off-support diagonal separation.
"""

import numpy as np

from sirsupport import (
    Dataset,
    ModelSpec,
    generate_beta,
    inv_sqrt_sym,
    sample_sim,
    sir_matrix,
    sir_matrix_whitened,
    slice_data,
)

rng = np.random.default_rng(5)

# 2000 draws from a bounded, monotone model with a 4-sparse direction.
model = ModelSpec(link="atan2", noise_sd=1.0)
beta = generate_beta(p=10, s=4, scheme="fixed", seed=0)
data = sample_sim(model, beta, n=2000, seed=3)

# Slice into H=10 blocks of m=200 sorted rows each.
sliced = slice_data(data, h=10)
print(f"slices: H={sliced.h}, m={sliced.m}, dropped={sliced.dropped}")
print("slice means, first 3 rows:")
print(np.round(sliced.slice_means[:3], 3))

# ---------------------------------------------------------------------------
# Raw vs centered.  The centered variant subtracts the grand mean of the
# slice means first, which strips any response-independent offset and is
# invariant to shifting every x row by a constant.
# ---------------------------------------------------------------------------
v_raw = sir_matrix(sliced, "raw")
v_cen = sir_matrix(sliced, "centered")
on = list(beta.support)
off = [j for j in range(data.p) if j not in beta.support]
for label, v in (("raw", v_raw), ("centered", v_cen)):
    d = np.diag(v.v)
    print(
        f"{label:>8} diagonal: min on-support {d[on].min():.4f}  "
        f"max off-support {d[off].max():.4f}"
    )

shifted = Dataset(x=data.x + 7.0, y=data.y)
v_cen_shift = sir_matrix(slice_data(shifted, h=10), "centered")
print("centered matrix change under +7 shift:", np.abs(v_cen.v - v_cen_shift.v).max())

# ---------------------------------------------------------------------------
# Whitened.  When the design covariance is not the identity, conjugating
# the centered matrix by the inverse square root of the sample covariance
# restores the spiked structure.  Its spectrum does not depend on which
# invertible coordinate system the design was recorded in.
# ---------------------------------------------------------------------------
t = rng.standard_normal((10, 10)) + 2.0 * np.eye(10)
mixed = Dataset(x=data.x @ t, y=data.y)
v_white_orig = sir_matrix_whitened(data, h=10)
v_white_mixed = sir_matrix_whitened(mixed, h=10)
spec_orig = np.linalg.eigvalsh(v_white_orig.v)
spec_mixed = np.linalg.eigvalsh(v_white_mixed.v)
print("whitened spectrum gap under an invertible remap:",
      np.abs(spec_orig - spec_mixed).max())

# inv_sqrt_sym is the workhorse: W @ sigma @ W recovers the identity.
sigma = np.cov(mixed.x, rowvar=False)
w = inv_sqrt_sym(sigma)
print("max |W sigma W - I|:", np.abs(w @ sigma @ w - np.eye(10)).max())
