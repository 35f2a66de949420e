"""Diagonal thresholding and signed support recovery.

dt_select keeps the s coordinates with the largest diagonal entries of
the slice-mean matrix; dt_sir then takes the principal eigenvector of
the selected submatrix and reads signs off it.  Recovery is judged up
to a global sign flip, since the model cannot distinguish beta from
-beta.  This demo shows a clean success, a small-sample failure, and
the tie-breaking convention.
"""

import numpy as np

from sirsupport import (
    ModelSpec,
    SignedSupport,
    dt_select,
    dt_sir,
    generate_beta,
    sample_sim,
    signed_support_match,
    sir_matrix,
    slice_data,
)

model = ModelSpec(link="sin_plus_identity", noise_sd=1.0)
beta = generate_beta(p=50, s=5, scheme="random_uniform", seed=1)
truth = SignedSupport(signs=beta.signs())
print("true support:", beta.support)
print("true signs:  ", truth.signs[list(beta.support)])


def recover(n: int, seed: int) -> SignedSupport:
    data = sample_sim(model, beta, n=n, seed=seed)
    v = sir_matrix(slice_data(data, h=10), "centered")
    return dt_sir(v, s=5)


# ---------------------------------------------------------------------------
# Generous sample: all five coordinates and their sign pattern come back.
# ---------------------------------------------------------------------------
big = recover(n=4000, seed=2)
print("\nn=4000 estimate:", np.flatnonzero(big.signs), big.signs[np.flatnonzero(big.signs)])
print("matches truth (up to a global flip):", signed_support_match(big, truth))

# ---------------------------------------------------------------------------
# Starved sample: the diagonal ordering is swamped by noise and the match
# fails.  The phase-transition demo (05) maps out where this flips.
# ---------------------------------------------------------------------------
small = recover(n=40, seed=2)
print("\nn=40 estimate:  ", np.flatnonzero(small.signs))
print("matches truth:", signed_support_match(small, truth))

# ---------------------------------------------------------------------------
# dt_select alone gives the index set.  Ties go to the lower index, so
# repeated diagonal values select deterministically.
# ---------------------------------------------------------------------------
tied = np.diag([1.0, 2.0, 2.0, 2.0, 0.5])
print("\ntie-break on diag [1, 2, 2, 2, .5], s=2:", dt_select(tied, 2))

# dt_sir keeps the s largest diagonal entries (indices 0 and 1 here) and
# reads their signs off the principal eigenvector of that block, oriented
# so its largest entry is positive; every other coordinate gets sign 0.
block = np.array(
    [
        [2.0, -0.9, 0.0],
        [-0.9, 1.5, 0.0],
        [0.0, 0.0, 0.1],
    ]
)
print("signs on a hand-built 3x3 block, s=2:", dt_sir(block, 2).signs)
