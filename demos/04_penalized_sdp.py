"""The l1-penalized semidefinite route to signed support recovery.

Instead of trusting the diagonal, one can search for the unit-trace PSD
matrix Z maximizing <V, Z> - lambda * |Z|_1.  The penalty pushes mass
off the non-support rows, so the principal eigenvector of the solution
carries the signed support even when individual diagonal entries are
noisy.  Every solve carries a duality gap that bounds how far its
objective can be from the true optimum, and the solver stops on that gap.
"""

import numpy as np

from sirsupport import (
    ModelSpec,
    SdpConfig,
    default_lambda,
    generate_beta,
    sample_sim,
    sdp_sign_recover,
    sdp_solve,
    sir_matrix,
    slice_data,
)

# Estimate a slice-mean matrix on a moderately hard instance.
model = ModelSpec(link="atan2", noise_sd=1.0)
beta = generate_beta(p=40, s=5, scheme="fixed", seed=0)
data = sample_sim(model, beta, n=900, seed=12)
v = sir_matrix(slice_data(data, h=10), "centered")

# A practical penalty: half the s-th largest diagonal entry.  That is a
# data-driven stand-in for (signal strength) / (2 s).
lam = default_lambda(v, s=5)
print(f"penalty level lambda = {lam:.4f}")

# ---------------------------------------------------------------------------
# Solve by operator splitting: a spectraplex projection alternates with
# soft thresholding.  The scaled dual of the splitting is a matrix U with
# entries in [-1, 1], and lambda_max(V - lambda U) is an upper bound on
# the optimum, so the gap below certifies the returned objective.  The
# solver stops once that gap is at most tol * max(1, ||V||), and
# "converged" means exactly that.
# ---------------------------------------------------------------------------
sol = sdp_solve(v, SdpConfig(lam=lam))
print(
    f"objective {sol.objective:.6f}, iters {sol.iterations}, "
    f"converged {sol.converged}, rank1_gap {sol.rank1_gap:.2e}"
)
upper = np.linalg.eigvalsh(v.v - lam * sol.dual)[-1]
print(f"dual upper bound {upper:.6f}, certified duality gap {sol.duality_gap:.2e}")

# Signs come from the oriented principal eigenvector: its s largest
# magnitudes are kept, by the same top-s rule dt_sir applies to the
# diagonal, and every other coordinate gets sign 0.
est = sdp_sign_recover(sol, s=5)
print("\nestimated signed support:", np.flatnonzero(est.signs),
      est.signs[np.flatnonzero(est.signs)])
print("true signed support:     ", list(beta.support), beta.signs()[list(beta.support)])

# ---------------------------------------------------------------------------
# The certificate does not need a rank-one optimum.  On a diagonal matrix
# the solution concentrates on one coordinate; on the identity it spreads
# over all of them (every diagonal Z is optimal there).  Either way the gap proves the objective, and a solve
# cut short by max_iter reports converged=False with the gap that shows
# how far it may still be from the optimum.
# ---------------------------------------------------------------------------
for name, a, lam_a in [
    ("diagonal", np.diag([3.0, 1.0, 0.5]), 0.2),
    ("identity", np.eye(3), 0.1),
]:
    sol_a = sdp_solve(a, SdpConfig(lam=lam_a))
    print(f"\n{name}: objective {sol_a.objective:.6f}, rank1_gap {sol_a.rank1_gap:.2e}, "
          f"gap {sol_a.duality_gap:.2e}, iters {sol_a.iterations}, converged {sol_a.converged}")

capped = sdp_solve(v, SdpConfig(lam=lam, max_iter=3))
print(f"\ncapped at 3 iterations: gap {capped.duality_gap:.2e}, converged {capped.converged}")
