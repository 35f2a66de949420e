"""Ranking the variables of a real CSV dataset.

The same machinery applies to data that arrives as a file rather than
a simulator: ingest a headed CSV, whiten against the sample covariance
(real designs are rarely isotropic), and rank every variable by how
much slice-mean signal it carries.  Here the "real" file is simulated
so the right answer is known, then round-tripped through disk exactly
as an external dataset would be.
"""

import tempfile
from pathlib import Path

from sirsupport import (
    ModelSpec,
    emit_dataset_csv,
    emit_recovery_csv,
    generate_beta,
    ingest_csv,
    recover_real,
    sample_sim,
)

out = Path(tempfile.mkdtemp(prefix="ranking_demo_"))

# Simulate, write to CSV, and forget the generator: from here on the
# workflow only sees the file.
model = ModelSpec(link="sin_plus_identity", noise_sd=0.5)
beta = generate_beta(p=15, s=3, scheme="fixed", seed=0)
data = sample_sim(model, beta, n=3000, seed=123)
csv_path = emit_dataset_csv(data, out / "measurements.csv")
print("wrote", csv_path)
print("planted variables: x1 (+), x2 (+), x3 (-)")

# Ingestion drops incomplete rows and refuses non-numeric cells with a
# row/column citation, so dirty files fail loudly rather than silently.
table = ingest_csv(csv_path, y_column="y")
print(f"ingested: n={table.n}, p={table.p}, dropped={table.n_dropped}")

# ---------------------------------------------------------------------------
# Rank with both extraction methods.  "dt" scores variables by their
# whitened diagonal entries; "sdp" scores them by the magnitude of the
# penalized solution's principal eigenvector.
# ---------------------------------------------------------------------------
for method in ("dt", "sdp"):
    rows = recover_real(table, s=3, h=10, method=method, seed=0)
    print(f"\n{method} ranking (top 5 of {table.p}):")
    print("  rank  variable   score      selected  sign")
    for row in rows[:5]:
        print(
            f"  {row.rank:>4}  {row.variable:<9} {row.score:9.4f}  "
            f"{str(row.selected):<8}  {row.sign:+d}"
        )
    path = emit_recovery_csv(rows, out / f"recovery_{method}.csv")
    print("  wrote", path)

print("""
Signs are only identified up to one global flip: (+, +, -) on x1..x3
and (-, -, +) are the same answer, and either may be reported.
""")

# The CLI wraps the same steps:
#   sirsupport recover --data measurements.csv --s 3 --method dt --out results/
