"""Signed support recovery for sparse single index models.

The response is assumed to follow y = f(x' beta, eps) with a Gaussian
design and a sparse unit direction beta.  Sorting the sample by y and
averaging the design within slices concentrates a moment matrix on the
support of beta; this package estimates that matrix, recovers the
signed support by diagonal thresholding or an l1-penalized semidefinite
relaxation, and measures how fast recovery becomes possible as the
sample grows.
"""

from .version import __version__
from .errors import (
    IngestError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
    SirSupportError,
)
from .models import (
    BETA_SCHEMES,
    LINK_NAMES,
    Dataset,
    ModelSpec,
    SparseDirection,
    estimate_cv,
    generate_beta,
    sample_sim,
)
from .sir import (
    MODES,
    SirMatrix,
    SlicedSample,
    inv_sqrt_sym,
    sir_matrix,
    sir_matrix_whitened,
    slice_data,
)
from .dt import SignedSupport, dt_select, dt_sir, signed_support_match
from .sdp import (
    SdpConfig,
    SdpSolution,
    default_lambda,
    project_spectraplex,
    sdp_sign_recover,
    sdp_solve,
)
from .curves import (
    METHODS,
    CurveConfig,
    CurvePoint,
    EfficiencyCurve,
    StabilityDiagnostic,
    fit_decay_exponent,
    gamma_to_n,
    run_curve,
    stability_diagnostic,
)
from .dataio import (
    IngestedTable,
    RecoveryReport,
    RecoveryRow,
    RunManifest,
    emit_curve_csv,
    emit_dataset_csv,
    emit_diagnostic_csv,
    emit_recovery_csv,
    ingest_csv,
    recover_real,
)

__all__ = [
    "__version__",
    # errors
    "SirSupportError",
    "InvalidArgumentError",
    "IngestError",
    "NumericalError",
    "NotPositiveDefiniteError",
    "RankDeficientError",
    # models
    "LINK_NAMES",
    "BETA_SCHEMES",
    "ModelSpec",
    "SparseDirection",
    "Dataset",
    "generate_beta",
    "sample_sim",
    "estimate_cv",
    # slice-mean matrices
    "MODES",
    "SlicedSample",
    "SirMatrix",
    "slice_data",
    "sir_matrix",
    "inv_sqrt_sym",
    "sir_matrix_whitened",
    # diagonal thresholding
    "SignedSupport",
    "dt_select",
    "dt_sir",
    "signed_support_match",
    # semidefinite relaxation
    "SdpConfig",
    "SdpSolution",
    "project_spectraplex",
    "sdp_solve",
    "sdp_sign_recover",
    "default_lambda",
    # experiments
    "METHODS",
    "CurveConfig",
    "CurvePoint",
    "EfficiencyCurve",
    "StabilityDiagnostic",
    "gamma_to_n",
    "run_curve",
    "stability_diagnostic",
    "fit_decay_exponent",
    # data io
    "IngestedTable",
    "RecoveryRow",
    "RecoveryReport",
    "RunManifest",
    "ingest_csv",
    "recover_real",
    "emit_curve_csv",
    "emit_dataset_csv",
    "emit_diagnostic_csv",
    "emit_recovery_csv",
]
