"""Signed support recovery for sparse single index models.

The response is assumed to follow y = f(x' beta, eps) with a Gaussian
design and a sparse unit direction beta.  Sorting the sample by y and
averaging the design within slices concentrates a moment matrix on the
support of beta; this package estimates that matrix, recovers the
signed support by diagonal thresholding or an l1-penalized semidefinite
relaxation, and measures how fast recovery becomes possible as the
sample grows.
"""

import importlib

# Each public name and the module that defines it, in the order of
# ``__all__``.  Nothing is imported until a name is first used (PEP 562),
# so ``import sirsupport`` and the console front end load no numpy.
_MODULE_OF = {
    name: module
    for module, names in [
        ("version", "__version__"),
        ("errors", "SirSupportError InvalidArgumentError IngestError NumericalError "
                   "NotPositiveDefiniteError RankDeficientError"),
        ("models", "LINK_NAMES BETA_SCHEMES ModelSpec SparseDirection Dataset generate_beta "
                   "sample_sim estimate_cv"),
        # slice-mean matrices
        ("sir", "MODES SlicedSample SirMatrix slice_data sir_matrix inv_sqrt_sym "
                "sir_matrix_whitened"),
        # diagonal thresholding
        ("dt", "SignedSupport dt_select dt_sir signed_support_match"),
        # semidefinite relaxation
        ("sdp", "SdpConfig SdpSolution project_spectraplex sdp_solve sdp_sign_recover "
                "default_lambda"),
        # experiments
        ("curves", "METHODS CurveConfig CurvePoint EfficiencyCurve StabilityDiagnostic "
                   "gamma_to_n run_curve stability_diagnostic fit_decay_exponent"),
        # data io
        ("dataio", "IngestedTable RecoveryRow RecoveryReport RunManifest ingest_csv recover_real "
                   "emit_curve_csv emit_dataset_csv emit_diagnostic_csv emit_recovery_csv"),
    ]
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULE_OF.values():  # a submodule, as ``import sirsupport`` used to load them all
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
