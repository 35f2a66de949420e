"""Single index simulation models.

A single index model generates a response y = f(x' beta, eps) from a
design row x, a sparse unit direction beta and independent Gaussian
noise eps.  This module holds the model descriptions, the sparse
direction generators, the Gaussian sampler, and a Monte-Carlo oracle
for the signal-strength constant Var(E[Z | f(Z, eps)]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, _check_int, _check_real

__all__ = [
    "LINK_NAMES",
    "BETA_SCHEMES",
    "ModelSpec",
    "SparseDirection",
    "Dataset",
    "generate_beta",
    "sample_sim",
    "estimate_cv",
]


def _link_linear(u, eps):
    return u + eps


def _link_sin_plus_identity(u, eps):
    return u + np.sin(u) + eps


def _link_atan2(u, eps):
    return 2.0 * np.arctan(u) + eps


def _link_cubic(u, eps):
    return u**3 + eps


def _link_sinh(u, eps):
    return np.sinh(u) + eps


_LINKS: dict[str, Callable] = {
    "linear": _link_linear,
    "sin_plus_identity": _link_sin_plus_identity,
    "atan2": _link_atan2,
    "cubic": _link_cubic,
    "sinh": _link_sinh,
}

LINK_NAMES = tuple(_LINKS)
BETA_SCHEMES = ("fixed", "random_uniform")


@dataclass(frozen=True)
class ModelSpec:
    """A response model y = f(u, eps) with u = x' beta and eps ~ N(0, noise_sd^2).

    Parameters
    ----------
    link : str
        One of ``LINK_NAMES`` or ``"custom"``.
    noise_sd : float
        Noise standard deviation, must be finite and >= 0.  Defaults to 1.
    custom_link : callable, optional
        Vectorized f(u, eps) used when ``link == "custom"``.  Must accept
        and return numpy arrays of matching shape.
    """

    link: str
    noise_sd: float = 1.0
    custom_link: Callable | None = None

    def __post_init__(self):
        if self.link == "custom":
            if self.custom_link is None:
                raise InvalidArgumentError("custom link requires a custom_link callable")
        elif self.link not in _LINKS:
            raise InvalidArgumentError(
                f"unknown link {self.link!r}; expected one of {LINK_NAMES} or 'custom'"
            )
        _check_real(self.noise_sd, "noise_sd")

    @classmethod
    def custom(cls, fn: Callable, noise_sd: float = 1.0) -> "ModelSpec":
        return cls(link="custom", noise_sd=noise_sd, custom_link=fn)

    def response(self, u: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Apply the link elementwise: y = f(u, eps)."""
        fn = self.custom_link if self.link == "custom" else _LINKS[self.link]
        return np.asarray(fn(np.asarray(u, dtype=float), np.asarray(eps, dtype=float)), dtype=float)


@dataclass(frozen=True)
class SparseDirection:
    """A p-vector with unit Euclidean norm supported on few coordinates."""

    values: np.ndarray
    support: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 1 or values.size < 1:
            raise InvalidArgumentError("values must be a nonempty 1-d array")
        nrm = math.sqrt(math.fsum((values * values).tolist()))
        if abs(nrm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"values must have unit norm, got {nrm!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", tuple(np.flatnonzero(values).tolist()))

    @property
    def p(self) -> int:
        return int(self.values.size)

    @property
    def s(self) -> int:
        return len(self.support)

    def signs(self) -> np.ndarray:
        """Elementwise sign pattern in {-1, 0, +1}, dtype int8."""
        return np.sign(self.values).astype(np.int8)


@dataclass(frozen=True)
class Dataset:
    """An n x p design with responses and a record of how it was drawn."""

    x: np.ndarray
    y: np.ndarray
    seed_provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise InvalidArgumentError("x must be a 2-d array")
        if y.ndim != 1 or y.size != x.shape[0]:
            raise InvalidArgumentError("y must be 1-d with one entry per row of x")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def p(self) -> int:
        return int(self.x.shape[1])


def _provenance(seed: int, scheme: str) -> dict:
    return {
        "seed": int(seed),
        "bit_generator": "PCG64",
        "numpy": np.__version__,
        "scheme": scheme,
    }


def generate_beta(p: int, s: int, scheme: str = "fixed", seed: int = 0) -> SparseDirection:
    """Draw an s-sparse unit direction on the first s coordinates.

    ``fixed``: coordinates 1..s-1 equal 1/sqrt(s) and coordinate s equals
    -1/sqrt(s).  ``random_uniform``: magnitudes are drawn i.i.d. uniform on
    (1/2, 1), the first floor(s/2) coordinates are positive, the remaining
    s - floor(s/2) negative, and the vector is normalized.

    Parameters
    ----------
    p, s : int
        Dimension and sparsity, 1 <= s <= p.
    scheme : str
        "fixed" or "random_uniform".
    seed : int
        Seed for the random_uniform draw (ignored by "fixed").
    """
    p, s = _check_int(p, "p", 1), _check_int(s, "s", 1)
    if s > p:
        raise InvalidArgumentError(f"need 1 <= s <= p, got s={s}, p={p}")
    if scheme not in BETA_SCHEMES:
        raise InvalidArgumentError(f"unknown beta scheme {scheme!r}; expected one of {BETA_SCHEMES}")
    values = np.zeros(p)
    if scheme == "fixed":
        values[: s - 1] = 1.0 / math.sqrt(s)
        values[s - 1] = -1.0 / math.sqrt(s)
    else:
        rng = np.random.default_rng(seed)
        mags = rng.uniform(0.5, 1.0, size=s)
        half = s // 2
        values[:half] = mags[:half]
        values[half:s] = -mags[half:]
        values /= math.sqrt(math.fsum((values[:s] * values[:s]).tolist()))
    return SparseDirection(values=values)


def sample_sim(model: ModelSpec, beta: SparseDirection, n: int, seed: int = 0) -> Dataset:
    """Draw n rows x ~ N(0, I_p) and responses y = f(x' beta, eps).

    The design is drawn first and the noise second from a single PCG64
    stream, so a given seed always yields the same dataset.
    """
    n = _check_int(n, "n", 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, beta.p))
    eps = model.noise_sd * rng.standard_normal(n)
    y = model.response(x @ beta.values, eps)
    return Dataset(x=x, y=y, seed_provenance=_provenance(seed, f"gaussian-design/{model.link}"))


def _index_pairs(model: ModelSpec, mc_n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """mc_n scalar pairs (Z, f(Z, eps)), Z and eps drawn in that order from one stream."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(mc_n)
    return z, model.response(z, model.noise_sd * rng.standard_normal(mc_n))


def estimate_cv(
    model: ModelSpec,
    mc_n: int = 1_000_000,
    oracle_slices: int = 1000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the signal strength Var(E[Z | f(Z, eps)]).

    Draws mc_n scalar pairs (Z, Y) with Z ~ N(0, 1), sorts by Y, splits
    into ``oracle_slices`` equal slices and returns the variance of the
    slice means of Z.  The sample is first truncated to the largest
    multiple of ``oracle_slices`` by dropping trailing draws (a prefix of
    an i.i.d. sample is still i.i.d., so the truncation is unbiased).

    Requires mc_n >= 100 * oracle_slices so each slice mean averages at
    least 100 draws.
    """
    h = _check_int(oracle_slices, "oracle_slices", 2)
    mc_n = _check_int(mc_n, "mc_n", 1)
    if mc_n < 100 * h:
        raise InvalidArgumentError(
            f"mc_n={mc_n} is too small: need mc_n >= 100 * oracle_slices = {100 * h}"
        )
    z, y = _index_pairs(model, mc_n, seed)
    from .sir import slice_data  # sir imports this module

    keep = z.size // h * h
    means = slice_data(Dataset(z[:keep, None], y[:keep]), h).slice_means
    return float(np.mean(means**2) - np.mean(means) ** 2)
