"""Marginal association statistics and their two-sided p-values.

Everything downstream (detectors, benchmarks, the command line) reduces a
genotype panel to one score per column.  Four scores are provided:

* ``zscores_known_sigma`` -- inner product of the centred column with the
  response, scaled by a *known* noise standard deviation; exactly standard
  normal per column under the null when the noise truly is Gaussian.
* ``zscores_from_correlation`` -- sqrt(n-1) times the sample correlation.
* ``tstats_from_correlation`` -- the usual simple-regression t statistic,
  sqrt(n-2) * rho / sqrt(1 - rho^2).
* ``case_control_zscores`` -- difference of per-group allele frequencies on
  the z scale, for binary traits.

Scores are mapped to p-values by the two-sided standard normal tail.

Each score has one implementation, a private kernel batched over the columns
of an (n, m) response matrix; the permutation benchmarks call it with every
permuted response at once, the public functions here with m = 1.  Inputs are
checked once, at entry, by ``validated_inputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.special import erfc

from .errors import (
    BadSampleSizeError,
    ConstantColumnError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    EmptyGroupError,
    MonomorphicColumnError,
    NonFiniteInputError,
    NonPositiveSigmaError,
)

# floor for p-values so downstream logs never see an exact zero
P_FLOOR = 1e-300

TraitKind = Literal["quantitative", "binary"]
StatKind = Literal["r_sigma", "r", "t", "d"]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GenotypeMatrix:
    """Samples-by-SNPs panel of minor-allele counts.

    ``entries`` is float64 so that imputed columns (missing cells replaced by
    the column average) are representable; simulated panels contain exact
    integers in {0, 1, 2}.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2:
            raise DimensionMismatchError(f"genotype entries must be 2-D, got shape {e.shape}")
        if e.shape[0] < 2:
            raise BadSampleSizeError(f"need at least 2 samples, got {e.shape[0]}")
        if e.shape[1] < 1:
            raise DimensionMismatchError("need at least 1 column")
        if not np.all(np.isfinite(e)):
            raise NonFiniteInputError("genotype entries contain non-finite values")
        if e.min() < 0.0 or e.max() > 2.0:
            raise NonFiniteInputError("genotype entries must lie in [0, 2] allele counts")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def n_snps(self) -> int:
        return self.entries.shape[1]

    def maf_hat(self) -> np.ndarray:
        """Per-column empirical minor-allele frequency (column mean / 2)."""
        return self.entries.mean(axis=0) / 2.0


@dataclass(frozen=True)
class Phenotype:
    """Response vector, either a quantitative trait or 0/1 case status."""

    values: np.ndarray
    kind: TraitKind = "quantitative"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size < 2:
            raise BadSampleSizeError(f"need at least 2 phenotype values, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInputError("phenotype contains non-finite values")
        if self.kind == "binary" and not np.all((v == 0.0) | (v == 1.0)):
            raise NonFiniteInputError("binary phenotype must contain only 0 and 1")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def n_case(self) -> int:
        if self.kind != "binary":
            raise EmptyGroupError("n_case is only defined for binary phenotypes")
        return int(np.sum(self.values == 1.0))

    @property
    def n_control(self) -> int:
        if self.kind != "binary":
            raise EmptyGroupError("n_control is only defined for binary phenotypes")
        return int(np.sum(self.values == 0.0))


@dataclass(frozen=True)
class MarginalStats:
    """Per-column scores plus their two-sided normal p-values."""

    kind: StatKind
    values: np.ndarray
    pvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.shape != self.pvalues.shape:
            raise DimensionMismatchError("values and pvalues must share a shape")


# ---------------------------------------------------------------------------
# entry validation


def as_genotype_matrix(X) -> GenotypeMatrix:
    """X itself when it is a GenotypeMatrix, else a validated one built from it."""
    return X if isinstance(X, GenotypeMatrix) else GenotypeMatrix(entries=X)


def validated_inputs(X, y, kind: TraitKind | None = None,
                     varying: bool = True) -> tuple[np.ndarray, np.ndarray, TraitKind]:
    """The one entry check of a panel and a response; returns (entries, values, kind).

    Raw arrays go through ``GenotypeMatrix`` and ``Phenotype``; a raw y takes
    ``kind`` (quantitative by default), a Phenotype must match ``kind`` when
    one is given.  With ``varying`` the response must carry information: a
    quantitative one must not be constant, a binary one must hold both groups.
    """
    Xa = as_genotype_matrix(X).entries
    if not isinstance(y, Phenotype):
        y = Phenotype(values=y, kind=kind or "quantitative")
    elif kind is not None and y.kind != kind:
        raise EmptyGroupError(f"need a {kind} phenotype, got a {y.kind} one")
    v = y.values
    if v.size != Xa.shape[0]:
        raise DimensionMismatchError(f"response length {v.size} != sample count {Xa.shape[0]}")
    if varying:
        if y.kind == "binary":
            _group_sizes(v)
        elif v.max() == v.min():
            raise ConstantColumnError(-1, "response is constant")
    return Xa, v, y.kind


def require_varying_columns(X: np.ndarray):
    """Reject the first constant column, found exactly by max == min."""
    constant = X.max(axis=0) == X.min(axis=0)
    if np.any(constant):
        raise ConstantColumnError(int(np.flatnonzero(constant)[0]))


def _group_sizes(labels: np.ndarray) -> tuple[float, float]:
    """(cases, controls) of a 0/1 label vector; both must be non-empty."""
    n_case = float(labels.sum())
    n_control = labels.size - n_case
    if n_case == 0 or n_control == 0:
        raise EmptyGroupError(f"need both groups non-empty, got {n_case:g} cases / {n_control:g} controls")
    return n_case, n_control


# ---------------------------------------------------------------------------
# batched kernel: an (n, L) panel against (n, m) responses gives (L, m) scores.
# Inputs are trusted; the public functions below validate them, then call it.


def _column_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", A, A))


def _centred_cross(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred-column cross-products Xc' Y and the centred column norms."""
    require_varying_columns(X)
    Xc = X - X.mean(axis=0)
    return Xc.T @ Y, _column_norms(Xc)


def _centre_in_place(Y: np.ndarray) -> np.ndarray:
    """Centre the columns of Y, overwriting it; returns their norms.

    For a response block that many panels share: ``_correlations(X, Y,
    ynorm)`` then skips the centring, with the same arithmetic.  Only for a
    block the caller built itself, never for a caller's array.
    """
    Y -= Y.mean(axis=0)
    return _column_norms(Y)


def _correlations(X: np.ndarray, Y: np.ndarray, ynorm: np.ndarray | None = None) -> np.ndarray:
    """Sample correlations, clipped into [-1, 1].

    With ``ynorm`` given, Y is already centred and ynorm holds its column
    norms (see ``_centre_in_place``); otherwise Y is centred into a copy.
    """
    if ynorm is None:
        Y = Y - Y.mean(axis=0)
        ynorm = _column_norms(Y)
    cross, xnorm = _centred_cross(X, Y)
    rho = cross / (xnorm[:, None] * ynorm[None, :])
    np.clip(rho, -1.0, 1.0, out=rho)
    return rho


def _z_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(n - 1.0) * rho


def _t_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(n - 2.0) * rho / np.sqrt(1.0 - rho * rho)


def _case_control(X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Case/control frequency contrasts on the z scale (see case_control_zscores)."""
    n_case, n_control = _group_sizes(labels[:, 0])
    totals = X.sum(axis=0)
    p_all = totals / X.shape[0] / 2.0  # X.mean(axis=0) / 2.0, bit for bit
    mono = (p_all == 0.0) | (p_all == 1.0)
    if np.any(mono):
        raise MonomorphicColumnError(int(np.flatnonzero(mono)[0]))
    case = X.T @ labels
    p_case = case / (2.0 * n_case)
    # control counts as totals minus case counts: no (n, m) `1 - labels`
    # temporary; exact for integer genotypes, last-bit for imputed cells
    p_control = (totals[:, None] - case) / (2.0 * n_control)
    m_eff = 2.0 / (1.0 / n_case + 1.0 / n_control)
    return np.sqrt(m_eff) * (p_case - p_control) / np.sqrt(2.0 * p_all * (1.0 - p_all))[:, None]


def _two_sided_p(s: np.ndarray) -> np.ndarray:
    return np.maximum(erfc(np.abs(s) / np.sqrt(2.0)), P_FLOOR)


def normal_sf(x) -> np.ndarray | float:
    """Upper tail of the standard normal, accurate far into the tail."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# statistics


def marginal_correlations(X, y) -> np.ndarray:
    """Sample correlation between each column of X and the response."""
    Xa, ya, _ = validated_inputs(X, y)
    return _correlations(Xa, ya[:, None])[:, 0]


def zscores_known_sigma(X, y, sigma: float) -> np.ndarray:
    """Centred-column inner products scaled by a known noise sd.

    For column x with centred version xc, the score is xc . y / (sigma ||xc||).
    Centring y changes nothing since xc sums to zero.
    """
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma!r}")
    Xa, ya, _ = validated_inputs(X, y, varying=False)
    cross, norms = _centred_cross(Xa, ya[:, None])
    return cross[:, 0] / (sigma * norms)


def zscores_from_correlation(rho, n: int) -> np.ndarray:
    """sqrt(n-1) * rho, the correlation on the z scale."""
    if n < 2:
        raise BadSampleSizeError(f"need n >= 2, got {n}")
    r = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteInputError("correlations contain non-finite values")
    if np.any(np.abs(r) > 1.0):
        raise DegenerateCorrelationError(int(np.flatnonzero(np.abs(r) > 1.0)[0]),
                                         "correlations must lie in [-1, 1]")
    return _z_from_rho(r, n)


def tstats_from_correlation(rho, n: int) -> np.ndarray:
    """Simple-regression t statistic, sqrt(n-2) * rho / sqrt(1 - rho^2)."""
    if n < 3:
        raise BadSampleSizeError(f"need n >= 3, got {n}")
    r = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteInputError("correlations contain non-finite values")
    if np.any(np.abs(r) >= 1.0):
        raise DegenerateCorrelationError(int(np.flatnonzero(np.abs(r) >= 1.0)[0]))
    return _t_from_rho(r, n)


def case_control_zscores(X, y) -> np.ndarray:
    """Allele-frequency difference between cases and controls, z scale.

    With per-group frequencies p1 (cases, y == 1) and p0 (controls), pooled
    frequency p, and m the harmonic-mean per-group sample size
    2 / (1/n_case + 1/n_control), the score is

        sqrt(m) * (p1 - p0) / sqrt(2 p (1 - p)).
    """
    Xa, ya, _ = validated_inputs(X, y, kind="binary")
    return _case_control(Xa, ya[:, None])[:, 0]


def pvalues_two_sided(stats) -> np.ndarray:
    """Two-sided standard normal p-values, floored at 1e-300.

    Computed as erfc(|s| / sqrt 2), which keeps full relative accuracy far
    into the tail where 2 * (1 - cdf) would cancel to zero.
    """
    s = np.asarray(stats, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteInputError("statistics contain non-finite values")
    return _two_sided_p(s)


def marginal_stats(X, y, kind: StatKind, sigma: float | None = None) -> MarginalStats:
    """One-call bundle: scores of the requested kind plus their p-values."""
    G = as_genotype_matrix(X)
    if kind == "r_sigma":
        if sigma is None:
            raise NonPositiveSigmaError("kind 'r_sigma' needs an explicit sigma")
        values = zscores_known_sigma(G, y, sigma)
    elif kind == "r":
        values = zscores_from_correlation(marginal_correlations(G, y), G.n)
    elif kind == "t":
        values = tstats_from_correlation(marginal_correlations(G, y), G.n)
    elif kind == "d":
        values = case_control_zscores(G, y)
    else:
        raise DimensionMismatchError(f"unknown statistic kind {kind!r}")
    return MarginalStats(kind=kind, values=values, pvalues=pvalues_two_sided(values))
