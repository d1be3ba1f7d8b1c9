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

Scores are mapped to p-values by the two-sided standard normal tail
(``pvalues_two_sided``), except in ``marginal_stats``, which reads a t
score on the t(n - 2) scale.  The benchmark statistics (HC, HCm and DT in
``bench``) read every score on the N(0, 1) scale, t scores included.

Every score is read off one cross-product: ``_standardised`` centres the
panel's columns and scales them to unit norm (Z), ``_unit_response`` does the
same to the response (u), and rho = Z' u.  The private kernel is batched
over the columns of an (n, m) matrix of unit responses and comes in two
steps: ``_prepared_panel`` standardises a panel once, and
``_scores_from_rho`` turns any number of correlation blocks against it into
scores.  The permutation benchmarks score every permuted response at once,
the public functions here m = 1.  Inputs are checked once, at entry, by
``validated_inputs``; the kernel itself refuses only what no score exists
for (a constant or monomorphic column, or |rho| = 1 for a t score).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.special import erfc, stdtr

from .errors import (
    BadSampleSizeError,
    ConfigError,
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


def _real_array(values, what: str) -> np.ndarray:
    """values as a row-major float64 array.  A ragged nesting raises
    ``DimensionMismatchError``; a dtype that is not bool, integer or real
    float (text, complex, object) raises ``NonFiniteInputError``."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise DimensionMismatchError(f"{what} are ragged: rows differ in length") from None
    if a.dtype.kind not in "biuf":
        raise NonFiniteInputError(f"{what} must be real numbers, got dtype {a.dtype}")
    # order="C", not ascontiguousarray, which would make a 0-d input 1-d
    return np.asarray(a, dtype=np.float64, order="C")


@dataclass(frozen=True)
class GenotypeMatrix:
    """Samples-by-SNPs panel of minor-allele counts.

    ``entries`` is row-major float64 so that imputed columns (missing cells
    replaced by the column average) are representable; simulated panels
    contain exact integers in {0, 1, 2}.  This is the one place a panel is
    laid out: every statistic is computed from these entries, so none
    depends on the memory order of the array a caller passed.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = _real_array(self.entries, "genotype entries")
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
    """Response vector, 1-D or one column: a quantitative trait or 0/1 case
    status; a binary one holding other values raises ``NonFiniteInputError``."""

    values: np.ndarray
    kind: TraitKind = "quantitative"

    def __post_init__(self):
        if self.kind not in ("quantitative", "binary"):
            raise ConfigError(f"phenotype kind must be quantitative or binary, got {self.kind!r}")
        v = _real_array(self.values, "phenotype values")
        if v.ndim != 1 and v.shape[1:] != (1,):
            raise DimensionMismatchError(f"phenotype values must be 1-D or one column, got shape {v.shape}")
        v = v.ravel()
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
    """Per-column scores plus their two-sided p-values: the t(n - 2) tail for
    kind ``t``, the standard normal tail for the other kinds.  HC, HCm and DT
    in ``bench`` read scores on the N(0, 1) scale whatever their kind."""

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
    quantitative one must have n >= 3 (a t score needs n - 2 > 0) and not be
    constant, a binary one must hold both groups.
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
            n_case = int(v.sum())
            if n_case in (0, v.size):
                raise EmptyGroupError(
                    f"need both groups non-empty, got {n_case} cases / {v.size - n_case} controls")
        elif v.size < 3:
            raise BadSampleSizeError(f"a quantitative response needs n >= 3, got {v.size}")
        elif v.max() == v.min():
            raise ConstantColumnError(-1, "response is constant")
    return Xa, v, y.kind


def require_varying_columns(X: np.ndarray):
    """Reject the first constant column, found exactly by max == min."""
    constant = X.max(axis=0) == X.min(axis=0)
    if np.any(constant):
        raise ConstantColumnError(int(np.flatnonzero(constant)[0]))


# ---------------------------------------------------------------------------
# batched kernel: an (n, L) panel against (n, m) unit responses gives (L, m)
# scores.  Inputs are trusted; the public functions below validate them.


def _column_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", A, A))


def _standardised(X: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Z, X's columns centred and scaled to unit norm, and their centred norms.

    Builds one (n, L) array, the centred copy scaled in place, or writes into
    ``out``: ``out=X`` standardises a gathered copy with no second one.
    """
    require_varying_columns(X)
    Z = np.subtract(X, X.mean(axis=0), out=out)
    norms = _column_norms(Z)
    Z /= norms
    return Z, norms


def _unit_response(y: np.ndarray) -> np.ndarray:
    """(y - mean) / ||y - mean||: the response as every score reads it.

    Constancy is tested exactly, by max == min: the norm alone would miss a
    constant y whose mean rounds (0.1 repeated leaves norms near 1e-16).
    """
    if y.max() == y.min():
        raise ConstantColumnError(-1, "response is constant")
    u = y - y.mean()
    u /= np.sqrt(u @ u)
    return u


def _correlations(Z: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Sample correlations Z' U of a standardised panel and unit responses,
    clipped into [-1, 1]."""
    rho = Z.T @ U
    np.clip(rho, -1.0, 1.0, out=rho)
    return rho


def _prepared_panel(X: np.ndarray, trait_kind: TraitKind,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Z (``_standardised``, into ``out`` when given) and the scale that
    ``_scores_from_rho`` turns X's correlations into scores with.

    A quantitative score is t(rho), with no scale (None).  With U the
    standardised 0/1 labels, rho * ||xc|| / (2 sqrt(p (1 - p))) is exactly the
    case/control frequency contrast of ``case_control_zscores``, whatever the
    group sizes, so a binary panel's scale is that per-column factor; a
    monomorphic column has none and raises ``MonomorphicColumnError``.
    """
    if trait_kind == "quantitative":
        return _standardised(X, out)[0], None
    p = X.mean(axis=0) / 2.0
    mono = (p == 0.0) | (p == 1.0)
    if np.any(mono):
        raise MonomorphicColumnError(int(np.flatnonzero(mono)[0]))
    Z, norms = _standardised(X, out)
    return Z, 0.5 * norms / np.sqrt(p * (1.0 - p))


def _scores_from_rho(rho: np.ndarray, n: int, scale: np.ndarray | None) -> np.ndarray:
    """The (L, m) marginal scores of correlations rho (L, m) with the panel
    scale of ``_prepared_panel``."""
    if scale is None:
        return _t_from_rho(rho, n)
    return rho * scale[:, None]


def _z_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(n - 1.0) * rho


def _t_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    """sqrt(n-2) * rho / sqrt(1 - rho^2).  |rho| = 1, a response collinear
    with a column, has no t score: it raises ``DegenerateCorrelationError``
    naming the first such row of rho."""
    if rho.size and (rho.max() >= 1.0 or rho.min() <= -1.0):
        flat = int(np.flatnonzero(np.abs(rho) >= 1.0)[0])
        raise DegenerateCorrelationError(flat // (rho.shape[1] if rho.ndim == 2 else 1))
    return np.sqrt(n - 2.0) * rho / np.sqrt(1.0 - rho * rho)


def _two_sided_p(s: np.ndarray) -> np.ndarray:
    return np.maximum(erfc(np.abs(s) / np.sqrt(2.0)), P_FLOOR)


# ---------------------------------------------------------------------------
# statistics


def marginal_correlations(X, y) -> np.ndarray:
    """Sample correlation between each column of X and the response."""
    Xa, ya, _ = validated_inputs(X, y)
    return _correlations(_standardised(Xa)[0], _unit_response(ya))


def zscores_known_sigma(X, y, sigma: float) -> np.ndarray:
    """Centred-column inner products scaled by a known noise sd.

    For column x with centred version xc, the score is xc . y / (sigma ||xc||).
    Centring y changes nothing since xc sums to zero.
    """
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma!r}")
    Xa, ya, _ = validated_inputs(X, y, varying=False)
    return _standardised(Xa)[0].T @ ya / sigma


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
    return _t_from_rho(r, n)


def case_control_zscores(X, y) -> np.ndarray:
    """Allele-frequency difference between cases and controls, z scale.

    With per-group frequencies p1 (cases, y == 1) and p0 (controls), pooled
    frequency p, and m the harmonic-mean per-group sample size
    2 / (1/n_case + 1/n_control), the score is

        sqrt(m) * (p1 - p0) / sqrt(2 p (1 - p)).
    """
    Xa, ya, _ = validated_inputs(X, y, kind="binary")
    Z, scale = _prepared_panel(Xa, "binary")
    return _scores_from_rho(_correlations(Z, _unit_response(ya)[:, None]), Xa.shape[0], scale)[:, 0]


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
    """One-call bundle: scores of the requested kind plus their p-values, from
    the t(n - 2) tail for t scores and the normal tail for the others."""
    G = as_genotype_matrix(X)
    if kind == "r_sigma":
        if sigma is None:
            raise NonPositiveSigmaError("kind 'r_sigma' needs an explicit sigma")
        values = zscores_known_sigma(G, y, sigma)
    elif kind == "r":
        values = zscores_from_correlation(marginal_correlations(G, y), G.n)
    elif kind == "t":
        values = tstats_from_correlation(marginal_correlations(G, y), G.n)
        pvalues = np.maximum(2.0 * stdtr(G.n - 2.0, -np.abs(values)), P_FLOOR)
        return MarginalStats(kind=kind, values=values, pvalues=pvalues)
    elif kind == "d":
        values = case_control_zscores(G, y)
    else:
        raise DimensionMismatchError(f"unknown statistic kind {kind!r}")
    return MarginalStats(kind=kind, values=values, pvalues=pvalues_two_sided(values))
