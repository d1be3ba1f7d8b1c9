"""Global detectors over a vector of marginal scores or p-values.

The centrepiece is the higher-criticism statistic: for ascending p-values
p_(1) <= ... <= p_(L),

    HC = max_j  sqrt(L) * (j/L - p_(j)) / sqrt(p_(j) (1 - p_(j))),

large when some small group of p-values sits further into the tail than
uniform order statistics allow.  Two equivalent evaluation routes are kept
deliberately separate: the order-statistic form above and a threshold-scan
form that counts exceedances of |score| thresholds.  Their agreement is a
correctness check, so neither is implemented in terms of the other.

Also here: the min-p detector, Benjamini-Hochberg selection, and three
covariance-aware aggregate tests (linear combination, quadratic form, and
decorrelated log-p sum) that share one Cholesky factorisation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.special import erfc

from .boundary import detection_boundary
from .core_stats import _standardised, _two_sided_p, as_genotype_matrix
from .errors import (
    AlphaOutOfRangeError,
    BadRangeError,
    BadSampleSizeError,
    DegenerateGridPointError,
    DimensionMismatchError,
    EmptyGridError,
    EmptyInputError,
    NonFiniteInputError,
    NonPositiveQuadFormError,
    NotPositiveDefiniteError,
    NotSquareError,
    PValueOutOfRangeError,
)

logger = logging.getLogger(__name__)

# p-values inside the HC normaliser are kept away from {0, 1}; outside [0, 1]
# is an input error, not something to silently repair
HC_P_MIN = 1e-15
HC_P_MAX = 1.0 - 1e-15


@dataclass(frozen=True)
class HcResult:
    """Higher-criticism value with the index attaining it.

    ``per_index`` holds the objective at every sorted position j = 1..L;
    ``argmax_k`` is the 1-based j of the maximum, smallest j on ties.
    """

    value: float
    argmax_k: int
    per_index: np.ndarray

    def __post_init__(self):
        if not 1 <= self.argmax_k <= self.per_index.size:
            raise DimensionMismatchError("argmax_k outside 1..L")


def _validated_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64).ravel()
    if p.size == 0:
        raise EmptyInputError("no p-values given")
    bad = ~((p >= 0.0) & (p <= 1.0))  # catches NaN too
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise PValueOutOfRangeError(i, float(p[i]))
    return p


def _hc_profile_sorted(p_sorted: np.ndarray) -> np.ndarray:
    """HC objective at each sorted position; input already clamped, ascending.

    Works on the last axis so a (m, L) batch of sorted rows is one call.
    """
    L = p_sorted.shape[-1]
    j = np.arange(1, L + 1, dtype=np.float64)
    return np.sqrt(L) * (j / L - p_sorted) / np.sqrt(p_sorted * (1.0 - p_sorted))


def _hc_max_rows(pvalues_rows: np.ndarray) -> np.ndarray:
    """Row-wise HC maxima for a (m, L) batch; clamps without logging."""
    p = np.clip(pvalues_rows, HC_P_MIN, HC_P_MAX)
    p.sort(axis=-1)
    return _hc_profile_sorted(p).max(axis=-1)


def higher_criticism(pvalues) -> HcResult:
    """Order-statistic higher criticism of a p-value vector."""
    p = _validated_pvalues(pvalues)
    n_clamped = int(np.sum((p < HC_P_MIN) | (p > HC_P_MAX)))
    if n_clamped:
        logger.warning("higher_criticism: clamped %d p-value(s) into [%g, %g]",
                       n_clamped, HC_P_MIN, HC_P_MAX)
    p = np.clip(p, HC_P_MIN, HC_P_MAX)
    p.sort()
    profile = _hc_profile_sorted(p)
    k = int(np.argmax(profile))  # first maximum, so ties break to smallest j
    return HcResult(value=float(profile[k]), argmax_k=k + 1, per_index=profile)


def hc_threshold_scan(stats, thresholds) -> float:
    """Threshold-scan higher criticism over explicit |score| cutoffs.

    At cutoff t with upper tail F = P(|N(0,1)| > t) = 2 * normal_sf(t), the
    objective is (#{|s_j| > t} - L F) / sqrt(L F (1 - F)); the scan returns
    the maximum over the given cutoffs.  Each cutoff must satisfy
    0 < F < 1, i.e. t > 0 and t below the erfc underflow point.
    """
    s = np.asarray(stats, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyInputError("no statistics given")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInputError("statistics contain non-finite values")
    t = np.asarray(thresholds, dtype=np.float64).ravel()
    if t.size == 0:
        raise EmptyGridError("threshold grid is empty")
    if not np.all(np.isfinite(t)):
        raise NonFiniteInputError("threshold grid contains non-finite values")

    L = s.size
    tail = erfc(t / np.sqrt(2.0))  # 2 * normal_sf(t)
    degenerate = (t <= 0.0) | (tail <= 0.0)
    if np.any(degenerate):
        raise DegenerateGridPointError(float(t[np.flatnonzero(degenerate)[0]]))

    abs_sorted = np.sort(np.abs(s))
    counts = L - np.searchsorted(abs_sorted, t, side="right")
    values = (counts - L * tail) / np.sqrt(L * tail * (1.0 - tail))
    return float(values.max())


def hc_grid_start(alpha: float, L: int) -> float:
    """Recommended lowest cutoff for the discretised scan at rarity alpha.

    sqrt(2 delta log L) with delta = min(1, 4 * detection_boundary(alpha)):
    low enough to keep every cutoff the detectable regime needs, high enough
    to skip the uninformative bulk.
    """
    if L < 2:
        raise BadSampleSizeError(f"need L >= 2, got {L}")
    edge = detection_boundary(alpha)  # raises AlphaOutOfRangeError
    delta = min(1.0, 4.0 * edge)
    return float(np.sqrt(2.0 * delta * np.log(L)))


def hc_discretized(stats, t_min: float) -> float:
    """Threshold-scan HC restricted to integer cutoffs in [t_min, sqrt(5 log L)].

    Falls back to the single cutoff t_min when that window contains no
    integer.  t_min beyond the window's top is an error.
    """
    s = np.asarray(stats, dtype=np.float64).ravel()
    if s.size < 2:
        raise EmptyInputError(f"need at least 2 statistics, got {s.size}")
    upper = np.sqrt(5.0 * np.log(s.size))
    if t_min > upper:
        raise BadRangeError(f"t_min {t_min!r} exceeds scan ceiling {upper!r}")
    lo = max(1, int(np.ceil(t_min)))
    hi = int(np.floor(upper))
    grid = np.arange(lo, hi + 1, dtype=np.float64)
    if grid.size == 0:
        grid = np.asarray([t_min], dtype=np.float64)
    return hc_threshold_scan(s, grid)


def min_pvalue(pvalues) -> float:
    """Smallest p-value; the classical max-statistic detector."""
    p = _validated_pvalues(pvalues)
    return float(p.min())


def bh_select(pvalues, alpha_fdr: float) -> int:
    """Benjamini-Hochberg selection count at FDR budget alpha_fdr.

    Returns the largest k with p_(k) * L / k <= alpha_fdr, or 0 when no
    index qualifies.
    """
    if not (0.0 < alpha_fdr < 1.0):
        raise AlphaOutOfRangeError(f"FDR budget must lie in (0, 1), got {alpha_fdr!r}")
    p = np.sort(_validated_pvalues(pvalues))
    L = p.size
    k = np.arange(1, L + 1, dtype=np.float64)
    passing = np.flatnonzero(p * L / k <= alpha_fdr)
    return int(passing[-1] + 1) if passing.size else 0


# ---------------------------------------------------------------------------
# covariance-aware aggregate tests


@dataclass(frozen=True)
class EmpiricalCorrelation:
    """Validated column-correlation matrix (symmetric, unit diagonal)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSquareError(f"correlation matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NonFiniteInputError("correlation matrix contains non-finite values")
        if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
            raise NotSquareError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12, rtol=0.0):
            raise NonFiniteInputError("correlation matrix must have unit diagonal")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise NonFiniteInputError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _correlation_matrix(Z: np.ndarray) -> np.ndarray:
    """Column correlations Z' Z of a standardised panel (``core_stats._standardised``),
    clipped into [-1, 1], with an exact unit diagonal."""
    m = Z.T @ Z
    np.clip(m, -1.0, 1.0, out=m)
    np.fill_diagonal(m, 1.0)
    return m


def empirical_correlation(X) -> EmpiricalCorrelation:
    """Pearson correlations among the columns of a panel."""
    Z, _ = _standardised(as_genotype_matrix(X).entries)
    return EmpiricalCorrelation(matrix=_correlation_matrix(Z))


def _as_square(sigma_hat) -> np.ndarray:
    if isinstance(sigma_hat, EmpiricalCorrelation):
        return sigma_hat.matrix
    m = np.asarray(sigma_hat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInputError("matrix contains non-finite values")
    return m


def _as_test_inputs(S, sigma_hat) -> tuple[np.ndarray, np.ndarray]:
    """Validated (L, 1) score column and (L, L) matrix of a covariance-aware test."""
    m = _as_square(sigma_hat)
    s = np.asarray(S, dtype=np.float64).ravel()
    if s.size != m.shape[0]:
        raise DimensionMismatchError(f"score length {s.size} != matrix dimension {m.shape[0]}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInputError("scores contain non-finite values")
    return s[:, None], m


def cholesky_lower(matrix) -> np.ndarray:
    """Lower Cholesky factor, reporting the failing leading minor on error."""
    m = _as_square(matrix)
    c, info = dpotrf(m, lower=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise NonFiniteInputError(f"cholesky: illegal argument at position {-info}")
    return np.tril(c)


def _lct_columns(S: np.ndarray, sigma_hat: np.ndarray) -> np.ndarray:
    """Signed sums of the (L, m) score columns standardised by ones' Sigma ones."""
    denom = float(sigma_hat.sum())
    if denom <= 0.0:
        raise NonPositiveQuadFormError(f"aggregate variance {denom!r} is not positive")
    return S.sum(axis=0) / np.sqrt(denom)


def _whitened_stats(S: np.ndarray, low: np.ndarray, needs) -> dict[str, np.ndarray]:
    """QT and/or DT, as named in ``needs``, of the (L, m) score columns
    whitened by the lower Cholesky factor ``low``."""
    w = solve_triangular(low, S, lower=True)
    out = {}
    if "QT" in needs:
        out["QT"] = np.einsum("ij,ij->j", w, w)
    if "DT" in needs:
        out["DT"] = -2.0 * np.log(_two_sided_p(w)).sum(axis=0)
    return out


def linear_combination_test(S, sigma_hat) -> float:
    """Sum of scores standardised by the covariance of the sum (signed)."""
    s, m = _as_test_inputs(S, sigma_hat)
    return float(_lct_columns(s, m)[0])


def quadratic_test(S, sigma_hat) -> float:
    """Full quadratic form S' Sigma^-1 S via one triangular solve."""
    s, m = _as_test_inputs(S, sigma_hat)
    return float(_whitened_stats(s, cholesky_lower(m), ("QT",))["QT"][0])


def decorrelation_test(S, sigma_hat) -> float:
    """Fisher combination of two-sided p-values of the whitened scores.

    Whitens with the same lower Cholesky factor as ``quadratic_test`` and
    returns -2 * sum log p.  With the identity matrix this reduces exactly
    to Fisher's method on the raw scores.
    """
    s, m = _as_test_inputs(S, sigma_hat)
    return float(_whitened_stats(s, cholesky_lower(m), ("DT",))["DT"][0])


class SparsityCheck(NamedTuple):
    ok: bool
    max_row_count: int


def check_row_sparsity(sigma_hat, threshold: float, max_per_row: int) -> SparsityCheck:
    """Does every row keep at most ``max_per_row`` off-diagonal entries
    with magnitude above ``threshold``?

    The covariance-aware tests stay honest only when the correlation matrix
    is sparse in this row-wise sense; use this as a pre-flight check.
    """
    m = _as_square(sigma_hat)
    if threshold < 0.0 or not np.isfinite(threshold):
        raise BadRangeError(f"threshold must be a finite non-negative real, got {threshold!r}")
    if max_per_row < 0:
        raise BadRangeError(f"max_per_row must be non-negative, got {max_per_row}")
    off = np.abs(m) > threshold
    np.fill_diagonal(off, False)
    worst = int(off.sum(axis=1).max()) if m.shape[0] else 0
    return SparsityCheck(ok=worst <= max_per_row, max_row_count=worst)
