"""Rare/weak calibration: effect sizes and the detectability boundary.

Calibration couples the panel width L to everything else through two
exponents: ``alpha`` in (1/2, 1) sets how rare the signal is (about
L^(1-alpha) non-null columns, ``signal_count``) and ``r`` > 0 sets how
strong each non-null effect is on the noise scale.  ``beta_from_r``
translates the strength exponent into a regression coefficient for given
panel width, sample size, allele frequency, and noise sd;
``detection_boundary`` gives the exact threshold curve in (alpha, r)
separating detectable from undetectable sparse signals, and
``minp_boundary`` the strictly higher curve at which the max-based test
starts to work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    BadSampleSizeError,
    DimensionMismatchError,
    NonFiniteInputError,
    NonPositiveSigmaError,
)

CurveMode = Literal["optimal", "minp"]


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not np.isfinite(a) or not (0.5 < a < 1.0):
        raise AlphaOutOfRangeError(f"rarity exponent must lie in (1/2, 1), got {alpha!r}")
    return a


def detection_boundary(alpha: float) -> float:
    """Minimal detectable strength exponent at rarity ``alpha``.

    Piecewise: alpha - 1/2 on (1/2, 3/4), (1 - sqrt(1 - alpha))^2 on
    [3/4, 1).  The two pieces meet at alpha = 3/4 with common value 1/4.
    """
    a = _check_alpha(alpha)
    if a < 0.75:
        return a - 0.5
    return (1.0 - np.sqrt(1.0 - a)) ** 2


def minp_boundary(alpha: float) -> float:
    """Strength exponent needed by the max/min-p test: (1 - sqrt(1-alpha))^2.

    Coincides with ``detection_boundary`` on [3/4, 1) and sits strictly
    above it on (1/2, 3/4), which is the whole case for procedures that look
    beyond the most extreme column.
    """
    a = _check_alpha(alpha)
    return (1.0 - np.sqrt(1.0 - a)) ** 2


def signal_count(L: int, alpha: float) -> int:
    """Number of signal columns implied by rarity alpha: round(L^(1-alpha)), at least 1."""
    if L < 2:
        raise BadSampleSizeError(f"need L >= 2, got {L}")
    a = _check_alpha(alpha)
    return max(1, int(np.floor(L ** (1.0 - a) + 0.5)))


def _check_panel(L: int, n: int, q, sigma: float) -> None:
    """Check the panel a strength exponent is calibrated on: L >= 2 columns,
    n >= 2 samples, noise sd sigma > 0, and allele frequency q (a scalar or
    per-signal array) in (0, 1)."""
    if L < 2:
        raise BadSampleSizeError(f"need L >= 2, got {L}")
    if n < 2:
        raise BadSampleSizeError(f"need n >= 2, got {n}")
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma!r}")
    qa = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise NonFiniteInputError("allele frequency q must lie in (0, 1)")


def beta_from_r(r, L: int, n: int, q=0.5, sigma: float = 1.0):
    """Per-signal regression coefficient implied by strength exponent r on
    a panel of L columns and n samples.

    beta = sigma * sqrt(2 r log L) / sqrt(2 n q (1 - q)), natural log.
    Scalar inputs give a scalar, array-valued r or q an array.
    """
    _check_panel(L, n, q, sigma)
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise NonFiniteInputError("strength exponent r must be positive and finite")
    q = np.asarray(q, dtype=np.float64)
    tau = np.sqrt(2.0 * r * np.log(L))
    beta = sigma * tau / np.sqrt(2.0 * n * q * (1.0 - q))
    return beta if beta.ndim else float(beta)


def heritability(beta, q, sigma: float) -> float:
    """Fraction of trait variance explained by the listed coefficients.

    Under independent columns with allele variance 2 q (1 - q) per column:
    g / (g + sigma^2) with g = sum beta_j^2 * 2 q_j (1 - q_j).
    """
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma!r}")
    b = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    qa = np.broadcast_to(np.asarray(q, dtype=np.float64), b.shape)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(qa))):
        raise NonFiniteInputError("beta and q must be finite")
    if np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise NonFiniteInputError("allele frequency q must lie in (0, 1)")
    genetic = float(np.sum(b * b * 2.0 * qa * (1.0 - qa)))
    return genetic / (genetic + sigma ** 2)


@dataclass(frozen=True)
class BoundaryCurve:
    """Boundary sampled on an alpha grid, with implied effect sizes."""

    mode: CurveMode
    alpha: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    heritability: np.ndarray

    def __len__(self) -> int:
        return self.alpha.size

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        for i in range(len(self)):
            yield (float(self.alpha[i]), float(self.r[i]),
                   float(self.beta[i]), float(self.heritability[i]))


def boundary_curve(alphas: Sequence[float], mode: CurveMode, L: int, n: int, q: float,
                   sigma: float = 1.0) -> BoundaryCurve:
    """Sample a boundary curve and translate it into effect-size units.

    At each grid point the strength exponent on the requested curve is
    converted to a coefficient on the panel (L, n, q, sigma), and the
    variance explained assumes signal_count(L, alpha) equal signals.
    """
    _check_panel(L, n, q, sigma)
    if mode not in ("optimal", "minp"):
        raise DimensionMismatchError(f"unknown curve mode {mode!r}")
    grid = np.asarray(list(alphas), dtype=np.float64)
    if grid.size == 0:
        raise DimensionMismatchError("alpha grid is empty")
    edge_fn = detection_boundary if mode == "optimal" else minp_boundary
    if np.ndim(q):
        raise DimensionMismatchError("boundary_curve needs a scalar allele frequency")
    q = float(q)
    r_vals = np.array([edge_fn(float(a)) for a in grid])
    beta_vals = beta_from_r(r_vals, L, n, q, sigma)
    h_vals = np.array([heritability(np.full(signal_count(L, float(a)), b), q, sigma)
                       for a, b in zip(grid, beta_vals)])
    return BoundaryCurve(mode=mode, alpha=grid, r=r_vals, beta=beta_vals, heritability=h_vals)
