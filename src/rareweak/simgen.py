"""Synthetic genotype panels with controlled column correlation, plus
additive and case/control trait models on top of them.

Genotypes are built at the haplotype level: each column gets one allele
draw per haplotype, and two independent haplotype draws are summed.

* Identity designs draw no normals.  The panel reads L * n raw 64-bit words
  from one Philox stream (``substream(seed, TAG_GENOTYPE)``), column j
  taking words j*n .. (j+1)*n - 1, so column j does not depend on L.  The
  low 32 bits of sample i's word give haplotype 0 and the high 32 bits
  haplotype 1; an allele is present when its half is below
  t_j = round(q_j * 2^32), so P(allele) = t_j / 2^32 exactly, within 2^-33
  of q_j, and the counts are binomial(2, t_j / 2^32).
* Correlated designs give each column a latent standard normal per
  haplotype from its own keyed generator (``column_generators``), mix the
  columns to a solved latent correlation, and threshold each latent value
  at the allele frequency's normal quantile.  Each latent correlation is
  chosen so that the *genotype* correlation hits the requested target: a
  bisection on the bivariate normal CDF, which has a closed form through
  Owen's T function, run once per design over all its distinct
  (target, q_j, q_k) at once.  Summing two independent haplotypes keeps the
  genotype correlation equal to the allele correlation and the marginals
  exactly binomial(2, q).

Randomness is Philox-based (see ``_rng``), so simulated panels are
reproducible and column j's draw does not depend on how many columns sit
to its right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz as _toeplitz
from scipy.special import expit, ndtr, ndtri, owens_t

from ._rng import (
    TAG_CASE_CONTROL,
    TAG_GENOTYPE,
    TAG_SIGNAL,
    TAG_TRAIT,
    column_generators,
    derive_seed,
    substream,
)
from .core_stats import GenotypeMatrix, Phenotype
from .detectors import _as_correlation, cholesky_lower
from .errors import (
    BadKError,
    BadSampleSizeError,
    ConfigError,
    DimensionMismatchError,
    EmptyGroupError,
    LatentNotPDError,
    NonFiniteInputError,
    NonPositiveSigmaError,
    NotPositiveDefiniteError,
    NotSquareError,
    QuotaStallError,
    UnattainableError,
)

# ---------------------------------------------------------------------------
# linkage designs


@dataclass(frozen=True, eq=False)
class LdSpec:
    """Declarative column-correlation design, checked at construction.

    kinds: ``identity``; ``toeplitz_banded`` (band k of the Toeplitz target
    is ``bands[k-1]``, zero beyond); ``poly_decay`` (off-diagonal (j, k) is
    scale * (1 + |j-k|)^-decay); ``explicit`` (a full matrix, checked to be
    symmetric with unit diagonal and entries in [-1, 1]).
    """

    kind: str
    bands: tuple[float, ...] = ()
    scale: float = 0.0
    decay: float = 0.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "toeplitz_banded":
            if not self.bands or not all(abs(b) < 1.0 for b in self.bands):  # NaN fails too
                raise NonFiniteInputError(f"band values must lie in (-1, 1), got {self.bands}")
        elif self.kind == "poly_decay":
            # entries are scale*(1+lag)^-decay; the lag-1 entry must stay below 1
            if not (0.0 < self.scale < np.inf and 0.0 < self.decay < np.inf):
                raise NonFiniteInputError(
                    f"need scale > 0 and decay > 0, got {self.scale!r}, {self.decay!r}")
            if self.scale * 2.0 ** -self.decay >= 1.0:
                raise NonFiniteInputError(f"scale {self.scale!r} with decay {self.decay!r} "
                                          "puts the first off-diagonal at or above 1")
        elif self.kind == "explicit":
            object.__setattr__(self, "matrix", _as_correlation(self.matrix))
        elif self.kind != "identity":
            raise ConfigError(f"unknown design kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "LdSpec":
        return cls(kind="identity")

    @classmethod
    def toeplitz(cls, *bands: float) -> "LdSpec":
        b = tuple(float(v) for v in bands)
        return cls(kind="toeplitz_banded", bands=b) if b else cls.identity()

    @classmethod
    def poly_decay(cls, scale: float, decay: float) -> "LdSpec":
        return cls(kind="poly_decay", scale=float(scale), decay=float(decay))

    @classmethod
    def explicit(cls, matrix) -> "LdSpec":
        return cls(kind="explicit", matrix=matrix)

    @property
    def name(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "toeplitz_banded":
            return "toeplitz(" + ",".join(f"{b:g}" for b in self.bands) + ")"
        if self.kind == "poly_decay":
            return f"poly({self.scale:g},{self.decay:g})"
        return "explicit"

    def _cache_key(self):
        if self.kind == "explicit":
            return ("explicit", self.matrix.tobytes(), self.matrix.shape)
        return (self.kind, self.bands, self.scale, self.decay)


def build_ld(spec: LdSpec, L: int) -> np.ndarray:
    """Materialise a design as an L x L correlation matrix, checked PD."""
    if L < 1:
        raise DimensionMismatchError(f"need L >= 1, got {L}")
    if spec.kind == "identity":
        return np.eye(L)
    if spec.kind == "toeplitz_banded":
        first = np.zeros(L)
        first[0] = 1.0
        nb = min(len(spec.bands), L - 1)
        first[1:1 + nb] = spec.bands[:nb]
        m = _toeplitz(first)
    elif spec.kind == "poly_decay":
        lag = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        m = spec.scale * (1.0 + lag) ** (-spec.decay)
        np.fill_diagonal(m, 1.0)
    else:
        if spec.matrix.shape != (L, L):
            raise NotSquareError(f"explicit design must be {L} x {L}, got {spec.matrix.shape}")
        m = spec.matrix.copy()
    try:
        cholesky_lower(m)
    except NotPositiveDefiniteError as e:
        info = e.minor_index
        raise NotPositiveDefiniteError(info, f"design {spec.name} (L={L}) fails at leading minor {info}") from None
    return m


def six_toeplitz_designs() -> tuple[LdSpec, ...]:
    """The six benchmark designs: independence plus five banded targets."""
    return (
        LdSpec.identity(),
        LdSpec.toeplitz(0.3),
        LdSpec.toeplitz(0.25),
        LdSpec.toeplitz(0.2),
        LdSpec.toeplitz(0.25, 0.3),
        LdSpec.toeplitz(0.25, 0.2),
    )


# ---------------------------------------------------------------------------
# latent-correlation solving


def _bivariate_normal_cdf(h, k, rho) -> np.ndarray:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals with correlation
    rho, elementwise, for |rho| < 1.

    Closed form through Owen's T function (Owen 1956, Ann. Math. Statist. 27):
    Phi(h) - 2 T(h, sqrt((1 - rho) / (1 + rho))) on equal margins, the two-T
    form otherwise, where a zero margin's T term takes its limit 1/4.
    """
    s = np.sqrt((1.0 - rho) * (1.0 + rho))

    def owen(a, b):
        # T(a, (b - rho a) / (a s)), or its limit from the side where a b > 0
        at_zero = a == 0.0
        return np.where(at_zero, 0.25,
                        owens_t(a, (b - rho * a) / (np.where(at_zero, 1.0, a) * s)))

    equal = ndtr(h) - 2.0 * owens_t(h, np.sqrt((1.0 - rho) / (1.0 + rho)))
    general = (0.5 * (ndtr(h) + ndtr(k)) - owen(h, k) - owen(k, h)
               - np.where(h * k < 0.0, 0.5, 0.0))
    return np.where(h == k, equal, general)


def solve_latent_correlation(rho_target, q_j, q_k):
    """Latent normal correlation that yields a given Bernoulli correlation.

    For alleles thresholded at the q_j / q_k quantiles, returns the latent
    rho_z whose implied allele correlation matches ``rho_target`` to within
    1e-8.  Takes scalars, or arrays of one shape solved together (the
    scalar call is the one-element case).  Targets outside the Frechet
    bounds for these marginals raise ``UnattainableError``; targets exactly
    on a bound return +-1.
    """
    shape = np.shape(rho_target)
    if not np.shape(q_j) == np.shape(q_k) == shape:
        raise DimensionMismatchError(
            f"targets and frequencies need one shape, got {shape}, {np.shape(q_j)}, {np.shape(q_k)}")
    t, qj, qk = (np.asarray(v, dtype=np.float64).ravel() for v in (rho_target, q_j, q_k))
    ok = np.abs(t) <= 1.0
    if not ok.all():
        raise NonFiniteInputError(f"target correlation must lie in [-1, 1], got {float(t[~ok][0])!r}")
    for q in (qj, qk):
        ok = (q > 0.0) & (q < 1.0)
        if not ok.all():
            raise NonFiniteInputError(f"allele frequency must lie in (0, 1), got {float(q[~ok][0])!r}")

    denom = np.sqrt(qj * (1.0 - qj) * qk * (1.0 - qk))
    rho_hi = (np.minimum(qj, qk) - qj * qk) / denom
    rho_lo = (np.maximum(0.0, qj + qk - 1.0) - qj * qk) / denom
    ok = (t <= rho_hi + 1e-12) & (t >= rho_lo - 1e-12)
    if not ok.all():
        i = np.argmin(ok)
        raise UnattainableError(
            f"target {t[i]:g} outside attainable [{rho_lo[i]:.6g}, {rho_hi[i]:.6g}] "
            f"for q = ({qj[i]:g}, {qk[i]:g})")
    # zero maps to zero and a target on a bound to +-1; the rest is bisected
    z = np.where(t == 0.0, 0.0, np.where(t >= rho_hi - 1e-12, 1.0, -1.0))
    i = np.flatnonzero((t != 0.0) & (t < rho_hi - 1e-12) & (t > rho_lo + 1e-12))
    h, k, qq, den, target = ndtri(qj[i]), ndtri(qk[i]), qj[i] * qk[i], denom[i], t[i]
    lo, hi = np.full(i.size, -1.0), np.full(i.size, 1.0)
    live = np.arange(i.size)
    for _ in range(200):
        if not live.size:
            break
        z[i[live]] = m = 0.5 * (lo[live] + hi[live])
        f = (_bivariate_normal_cdf(h[live], k[live], m) - qq[live]) / den[live] - target[live]
        lo[live], hi[live] = np.where(f < 0.0, m, lo[live]), np.where(f < 0.0, hi[live], m)
        live = live[np.abs(f) > 1e-8]
    return float(z[0]) if shape == () else z.reshape(shape)


# latent Cholesky factors by (design, L, q), oldest dropped first: rebuilding
# poly(0.5,1)'s at L = 100 takes 4.5 ms, a fifth of a null_poly replicate
_LATENT_CACHE: dict[tuple, np.ndarray] = {}
_LATENT_CACHE_MAX = 16


def _latent_chol(spec: LdSpec, L: int, q: np.ndarray) -> np.ndarray:
    """Cholesky factor of the latent correlation matrix behind a design.

    The latent correlations come from one ``solve_latent_correlation`` call
    over the design's distinct (target, q_j, q_k) triples.  Each pair's
    target may be attainable while the matrix of latent correlations is not
    positive definite, as for toeplitz(0.3) at q <= 0.2: no Gaussian copula
    then reaches every target at once, and the design is refused with
    ``LatentNotPDError`` rather than projected to a nearby matrix.
    """
    key = (spec._cache_key(), L, q.tobytes())
    chol = _LATENT_CACHE.get(key)
    if chol is not None:
        return chol
    target = build_ld(spec, L)
    jj, kk = np.nonzero(np.triu(target, k=1))
    triples = np.column_stack([target[jj, kk], q[jj], q[kk]])
    # distinct triples, compared by their bytes (much faster than axis=0)
    _, first, inverse = np.unique(triples.view(np.dtype((np.void, 24))).ravel(),
                                  return_index=True, return_inverse=True)
    latent = np.eye(L)
    latent[jj, kk] = latent[kk, jj] = solve_latent_correlation(*triples[first].T)[inverse]
    try:
        chol = cholesky_lower(latent)
    except NotPositiveDefiniteError as e:
        info = e.minor_index
        raise LatentNotPDError(info, (
            f"design {spec.name} at L={L}, q in [{q.min():g}, {q.max():g}]: every pairwise "
            f"target is attainable, but the latent correlation matrix is not positive "
            f"definite (leading minor {info}); no Gaussian-threshold panel has these "
            f"correlations, so use weaker correlations or commoner alleles"))
    if len(_LATENT_CACHE) >= _LATENT_CACHE_MAX:
        del _LATENT_CACHE[next(iter(_LATENT_CACHE))]
    _LATENT_CACHE[key] = chol
    return chol


# ---------------------------------------------------------------------------
# genotype panels


def _as_freqs(q, L: int) -> np.ndarray:
    if L < 1:
        raise DimensionMismatchError(f"need L >= 1, got {L}")
    qa = np.asarray(q, dtype=np.float64)
    if qa.ndim == 0:
        qa = np.full(L, float(qa))
    elif qa.size != L:
        raise DimensionMismatchError(f"q has length {qa.size}, expected {L}")
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise NonFiniteInputError("allele frequencies must lie in (0, 1)")
    return qa


def simulate_genotypes(n: int, q, ld: LdSpec, seed: int, L: int) -> GenotypeMatrix:
    """Panel of n samples by L columns whose columns hit the design's
    correlation targets.

    An explicit design (``LdSpec.explicit``) must be L x L, or
    ``NotSquareError`` is raised.  ``q`` is a scalar or per-column allele
    frequency.  Marginals are exactly binomial(2, q_j) for correlated
    designs, and binomial(2, q_j rounded to a multiple of 2^-32) for
    identity panels, which draw raw Philox words (see the module
    docstring).  ``LdSpec.explicit(np.eye(L))`` takes the correlated path,
    so it draws a different panel from ``identity``.
    """
    if n < 2:
        raise BadSampleSizeError(f"need n >= 2, got {n}")
    if not isinstance(ld, LdSpec):
        raise ConfigError("ld must be an LdSpec; give a matrix as LdSpec.explicit(matrix)")
    qa = _as_freqs(q, L)
    if ld.kind == "identity":
        # raw Philox words in the layout the module docstring gives
        words = substream(seed, TAG_GENOTYPE).bit_generator.random_raw(L * n).reshape(L, n)
        t = np.rint(qa * 2.0 ** 32).astype(np.uint64)[:, None]
        counts = np.add((words & 0xFFFFFFFF) < t, (words >> 32) < t, dtype=np.uint8)
        return GenotypeMatrix(entries=counts.T)
    chol = _latent_chol(ld, L, qa)

    thresholds = ndtri(qa)  # allele present when latent value falls below
    gens = column_generators(seed, (TAG_GENOTYPE,), L)
    raw = np.empty((2, n, L))
    for j, g in enumerate(gens):
        raw[:, :, j] = g.standard_normal((2, n))
    counts = np.zeros((n, L), dtype=np.float64)
    for a in (0, 1):
        counts += raw[a] @ chol.T <= thresholds
    return GenotypeMatrix(entries=counts)



# ---------------------------------------------------------------------------
# signal placement and traits


@dataclass(frozen=True)
class CoefficientScheme:
    """How per-signal coefficients relate to the base magnitude.

    ``fixed``: every signal coefficient equals the base.  ``random_sign``:
    base magnitude, independent fair sign per signal.  ``uniform_range``:
    positive magnitude drawn uniformly in [lo, hi] * base.
    """

    kind: str
    lo: float = 1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "random_sign", "uniform_range"):
            raise ConfigError(f"unknown coefficient scheme {self.kind!r}")
        if self.kind == "uniform_range" and not (0.0 < self.lo <= self.hi < np.inf):
            raise NonFiniteInputError(f"need 0 < lo <= hi, got {self.lo!r}, {self.hi!r}")

    @classmethod
    def fixed(cls) -> "CoefficientScheme":
        return cls(kind="fixed")

    @classmethod
    def random_sign(cls) -> "CoefficientScheme":
        return cls(kind="random_sign")

    @classmethod
    def uniform_range(cls, lo: float, hi: float) -> "CoefficientScheme":
        return cls(kind="uniform_range", lo=float(lo), hi=float(hi))

    @property
    def name(self) -> str:
        if self.kind == "uniform_range":
            return f"uniform_range({self.lo:g},{self.hi:g})"
        return self.kind


@dataclass(frozen=True, eq=False)
class SignalConfig:
    """Realised signal: which columns carry effects and with what coefficients.

    An empty support, with beta all zero, is the null signal.
    """

    support: np.ndarray   # sorted, distinct column indices
    beta: np.ndarray      # length-L coefficient vector, zero off support

    def __post_init__(self):
        s = np.unique(np.asarray(self.support, dtype=np.int64))
        b = np.asarray(self.beta, dtype=np.float64)
        if s.size != np.size(self.support):
            raise BadKError("support must be distinct")
        if np.any(s < 0) or np.any(s >= b.size):
            raise BadKError("support indices outside 0..L-1")
        if np.count_nonzero(np.delete(b, s)):
            raise BadKError("beta must be zero off the support")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "beta", b)

    @property
    def L(self) -> int:
        return self.beta.size

    @property
    def K(self) -> int:
        return self.support.size


def draw_signal_config(L: int, K: int, scheme: CoefficientScheme,
                       base_beta: float, seed: int) -> SignalConfig:
    """Place K signals uniformly at random and draw their coefficients."""
    if not 1 <= K <= L:
        raise BadKError(f"need 1 <= K <= L, got K={K}, L={L}")
    if not np.isfinite(base_beta) or base_beta <= 0.0:
        raise NonFiniteInputError(f"base coefficient must be positive, got {base_beta!r}")
    rng = substream(seed, TAG_SIGNAL)
    support = np.sort(rng.choice(L, size=K, replace=False)).astype(np.int64)
    coeffs = np.full(K, float(base_beta))
    if scheme.kind == "uniform_range":
        coeffs *= rng.uniform(scheme.lo, scheme.hi, size=K)
    elif scheme.kind == "random_sign":
        coeffs *= rng.integers(0, 2, size=K) * 2.0 - 1.0
    beta = np.zeros(L)
    beta[support] = coeffs
    return SignalConfig(support=support, beta=beta)


@dataclass(frozen=True)
class TraitModel:
    """Trait generator family: additive Gaussian or logistic case/control."""

    kind: str
    sigma: float = 1.0
    beta0: float = 0.0
    n_case: int = 0
    n_control: int = 0

    def __post_init__(self):
        if self.kind not in ("additive", "logistic"):
            raise ConfigError(f"unknown trait kind {self.kind!r}")
        if not np.isfinite(self.sigma) or self.sigma < 0.0:
            raise NonPositiveSigmaError(f"sigma must be non-negative, got {self.sigma!r}")
        if self.kind == "logistic" and (self.n_case < 1 or self.n_control < 1):
            raise EmptyGroupError(f"need positive quotas, got {self.n_case} / {self.n_control}")
        if not np.isfinite(self.beta0):
            raise NonFiniteInputError(f"intercept must be finite, got {self.beta0!r}")

    @classmethod
    def additive(cls, sigma: float = 1.0) -> "TraitModel":
        return cls(kind="additive", sigma=float(sigma))

    @classmethod
    def logistic(cls, beta0: float, n_case: int, n_control: int) -> "TraitModel":
        return cls(kind="logistic", beta0=float(beta0), n_case=int(n_case), n_control=int(n_control))


def simulate_quantitative(X: GenotypeMatrix, signal: SignalConfig,
                          sigma: float, seed: int) -> Phenotype:
    """Additive trait: X beta plus independent N(0, sigma^2) noise, zero intercept."""
    if not np.isfinite(sigma) or sigma < 0.0:
        raise NonPositiveSigmaError(f"sigma must be non-negative, got {sigma!r}")
    if signal.L != X.n_snps:
        raise DimensionMismatchError(f"signal is for L={signal.L}, panel has {X.n_snps}")
    y = X.entries @ signal.beta
    if sigma > 0.0:
        y = y + _trait_noise(sigma, seed, X.n)
    return Phenotype(values=y, kind="quantitative")


def _trait_noise(sigma: float, seed: int, n: int) -> np.ndarray:
    """n N(0, sigma^2) draws from the trait stream of ``seed``: the noise of
    ``simulate_quantitative``, and of the response that FDR genes share."""
    return sigma * substream(seed, TAG_TRAIT).standard_normal(n)


# population rows drawn before a case/control sampler checks for a stalled quota
_STALL_AFTER = 4_194_304


def simulate_case_control(q, ld, signal: SignalConfig, beta0: float,
                          n_case: int, n_control: int, seed: int) -> tuple[GenotypeMatrix, Phenotype]:
    """Retrospective case/control panel under a logistic disease model.

    The panel has ``signal.L`` columns.  Population genotype rows are drawn
    in batches of 2048, one panel each; each row becomes a case with
    probability expit(beta0 + x . beta) and is kept while its group's quota
    is open.  Raises ``QuotaStallError`` when ``_STALL_AFTER`` rows have been
    drawn and an unfilled group's acceptance rate sits below 1e-6.
    """
    if n_case < 1 or n_control < 1:
        raise EmptyGroupError(f"need positive quotas, got {n_case} / {n_control}")
    cases: list[np.ndarray] = []
    controls: list[np.ndarray] = []
    got_case = got_control = 0
    drawn = 0
    b = 0
    while got_case < n_case or got_control < n_control:
        child = derive_seed(seed, TAG_CASE_CONTROL, b)
        Xb = simulate_genotypes(2048, q, ld, seed=child, L=signal.L).entries
        u = substream(child, TAG_TRAIT).random(Xb.shape[0])
        is_case = u < expit(beta0 + Xb @ signal.beta)
        if got_case < n_case:
            take = Xb[is_case][: n_case - got_case]
            if take.size:
                cases.append(take)
                got_case += take.shape[0]
        if got_control < n_control:
            take = Xb[~is_case][: n_control - got_control]
            if take.size:
                controls.append(take)
                got_control += take.shape[0]
        drawn += Xb.shape[0]
        b += 1
        if drawn >= _STALL_AFTER:
            for label, got, need in (("case", got_case, n_case), ("control", got_control, n_control)):
                if got < need and got / drawn < 1e-6:
                    raise QuotaStallError(
                        f"{label} acceptance rate {got}/{drawn} below 1e-6 with quota unfilled")

    X = np.vstack(cases + controls)
    y = np.concatenate([np.ones(n_case), np.zeros(n_control)])
    return GenotypeMatrix(entries=X), Phenotype(values=y, kind="binary")
