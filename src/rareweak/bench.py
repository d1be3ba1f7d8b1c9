"""Permutation-calibrated power, FDR, and gene-ranking benchmarks.

Every method here is calibrated the same way: a scalar set-level statistic,
oriented so larger means more signal, is compared against its own
permutation distribution.  The per-method statistics are

* ``HC``   higher criticism of two-sided p-values (t scores for
           quantitative traits, frequency-difference z scores for binary);
* ``HCm``  higher criticism of p-values from the sqrt(n-1)*rho scores
           (quantitative traits only);
* ``MinP`` the largest absolute marginal score (equivalent to the smallest
           p-value, kept on the score scale);
* ``LCT``  |sum of scores| / sqrt(ones' Sigma ones);
* ``QT``   scores' Sigma^-1 scores;
* ``DT``   Fisher combination of the whitened scores' p-values;

with Sigma the empirical column correlation of the *observed* panel, which
permutations of the response leave untouched.  Methods are these names:
``_as_methods`` checks a request once, and every kernel returns its
statistics in the order asked for.

No statistic is computed here.  The batched kernels of ``core_stats``
(scores, p-values) and ``detectors`` (row-wise HC, correlation matrix, signed
LCT, whitened QT and DT) are composed once, for a block of gene sets:
``_prepared_block`` standardises the genes' columns, side by side, into Z
and computes what does not depend on the response (the case/control score
scale, and per gene Sigma's Cholesky factor and LCT's norm);
``_block_stats`` turns Z' Y into every gene's statistics and adds the
orientation: |LCT|, since the public ``linear_combination_test`` is signed,
and max |score| for MinP.  Entry points validate inputs once, with
``core_stats.validated_inputs``, before any permutation is drawn.

``_permutation_slabs`` is the one place permutations are drawn, of the
unit response (``core_stats._unit_response``), which a permutation keeps
centred with unit norm, so no slab is centred again.  Slabs hold only
permutations: each observed statistic is its own product of the gene's
columns with the response, on a row-major Z (``_observed_stats``).
``_scored_slabs`` is the one loop that scores slabs, in bounded memory:
power replicates, ``permutation_cutoff`` and each FDR gene concatenate one
gene's statistics over it (``_response_stats``), and a ranking chunk
counts, per gene, the permuted statistics that reach its observed one.

Marginal scores reach HC, HCm and DT on the N(0, 1) scale: their p-values
are the two-sided normal tail, t scores included, which permutation
calibration absorbs (``core_stats.marginal_stats`` alone reads t scores on
the t(n - 2) scale).

Replicates draw fresh genotypes and fresh signal placements, all in
``_draw_replicate``, which ``rareweak simulate`` calls too.  Each
replicate's seeds derive from the master seed and the replicate index, so
results are identical however ``_run_chunked``, the one place work is
split, spreads replicates over workers.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import NamedTuple, Sequence

import numpy as np

from ._blas import one_thread
from ._rng import TAG_GENE, TAG_PERMUTE, TAG_REPLICATE, derive_seed, substream
from .boundary import beta_from_r, signal_count
from .core_stats import (
    GenotypeMatrix,
    Phenotype,
    _correlations,
    _prepared_panel,
    _scores_from_rho,
    _two_sided_p,
    _unit_response,
    _z_from_rho,
    validated_inputs,
)
from .detectors import _correlation_matrix, _hc_max_rows, _lct_columns, _lct_norm, _whitened_stats, cholesky_lower
from .errors import (
    BadSampleSizeError,
    ConfigError,
    ConstantColumnError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    EmptyGeneError,
    MonomorphicColumnError,
    NonFiniteInputError,
    TooFewPermutationsError,
)
from .simgen import CoefficientScheme, LdSpec, SignalConfig, TraitModel, _trait_noise, draw_signal_config, simulate_case_control, simulate_genotypes, simulate_quantitative

METHOD_NAMES = ("HC", "HCm", "MinP", "LCT", "QT", "DT")


def methods_for(trait_kind: str) -> tuple[str, ...]:
    """The benchmark methods that apply to a trait kind, in ``METHOD_NAMES`` order."""
    # the correlation-score variant needs a quantitative response
    return tuple(m for m in METHOD_NAMES if not (m == "HCm" and trait_kind == "binary"))


def _as_methods(methods: Sequence[str], trait_kind: str) -> tuple[str, ...]:
    """The requested method names, checked, in request order."""
    out = tuple(methods)
    if not out:
        raise ConfigError("no methods requested")
    for name in out:
        if name not in METHOD_NAMES:
            raise ConfigError(f"unknown method {name!r}; know {METHOD_NAMES}")
    if len(set(out)) != len(out):
        raise ConfigError("duplicate methods requested")
    applicable = methods_for(trait_kind)
    for name in out:
        if name not in applicable:
            raise ConfigError(f"method {name} is not applicable to {trait_kind} traits")
    return out


@dataclass(frozen=True)
class Scenario:
    """Everything one benchmark replicate needs to generate itself.

    ``r`` is bookkeeping: when a scenario is built from a calibrated
    strength exponent it is recorded here and surfaces in result tables;
    scenarios built directly from a coefficient leave it None.
    """

    L: int
    q: float
    ld: LdSpec
    trait: TraitModel
    n_signals: int
    base_beta: float
    scheme: CoefficientScheme
    n: int | None = None           # samples for additive traits
    r: float | None = None

    def __post_init__(self):
        if self.L < 2:
            raise BadSampleSizeError(f"need L >= 2, got {self.L}")
        if np.ndim(self.q):
            raise DimensionMismatchError(f"allele frequency must be a scalar, "
                                         f"got shape {np.shape(self.q)}")
        if not (0.0 < self.q < 1.0):
            raise NonFiniteInputError(f"allele frequency must lie in (0, 1), got {self.q!r}")
        if not np.isfinite(self.base_beta):  # nan would pass both sign checks below
            raise NonFiniteInputError(f"base coefficient must be finite, got {self.base_beta!r}")
        if self.base_beta < 0.0:
            raise DimensionMismatchError(f"base coefficient must be >= 0, got {self.base_beta!r}")
        if self.base_beta > 0.0 and not 1 <= self.n_signals <= self.L:
            raise DimensionMismatchError(f"need 1 <= n_signals <= L, got {self.n_signals}")
        if self.trait.kind == "additive" and (self.n is None or self.n < 2):
            raise BadSampleSizeError("additive scenarios need n >= 2")

    @property
    def trait_kind(self) -> str:
        return "quantitative" if self.trait.kind == "additive" else "binary"

    @property
    def n_samples(self) -> int:
        if self.trait.kind == "additive":
            return self.n
        return self.trait.n_case + self.trait.n_control

    @property
    def r_or_beta(self) -> float:
        return self.r if self.r is not None else self.base_beta

    @classmethod
    def from_strength(cls, L: int, n: int, q: float, sigma: float, alpha: float,
                      r: float, ld: LdSpec, scheme: CoefficientScheme | None = None) -> "Scenario":
        """Calibrated additive scenario: rarity alpha fixes the signal count,
        strength r fixes the coefficient (see ``boundary.beta_from_r``)."""
        return cls(L=L, q=q, ld=ld, trait=TraitModel.additive(sigma),
                   n_signals=signal_count(L, alpha), base_beta=beta_from_r(r, L, n, q, sigma),
                   scheme=scheme or CoefficientScheme.fixed(), n=n, r=float(r))

    def null(self) -> "Scenario":
        return replace(self, base_beta=0.0, r=0.0 if self.r is not None else None)

    def signal(self, seed: int) -> SignalConfig:
        """The signal drawn from ``seed``'s signal stream, or the empty
        signal when the scenario is null."""
        if self.base_beta > 0.0:
            return draw_signal_config(self.L, self.n_signals, self.scheme, self.base_beta, seed=seed)
        return SignalConfig(support=np.empty(0, dtype=np.int64), beta=np.zeros(self.L))


# ---------------------------------------------------------------------------
# statistic kernels


class _Block(NamedTuple):
    """Gene sets prepared for scoring: Z, their standardised columns side by
    side; each gene's span of Z's columns; Z's case/control score scale (None
    for a quantitative trait); per gene sqrt(ones' Sigma ones) and Sigma's
    lower Cholesky factor, each None when no requested method needs it."""

    Z: np.ndarray
    spans: tuple[slice, ...]
    scale: np.ndarray | None
    lct_norms: tuple[float | None, ...]
    lows: tuple[np.ndarray | None, ...]


def _prepared_block(X: np.ndarray, spans: Sequence[slice], trait_kind: str,
                    needs: tuple[str, ...], out: np.ndarray | None = None) -> _Block:
    """The ``_Block`` of the genes whose columns of X ``spans`` mark, X
    standardised in one ``core_stats._prepared_panel`` call (into ``out``
    when given)."""
    Z, scale = _prepared_panel(X, trait_kind, out)
    whitened = {"QT", "DT"}.intersection(needs)
    lct_norms, lows = [], []
    for s in spans:
        sigma_hat = _correlation_matrix(Z[:, s]) if whitened or "LCT" in needs else None
        lct_norms.append(_lct_norm(sigma_hat) if "LCT" in needs else None)
        lows.append(cholesky_lower(sigma_hat) if whitened else None)
    return _Block(Z, tuple(spans), scale, tuple(lct_norms), tuple(lows))


def _block_stats(block: _Block, rho: np.ndarray, n: int,
                 needs: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per requested method, the (genes, m) exceedance-oriented statistics of
    the block's genes from Z's (W, m) correlations with the responses: one
    score conversion for the whole block, then each gene's rows."""
    scores = _scores_from_rho(rho, n, block.scale)
    out = {name: np.empty((len(block.spans), rho.shape[1])) for name in needs}
    for g, s in enumerate(block.spans):
        gene_scores = scores[s]
        if "HCm" in needs:
            out["HCm"][g] = _hc_max_rows(_two_sided_p(_z_from_rho(rho[s], n).T))
        if "HC" in needs:
            out["HC"][g] = _hc_max_rows(_two_sided_p(gene_scores.T))
        if "MinP" in needs:
            out["MinP"][g] = np.abs(gene_scores).max(axis=0)
        if "LCT" in needs:
            out["LCT"][g] = np.abs(_lct_columns(gene_scores, block.lct_norms[g]))
        if block.lows[g] is not None:  # QT or DT requested
            for name, stat in _whitened_stats(gene_scores, block.lows[g], needs).items():
                out[name][g] = stat
    return out


def _stats_for_columns(X: np.ndarray, Y: np.ndarray, trait_kind: str,
                       needs: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per requested method, the m exceedance-oriented statistics of the
    (n, L) panel X on each of the (n, m) unit responses Y: the one-gene,
    one-slab case of ``_scored_slabs``.  No package path calls it: tests
    compare the slab loop against it, and perfbench wraps it by name."""
    block = _prepared_block(X, (slice(None),), trait_kind, needs)
    stats = _block_stats(block, _correlations(block.Z, Y), X.shape[0], needs)
    return {name: gene[0] for name, gene in stats.items()}


# bytes of one slab of permuted responses (see _scored_slabs)
_SLAB_BYTES = 16 * 2**20


def _slab_width(n: int) -> int:
    return max(1, _SLAB_BYTES // (8 * n))


def _permutation_slabs(u: np.ndarray, n_perms: int, seed: int, width: int):
    """n_perms permutations of the unit response u from the permutation
    stream of ``seed``, as (n, <= width) blocks in draw order, drawn lazily
    and not kept here once yielded."""
    n = u.size
    perm_rng = substream(seed, TAG_PERMUTE)

    def slab(start: int) -> np.ndarray:
        # filled row by row, one contiguous response at a time
        block = np.empty((min(width, n_perms - start), n))
        for j in range(block.shape[0]):
            block[j] = u[perm_rng.permutation(n)]
        return block.T

    for start in range(0, n_perms, width):
        yield slab(start)  # never bound here: the caller's reference is the only one


def _scored_slabs(block: _Block, u: np.ndarray, n_perms: int, seed: int, needs: tuple[str, ...]):
    """``_block_stats`` of the (n, W) block against each slab Y of
    ``_permutation_slabs(u, n_perms, seed, _slab_width(n))``, in draw order,
    each from one product rho = Z' Y.

    Each slab is freed once its product is taken, each product once it is
    scored, and no yielded statistics are kept here, so a caller that drops
    them holds Z, one (n, _slab_width(n)) slab and one (W, slab) product at
    a time, whatever n_perms is.  ``_slab_width`` depends on n alone, so the
    statistics do not depend on the worker count; another width can move
    them in the last bits (under 1e-12 relative for HC between widths 7 and
    64 at n = 1000), far inside ``_TIE_RTOL``.
    """
    n = u.size
    for Y in _permutation_slabs(u, n_perms, seed, _slab_width(n)):
        rho = _correlations(block.Z, Y)
        del Y
        stats = _block_stats(block, rho, n, needs)
        del rho
        yield stats
        del stats


def _observed_stats(block: _Block, u: np.ndarray, needs: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per method, each gene's statistic on the unit response u from one
    product of its own columns, copied row-major (a view rounds otherwise)."""
    rho = np.concatenate([_correlations(np.ascontiguousarray(block.Z[:, s]), u[:, None]) for s in block.spans])
    return {name: stats[:, 0] for name, stats in _block_stats(block, rho, u.size, needs).items()}


def _draw_replicate(scenario: Scenario, seed: int) -> tuple[GenotypeMatrix, Phenotype, SignalConfig]:
    """The panel, response and signal of one replicate of ``scenario``,
    drawn from ``seed``: what a power replicate scores and what
    ``rareweak simulate`` writes."""
    signal = scenario.signal(seed)
    if scenario.trait.kind == "additive":
        X = simulate_genotypes(scenario.n, scenario.q, scenario.ld, seed=seed, L=scenario.L)
        return X, simulate_quantitative(X, signal, scenario.trait.sigma, seed=seed), signal
    X, y = simulate_case_control(scenario.q, scenario.ld, signal, scenario.trait.beta0,
                                 scenario.trait.n_case, scenario.trait.n_control, seed=seed)
    return X, y, signal


def _response_stats(X: np.ndarray, y: np.ndarray, trait_kind: str, needs: tuple[str, ...],
                    n_perms: int, seed: int) -> dict[str, np.ndarray]:
    """Per requested method, the statistic of X, prepared once and row-major,
    on y (entry 0) and on n_perms permutations of it."""
    u = _unit_response(y)
    block = _prepared_block(np.ascontiguousarray(X), (slice(None),), trait_kind, needs)
    observed = _observed_stats(block, u, needs)
    stats = list(_scored_slabs(block, u, n_perms, seed, needs))
    return {name: np.concatenate([observed[name]] + [s[name][0] for s in stats]) for name in needs}


def _replicate_stats(scenario: Scenario, needs: tuple[str, ...], rep_seed: int,
                     n_perms: int) -> dict[str, np.ndarray]:
    """One replicate's observed (entry 0) and n_perms permuted statistics."""
    X, y, _ = _draw_replicate(scenario, rep_seed)
    return _response_stats(X.entries, y.values, scenario.trait_kind, needs, n_perms, rep_seed)


# ---------------------------------------------------------------------------
# calibration and power


def _pooled_cutoff(nulls: np.ndarray, level: float) -> float:
    """ceil((1 - level) * m)-th order statistic of the pooled null sample."""
    m = nulls.size
    if m < 1:
        raise TooFewPermutationsError("empty null sample")
    k = int(np.ceil((1.0 - level) * m))
    k = min(max(k, 1), m)
    return float(np.partition(nulls, k - 1)[k - 1])


def _check_level(level: float):
    if not (0.0 < level < 1.0):
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")


def _check_workers(workers: int):
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got {workers}")


def permutation_cutoff(method: str, X, y, n_perms: int, level: float,
                       seed: int) -> float:
    """Rejection cutoff for one method on one dataset from fresh permutations."""
    _check_level(level)
    if n_perms < 20.0 / level:
        raise TooFewPermutationsError(
            f"need at least {int(np.ceil(20.0 / level))} permutations at level {level}, got {n_perms}")
    Xa, yv, kind = validated_inputs(X, y)
    needs = _as_methods([method], kind)
    with one_thread():
        stats = _response_stats(Xa, yv, kind, needs, n_perms, seed)[needs[0]]
    return _pooled_cutoff(stats[1:], level)


@dataclass(frozen=True)
class ScenarioResult:
    """Power of one method in one scenario, with its calibration."""

    scenario: Scenario
    method: str
    level: float
    cutoff: float
    power: float
    n_sims: int
    n_perms: int          # pooled null sample size behind the cutoff
    seed: int
    observed: np.ndarray | None = None
    nulls: np.ndarray | None = None


def _power_chunk(scenario: Scenario, needs: tuple[str, ...], seed: int,
                 perms_per_sim: int, lo: int, hi: int) -> dict[str, np.ndarray]:
    stats = {name: np.empty((hi - lo, 1 + perms_per_sim)) for name in needs}
    for i in range(lo, hi):
        rep = _replicate_stats(scenario, needs, derive_seed(seed, TAG_REPLICATE, i), perms_per_sim)
        for name in needs:
            stats[name][i - lo] = rep[name]
    return stats


def _run_chunked(fn, n_items: int, workers: int, *args, weights: Sequence[int] | None = None):
    """Split 0..n_items into contiguous chunks, run fn(*args, lo, hi) on each,
    return the chunk results in index order regardless of worker count.

    Chunks hold equal shares of ``weights`` (one per item, all 1 when not
    given) as nearly as whole items allow (see ``_cuts``).  Every chunk runs
    with one BLAS thread (``_blas.one_thread``), in this process or in a pool
    worker, so ``workers`` is the only parallelism.  Each pool process gets
    fn and args once, through the pool's initializer: under the fork start
    method it inherits them, under spawn or forkserver they are pickled once
    per process.  A job carries its (lo, hi) alone.
    """
    _check_workers(workers)
    # at most one worker per item: each chunk is non-empty, each worker has a job
    workers = min(int(workers), n_items)
    if workers == 1:
        with one_thread():
            return [fn(*args, 0, n_items)]
    bounds = _cuts(np.ones(n_items, dtype=np.int64) if weights is None else weights, workers)
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(fn, args)) as pool:
        return list(pool.map(_chunk_call, list(zip(bounds[:-1], bounds[1:]))))


def _cuts(weights: Sequence[int], k: int) -> list[int]:
    """Bounds 0 = c_0 < c_1 < ... < c_k = len(weights) of k contiguous chunks
    of items: c_i is the item boundary whose running weight lies nearest i/k
    of the total (the lower one on a tie), moved just enough that every chunk
    keeps at least one item.  Needs 1 <= k <= len(weights)."""
    running = np.concatenate([[0], np.cumsum(weights, dtype=np.int64)])
    n = running.size - 1
    cuts = [0]
    for i in range(1, k):
        nearest = int(np.argmin(np.abs(k * running - i * running[-1])))
        cuts.append(min(max(nearest, cuts[-1] + 1), n - (k - i)))
    return cuts + [n]


# a pool process's chunk function and its arguments, set once by _pool_init
_POOL_CALL: tuple | None = None


def _pool_init(fn, args: tuple) -> None:
    global _POOL_CALL
    _POOL_CALL = fn, args


def _chunk_call(bounds: tuple[int, int]):
    fn, args = _POOL_CALL
    with one_thread():
        return fn(*args, *bounds)


def empirical_power(methods: Sequence[str], scenario: Scenario,
                    n_sims: int, level: float, seed: int, perms_per_sim: int = 1,
                    workers: int = 1, retain: bool = False) -> tuple[ScenarioResult, ...]:
    """Monte Carlo power with a shared permutation-calibrated cutoff.

    Each simulation draws a fresh panel, fresh signal placement, and
    ``perms_per_sim`` permuted responses; the permuted statistics from all
    simulations are pooled into one null sample per method, and power is the
    fraction of observed statistics above the pooled cutoff.
    """
    _check_level(level)
    if n_sims < 100:
        raise BadSampleSizeError(f"need n_sims >= 100, got {n_sims}")
    if perms_per_sim < 1:
        raise TooFewPermutationsError("need at least one permutation per simulation")
    needs = _as_methods(methods, scenario.trait_kind)
    pooled = n_sims * perms_per_sim
    if pooled < 20.0 / level:
        raise TooFewPermutationsError(
            f"pooled null sample {pooled} too small for level {level}")

    chunks = _run_chunked(_power_chunk, n_sims, workers, scenario, needs, seed, perms_per_sim)
    results = []
    for name in needs:
        stacked = np.concatenate([c[name] for c in chunks], axis=0)
        observed = stacked[:, 0]
        nulls = stacked[:, 1:].ravel()
        cutoff = _pooled_cutoff(nulls, level)
        results.append(ScenarioResult(
            scenario=scenario, method=name, level=level, cutoff=cutoff,
            power=float(np.mean(observed > cutoff)), n_sims=n_sims, n_perms=pooled,
            seed=seed, observed=observed if retain else None,
            nulls=nulls if retain else None))
    return tuple(results)


# ---------------------------------------------------------------------------
# FDR over a mixed panel of genes


@dataclass(frozen=True)
class FdrCurve:
    """Empirical FDR of top-of-the-null-scale cutoffs on a gene mixture."""

    methods: tuple[str, ...]
    levels: np.ndarray
    fdr: np.ndarray              # (methods, levels)
    mean_rejections: np.ndarray  # (methods, levels)
    cutoffs: np.ndarray          # (methods, levels)
    scenario: Scenario
    n_sims: int
    n_genes: int
    n_signal_genes: int
    seed: int


def _fdr_chunk(scenario: Scenario, needs: tuple[str, ...], seed: int,
               n_genes: int, n_signal_genes: int, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Observed and one-permutation statistics for every gene, sims lo..hi.

    Signal genes are the first ``n_signal_genes`` indices; genes are
    exchangeable so the labelling is arbitrary.  One shared response drives
    all genes in a simulation, and one shared permutation of it feeds the
    null pool.  Each gene's panel comes from its own gene seed, so panels
    are drawn lazily: the signal panels first, to build the response, and
    every other one when it is scored, so only the signal panels are held.
    """
    out = {name: np.empty((hi - lo, n_genes, 2)) for name in needs}
    for i in range(lo, hi):
        rep_seed = derive_seed(seed, TAG_REPLICATE, i)
        gene_seeds = [derive_seed(rep_seed, TAG_GENE, g) for g in range(n_genes)]
        panels = (simulate_genotypes(scenario.n, scenario.q, scenario.ld, seed=s, L=scenario.L).entries
                  for s in gene_seeds)
        signal_panels = list(islice(panels, n_signal_genes))
        genetic = np.zeros(scenario.n)
        for Xg, gene_seed in zip(signal_panels, gene_seeds):
            genetic += Xg @ scenario.signal(gene_seed).beta
        y = genetic + _trait_noise(scenario.trait.sigma, rep_seed, scenario.n)
        for g, Xg in enumerate(chain(signal_panels, panels)):
            # every gene redraws the simulation's one permutation from rep_seed
            stats = _response_stats(Xg, y, "quantitative", needs, 1, rep_seed)
            for name in needs:
                out[name][i - lo, g] = stats[name]
    return out


def fdr_curve(methods: Sequence[str], scenario: Scenario,
              levels: Sequence[float], n_sims: int, n_genes: int,
              n_signal_genes: int, seed: int, workers: int = 1) -> FdrCurve:
    """Empirical FDR when a fraction of genes carry calibrated signals.

    Per simulation, ``n_genes`` independent panels share one response built
    from the ``n_signal_genes`` signal panels; each gene contributes one
    permuted statistic to a pooled null per method.  For each level, the
    cutoff is the pooled null's upper quantile and the reported FDR is the
    false-positive fraction among rejections, averaged over simulations
    (simulations with no rejections count as zero false discovery).
    """
    if scenario.trait.kind != "additive":
        raise ConfigError("fdr_curve supports additive scenarios")
    if not 0 <= n_signal_genes <= n_genes:
        raise DimensionMismatchError(f"need 0 <= n_signal_genes <= n_genes, got {n_signal_genes}/{n_genes}")
    if n_sims < 1:
        raise BadSampleSizeError(f"need n_sims >= 1, got {n_sims}")
    lv = np.asarray(list(levels), dtype=np.float64)
    if lv.size == 0 or np.any(lv <= 0.0) or np.any(lv >= 1.0):
        raise ConfigError("levels must be a non-empty collection inside (0, 1)")
    needs = _as_methods(methods, scenario.trait_kind)

    chunks = _run_chunked(_fdr_chunk, n_sims, workers, scenario, needs, seed,
                          n_genes, n_signal_genes)
    fdr = np.empty((len(needs), lv.size))
    rej = np.empty_like(fdr)
    cuts = np.empty_like(fdr)
    for mi, name in enumerate(needs):
        stats = np.concatenate([c[name] for c in chunks], axis=0)  # (n_sims, n_genes, 2)
        observed = stats[:, :, 0]
        nulls = stats[:, :, 1].ravel()
        for li, level in enumerate(lv):
            cut = _pooled_cutoff(nulls, float(level))
            rejected = observed > cut
            false = rejected[:, n_signal_genes:]
            per_sim = false.sum(axis=1) / np.maximum(rejected.sum(axis=1), 1)
            fdr[mi, li] = float(per_sim.mean())
            rej[mi, li] = float(rejected.sum(axis=1).mean())
            cuts[mi, li] = cut
    return FdrCurve(methods=needs, levels=lv, fdr=fdr, mean_rejections=rej,
                    cutoffs=cuts, scenario=scenario, n_sims=n_sims, n_genes=n_genes,
                    n_signal_genes=n_signal_genes, seed=seed)


# ---------------------------------------------------------------------------
# ranking fixed gene sets on one dataset


@dataclass(frozen=True)
class GeneRanking:
    """Permutation p-values and tie-averaged ranks per gene and method."""

    genes: tuple[str, ...]
    sizes: tuple[int, ...]
    methods: tuple[str, ...]
    pvalues: np.ndarray   # (methods, genes)
    ranks: np.ndarray     # (methods, genes)
    n_perms: int
    seed: int

    def average_ranks(self, gene_names: Sequence[str]) -> dict[str, float]:
        """Mean rank over a target subset, per method."""
        wanted = set(gene_names)
        _require_genes(wanted, self.genes)
        idx = [i for i, g in enumerate(self.genes) if g in wanted]
        return {m: float(self.ranks[mi, idx].mean()) for mi, m in enumerate(self.methods)}


def _require_genes(gene_names: Sequence[str], known: Sequence[str]) -> None:
    """Raise ``EmptyGeneError`` naming every gene of gene_names not in known."""
    missing = sorted(set(gene_names) - set(known))
    if missing:
        raise EmptyGeneError(missing[0], f"unknown gene(s) {missing}")


# relative tolerance of the exceedance comparison (see _gene_chunk)
_TIE_RTOL = 1e-11


def _gene_chunk(X: np.ndarray, y: np.ndarray, n_perms: int, seed: int, gene_slices: tuple,
                trait_kind: str, needs: tuple[str, ...], lo: int,
                hi: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Observed statistics of genes lo..hi, and how many of the n_perms
    permuted statistics reach each one, per method.

    The chunk gathers its genes' columns once, in gene order, into one
    (n, W) block Z, so a SNP in two genes appears twice, and prepares it
    once, in place (``_prepared_block``): a constant or monomorphic column
    is refused, naming the panel column, before any permutation is drawn.
    Each gene's observed statistic comes from one product of its own columns
    with the unit response (``_observed_stats``), so it depends on those
    columns and y alone, whatever the chunk or the worker count, as does a
    power replicate's.  The chunk then scores the shared permutations
    against the whole block (``_scored_slabs``); a |rho| of 1 raises naming
    the panel column.

    A permuted statistic t reaches the observed t0 when
    t >= t0 - _TIE_RTOL * max(1, |t0|).  On case/control panels many
    permutations tie the observed statistic in exact arithmetic, and
    last-bit rounding must not decide those ties.  Measured on generated
    case/control panels (n = 40, 200 and 2000, genes of 3, 10 and 40 SNPs at
    q = 0.2, about 1% of cells imputed, 1000 permutations each), statistics
    within the tolerance of a neighbour spread by at most 1.3e-13 relative,
    and the others lay at least 9.9e-9 apart: the tolerance 1e-11 sits two
    orders of magnitude from each.
    """
    genes = gene_slices[lo:hi]
    cols = np.concatenate(genes)
    ends = np.cumsum([g.size for g in genes])
    spans = [slice(end - g.size, end) for g, end in zip(genes, ends)]
    u = _unit_response(y)
    Z = X.take(cols, axis=1)  # one gathered row-major copy, standardised in place
    exceed = {name: np.zeros(len(genes), dtype=np.int64) for name in needs}
    try:
        block = _prepared_block(Z, spans, trait_kind, needs, out=Z)
        observed = _observed_stats(block, u, needs)
        reach = {name: t0 - _TIE_RTOL * np.maximum(1.0, np.abs(t0)) for name, t0 in observed.items()}
        for stats in _scored_slabs(block, u, n_perms, seed, needs):
            for name, permuted in stats.items():
                exceed[name] += np.count_nonzero(permuted >= reach[name][:, None], axis=1)
            del stats, permuted  # freed before the next slab is drawn
    except (ConstantColumnError, MonomorphicColumnError, DegenerateCorrelationError) as e:
        # re-raised under the panel column that its position in Z stands for
        raise type(e)(int(cols[e.index])) from None
    return observed, exceed


def _gene_columns(genes: Sequence[tuple[str, Sequence[int]]],
                  n_cols: int) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
    """Gene names and their validated column indices into an n_cols-wide panel,
    sorted: DT whitens in column order, so a gene map's row order must not
    reach it."""
    names: list[str] = []
    slices: list[np.ndarray] = []
    for name, idx in genes:
        ia = np.sort(np.asarray(idx, dtype=np.int64))
        if ia.size == 0:
            raise EmptyGeneError(str(name))
        if np.any(ia < 0) or np.any(ia >= n_cols):
            raise DimensionMismatchError(f"gene {name!r} has column indices outside the panel")
        names.append(str(name))
        slices.append(ia)
    if not names:
        raise EmptyGeneError("<none>", "no gene sets given")
    return tuple(names), tuple(slices)


def gene_set_statistics(genes: Sequence[tuple[str, Sequence[int]]], X, y,
                        methods: Sequence[str]) -> dict[str, np.ndarray]:
    """Observed statistic of every gene set, per method, oriented as in ranking."""
    Xa, yv, kind = validated_inputs(X, y)
    needs = _as_methods(methods, kind)
    names, slices = _gene_columns(genes, Xa.shape[1])
    with one_thread():
        return _gene_chunk(Xa, yv, 0, 0, slices, kind, needs, 0, len(names))[0]  # no permutations


def rank_gene_sets(genes: Sequence[tuple[str, Sequence[int]]], X, y,
                   methods: Sequence[str], n_perms: int, seed: int,
                   workers: int = 1) -> GeneRanking:
    """Rank gene sets on one dataset by permutation p-value.

    All genes share the same ``n_perms`` permuted responses.  A gene's
    p-value is (1 + #{permuted >= observed}) / (1 + n_perms), with ties
    counted within a relative tolerance (see ``_gene_chunk``); ranks are
    ascending in p with ties averaged.
    """
    if n_perms < 100:
        raise TooFewPermutationsError(f"need n_perms >= 100, got {n_perms}")
    Xa, yv, kind = validated_inputs(X, y)
    needs = _as_methods(methods, kind)
    names, slices = _gene_columns(genes, Xa.shape[1])
    # chunks of equal gathered-column counts: a gene's work grows with its columns
    chunks = _run_chunked(_gene_chunk, len(names), workers, Xa, yv, n_perms, seed,
                          slices, kind, needs, weights=[s.size for s in slices])
    pvals = np.empty((len(needs), len(names)))
    for mi, m in enumerate(needs):
        exceed = np.concatenate([counts[m] for _, counts in chunks])
        pvals[mi] = (1.0 + exceed) / (1.0 + n_perms)
    ranks = np.vstack([_average_ranks(row) for row in pvals])
    return GeneRanking(genes=names, sizes=tuple(int(s.size) for s in slices),
                       methods=needs, pvalues=pvals, ranks=ranks, n_perms=n_perms, seed=seed)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ascending ranks of v from 1, each run of ties sharing its mean rank."""
    _, tie, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # rank of each distinct value's last copy
    return (ends - (counts - 1) / 2.0)[tie]


# ---------------------------------------------------------------------------
# tabular serialisation (strings; the CLI owns file I/O)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV with floats at 17 significant digits, so reruns compare byte-wise."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


POWER_HEADER = ("method", "r_or_beta", "ld_design", "power", "cutoff", "n_sims", "n_perms", "seed")


def power_table_csv(results: Sequence[ScenarioResult]) -> str:
    rows = [(res.method, res.scenario.r_or_beta, res.scenario.ld.name, res.power,
             res.cutoff, res.n_sims, res.n_perms, res.seed) for res in results]
    return csv_text(POWER_HEADER, rows)


FDR_HEADER = ("method", "r_or_beta", "ld_design", "level", "fdr", "mean_rejections",
              "cutoff", "n_sims", "n_genes", "n_signal_genes", "seed")


def fdr_table_csv(curves: Sequence[FdrCurve]) -> str:
    rows = []
    for c in curves:
        for mi, m in enumerate(c.methods):
            for li in range(c.levels.size):
                rows.append((m, c.scenario.r_or_beta, c.scenario.ld.name,
                             c.levels[li], c.fdr[mi, li], c.mean_rejections[mi, li],
                             c.cutoffs[mi, li], c.n_sims, c.n_genes,
                             c.n_signal_genes, c.seed))
    return csv_text(FDR_HEADER, rows)


def ranking_csv(ranking: GeneRanking) -> str:
    header = ["gene", "snps"]
    for m in ranking.methods:
        header += [f"rank_{m}", f"pvalue_{m}"]
    rows = []
    for gi, g in enumerate(ranking.genes):
        row: list = [g, ranking.sizes[gi]]
        for mi in range(len(ranking.methods)):
            row += [ranking.ranks[mi, gi], ranking.pvalues[mi, gi]]
        rows.append(row)
    return csv_text(header, rows)
