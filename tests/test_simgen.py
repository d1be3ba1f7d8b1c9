"""Correlated genotype, signal, and trait generators."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chi2, chisquare

from rareweak import (
    BadKError,
    CoefficientScheme,
    ConfigError,
    DimensionMismatchError,
    EmptyGroupError,
    LatentNotPDError,
    LdSpec,
    NonFiniteInputError,
    NonPositiveSigmaError,
    NotPositiveDefiniteError,
    NotSquareError,
    QuotaStallError,
    SignalConfig,
    TraitModel,
    UnattainableError,
    build_ld,
    draw_signal_config,
    empirical_correlation,
    simulate_case_control,
    simulate_genotypes,
    simulate_quantitative,
    six_toeplitz_designs,
    solve_latent_correlation,
)
from rareweak import simgen
from rareweak._rng import TAG_GENOTYPE, substream


# --- design construction ------------------------------------------------------


def test_build_identity():
    np.testing.assert_array_equal(build_ld(LdSpec.identity(), 4), np.eye(4))


def test_build_toeplitz_band():
    m = build_ld(LdSpec.toeplitz(0.3), 3)
    np.testing.assert_allclose(m, [[1, 0.3, 0], [0.3, 1, 0.3], [0, 0.3, 1]], rtol=1e-15)


def test_build_two_band_toeplitz():
    m = build_ld(LdSpec.toeplitz(0.25, 0.3), 4)
    assert m[0, 1] == 0.25 and m[0, 2] == 0.3 and m[0, 3] == 0.0
    np.testing.assert_allclose(m, m.T)


def test_build_poly_decay():
    m = build_ld(LdSpec.poly_decay(1.0, 3.0), 3)
    assert m[0, 1] == pytest.approx(0.125, rel=1e-15)       # (1+1)^-3
    assert m[0, 2] == pytest.approx(1.0 / 27.0, rel=1e-15)  # (1+2)^-3
    np.testing.assert_allclose(np.diag(m), 1.0)


@pytest.mark.parametrize("build,error", [
    (lambda: LdSpec(kind="banded"), ConfigError),
    (lambda: LdSpec(kind="toeplitz_banded"), NonFiniteInputError),
    (lambda: LdSpec(kind="toeplitz_banded", bands=(0.2, 1.0)), NonFiniteInputError),
    (lambda: LdSpec(kind="toeplitz_banded", bands=(float("nan"),)), NonFiniteInputError),
    (lambda: LdSpec.toeplitz(-1.5), NonFiniteInputError),
    (lambda: LdSpec(kind="poly_decay", scale=0.5), NonFiniteInputError),
    (lambda: LdSpec(kind="poly_decay", scale=3.0, decay=1.0), NonFiniteInputError),
    (lambda: LdSpec.poly_decay(float("inf"), 1.0), NonFiniteInputError),
    (lambda: LdSpec(kind="explicit"), NotSquareError),
    (lambda: LdSpec.explicit(np.ones((2, 3))), NotSquareError),
    (lambda: LdSpec.explicit([[1.0, 0.2], [0.3, 1.0]]), NotSquareError),
    (lambda: LdSpec.explicit([[1.0, 0.2], [0.2, 0.9]]), NonFiniteInputError),
    (lambda: LdSpec.explicit([[1.0, 1.5], [1.5, 1.0]]), NonFiniteInputError),
    (lambda: LdSpec.explicit([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteInputError),
])
def test_ld_spec_is_checked_at_construction(build, error):
    with pytest.raises(error):
        build()


def test_explicit_design_is_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(simgen, "column_generators", None)  # any draw would fail
    with pytest.raises(NotSquareError, match="5 x 5"):
        simulate_genotypes(50, 0.3, LdSpec.explicit(np.eye(3)), seed=1, L=5)
    with pytest.raises(NotSquareError, match="3 x 3"):
        build_ld(LdSpec.explicit(np.eye(2)), 3)


def test_raw_matrix_design_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(simgen, "column_generators", None)  # any draw would fail
    with pytest.raises(ConfigError, match="LdSpec.explicit"):
        simulate_genotypes(50, 0.3, np.eye(3), seed=1, L=3)


@pytest.mark.parametrize("spec", [LdSpec.identity(), LdSpec.poly_decay(0.5, 1.0)])
@pytest.mark.parametrize("L", [0, -1])
def test_panel_width_below_one_is_refused_on_every_design(spec, L):
    with pytest.raises(DimensionMismatchError, match=f"need L >= 1, got {L}"):
        simulate_genotypes(10, 0.4, spec, seed=1, L=L)


@pytest.mark.parametrize("build,error", [
    (lambda: TraitModel(kind="probit"), ConfigError),
    (lambda: TraitModel(kind="additive", sigma=-1.0), NonPositiveSigmaError),
    (lambda: TraitModel.additive(float("nan")), NonPositiveSigmaError),
    (lambda: TraitModel(kind="logistic", n_case=5), EmptyGroupError),
    (lambda: TraitModel.logistic(-2.0, 0, 5), EmptyGroupError),
    (lambda: TraitModel.logistic(float("inf"), 5, 5), NonFiniteInputError),
])
def test_trait_model_is_checked_at_construction(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build,error", [
    (lambda: CoefficientScheme(kind="normal"), ConfigError),
    (lambda: CoefficientScheme(kind="uniform_range", lo=2.0, hi=1.0), NonFiniteInputError),
    (lambda: CoefficientScheme.uniform_range(0.0, 1.0), NonFiniteInputError),
    (lambda: CoefficientScheme.uniform_range(1.0, float("inf")), NonFiniteInputError),
])
def test_coefficient_scheme_is_checked_at_construction(build, error):
    with pytest.raises(error):
        build()


def test_build_rejects_indefinite_band():
    # first off-diagonal 0.8 pushes an eigenvalue of the L=3 Toeplitz below 0
    with pytest.raises(NotPositiveDefiniteError):
        build_ld(LdSpec.toeplitz(0.8), 3)


def test_six_designs_all_build():
    designs = six_toeplitz_designs()
    assert len(designs) == 6
    names = [spec.name for spec in designs]
    assert len(set(names)) == 6
    for spec in designs:
        m = build_ld(spec, 50)
        np.linalg.cholesky(m)    # PD for the sizes the protocol uses


# --- latent copula solver -----------------------------------------------------


def _bvn_reference(h, k, rho):
    """P(Z1 <= h, Z2 <= k) by quadrature of the conditional cdf, split where
    it steps when |rho| is near 1."""
    s = np.sqrt(1.0 - rho * rho)

    def integrand(z):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) * ndtr((k - rho * z) / s)

    edges = [-np.inf] + ([k / rho] if k / rho < h else []) + [h]
    return sum(quad(integrand, a, b, epsabs=1e-16, epsrel=1e-15, limit=500)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_bivariate_normal_cdf_matches_quadrature():
    # h = k, h != k, a zero margin (q = 1/2), negative rho and |rho| near 1
    margins = (-1.5, -0.3, 0.0, 0.7, 2.0)
    for h, k in itertools.product(margins, margins):
        for rho in (-0.999, -0.6, -0.1, 0.2, 0.75, 0.999):
            got = simgen._bivariate_normal_cdf(h, k, rho)
            assert abs(got - _bvn_reference(h, k, rho)) <= 1e-14, (h, k, rho)


def test_latent_zero_maps_to_zero():
    assert solve_latent_correlation(0.0, 0.3, 0.4) == 0.0
    np.testing.assert_array_equal(
        solve_latent_correlation(np.zeros(3), np.full(3, 0.3), np.full(3, 0.4)), 0.0)


def test_latent_symmetric_margin_closed_form():
    # at q=1/2 the link has the arcsine closed form rho_z = sin(pi/2 * rho)
    for target, want in ((0.2, 0.30901699437494742),
                         (0.5, 0.70710678118654752),
                         (0.8, 0.95105651629515357)):
        got = solve_latent_correlation(target, 0.5, 0.5)
        assert got == pytest.approx(want, abs=2e-8)


def test_latent_array_call_equals_scalar_calls():
    # zero, both Frechet bounds, a q = 1/2 margin, negative targets, 2-d shape
    q_j = np.array([[0.4, 0.4, 0.1, 0.5, 0.2, 0.3],
                    [0.1, 0.45, 0.5, 0.25, 0.4, 0.35]])
    q_k = np.array([[0.4, 0.4, 0.9, 0.3, 0.45, 0.3],
                    [0.5, 0.2, 0.5, 0.1, 0.4, 0.15]])
    hi = (np.minimum(q_j, q_k) - q_j * q_k) / np.sqrt(q_j * (1 - q_j) * q_k * (1 - q_k))
    target = np.array([[0.0, 0.3, -1.0, 0.25, -0.2, 0.6],
                       [0.2, -0.1, 0.8, 0.15, 0.5, -0.05]])
    target[0, 5] = hi[0, 5]
    z = solve_latent_correlation(target, q_j, q_k)
    assert z.shape == target.shape
    want = np.array([solve_latent_correlation(t, a, b)
                     for t, a, b in zip(target.ravel(), q_j.ravel(), q_k.ravel())])
    np.testing.assert_array_equal(z.ravel(), want)
    assert z[0, 0] == 0.0 and z[0, 2] == -1.0 and z[0, 5] == 1.0


def test_latent_unattainable_target():
    with pytest.raises(UnattainableError):
        solve_latent_correlation(0.99, 0.1, 0.9)
    with pytest.raises(UnattainableError, match="target 0.95 "):
        solve_latent_correlation(np.array([0.2, 0.95, 0.1]), np.array([0.4, 0.1, 0.3]),
                                 np.array([0.4, 0.9, 0.3]))


def test_latent_symmetry_in_margins():
    a = solve_latent_correlation(0.25, 0.2, 0.45)
    b = solve_latent_correlation(0.25, 0.45, 0.2)
    assert a == pytest.approx(b, abs=1e-10)


def test_latent_factor_cache_is_bounded():
    for i in range(simgen._LATENT_CACHE_MAX + 4):
        simulate_genotypes(2, 0.4, LdSpec.toeplitz(0.01 * (i + 1)), seed=1, L=3)
        assert len(simgen._LATENT_CACHE) <= simgen._LATENT_CACHE_MAX


# --- genotype simulation ------------------------------------------------------


def test_genotypes_are_counts_with_hwe_marginals():
    X = simulate_genotypes(10_000, 0.4, LdSpec.identity(), seed=101, L=6)
    e = X.entries
    assert set(np.unique(e)) <= {0.0, 1.0, 2.0}
    np.testing.assert_allclose(X.maf_hat(), 0.4, atol=0.01)
    # genotype frequencies near (0.36, 0.48, 0.16)
    for val, want in ((0.0, 0.36), (1.0, 0.48), (2.0, 0.16)):
        freq = (e == val).mean(axis=0)
        np.testing.assert_allclose(freq, want, atol=0.015)


def test_adjacent_correlation_tracks_band():
    X = simulate_genotypes(10_000, 0.4, LdSpec.toeplitz(0.3), seed=7, L=8)
    m = empirical_correlation(X.entries)
    adjacent = np.diag(m, 1)
    np.testing.assert_allclose(adjacent, 0.3, atol=0.03)


def test_hwe_chi_square_across_frequencies():
    # pooled genotype-count test per q at n=1e5
    for q in (0.1, 0.3, 0.4):
        X = simulate_genotypes(100_000, q, LdSpec.toeplitz(0.25), seed=55, L=4)
        counts = [(X.entries == v).sum() for v in (0.0, 1.0, 2.0)]
        expect = X.entries.size * np.array([(1 - q) ** 2, 2 * q * (1 - q), q * q])
        p = chisquare(counts, expect).pvalue
        assert p > 0.001, f"q={q}: HWE chi-square p={p}"


def test_six_designs_keep_their_names():
    # power.csv's ld_design column reads these
    assert [spec.name for spec in six_toeplitz_designs()] == [
        "identity", "toeplitz(0.3)", "toeplitz(0.25)", "toeplitz(0.2)",
        "toeplitz(0.25,0.3)", "toeplitz(0.25,0.2)"]


def test_correlation_fidelity_all_six_designs():
    for spec in six_toeplitz_designs():
        target = build_ld(spec, 40)
        X = simulate_genotypes(10_000, 0.4, spec, seed=23, L=40)
        got = empirical_correlation(X.entries)
        dev = np.max(np.abs(got - target))
        assert dev <= 0.05, f"{spec.name}: max deviation {dev}"


def test_genotype_determinism_and_prefix_stability():
    # the correlated path (keyed generator per column) and the identity
    # path (one raw-word stream) alike
    for spec in (LdSpec.toeplitz(0.3), LdSpec.identity()):
        a = simulate_genotypes(200, 0.4, spec, seed=9, L=6)
        b = simulate_genotypes(200, 0.4, spec, seed=9, L=6)
        np.testing.assert_array_equal(a.entries, b.entries)
        # widening the panel must not reshuffle the earlier columns
        wide = simulate_genotypes(200, 0.4, spec, seed=9, L=10)
        np.testing.assert_array_equal(wide.entries[:, :6], a.entries)
        c = simulate_genotypes(200, 0.4, spec, seed=10, L=6)
        assert np.any(c.entries != a.entries)


def test_identity_panel_reads_word_halves_per_column():
    # reference layout, one cell at a time: column j is words j*n..(j+1)*n-1
    # of the genotype substream; low half = haplotype 0, high half = haplotype 1
    n, q, seed = 7, np.array([0.1, 0.5, 0.35, 0.9]), 21
    X = simulate_genotypes(n, q, LdSpec.identity(), seed=seed, L=q.size)
    words = substream(seed, TAG_GENOTYPE).bit_generator.random_raw(q.size * n)
    for j, qj in enumerate(q):
        t = round(float(qj) * 2 ** 32)
        for i in range(n):
            w = int(words[j * n + i])
            assert X.entries[i, j] == (w % 2 ** 32 < t) + (w // 2 ** 32 < t)
    assert X.entries.flags.c_contiguous


def test_identity_allele_rates_within_binomial_error():
    q = np.repeat([0.01, 0.05, 0.5, 0.99], 2)
    n = 100_000
    X = simulate_genotypes(n, q, LdSpec.identity(), seed=47, L=q.size)
    rate = X.entries.mean(axis=0) / 2.0
    se = np.sqrt(q * (1.0 - q) / (2 * n))
    assert np.all(np.abs(rate - q) <= 4.0 * se), (rate - q) / se


def test_identity_columns_and_word_halves_are_independent():
    q = np.array([0.05, 0.3, 0.5, 0.7, 0.95])
    n = 100_000
    e = simulate_genotypes(n, q, LdSpec.identity(), seed=53, L=q.size).entries
    # adjacent columns uncorrelated: |r| within 4 standard errors of 0
    m = empirical_correlation(e)
    assert np.all(np.abs(np.diag(m, 1)) <= 4.0 / np.sqrt(n))
    # both halves of a word carry the allele with probability q^2 only if
    # the halves are independent
    hom = (e == 2.0).mean(axis=0)
    se = np.sqrt(q ** 2 * (1.0 - q ** 2) / n)
    assert np.all(np.abs(hom - q ** 2) <= 4.0 * se), (hom - q ** 2) / se


def test_identity_panel_is_pinned():
    # digest of the raw-word identity stream (sidecar rng_streams 2)
    X = simulate_genotypes(200, np.linspace(0.05, 0.5, 10), LdSpec.identity(), seed=13, L=10)
    assert (hashlib.sha256(X.entries.tobytes()).hexdigest()
            == "70b5aa9ea4c2c5a3368681ca46f255aeebfb3ed3f4e6597cfee850346d102474")


def test_latent_matrix_not_pd_is_refused_with_its_cause():
    # each toeplitz(0.3) pair is attainable at q = 0.1; together their latent
    # correlations are not positive definite
    with pytest.raises(LatentNotPDError) as info:
        simulate_genotypes(50, 0.1, LdSpec.toeplitz(0.3), seed=1, L=20)
    assert info.value.minor_index == 6
    msg = str(info.value)
    assert "toeplitz(0.3) at L=20, q in [0.1, 0.1]" in msg
    assert "every pairwise target is attainable" in msg and "leading minor 6" in msg


@pytest.mark.parametrize("spec,q,seed,panel_sha,latent_sha", [
    (LdSpec.poly_decay(0.5, 1.0), np.full(100, 0.4), 11,
     "5916453b84d85b51c9f002a75606f2d230688872247670ca6f02cf4454625054",
     "2d155b585493f644910420955dc6f93e55e5aaf7fa6f4a673f29907228e59303"),
    (LdSpec.toeplitz(0.25, 0.3), np.linspace(0.1, 0.5, 9), 12,
     "d0c12976e303bfd99d6a439ee19d28e595addb50c4ab1d6dc226f64e175edb7a",
     "b73be787aeed566e7ff34dcffd961076576a6286cc0578cdeb7593e98c65ef2c"),
])
def test_panels_and_latent_correlations_are_pinned(spec, q, seed, panel_sha, latent_sha):
    # digests of the panels and latent correlations that the earlier,
    # quadrature-based solver produced: a moved latent correlation or a
    # changed random stream changes one of them
    X = simulate_genotypes(200, q, spec, seed=seed, L=q.size)
    assert hashlib.sha256(X.entries.tobytes()).hexdigest() == panel_sha
    target = build_ld(spec, q.size)
    jj, kk = np.nonzero(np.triu(target, k=1))
    z = solve_latent_correlation(target[jj, kk], q[jj], q[kk])
    assert hashlib.sha256(z.tobytes()).hexdigest() == latent_sha


def test_genotypes_accept_per_column_frequencies():
    q = np.array([0.1, 0.25, 0.4])
    X = simulate_genotypes(50_000, q, LdSpec.identity(), seed=31, L=q.size)
    np.testing.assert_allclose(X.maf_hat(), q, atol=0.01)


# --- signal placement ---------------------------------------------------------


def test_signal_full_support():
    cfg = draw_signal_config(5, 5, CoefficientScheme.fixed(), 0.2, seed=1)
    np.testing.assert_array_equal(cfg.support, np.arange(5))
    np.testing.assert_allclose(cfg.beta, 0.2)


def test_signal_rejects_bad_k():
    with pytest.raises(BadKError):
        draw_signal_config(5, 0, CoefficientScheme.fixed(), 0.2, seed=1)
    with pytest.raises(BadKError):
        draw_signal_config(5, 6, CoefficientScheme.fixed(), 0.2, seed=1)


def test_random_sign_is_balanced():
    signs = []
    for i in range(2500):
        cfg = draw_signal_config(20, 4, CoefficientScheme.random_sign(), 1.0, seed=i)
        signs.extend(np.sign(cfg.beta[cfg.support]))
    assert abs(np.mean(signs)) < 0.03


def test_uniform_range_containment():
    for i in range(50):
        cfg = draw_signal_config(12, 3, CoefficientScheme.uniform_range(0.9, 1.1), 0.2, seed=i)
        mags = cfg.beta[cfg.support]
        assert np.all(mags >= 0.9 * 0.2) and np.all(mags <= 1.1 * 0.2)


def test_support_uniform_over_subsets():
    # L=10, K=2: 45 possible supports, each should appear ~1/45 of the time
    counts = np.zeros((10, 10))
    n_draws = 100_000
    for i in range(n_draws):
        s = draw_signal_config(10, 2, CoefficientScheme.fixed(), 1.0, seed=i).support
        counts[s[0], s[1]] += 1
    observed = counts[np.triu_indices(10, k=1)]
    expected = n_draws / 45.0
    assert chisquare(observed).pvalue > 0.001
    assert np.all(np.abs(observed - expected) / expected < 0.15)


def test_signal_determinism():
    a = draw_signal_config(30, 5, CoefficientScheme.random_sign(), 0.3, seed=77)
    b = draw_signal_config(30, 5, CoefficientScheme.random_sign(), 0.3, seed=77)
    np.testing.assert_array_equal(a.support, b.support)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_signal_config_validation():
    with pytest.raises(BadKError):
        SignalConfig(support=np.array([1, 1]), beta=np.zeros(5))
    with pytest.raises(BadKError):
        SignalConfig(support=np.array([7]), beta=np.zeros(5))
    with pytest.raises(BadKError, match="zero off the support"):
        SignalConfig(support=np.array([1]), beta=np.array([0.0, 0.5, 0.0, 0.2, 0.0]))
    with pytest.raises(BadKError, match="zero off the support"):
        SignalConfig(support=np.array([], dtype=np.int64), beta=np.array([0.0, 0.1]))
    with pytest.raises(BadKError):
        draw_signal_config(5, 0, CoefficientScheme.fixed(), 0.3, seed=1)


def test_the_null_signal_is_an_empty_support():
    null = SignalConfig(support=np.array([], dtype=np.int64), beta=np.zeros(6))
    assert (null.K, null.L) == (0, 6)
    X = simulate_genotypes(50, 0.4, LdSpec.identity(), seed=3, L=6)
    y = simulate_quantitative(X, null, sigma=0.0, seed=5)
    assert y.values.tobytes() == np.zeros(50).tobytes()   # +0 everywhere, no -0


# --- trait simulation ---------------------------------------------------------


def _flat_signal(L, idx, value):
    beta = np.zeros(L)
    beta[list(idx)] = value
    return SignalConfig(support=np.array(idx), beta=beta)


def test_quantitative_zero_noise_is_linear_term():
    X = simulate_genotypes(100, 0.4, LdSpec.identity(), seed=3, L=4)
    cfg = _flat_signal(4, [1, 3], 0.5)
    y = simulate_quantitative(X, cfg, sigma=0.0, seed=5)
    np.testing.assert_allclose(y.values, X.entries @ cfg.beta, rtol=1e-14)


def test_quantitative_null_variance_near_one():
    X = simulate_genotypes(10_000, 0.4, LdSpec.identity(), seed=13, L=3)
    cfg = _flat_signal(3, [0], 0.0)     # support present, coefficient zero
    y = simulate_quantitative(X, cfg, sigma=1.0, seed=19)
    assert 0.94 <= np.var(y.values) <= 1.06


def test_quantitative_sample_heritability_anchor():
    # 3 signals at the strong-end coefficient should explain ~2.4% of variance
    X = simulate_genotypes(10_000, 0.4, LdSpec.identity(), seed=29, L=10)
    cfg = _flat_signal(10, [2, 5, 8], 0.1314130442439233)
    y = simulate_quantitative(X, cfg, sigma=1.0, seed=31)
    g = X.entries @ cfg.beta
    h2_hat = np.var(g) / np.var(y.values)
    assert h2_hat == pytest.approx(0.024, abs=0.01)


def test_quantitative_dimension_mismatch():
    X = simulate_genotypes(50, 0.4, LdSpec.identity(), seed=3, L=4)
    with pytest.raises(DimensionMismatchError):
        simulate_quantitative(X, _flat_signal(6, [0], 0.1), sigma=1.0, seed=1)


def test_quantitative_determinism():
    X = simulate_genotypes(300, 0.4, LdSpec.identity(), seed=41, L=5)
    cfg = _flat_signal(5, [0, 2], 0.2)
    y1 = simulate_quantitative(X, cfg, sigma=1.0, seed=43)
    y2 = simulate_quantitative(X, cfg, sigma=1.0, seed=43)
    np.testing.assert_array_equal(y1.values, y2.values)


# --- case/control sampling ----------------------------------------------------


def test_case_control_quotas_and_stacking():
    cfg = _flat_signal(6, [1], 0.3)
    X, y = simulate_case_control(0.4, LdSpec.identity(), cfg, beta0=-2.0,
                                 n_case=120, n_control=80, seed=51)
    assert X.n == 200 and y.n_case == 120 and y.n_control == 80
    np.testing.assert_array_equal(y.values[:120], 1.0)
    np.testing.assert_array_equal(y.values[120:], 0.0)


def test_case_control_null_frequencies_match():
    cfg = _flat_signal(5, [0], 0.0)
    X, y = simulate_case_control(0.4, LdSpec.identity(), cfg, beta0=-2.0,
                                 n_case=1000, n_control=1000, seed=61)
    case_maf = X.entries[y.values == 1.0].mean() / 2.0
    ctl_maf = X.entries[y.values == 0.0].mean() / 2.0
    assert abs(case_maf - ctl_maf) < 0.02


def test_case_control_signal_raises_case_frequency():
    cfg = _flat_signal(10, [2, 5, 8], 0.24)
    wins = 0
    for rep in range(100):
        X, y = simulate_case_control(0.4, LdSpec.identity(), cfg, beta0=-2.0,
                                     n_case=300, n_control=300, seed=1000 + rep)
        sig = X.entries[:, cfg.support]
        case_maf = sig[y.values == 1.0].mean() / 2.0
        ctl_maf = sig[y.values == 0.0].mean() / 2.0
        wins += case_maf > ctl_maf
    assert wins >= 95


def test_case_control_stalls_on_hopeless_intercept(monkeypatch):
    cfg = _flat_signal(4, [0], 0.1)
    monkeypatch.setattr(simgen, "_STALL_AFTER", 5000)
    with pytest.raises(QuotaStallError):
        simulate_case_control(0.4, LdSpec.identity(), cfg, beta0=-40.0,
                              n_case=10, n_control=10, seed=71)


def test_case_control_determinism():
    cfg = _flat_signal(5, [1], 0.2)
    a = simulate_case_control(0.4, LdSpec.toeplitz(0.25), cfg, beta0=-2.0,
                              n_case=50, n_control=50, seed=81)
    b = simulate_case_control(0.4, LdSpec.toeplitz(0.25), cfg, beta0=-2.0,
                              n_case=50, n_control=50, seed=81)
    np.testing.assert_array_equal(a[0].entries, b[0].entries)
    np.testing.assert_array_equal(a[1].values, b[1].values)
