"""Marginal association scores and their two-sided p-values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm, t as t_dist

from rareweak import (
    BadSampleSizeError,
    ConfigError,
    ConstantColumnError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    EmptyGroupError,
    GenotypeMatrix,
    MonomorphicColumnError,
    NonFiniteInputError,
    NonPositiveSigmaError,
    Phenotype,
    case_control_zscores,
    marginal_correlations,
    marginal_stats,
    pvalues_two_sided,
    tstats_from_correlation,
    zscores_from_correlation,
    zscores_known_sigma,
)

RNG = np.random.default_rng(20240817)


def small_panel(n=60, L=8, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.binomial(2, 0.4, size=(n, L)).astype(np.float64)
    # guard against a constant draw at tiny n
    X[0] = (X[0] + 1) % 3
    y = rng.standard_normal(n)
    return X, y


def test_correlation_of_column_with_itself_is_one():
    X, _ = small_panel()
    rho = marginal_correlations(X, X[:, 2])
    assert rho[2] == pytest.approx(1.0, abs=1e-12)


def test_correlation_with_negated_shifted_copy_is_minus_one():
    X, _ = small_panel()
    rho = marginal_correlations(X, -X[:, 4] + 7.0)
    assert rho[4] == pytest.approx(-1.0, abs=1e-12)


def test_constant_column_rejected():
    X, y = small_panel()
    X[:, 3] = 1.0
    with pytest.raises(ConstantColumnError) as err:
        marginal_correlations(X, y)
    assert err.value.index == 3


def test_constant_response_rejected():
    X, _ = small_panel()
    with pytest.raises(ConstantColumnError):
        marginal_correlations(X, np.full(X.shape[0], 2.5))


def test_known_sigma_score_hand_value():
    # column (0,1,2) centers to (-1,0,1) with norm sqrt(2); against
    # y=(0,1,2) the inner product is 2, so the score is sqrt(2)
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 2.0])
    got = zscores_known_sigma(X, y, sigma=1.0)
    assert got[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_known_sigma_score_scales_inversely_with_sigma():
    X, y = small_panel()
    one = zscores_known_sigma(X, y, 1.0)
    two = zscores_known_sigma(X, y, 2.0)
    np.testing.assert_allclose(two, one / 2.0, rtol=1e-13)


def test_known_sigma_orthogonal_response_gives_zero():
    X = np.array([[0.0], [2.0], [1.0], [1.0]])
    xc = X[:, 0] - X[:, 0].mean()
    y = np.array([1.0, 1.0, -1.0, -1.0])
    y -= y @ xc / (xc @ xc) * xc
    assert zscores_known_sigma(X, y, 1.0)[0] == pytest.approx(0.0, abs=1e-14)


def test_known_sigma_rejects_bad_sigma():
    X, y = small_panel()
    with pytest.raises(NonPositiveSigmaError):
        zscores_known_sigma(X, y, 0.0)
    with pytest.raises(NonPositiveSigmaError):
        zscores_known_sigma(X, y, -1.0)


def test_correlation_scores_formula_anchors():
    assert zscores_from_correlation(np.array([0.1]), 101)[0] == pytest.approx(1.0, rel=1e-14)
    assert zscores_from_correlation(np.array([1.0]), 2)[0] == pytest.approx(1.0, rel=1e-14)
    assert zscores_from_correlation(np.array([0.0]), 50)[0] == 0.0
    with pytest.raises(BadSampleSizeError):
        zscores_from_correlation(np.array([0.1]), 1)


def test_tstat_formula_anchor():
    # sqrt(100) * 0.1 / sqrt(0.99), mpmath: 1.00503781525921
    got = tstats_from_correlation(np.array([0.1]), 102)[0]
    assert got == pytest.approx(1.00503781525921, rel=1e-12)
    assert tstats_from_correlation(np.array([0.0]), 10)[0] == 0.0


def test_tstat_rejects_degenerate_and_small_n():
    with pytest.raises(DegenerateCorrelationError):
        tstats_from_correlation(np.array([1.0]), 10)
    with pytest.raises(BadSampleSizeError):
        tstats_from_correlation(np.array([0.1]), 2)


def test_z_and_t_agree_for_weak_correlations():
    # |R - T| stays below 0.02 whenever |rho| <= 0.05 and n <= 1e4
    for n in (100, 1000, 10_000):
        rho = np.linspace(-0.05, 0.05, 41)
        z = zscores_from_correlation(rho, n)
        t = tstats_from_correlation(rho, n)
        assert np.max(np.abs(z - t)) <= 0.02


def test_case_control_hand_value():
    # 100 cases all heterozygous (allele freq 0.5), 100 controls with 60
    # het (freq 0.3); pooled 0.4, effective size 100 -> 2.886751...
    X = np.concatenate([np.ones(100), np.ones(60), np.zeros(40)])[:, None]
    y = np.concatenate([np.ones(100), np.zeros(100)])
    got = case_control_zscores(X, y)
    assert got[0] == pytest.approx(2.8867513459481291, rel=1e-12)


def test_case_control_no_difference_gives_zero():
    X = np.tile(np.array([0.0, 1.0, 2.0, 1.0]), 2)[:, None]
    y = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert case_control_zscores(X, y)[0] == pytest.approx(0.0, abs=1e-14)


def test_case_control_unbalanced_uses_harmonic_size():
    # doubling the control arm by replication leaves freqs unchanged but
    # moves m from 100 to 2/(1/100 + 1/200)
    X1 = np.concatenate([np.ones(100), np.ones(60), np.zeros(40)])
    y1 = np.concatenate([np.ones(100), np.zeros(100)])
    X2 = np.concatenate([np.ones(100), np.tile(np.concatenate([np.ones(60), np.zeros(40)]), 2)])
    y2 = np.concatenate([np.ones(100), np.zeros(200)])
    d1 = case_control_zscores(X1[:, None], y1)[0]
    d2 = case_control_zscores(X2[:, None], y2)[0]
    # pooled freq shifts with the arm sizes, so rebuild both from scratch
    m2 = 2.0 / (1.0 / 100.0 + 1.0 / 200.0)
    pooled2 = (100.0 * 0.5 * 2 + 200.0 * 0.3 * 2) / (2 * 300.0)
    want2 = np.sqrt(m2) * 0.2 / np.sqrt(2 * pooled2 * (1 - pooled2))
    assert d1 == pytest.approx(2.8867513459481291, rel=1e-12)
    assert d2 == pytest.approx(want2, rel=1e-12)


def test_case_control_scores_match_the_frequency_contrast_on_an_imputed_unbalanced_panel():
    # the kernel reads the contrast off the correlation with the unit labels;
    # check it against the frequency formula written out
    rng = np.random.default_rng(41)
    X = rng.binomial(2, 0.3, size=(300, 20)).astype(np.float64)
    missing = rng.random(X.shape) < 0.02
    for j in range(X.shape[1]):
        X[missing[:, j], j] = X[~missing[:, j], j].mean()
    y = np.zeros(300)
    y[rng.permutation(300)[:70]] = 1.0
    n1, n0 = 70.0, 230.0
    p1 = X[y == 1.0].sum(axis=0) / (2.0 * n1)
    p0 = X[y == 0.0].sum(axis=0) / (2.0 * n0)
    p = X.mean(axis=0) / 2.0
    m = 2.0 / (1.0 / n1 + 1.0 / n0)
    want = np.sqrt(m) * (p1 - p0) / np.sqrt(2.0 * p * (1.0 - p))
    assert np.min(np.abs(want)) > 1e-3   # no cancelled contrast to hide behind
    np.testing.assert_allclose(case_control_zscores(X, y), want, rtol=1e-12, atol=0.0)


def test_case_control_monomorphic_column_rejected():
    X = np.zeros((10, 1))
    y = np.array([1.0] * 5 + [0.0] * 5)
    with pytest.raises(MonomorphicColumnError):
        case_control_zscores(X, y)


def test_case_control_constant_column_rejected():
    # every sample heterozygous: polymorphic in the pool, but constant, so
    # refused as in the quantitative scores
    X = np.column_stack([np.tile([0.0, 1.0, 2.0, 1.0], 3), np.ones(12)])
    y = np.array([1.0, 0.0] * 6)
    with pytest.raises(ConstantColumnError) as err:
        case_control_zscores(X, y)
    assert err.value.index == 1


def test_case_control_empty_group_rejected():
    X = np.ones((4, 1))
    with pytest.raises(EmptyGroupError):
        case_control_zscores(X, np.ones(4))


def test_pvalues_anchor_and_monotonicity():
    p = pvalues_two_sided(np.array([0.0, 1.959964, -1.959964, 3.0]))
    assert p[0] == pytest.approx(1.0, abs=1e-15)
    assert p[1] == pytest.approx(0.05, abs=1e-6)
    assert p[2] == p[1]
    assert p[3] < p[1]


def test_pvalues_reject_non_finite():
    with pytest.raises(NonFiniteInputError):
        pvalues_two_sided(np.array([1.0, np.nan]))


def test_pvalue_quantile_round_trip():
    s = np.linspace(0.0, 8.0, 161)
    p = pvalues_two_sided(s)
    back = norm.isf(p / 2.0)
    np.testing.assert_allclose(back[1:], s[1:], rtol=1e-8)


def test_pvalues_floor_keeps_logs_finite():
    p = pvalues_two_sided(np.array([40.0, 300.0]))
    assert np.all(p >= 1e-300)
    assert np.all(np.isfinite(np.log(p)))


def test_joint_row_permutation_leaves_statistics_unchanged():
    X, y = small_panel(n=80, L=6, seed=9)
    perm = RNG.permutation(80)
    np.testing.assert_allclose(marginal_correlations(X, y),
                               marginal_correlations(X[perm], y[perm]), rtol=1e-12)
    yb = (y > np.median(y)).astype(np.float64)
    np.testing.assert_allclose(case_control_zscores(X, yb),
                               case_control_zscores(X[perm], yb[perm]), rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(c=st.floats(0.01, 100.0), d=st.floats(-50.0, 50.0))
def test_location_scale_invariance(c, d):
    X, y = small_panel(n=50, L=4, seed=13)
    base = marginal_correlations(X, y)
    moved = marginal_correlations(X, c * y + d)
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_marginal_stats_bundles_pvalues():
    X, y = small_panel(n=120, L=5, seed=21)
    ms = marginal_stats(X, y, "t")
    assert ms.kind == "t"
    # a t score is read on the t(n - 2) scale, every other kind on the normal one
    np.testing.assert_allclose(ms.pvalues, 2.0 * t_dist.sf(np.abs(ms.values), df=118), rtol=1e-12)

    ms2 = marginal_stats(X, y, "r_sigma", sigma=1.5)
    np.testing.assert_allclose(ms2.values, zscores_known_sigma(X, y, 1.5), rtol=1e-13)
    ms3 = marginal_stats(X, y, "r")
    np.testing.assert_allclose(ms3.pvalues, pvalues_two_sided(ms3.values), rtol=1e-13)


def test_null_t_pvalues_are_calibrated_at_small_n():
    # 60 null binomial(2, 0.3) panels of 20 samples x 400 columns, each with
    # its own normal response: the t(18) tail gives exactly uniform p-values,
    # while the normal tail put 0.35% of cells below 1e-3
    rng = np.random.default_rng(0)
    pvalues = np.concatenate([
        marginal_stats(rng.binomial(2, 0.3, size=(20, 400)).astype(float),
                       rng.standard_normal(20), "t").pvalues
        for _ in range(60)])
    rate, level = np.mean(pvalues < 1e-3), 1e-3
    assert abs(rate - level) <= 3.0 * np.sqrt(level * (1.0 - level) / pvalues.size)


def test_t_pvalues_share_the_floor():
    # a response within 1e-6 of column 0: its t(58) tail underflows to 0
    X, _ = small_panel(n=60, L=8, seed=5)
    y = X[:, 0] + 1e-6 * np.random.default_rng(6).standard_normal(60)
    p = marginal_stats(X, y, "t").pvalues
    assert p[0] == 1e-300 and np.all(p[1:] > 1e-300)


def test_genotype_matrix_validation():
    with pytest.raises(NonFiniteInputError):
        GenotypeMatrix(entries=np.array([[0.0, np.inf], [1.0, 0.0]]))
    with pytest.raises(BadSampleSizeError):
        GenotypeMatrix(entries=np.array([[0.0, 1.0]]))
    with pytest.raises(NonFiniteInputError):
        GenotypeMatrix(entries=np.array([[0.0, 3.0], [1.0, 0.0]]))
    gm = GenotypeMatrix(entries=np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0]]))
    assert gm.n == 3 and gm.n_snps == 2


@pytest.mark.parametrize("entries,error", [
    ([["a", "1"], ["1", "0"]], NonFiniteInputError),           # text, even when it parses
    (np.array([[0, 1], [1, 2]]) + 0.5j, NonFiniteInputError),   # complex: no dropped parts
    (np.array([[0, 1], [1, None]], dtype=object), NonFiniteInputError),
    ([[0.0, 1.0], [1.0]], DimensionMismatchError),              # ragged
], ids=["text", "complex", "object", "ragged"])
def test_genotype_matrix_refuses_what_is_not_a_real_panel(entries, error):
    with pytest.raises(error, match="genotype entries"):
        GenotypeMatrix(entries=entries)


@pytest.mark.parametrize("values,error", [
    (["0.5", "1.0", "-2"], NonFiniteInputError),
    (np.array([0.5, 1.0, -2.0]) + 1j, NonFiniteInputError),
    ([[0.5, 1.0], [-2.0]], DimensionMismatchError),
], ids=["text", "complex", "ragged"])
def test_phenotype_refuses_what_is_not_a_real_response(values, error):
    with pytest.raises(error, match="phenotype values"):
        Phenotype(values=values)


def test_genotype_matrix_holds_row_major_float64():
    for entries in (np.asfortranarray(np.eye(3, 2)), np.eye(2, 3, dtype=np.uint8).T,
                    [[True, False], [False, True]], np.eye(4)[:, ::2]):
        e = GenotypeMatrix(entries=entries).entries
        assert e.dtype == np.float64 and e.flags["C_CONTIGUOUS"]
    with pytest.raises(DimensionMismatchError, match="2-D"):
        GenotypeMatrix(entries=1.0)  # a 0-d input keeps its shape for the message


def test_phenotype_validation():
    with pytest.raises(NonFiniteInputError):
        Phenotype(values=np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteInputError):
        Phenotype(values=np.array([0.0, 0.5]), kind="binary")
    ph = Phenotype(values=np.array([0.0, 1.0, 1.0]), kind="binary")
    assert ph.n_case == 2 and ph.n_control == 1


def test_phenotype_takes_one_column_and_refuses_other_shapes():
    assert Phenotype(values=np.arange(3.0).reshape(3, 1)).values.shape == (3,)
    X = np.random.default_rng(3).binomial(2, 0.4, size=(6, 2)).astype(float)
    # a (3, 2) response used to be flattened and scored as 6 samples
    with pytest.raises(DimensionMismatchError, match="1-D or one column"):
        marginal_stats(X, np.arange(6.0).reshape(3, 2), "t")


def test_phenotype_kind_is_checked_at_construction():
    # an unknown kind used to pass and fail later, inside the score kernel
    with pytest.raises(ConfigError, match="quantitative or binary"):
        Phenotype(values=np.array([0.0, 1.0, 1.0]), kind="Binary")


def test_quantitative_response_needs_three_samples():
    X = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(BadSampleSizeError, match="n >= 3"):
        marginal_correlations(X, np.array([0.3, -0.7]))
    # the known-sigma score needs no correlation, so n = 2 stays valid there
    assert np.all(np.isfinite(zscores_known_sigma(X, np.array([0.3, -0.7]), 1.0)))
