"""Set-level detectors: the HC family, MinP, BH, and covariance-aware tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, kstest

from rareweak import (
    AlphaOutOfRangeError,
    BadRangeError,
    DegenerateGridPointError,
    EmptyGridError,
    EmptyInputError,
    NonPositiveQuadFormError,
    NotPositiveDefiniteError,
    NotSquareError,
    PValueOutOfRangeError,
    bh_select,
    check_row_sparsity,
    decorrelation_test,
    empirical_correlation,
    hc_discretized,
    hc_grid_start,
    hc_threshold_scan,
    higher_criticism,
    linear_combination_test,
    min_pvalue,
    pvalues_two_sided,
    quadratic_test,
)
from rareweak.detectors import cholesky_lower


# --- HC, order form ---------------------------------------------------------


def test_hc_single_midpoint_pvalue():
    res = higher_criticism([0.5])
    assert res.value == pytest.approx(1.0, rel=1e-14)
    assert res.argmax_k == 1


def test_hc_hand_profile():
    # sqrt(3)(j/3 - p_(j))/sqrt(p_(j)(1-p_(j))) at p=(0.01, 0.2, 0.5), mpmath:
    # (5.6285108759008968, 2.0207259421636902, 1.7320508075688773)
    res = higher_criticism([0.5, 0.01, 0.2])
    np.testing.assert_allclose(
        res.per_index,
        [5.6285108759008968, 2.0207259421636902, 1.7320508075688773], rtol=1e-12)
    assert res.value == pytest.approx(5.6285108759008968, rel=1e-12)
    assert res.argmax_k == 1


def test_hc_exact_uniform_is_clamp_residual():
    # p_(j) = j/L would give 0 everywhere, except p=1 clamps to 1-1e-15 and
    # leaves a residual of sqrt(L * 1e-15) at the last index
    L = 100
    res = higher_criticism(np.arange(1, L + 1) / L)
    assert abs(res.value) <= 1e-6
    assert res.value == pytest.approx(np.sqrt(L * 1e-15), rel=1e-3)


def test_hc_order_invariance():
    p = np.array([0.8, 0.03, 0.4, 0.11, 0.9])
    a = higher_criticism(p)
    b = higher_criticism(p[::-1])
    assert a.value == b.value and a.argmax_k == b.argmax_k
    np.testing.assert_allclose(a.per_index, b.per_index)


def test_hc_tie_breaks_to_smallest_index():
    res = higher_criticism([0.25, 0.25, 0.25, 0.25])
    dup = np.flatnonzero(res.per_index == res.value)
    assert res.argmax_k == dup[0] + 1


def test_hc_input_validation():
    with pytest.raises(EmptyInputError):
        higher_criticism([])
    with pytest.raises(PValueOutOfRangeError):
        higher_criticism([0.5, -0.1])
    with pytest.raises(PValueOutOfRangeError):
        higher_criticism([0.5, 1.2])


def test_hc_boundary_pvalues_clamped_not_rejected(caplog):
    res = higher_criticism([0.0, 1.0, 0.5])
    assert np.isfinite(res.value)
    assert res.value > 1e6          # p=0 clamps to 1e-15 and dominates


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=40))
def test_hc_value_matches_per_index_max(ps):
    res = higher_criticism(ps)
    assert res.value == res.per_index.max()
    assert res.per_index[res.argmax_k - 1] == res.value


# --- HC, threshold-scan and discretized forms -------------------------------


def test_scan_all_zero_stats_single_point():
    # no exceedances: (0 - 2L*sf(1))/sqrt(2L*sf(1)*(1 - 2*sf(1)))
    L = 5
    tail = 2.0 * 0.15865525393145705  # 2 * sf(1), mpmath
    want = (0.0 - L * tail) / np.sqrt(L * tail * (1.0 - tail))
    got = hc_threshold_scan(np.zeros(L), [1.0])
    assert got == pytest.approx(want, rel=1e-10)
    assert got < 0


def test_scan_centered_count_gives_zero():
    # choose t so 2*sf(t) = 0.5, i.e. t = 0.674489750196; 2 of 4 stats exceed
    t = 0.6744897501960817
    stats = np.array([2.0, 2.0, 0.1, 0.1])
    got = hc_threshold_scan(stats, [t])
    assert got == pytest.approx(0.0, abs=1e-9)


def test_scan_rejects_bad_grids():
    with pytest.raises(EmptyGridError):
        hc_threshold_scan(np.ones(3), [])
    with pytest.raises(DegenerateGridPointError):
        hc_threshold_scan(np.ones(3), [0.0])    # sf(0) = 1/2
    with pytest.raises(DegenerateGridPointError):
        hc_threshold_scan(np.ones(3), [-1.0])


def test_scan_matches_order_form_on_dense_grid():
    # thresholds an ulp below each |s| realise the sup over all t; a fixed
    # offset would leak through the tail derivative at small p
    rng = np.random.default_rng(77)
    for L in (3, 10, 100):
        s = rng.standard_normal(L) * 1.5
        order = higher_criticism(pvalues_two_sided(s)).value
        grid = np.sort(np.abs(s)) * (1.0 - 5e-15)
        grid = grid[grid > 0]
        scan = hc_threshold_scan(s, grid)
        assert scan == pytest.approx(order, abs=1e-9)


def test_grid_start_values():
    # alpha=0.76: 4*r* = 1.0408 caps delta at 1 -> sqrt(2 ln 100)
    assert hc_grid_start(0.76, 100) == pytest.approx(3.0348542587702927, rel=1e-12)
    # alpha=0.6: delta = 4*0.1 = 0.4 -> sqrt(0.8 ln 100)
    assert hc_grid_start(0.6, 100) == pytest.approx(1.9194103648752325, rel=1e-12)
    with pytest.raises(AlphaOutOfRangeError):
        hc_grid_start(0.5, 100)


def test_grid_start_continuous_at_branch_point():
    lo = hc_grid_start(0.75 - 1e-10, 1000)
    hi = hc_grid_start(0.75 + 1e-10, 1000)
    assert lo == pytest.approx(hi, abs=1e-8)


def test_discretized_grid_and_fallback():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(100) * 2.0
    # integer grid {1,2,3,4} for L=100 (top = sqrt(5 ln 100) = 4.7985)
    manual = max(hc_threshold_scan(s, [float(t)]) for t in (1, 2, 3, 4))
    assert hc_discretized(s, 0.5) == pytest.approx(manual, rel=1e-12)
    # start above 4 leaves {} -> falls back to the single point t_min
    got = hc_discretized(s, 4.5)
    assert got == pytest.approx(hc_threshold_scan(s, [4.5]), rel=1e-12)
    with pytest.raises(BadRangeError):
        hc_discretized(s, 5.0)      # above sqrt(5 ln L)


def test_discretized_never_exceeds_dense_scan():
    rng = np.random.default_rng(11)
    s = rng.standard_normal(64) * 1.3
    dense = higher_criticism(pvalues_two_sided(s)).value
    assert hc_discretized(s, 1.0) <= dense + 1e-9


def test_hc_null_growth_is_slow():
    # 95th percentile over uniform p-values stays in a narrow band even at
    # L=1e4 (the null HC grows like sqrt(2 log log L))
    rng = np.random.default_rng(2024)
    draws = np.empty(2000)
    for i in range(2000):
        draws[i] = higher_criticism(rng.uniform(size=10_000)).value
    q95 = np.quantile(draws, 0.95)
    assert 2.5 <= q95 <= 6.0


# --- MinP and BH -------------------------------------------------------------


def test_min_pvalue():
    assert min_pvalue([0.3, 0.1, 0.9]) == 0.1
    assert min_pvalue([0.42]) == 0.42
    assert min_pvalue([0.7, 0.7, 0.7]) == 0.7
    with pytest.raises(EmptyInputError):
        min_pvalue([])


def test_bh_hand_example():
    assert bh_select([0.01, 0.02, 0.9], 0.05) == 2


def test_bh_empty_and_full_selection():
    assert bh_select([0.99, 0.99, 0.99], 0.05) == 0
    L = 8
    p = 0.05 * np.arange(1, L + 1) / (2 * L)
    assert bh_select(p, 0.05) == L


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30),
       st.floats(0.01, 0.3), st.floats(0.0, 0.3))
def test_bh_monotone_in_alpha(ps, a1, bump):
    a2 = min(a1 + bump, 0.99)
    assert bh_select(ps, a1) <= bh_select(ps, a2)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=30), st.floats(0.01, 0.5))
def test_bh_order_invariant(ps, alpha):
    assert bh_select(ps, alpha) == bh_select(ps[::-1], alpha)


# --- empirical correlation and the covariance-aware tests --------------------


def test_empirical_correlation_structure():
    rng = np.random.default_rng(8)
    X = rng.binomial(2, 0.4, size=(200, 5)).astype(float)
    X[:, 3] = X[:, 0]                  # duplicate
    X[:, 4] = 2.0 - X[:, 1]            # reflection
    sg = empirical_correlation(X)
    m = sg.matrix
    np.testing.assert_allclose(np.diag(m), 1.0, rtol=1e-14)
    np.testing.assert_allclose(m, m.T, rtol=1e-14)
    assert m[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert m[1, 4] == pytest.approx(-1.0, abs=1e-12)


def test_empirical_correlation_matches_corrcoef():
    rng = np.random.default_rng(10)
    X = rng.binomial(2, 0.3, size=(1000, 40)).astype(float)
    X[:, 1] = np.clip(X[:, 0] + rng.binomial(1, 0.3, size=1000), 0.0, 2.0)  # correlated pair
    np.testing.assert_allclose(empirical_correlation(X).matrix, np.corrcoef(X, rowvar=False),
                               rtol=0.0, atol=1e-14)


def test_empirical_correlation_independent_columns_near_zero():
    rng = np.random.default_rng(9)
    X = rng.binomial(2, 0.4, size=(10_000, 12)).astype(float)
    m = empirical_correlation(X).matrix
    off = m[~np.eye(12, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_lct_identity_cases():
    eye = np.eye(4)
    assert linear_combination_test(np.ones(4), eye) == pytest.approx(2.0, rel=1e-14)
    assert linear_combination_test(np.array([1.0, -1.0]), np.eye(2)) == pytest.approx(0.0, abs=1e-14)
    s = np.array([0.3, -1.2, 0.5, 2.0])
    assert linear_combination_test(-s, eye) == pytest.approx(-linear_combination_test(s, eye), rel=1e-13)


def test_lct_rejects_nonpositive_quadratic_form():
    # valid correlation matrix but e'Se = 0 (perfect anticorrelation)
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(NonPositiveQuadFormError):
        linear_combination_test(np.ones(2), m)


def test_qt_closed_forms():
    assert quadratic_test(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0, rel=1e-13)
    assert quadratic_test(np.zeros(3), np.eye(3)) == 0.0
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert quadratic_test(np.ones(2), m) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_qt_reports_failing_minor():
    m = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0]])    # rank 2: third leading minor fails
    with pytest.raises(NotPositiveDefiniteError) as err:
        quadratic_test(np.ones(3), m)
    assert err.value.minor_index == 3


def test_dt_identity_reduces_to_fisher():
    s = np.array([0.7, -1.1, 2.2])
    p = pvalues_two_sided(s)
    want = float(-2.0 * np.sum(np.log(p)))
    assert decorrelation_test(s, np.eye(3)) == pytest.approx(want, rel=1e-13)
    assert decorrelation_test(np.zeros(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)


def test_dt_hand_value_identity():
    # -2*(log p(1) + log p(2)), mpmath: 8.4758232351428097
    got = decorrelation_test(np.array([1.0, 2.0]), np.eye(2))
    assert got == pytest.approx(8.4758232351428097, rel=1e-12)


def test_qt_equals_squared_whitened_norm():
    rng = np.random.default_rng(10)
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        cov = A @ A.T + 6 * np.eye(6)
        d = np.sqrt(np.diag(cov))
        m = cov / np.outer(d, d)
        s = rng.standard_normal(6) * 2
        w = np.linalg.solve(cholesky_lower(m), s)
        assert quadratic_test(s, m) == pytest.approx(float(w @ w), rel=1e-9)


def test_dt_is_chi_square_under_matched_covariance():
    # S = D Z with Z iid normal makes the whitened scores iid normal, so the
    # statistic is chi^2 with 2L degrees of freedom
    rng = np.random.default_rng(12)
    L = 6
    A = rng.standard_normal((L, L))
    cov = A @ A.T + L * np.eye(L)
    d = np.sqrt(np.diag(cov))
    m = cov / np.outer(d, d)
    D = cholesky_lower(m)
    draws = np.array([decorrelation_test(D @ rng.standard_normal(L), m)
                      for _ in range(2000)])
    assert kstest(draws, chi2(df=2 * L).cdf).pvalue > 0.01


def test_sparsity_check_identity_and_band():
    ok, count = check_row_sparsity(np.eye(5), threshold=0.1, max_per_row=0)
    assert ok and count == 0
    band = np.eye(6) + np.diag(np.full(5, 0.3), 1) + np.diag(np.full(5, 0.3), -1)
    res = check_row_sparsity(band, threshold=0.2, max_per_row=2)
    assert res.ok and res.max_row_count == 2
    assert not check_row_sparsity(band, threshold=0.2, max_per_row=1).ok


def test_sparsity_check_rejects_non_square():
    with pytest.raises(NotSquareError):
        check_row_sparsity(np.ones((2, 3)), 0.1, 1)
