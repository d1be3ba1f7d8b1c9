"""Detectability threshold curves and the rarity/strength calibration."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rareweak import (
    AlphaOutOfRangeError,
    BadSampleSizeError,
    DimensionMismatchError,
    NonFiniteInputError,
    NonPositiveSigmaError,
    beta_from_r,
    boundary_curve,
    detection_boundary,
    heritability,
    minp_boundary,
    signal_count,
)

# frozen with 30-digit mpmath from the defining formulas, independent of the
# package: beta = sigma*sqrt(2 r lnL)/sqrt(2 n q (1-q)) at L=100, n=1000,
# q=0.4, sigma=1, and h2 = g/(g+sigma^2) with g = 3 beta^2 2q(1-q)
BETA_R04 = 0.087608696162615533
BETA_R09 = 0.1314130442439233
H2_R04 = 0.010931588070053705
H2_R09 = 0.024264511107436167

PANEL = dict(L=100, n=1000, q=0.4, sigma=1.0)


def r_from_beta(beta, L, n, q, sigma):
    """The strength exponent of a coefficient, beta_from_r's closed-form
    inverse: r = beta^2 2nq(1-q) / (2 sigma^2 ln L)."""
    return beta * beta * 2.0 * n * q * (1.0 - q) / (2.0 * sigma ** 2 * np.log(L))


def test_detection_boundary_sparse_branch():
    assert detection_boundary(0.6) == pytest.approx(0.1, abs=1e-15)


def test_detection_boundary_dense_branch():
    # (1 - sqrt(1 - 0.9))^2, mpmath
    assert detection_boundary(0.9) == pytest.approx(0.46754446796632413, rel=1e-15)


def test_detection_boundary_continuous_at_branch_point():
    assert detection_boundary(0.75) == pytest.approx(0.25, abs=1e-15)
    assert detection_boundary(0.75 - 1e-12) == pytest.approx(0.25, abs=1e-10)
    assert detection_boundary(0.75 + 1e-12) == pytest.approx(0.25, abs=1e-10)


def test_minp_boundary_values():
    assert minp_boundary(0.6) == pytest.approx(0.13508893593264827, rel=1e-15)
    assert minp_boundary(0.9) == pytest.approx(0.46754446796632413, rel=1e-15)


def test_minp_never_below_optimal():
    alphas = np.linspace(0.5 + 1e-9, 1.0 - 1e-9, 2001)
    for a in alphas:
        assert minp_boundary(a) >= detection_boundary(a) - 1e-15


def test_minp_strictly_above_optimal_on_sparse_side():
    for a in (0.55, 0.6, 0.7, 0.74):
        assert minp_boundary(a) > detection_boundary(a)
    for a in (0.75, 0.8, 0.95):
        assert minp_boundary(a) == pytest.approx(detection_boundary(a), abs=1e-15)


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, 1.5, -0.2])
def test_boundary_rejects_alpha_outside_open_interval(bad):
    with pytest.raises(AlphaOutOfRangeError):
        detection_boundary(bad)
    with pytest.raises(AlphaOutOfRangeError):
        minp_boundary(bad)


def test_signal_count_examples():
    assert signal_count(100, 0.76) == 3
    assert signal_count(10000, 0.75) == 10
    assert signal_count(100, 0.99) == 1
    # 100^0.49 = 9.5499... rounds up under floor(x + 0.5)
    assert signal_count(100, 0.51) == 10


def test_signal_count_never_below_one():
    for L in (2, 10, 1000):
        assert signal_count(L, 1.0 - 1e-9) == 1


def test_signal_count_rejects_bad_L():
    with pytest.raises(BadSampleSizeError):
        signal_count(1, 0.76)


def test_beta_anchor_values():
    assert beta_from_r(0.4, **PANEL) == pytest.approx(BETA_R04, abs=5e-13)
    assert beta_from_r(0.9, **PANEL) == pytest.approx(BETA_R09, abs=5e-13)


def test_heritability_anchor_values():
    k = signal_count(100, 0.76)
    beta = np.full(k, BETA_R04)
    assert heritability(beta, 0.4, 1.0) == pytest.approx(H2_R04, abs=1e-12)
    assert heritability(np.full(k, BETA_R09), 0.4, 1.0) == pytest.approx(H2_R09, abs=1e-12)


def test_strength_round_trip():
    for r in (0.3, 0.55, 0.8, 1.2):
        assert r_from_beta(beta_from_r(r, **PANEL), **PANEL) == pytest.approx(r, abs=1e-12)


@given(r=st.floats(0.01, 4.0), q=st.floats(0.05, 0.95),
       sigma=st.floats(0.1, 10.0))
def test_strength_round_trip_property(r, q, sigma):
    beta = beta_from_r(r, L=500, n=2000, q=q, sigma=sigma)
    assert r_from_beta(beta, L=500, n=2000, q=q, sigma=sigma) == pytest.approx(r, rel=1e-9)


def test_beta_scales_with_sigma_and_sqrt_r():
    base = beta_from_r(0.4, **PANEL)
    assert beta_from_r(0.4, **{**PANEL, "sigma": 2.0}) == pytest.approx(2.0 * base, rel=1e-12)
    assert beta_from_r(1.6, **PANEL) == pytest.approx(2.0 * base, rel=1e-12)


@pytest.mark.parametrize("bad, error", [
    ({"L": 1}, BadSampleSizeError),
    ({"n": 1}, BadSampleSizeError),
    ({"sigma": 0.0}, NonPositiveSigmaError),
    ({"sigma": float("nan")}, NonPositiveSigmaError),
    ({"q": 1.0}, NonFiniteInputError),
    ({"q": [0.2, 0.0]}, NonFiniteInputError),
])
def test_calibration_rejects_a_bad_panel(bad, error):
    panel = {**PANEL, **bad}
    with pytest.raises(error):
        beta_from_r(0.4, **panel)
    with pytest.raises(error):
        boundary_curve([0.6], "optimal", **panel)


@pytest.mark.parametrize("r", [0.0, -0.1, float("inf"), [0.4, float("nan")]])
def test_beta_from_r_rejects_a_bad_strength(r):
    with pytest.raises(NonFiniteInputError):
        beta_from_r(r, **PANEL)


def test_heritability_zero_and_monotone():
    assert heritability(np.zeros(3), 0.4, 1.0) == 0.0
    h_small = heritability(np.full(3, 0.05), 0.4, 1.0)
    h_big = heritability(np.full(3, 0.10), 0.4, 1.0)
    assert 0.0 < h_small < h_big < 1.0


def test_boundary_curve_rows_and_monotonicity():
    alphas = np.linspace(0.51, 0.99, 97)
    curve = boundary_curve(alphas, "optimal", **PANEL)
    rows = list(curve.rows())
    assert len(rows) == 97
    r_vals = np.array([row[1] for row in rows])
    assert np.all(np.diff(r_vals) > 0)           # threshold rises with rarity
    beta_vals = np.array([row[2] for row in rows])
    h_vals = np.array([row[3] for row in rows])
    assert np.all(np.diff(beta_vals) > 0)
    assert np.all(h_vals > 0) and np.all(h_vals < 1)

    minp = boundary_curve(alphas, "minp", **PANEL)
    assert np.all(minp.r >= curve.r - 1e-15)


def test_boundary_curve_rejects_an_unknown_mode_an_empty_grid_and_an_array_q():
    with pytest.raises(DimensionMismatchError):
        boundary_curve([0.6], "hc", **PANEL)
    with pytest.raises(DimensionMismatchError):
        boundary_curve([], "optimal", **PANEL)
    with pytest.raises(DimensionMismatchError):
        boundary_curve([0.6], "optimal", **{**PANEL, "q": [0.3, 0.4]})
