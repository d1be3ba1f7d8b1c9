"""Release gate: ten numbered end-to-end checks at full protocol scale.

Criteria 1-5 pin calibration anchors and algebraic identities, 6-8 are
Monte Carlo reproductions of the benchmark behaviour (null calibration,
power ordering in signal strength, FDR trend), 9 checks simulator
fidelity, and 10 checks that every Monte Carlo artifact is byte-identical
across reruns and worker counts.  Each test reports one PASS/FAIL line
with measured values in the terminal summary (see conftest).
"""

import numpy as np
import pytest

from rareweak import (
    Scenario,
    CoefficientScheme,
    LdSpec,
    beta_from_r,
    build_ld,
    cholesky_lower,
    decorrelation_test,
    detection_boundary,
    empirical_power,
    fdr_curve,
    fdr_table_csv,
    heritability,
    hc_threshold_scan,
    higher_criticism,
    minp_boundary,
    power_table_csv,
    pvalues_two_sided,
    quadratic_test,
    simulate_genotypes,
    six_toeplitz_designs,
)
from rareweak.bench import csv_text

# the Monte Carlo protocol every benchmark criterion runs under:
# 100 SNPs, 1000 samples, MAF 0.4, rarity exponent 0.76 (3 signals)
PROTO = dict(L=100, n=1000, q=0.4, sigma=1.0, alpha=0.76)
METHODS = ("HC", "HCm", "MinP", "LCT", "QT", "DT")

SEED_NULL = 601
SEED_POWER = 701
SEED_RSIGN = 702
SEED_FDR = 801
SEED_FIDELITY = 109

R_GRID = (0.4, 0.65, 0.9)
FDR_LEVELS = (0.02, 0.05, 0.1, 0.15, 0.2)


def proto_scenario(r, scheme=None):
    return Scenario.from_strength(**PROTO, r=r, ld=LdSpec.identity(),
                                  scheme=scheme or CoefficientScheme.fixed())


# --- shared Monte Carlo runs (computed once, reused by criterion 10) -----------


@pytest.fixture(scope="module")
def null_results():
    return empirical_power(METHODS, proto_scenario(0.4).null(), n_sims=1000,
                           level=0.05, seed=SEED_NULL, perms_per_sim=200)


@pytest.fixture(scope="module")
def power_fixed():
    return {r: empirical_power(METHODS, proto_scenario(r), n_sims=500,
                               level=0.05, seed=SEED_POWER, perms_per_sim=1)
            for r in R_GRID}


@pytest.fixture(scope="module")
def power_random_sign():
    sc = proto_scenario(0.9, scheme=CoefficientScheme.random_sign())
    return empirical_power(METHODS, sc, n_sims=500, level=0.05,
                           seed=SEED_RSIGN, perms_per_sim=1)


@pytest.fixture(scope="module")
def fdr_curves():
    return {r: fdr_curve(["HC"], proto_scenario(r), levels=FDR_LEVELS,
                         n_sims=10, n_genes=500, n_signal_genes=50,
                         seed=SEED_FDR)
            for r in (0.4, 0.9)}


def fidelity_rows(seed):
    rows = []
    for spec in six_toeplitz_designs():
        X = simulate_genotypes(10_000, 0.4, spec, seed=seed, L=100)
        target = build_ld(spec, 100)
        emp = np.corrcoef(X.entries.T)
        per_entry = float(np.max(np.abs(emp - target)))
        per_lag = max(abs(float(np.mean(np.diag(emp, k))) - target[0, k])
                      for k in range(1, 100))
        cells = X.entries.ravel()
        obs = np.array([(cells == 0).sum(), (cells == 1).sum(), (cells == 2).sum()],
                       dtype=np.float64)
        exp = obs.sum() * np.array([0.36, 0.48, 0.16])
        from scipy.stats import chi2

        hwe_p = float(chi2.sf(float(((obs - exp) ** 2 / exp).sum()), df=2))
        rows.append((spec.name, per_lag, per_entry, hwe_p))
    return rows


@pytest.fixture(scope="module")
def fidelity():
    return fidelity_rows(SEED_FIDELITY)


# --- 1-2: calibration anchors ---------------------------------------------------


def test_criterion_01_effect_size_anchors(note):
    lo = beta_from_r(0.4, L=100, n=1000, q=0.4, sigma=1.0)
    hi = beta_from_r(0.9, L=100, n=1000, q=0.4, sigma=1.0)
    note(1, f"beta(r=0.4)={lo:.6f} (target 0.088), beta(r=0.9)={hi:.6f} (target 0.131)")
    assert abs(lo - 0.088) <= 0.0005
    assert abs(hi - 0.131) <= 0.0005


def test_criterion_02_heritability_anchors(note):
    lo = beta_from_r(0.4, L=100, n=1000, q=0.4, sigma=1.0)
    hi = beta_from_r(0.9, L=100, n=1000, q=0.4, sigma=1.0)
    h_lo = heritability(np.full(3, lo), 0.4, 1.0)
    h_hi = heritability(np.full(3, hi), 0.4, 1.0)
    note(2, f"h2(low)={h_lo:.5f} (target 0.011), h2(high)={h_hi:.5f} (target 0.024)")
    assert abs(h_lo - 0.011) <= 0.001
    assert abs(h_hi - 0.024) <= 0.001


# --- 3: boundary structure ------------------------------------------------------


def test_criterion_03_boundary_structure(note):
    # both closed forms evaluate to exactly 1/4 at the branch point
    assert 0.75 - 0.5 == 0.25
    assert (1.0 - np.sqrt(1.0 - 0.75)) ** 2 == 0.25
    assert detection_boundary(0.75) == 0.25
    assert minp_boundary(0.75) == 0.25

    grid = np.linspace(0.5, 1.0, 10_002)[1:-1]
    gap = np.array([minp_boundary(a) - detection_boundary(a) for a in grid])
    sparse = grid < 0.75
    assert np.all(gap[sparse] > 0.0)
    assert np.all(gap[~sparse] == 0.0)
    note(3, f"branch point exact; gap>0 on {int(sparse.sum())} sparse-side points, "
            f"gap==0 on {int((~sparse).sum())} dense-side points")


# --- 4-5: algebraic identities --------------------------------------------------


def test_criterion_04_hc_form_equivalence(note):
    rng = np.random.default_rng(401)
    worst = 0.0
    for i in range(200):
        L = (3, 10, 100)[i % 3]
        s = 1.5 * rng.standard_normal(L)
        order_form = higher_criticism(pvalues_two_sided(s)).value
        # thresholds an ulp below each |s| realise the supremum over all t;
        # a fixed offset would leak through the tail derivative at small p
        scan_form = hc_threshold_scan(s, np.sort(np.abs(s)) * (1.0 - 5e-15))
        worst = max(worst, abs(order_form - scan_form))
    note(4, f"max |order-form - scan-form| = {worst:.3g} over 200 vectors (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_05_whitening_identities(note):
    rng = np.random.default_rng(501)
    worst = 0.0
    for i in range(100):
        L = 2 + i % 11
        A = rng.standard_normal((L, L))
        sigma = A @ A.T / L + 0.5 * np.eye(L)
        S = rng.standard_normal(L)
        qt = quadratic_test(S, sigma)
        z = np.linalg.solve(cholesky_lower(sigma), S)
        ref = float(z @ z)
        worst = max(worst, abs(qt - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-9

    S = rng.standard_normal(20)
    dt = decorrelation_test(S, np.eye(20))
    fisher = float(-2.0 * np.sum(np.log(pvalues_two_sided(S))))
    note(5, f"max rel |QT - whitened norm^2| = {worst:.3g} over 100 PD matrices; "
            f"DT==Fisher at identity: {dt == fisher}")
    assert dt == fisher


# --- 6: null calibration --------------------------------------------------------


def _fmt_powers(results):
    return ", ".join(f"{res.method} {res.power:.3f}" for res in results)


def test_criterion_06_null_calibration(null_results, note):
    note(6, "null rejection at level 0.05: " + _fmt_powers(null_results))
    for res in null_results:
        assert 0.03 <= res.power <= 0.07, f"{res.method}: {res.power}"


# --- 7: power ordering ----------------------------------------------------------


def test_criterion_07_power_ordering(power_fixed, power_random_sign, note):
    by_method = {r: {res.method: res.power for res in power_fixed[r]} for r in R_GRID}
    lines = []
    # (a) nondecreasing in r within 2 Monte Carlo SE, per method
    for m in METHODS:
        seq = [by_method[r][m] for r in R_GRID]
        lines.append(f"{m} " + "/".join(f"{p:.3f}" for p in seq))
        for lo, hi in zip(seq, seq[1:]):
            se = np.sqrt((lo * (1 - lo) + hi * (1 - hi)) / 500.0)
            assert hi >= lo - 2.0 * se, f"{m}: power fell {lo:.3f} -> {hi:.3f}"
    # (b) HC competitive with MinP at the strong end
    hc9, minp9 = by_method[0.9]["HC"], by_method[0.9]["MinP"]
    assert hc9 >= minp9 - 0.05
    # (c) sign-mixed coefficients cancel in the linear-combination test
    rs = {res.method: res.power for res in power_random_sign}
    assert rs["LCT"] <= rs["HC"] - 0.15
    note(7, "power r=0.4/0.65/0.9: " + "; ".join(lines)
         + f"; random-sign r=0.9 HC {rs['HC']:.3f} vs LCT {rs['LCT']:.3f}")


# --- 8: FDR trend ---------------------------------------------------------------


def test_criterion_08_fdr_trend(fdr_curves, note):
    weak, strong = fdr_curves[0.4], fdr_curves[0.9]
    pairs = list(zip(weak.fdr[0], strong.fdr[0]))
    note(8, "FDR (r=0.4 vs 0.9) at levels "
         + ", ".join(f"{lv:g}: {w:.3f}/{s:.3f}" for lv, (w, s) in zip(FDR_LEVELS, pairs)))
    for lv, (w, s) in zip(FDR_LEVELS, pairs):
        assert s <= w + 0.05, f"level {lv}: FDR rose {w:.3f} -> {s:.3f}"


# --- 9: simulator fidelity ------------------------------------------------------


def test_criterion_09_simulator_fidelity(fidelity, note):
    # the correlation check averages the ~100 estimates that share each
    # Toeplitz lag; single entries have Monte Carlo spread ~0.01 at n=1e4,
    # so their max over ~5000 entries sits near 0.04 for any correct
    # simulator (the per-entry figure is reported alongside)
    worst_lag = max(row[1] for row in fidelity)
    worst_entry = max(row[2] for row in fidelity)
    worst_p = min(row[3] for row in fidelity)
    note(9, f"six designs at n=1e4: max per-lag corr deviation {worst_lag:.4f} "
            f"(tol 0.03; raw per-entry max {worst_entry:.4f}), "
            f"min HWE chi2 p {worst_p:.3g} (floor 0.001)")
    for name, per_lag, _, hwe_p in fidelity:
        assert per_lag <= 0.03, f"{name}: lag deviation {per_lag:.4f}"
        assert hwe_p > 0.001, f"{name}: HWE p {hwe_p:.3g}"


# --- 10: determinism ------------------------------------------------------------


def fidelity_csv(rows):
    return csv_text(("design", "max_lag_deviation", "max_entry_deviation", "hwe_pvalue"),
                    rows)


def test_criterion_10_determinism(null_results, power_fixed, power_random_sign,
                                  fdr_curves, fidelity, note):
    checks = []

    again = empirical_power(METHODS, proto_scenario(0.4).null(), n_sims=1000,
                            level=0.05, seed=SEED_NULL, perms_per_sim=200, workers=2)
    checks.append(power_table_csv(null_results) == power_table_csv(again))

    first = power_table_csv([res for r in R_GRID for res in power_fixed[r]]
                            + list(power_random_sign))
    rerun = [res
             for r in R_GRID
             for res in empirical_power(METHODS, proto_scenario(r), n_sims=500,
                                        level=0.05, seed=SEED_POWER,
                                        perms_per_sim=1, workers=2)]
    rerun += list(empirical_power(
        METHODS, proto_scenario(0.9, scheme=CoefficientScheme.random_sign()),
        n_sims=500, level=0.05, seed=SEED_RSIGN, perms_per_sim=1, workers=2))
    checks.append(first == power_table_csv(rerun))

    fdr_again = [fdr_curve(["HC"], proto_scenario(r), levels=FDR_LEVELS,
                           n_sims=10, n_genes=500, n_signal_genes=50,
                           seed=SEED_FDR, workers=2)
                 for r in (0.4, 0.9)]
    checks.append(fdr_table_csv([fdr_curves[0.4], fdr_curves[0.9]])
                  == fdr_table_csv(fdr_again))

    checks.append(fidelity_csv(fidelity) == fidelity_csv(fidelity_rows(SEED_FIDELITY)))

    note(10, f"{sum(checks)}/4 artifact groups byte-identical on rerun "
             "(workers 2 vs 1 where parallelism applies)")
    assert all(checks)
