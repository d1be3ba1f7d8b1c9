"""What the higher-criticism scan actually maximizes.

Builds one panel with three weak planted signals, walks through the
marginal statistics, and shows the two equivalent faces of the statistic:
the order-statistic profile over p-values and the supremum of centered
exceedance counts over thresholds.  Both read |t| on the N(0, 1) scale, as
the benchmark's HC does, so they agree to rounding; the table's p-values
are the t(n - 2) tail.  Ends with the smallest p-value for
contrast: Bonferroni wants one individually-strong signal, the scan only
needs their mass.
"""

import numpy as np

from rareweak import (
    CoefficientScheme,
    LdSpec,
    draw_signal_config,
    hc_threshold_scan,
    higher_criticism,
    marginal_stats,
    min_pvalue,
    pvalues_two_sided,
    simulate_genotypes,
    simulate_quantitative,
)

L, N, Q, SEED = 100, 1000, 0.4, 20260817


def main():
    X = simulate_genotypes(N, Q, LdSpec.identity(), seed=SEED, L=L)
    signal = draw_signal_config(L, 3, CoefficientScheme.fixed(), 0.131, seed=SEED)
    y = simulate_quantitative(X, signal, 1.0, seed=SEED)
    print(f"panel {N}x{L}, three signals of beta=0.131 at columns "
          f"{sorted(int(j) for j in signal.support)}")

    marg = marginal_stats(X, y, "t")
    order = np.argsort(marg.pvalues)
    print("\nten smallest marginal p-values (column, |t|, p):")
    for j in order[:10]:
        mark = " <- planted" if j in signal.support else ""
        print(f"  snp {j:3d}  |t|={abs(marg.values[j]):5.2f}  "
              f"p={marg.pvalues[j]:.2e}{mark}")

    # the scan below turns |t| into normal tails, so the order form reads them too
    normal_p = pvalues_two_sided(marg.values)
    hc = higher_criticism(normal_p)
    print(f"\nhigher criticism of the normal-tail p-values: value {hc.value:.3f}, "
          f"achieved at order index {hc.argmax_k} (p={np.sort(normal_p)[hc.argmax_k - 1]:.2e})")

    # exceedance counts are strict, so scan a hair below each observed |t|
    grid = np.sort(np.abs(marg.values)) * (1.0 - 5e-15)
    scan = hc_threshold_scan(marg.values, grid)
    print(f"threshold-scan form over observed |t| values: {scan:.3f} "
          f"(difference from order form {abs(scan - hc.value):.1e})")
    assert abs(scan - hc.value) <= 1e-9, "the two forms of HC disagree"

    print(f"\nsmallest p alone: {min_pvalue(marg.pvalues):.2e} "
          f"(bonferroni-significant at 0.05: {min_pvalue(marg.pvalues) < 0.05 / L})")
    print("\nindividually-weak signals ride under the bonferroni threshold;")
    print("the scan pools their mass to decide the panel is not null.")


if __name__ == "__main__":
    main()
