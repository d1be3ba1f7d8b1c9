"""How faithful the correlated-genotype simulator is.

Generates each of the six Toeplitz benchmark designs and compares the
empirical column correlations against their targets, lag by lag, plus a
chi-square check that every panel's genotype frequencies follow the
binomial(2, q) law the latent thresholds were solved for.
"""

import numpy as np
from scipy.stats import chi2

from rareweak import build_ld, simulate_genotypes, six_toeplitz_designs

N, L, Q, SEED = 4000, 60, 0.4, 7


def main():
    print(f"{N} samples x {L} SNPs per design, MAF q={Q}, seed {SEED}")
    print()
    print(f"{'design':22} {'lag-1 target':>13} {'lag-1 got':>10} "
          f"{'worst lag dev':>14} {'HWE chi2 p':>11}")
    for spec in six_toeplitz_designs():
        X = simulate_genotypes(N, Q, spec, seed=SEED, L=L)
        target = build_ld(spec, L)
        emp = np.corrcoef(X.entries.T)
        lag_means = [float(np.mean(np.diag(emp, k))) for k in range(1, L)]
        worst = max(abs(m - target[0, k + 1]) for k, m in enumerate(lag_means))

        cells = X.entries.ravel()
        obs = np.array([(cells == 0).sum(), (cells == 1).sum(), (cells == 2).sum()],
                       dtype=np.float64)
        exp = obs.sum() * np.array([(1 - Q) ** 2, 2 * Q * (1 - Q), Q * Q])
        p = float(chi2.sf(float(((obs - exp) ** 2 / exp).sum()), df=2))

        print(f"{spec.name:22} {target[0, 1]:13.3f} {lag_means[0]:10.3f} "
              f"{worst:14.4f} {p:11.3f}")

    print()
    print("per-lag deviations shrink like 1/sqrt(n * lag count); single-entry")
    print("estimates carry ~1/sqrt(n) noise each, so compare averaged lags.")


if __name__ == "__main__":
    main()
