"""Why the correction exists: nearest-neighbor bias in moderate dimensions.

With several covariates, nearest neighbors are far apart at realistic sample
sizes, which drags the raw coefficient away from its population value under
strong dependence. The corrected estimator subtracts a plug-in estimate of
that distortion, built from a ridge-penalized polynomial fit of the
conditional survival function.

This demo uses the built-in copula generator, whose population dependence
value is known in closed form, so the bias is directly visible.

Run:  python3 demos/02_bias_correction.py
"""

import numpy as np

from nncorr import CopulaConfig, estimate, gen_gaussian_copula, true_t

rho, d, n = 0.9, 6, 300
truth = true_t(rho)
reps = 30

print(f"Copula cell: rho={rho}, d={d}, n={n}; population value T = {truth:.4f}")
print(f"Averaging {reps} independent replications...\n")

t_raw, t_corr = [], []
for r in range(reps):
    sample = gen_gaussian_copula(CopulaConfig(n=n, d=d, rho=rho, seed=r))
    res = estimate(sample)
    t_raw.append(res.t_hat)
    t_corr.append(res.t_bc)

t_raw = np.asarray(t_raw)
t_corr = np.asarray(t_corr)

print(f"  raw       mean = {t_raw.mean():.4f}   bias = {t_raw.mean() - truth:+.4f}   "
      f"rmse = {np.sqrt(np.mean((t_raw - truth) ** 2)):.4f}")
print(f"  corrected mean = {t_corr.mean():.4f}   bias = {t_corr.mean() - truth:+.4f}   "
      f"rmse = {np.sqrt(np.mean((t_corr - truth) ** 2)):.4f}")

# The pieces: t_bc = t_hat - 6 * l_hat, where l_hat estimates the pairwise
# distortion term. One replication, unpacked:
res = estimate(gen_gaussian_copula(CopulaConfig(n=n, d=d, rho=rho, seed=999)))
print(f"\nOne replication unpacked: t_hat = {res.t_hat:.4f}, "
      f"l_hat = {res.l_hat:+.5f}, t_bc = t_hat - 6*l_hat = {res.t_bc:.4f}")

# Under independence there is almost nothing to correct.
res0 = estimate(gen_gaussian_copula(CopulaConfig(n=n, d=d, rho=0.0, seed=7)))
print(f"Independence check (rho=0): t_hat = {res0.t_hat:+.4f}, "
      f"t_bc = {res0.t_bc:+.4f} (truth 0)")
