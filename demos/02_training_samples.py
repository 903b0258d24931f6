"""Working from training samples instead of a known model.

In practice the second-moment model is not given; it is estimated from s
training draws of (x, y). This demo builds a three-sensor linear-mixing
scenario (each sensor sees A_j x + noise), estimates the moments from 20
samples, optimizes the compressor bank, and checks the key identity: on a
sample-estimated model, the analytic MSE formula and the empirical MSE over
the training set are the same quantity, equal up to round-off.

It then factorizes the optimized bank into per-sensor encoders plus a
fusion-center decoder - the form you would actually deploy on a network -
and verifies the wire format reproduces the same reconstruction.

Run:  python3 demos/02_training_samples.py
"""

import numpy as np

from kltmbi import (
    MbiConfig,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    compress,
    empirical_mse,
    estimate_moments,
    factorize_wsn,
    generate,
    init_bank,
    mbi_solve,
    reconstruct,
)

part = SensorPartition(m=20, n=(20, 20, 20), r=(5, 5, 5))
spec = ScenarioSpec(
    kind="linear_mixing", partition=part, s=20, sigmas=(0.1, 0.2, 0.3), seed=7
)
ens = generate(spec)
model = estimate_moments(ens, part)

baseline = init_bank(model)
bank, trace = mbi_solve(
    model, baseline, MbiConfig(epsilon=1e-10, max_iterations=1000)
)

print(f"samples: {ens.s}, sensors: {part.p}, ranks: {part.r}")
print(f"baseline MSE : {empirical_mse(ens, baseline):.5f}")
print(
    f"MBI MSE      : {empirical_mse(ens, bank):.5f} "
    f"({trace.iterations_used} iterations, converged={trace.converged})"
)
print(
    "analytic == empirical on the estimated model: "
    f"{abs(analytic_mse(model, bank) - empirical_mse(ens, bank)):.2e} absolute"
)

wsn = factorize_wsn(bank)
compressed = compress(wsn, ens.y)
x_hat = reconstruct(wsn, compressed)
print(
    "\nper-sensor payloads sent to the fusion center:",
    [u.shape for u in compressed],
)
print(
    "wire-format reconstruction matches the bank: "
    f"{np.linalg.norm(x_hat - bank.full() @ ens.y):.2e}"
)
