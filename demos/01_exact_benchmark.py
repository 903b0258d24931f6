"""Two-sensor benchmark with an exactly known covariance model.

A 3-dimensional source x is observed by two sensors, each seeing x plus
independent white noise (sigma = 0.2 and 0.4). Each sensor may transmit a
single scalar (r = (1, 1)) to the fusion center. We compare:

  * the decoupled baseline - each sensor compresses its own slice of the
    source optimally, but without coordination - and
  * the jointly optimized bank found by maximum block improvement (MBI),
    which re-solves one sensor's compressor at a time, always committing
    the block that helps the fused estimate most.

Run:  python3 demos/01_exact_benchmark.py
"""

from kltmbi import (
    MbiConfig,
    analytic_mse,
    example1_model,
    init_bank,
    mbi_solve,
)

model = example1_model()

baseline = init_bank(model)
print(f"decoupled baseline MSE : {analytic_mse(model, baseline):.4f}")

# Five iterations already land within a hair of the optimum; a tight
# epsilon would keep polishing the last digits for hundreds of steps.
bank, trace = mbi_solve(model, baseline, MbiConfig(epsilon=0.0, max_iterations=5))
print(f"MBI after 5 iterations : {analytic_mse(model, bank):.4f}")

print("\nMSE per iteration:")
for q, mse in enumerate(trace.mse_per_iteration):
    chosen = "-" if q == 0 else str(trace.chosen_block_per_iteration[q - 1])
    print(f"  iter {q}: MSE = {mse:.6f}  (updated sensor {chosen})")

bank, trace = mbi_solve(
    model, baseline, MbiConfig(epsilon=1e-12, max_iterations=2000)
)
print(
    f"\nfully converged MSE    : {analytic_mse(model, bank):.4f} "
    f"({trace.iterations_used} iterations)"
)
