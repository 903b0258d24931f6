"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``PASS criterion N`` line on success (visible with ``pytest -s``).
"""

import json
import time

import numpy as np

from conftest import (
    ONE_SWEEP,
    best_block,
    block_step,
    direct_mse,
    noisy_model,
    random_model,
)
from kltmbi import (
    CompressorBank,
    MbiConfig,
    SampleEnsemble,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    empirical_mse,
    estimate_moments,
    example1_model,
    generate,
    image_scenario,
    init_bank,
    mbi_solve,
    save_pgm,
)
from kltmbi.cli import main
from kltmbi.solver import klt_matrix


def _solve_example1(max_iterations):
    model = example1_model()
    init = init_bank(model)
    cfg = MbiConfig(epsilon=0.0, max_iterations=max_iterations)
    bank, trace = mbi_solve(model, init, cfg)
    return model, bank, trace


def test_criterion_1_example1_reproduction():
    start = time.perf_counter()
    model, bank, trace = _solve_example1(max_iterations=5)
    elapsed = time.perf_counter() - start
    mse = analytic_mse(model, bank)
    assert mse <= 0.151, f"analytic MSE {mse} exceeds 0.151"
    assert trace.iterations_used <= 5
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(
        f"\nPASS criterion 1: exact benchmark MSE {mse:.4f} <= 0.151 "
        f"in {trace.iterations_used} iterations ({elapsed * 1e3:.0f} ms)"
    )


def test_criterion_2_baseline_ordering():
    model, bank, _ = _solve_example1(max_iterations=5)
    mse_mbi = analytic_mse(model, bank)
    mse_base = analytic_mse(model, init_bank(model))
    assert mse_base > mse_mbi
    print(
        f"\nPASS criterion 2: baseline MSE {mse_base:.4f} > MBI MSE {mse_mbi:.4f}"
    )


def test_criterion_3_single_sensor_klt_degeneracy():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        model = random_model(rng, m, (n,), (r,))
        stepped, _ = mbi_solve(model, CompressorBank.zeros(model.partition), ONE_SWEEP)
        direct = klt_matrix(model.e_xy, model.e_yy, r)
        denom = max(np.linalg.norm(direct), 1.0)
        worst = max(worst, np.linalg.norm(stepped.blocks[0] - direct) / denom)
    assert worst <= 1e-8, f"worst relative deviation {worst}"
    print(
        f"\nPASS criterion 3: 50 single-sensor models, one MBI step matches the "
        f"single-sensor KLT (worst rel. error {worst:.2e})"
    )


def test_criterion_4_block_solution_optimality():
    rng = np.random.default_rng(40)
    n_candidates = 100_000
    worst_gap = -np.inf
    worst_tail = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n_j = int(rng.integers(2, 9))
        k = n_j  # square G: invertible almost surely, Eckart-Young applies
        s = rng.standard_normal((m, k))
        g = rng.standard_normal((n_j, k))
        rank = np.linalg.matrix_rank(g)
        r = int(rng.integers(1, max(2, rank)))
        f_opt = block_step(s, g, r)
        res_opt = np.linalg.norm(s - f_opt @ g)

        # Best of 10^5 random rank-feasible candidates, evaluated in one shot.
        b = rng.standard_normal((n_candidates, m, r))
        c = rng.standard_normal((n_candidates, r, n_j))
        diff = s[None] - b @ (c @ g)
        res_min = float(np.sqrt((diff**2).sum(axis=(1, 2)).min()))
        worst_gap = max(worst_gap, res_opt - res_min)

        sigma = np.linalg.svd(s, compute_uv=False)
        tail = float(np.sqrt((sigma[r:] ** 2).sum()))
        worst_tail = max(worst_tail, abs(res_opt - tail) / max(tail, 1.0))
    assert worst_gap <= 1e-9, f"a random candidate beat the solver by {worst_gap}"
    assert worst_tail <= 1e-8, f"tail-of-spectrum mismatch {worst_tail}"
    print(
        "\nPASS criterion 4: block solver beat 10^7 random candidates "
        f"(worst margin {worst_gap:.2e}) and matches the tail-of-spectrum "
        f"residual (worst rel. error {worst_tail:.2e})"
    )


def test_criterion_5_monotone_convergence_and_stationarity():
    rng = np.random.default_rng(2024)
    worst_improve = 0.0
    for trial in range(50):
        p = 2 + trial % 2
        n = tuple(int(rng.integers(2, 7)) for _ in range(p))
        m = int(rng.integers(2, 7))
        r = tuple(int(rng.integers(1, nj + 1)) for nj in n)
        model = noisy_model(rng, m, n, r)
        bank, trace = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=200)
        )
        assert trace.converged, "did not converge within 200 iterations"
        obj = trace.objective_per_iteration
        assert all(b <= a for a, b in zip(obj, obj[1:])), "objective increased"
        # Stationarity: no block's own KLT step, given the others, helps.
        mse = direct_mse(model, bank)
        for j in range(p):
            step = direct_mse(model, bank.replace(j, best_block(model, bank, j)))
            worst_improve = max(worst_improve, mse - step)
    assert worst_improve < 1e-9, f"a block's KLT step improved the MSE by {worst_improve}"
    print(
        "\nPASS criterion 5: 50 multi-sensor models converged monotonically; "
        f"largest post-convergence single-block improvement {worst_improve:.2e}"
    )


def _worst_identity_mismatch(rng, draw_s):
    """Largest relative |analytic - empirical| MSE over 50 estimated
    ensembles, each checked at a random bank and at the MBI solution;
    ``draw_s(rng, part)`` picks each ensemble's sample count."""
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        n = tuple(int(v) for v in rng.integers(2, 7, size=p))
        r = tuple(int(rng.integers(1, nj + 1)) for nj in n)
        part = SensorPartition(m=m, n=n, r=r)
        s = draw_s(rng, part)
        ens = SampleEnsemble(
            x=rng.standard_normal((m, s)),
            y=rng.standard_normal((part.n_total, s)),
        )
        model = estimate_moments(ens, part)

        random_bank = CompressorBank(
            blocks=tuple(
                rng.standard_normal((m, rj)) @ rng.standard_normal((rj, nj))
                for nj, rj in zip(n, r)
            ),
            partition=part,
        )
        mbi_bank, _ = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=200)
        )
        for bank in (random_bank, mbi_bank):
            a = analytic_mse(model, bank)
            e = empirical_mse(ens, bank)
            worst = max(worst, abs(a - e) / max(abs(a), 1.0))
    return worst


def test_criterion_6_empirical_analytic_identity():
    # s >= 2 * n_total keeps the sample covariance well conditioned
    worst = _worst_identity_mismatch(
        np.random.default_rng(60),
        lambda rng, part: int(rng.integers(2 * part.n_total, 3 * part.n_total)),
    )
    # s < n_total: E_yy has rank s, and its pseudo-inverses must not
    # amplify the round-off in its null space
    worst_deficient = _worst_identity_mismatch(
        np.random.default_rng(61),
        lambda rng, part: int(rng.integers(1, part.n_total)),
    )
    assert worst <= 1e-8, f"worst relative mismatch {worst}"
    assert worst_deficient <= 1e-8, (
        f"worst relative mismatch for s < n_total {worst_deficient}"
    )
    print(
        "\nPASS criterion 6: empirical MSE equals model MSE on 50 estimated "
        f"ensembles with s >= 2 n_total (worst rel. mismatch {worst:.2e}) and "
        f"50 with s < n_total ({worst_deficient:.2e})"
    )


def _mse_curve_beats_baseline(spec):
    ens = generate(spec)
    model = estimate_moments(ens, spec.partition)
    bank, trace = mbi_solve(
        model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=200)
    )
    curve = [analytic_mse(model, b) for b in trace.banks]
    assert all(b <= a + 1e-10 for a, b in zip(curve, curve[1:])), (
        "MSE curve increased"
    )
    base = analytic_mse(model, init_bank(model))
    final = analytic_mse(model, bank)
    assert final <= base
    return final, base


def test_criterion_7_training_scenarios():
    final2, base2 = _mse_curve_beats_baseline(
        ScenarioSpec(
            kind="additive_noise",
            partition=SensorPartition(m=10, n=(10, 10), r=(6, 7)),
            s=20,
            sigmas=(0.1, 0.0),
            seed=70,
        )
    )
    final4, base4 = _mse_curve_beats_baseline(
        ScenarioSpec(
            kind="linear_mixing",
            partition=SensorPartition(m=20, n=(20, 20, 20), r=(5, 5, 5)),
            s=20,
            sigmas=(0.1, 0.2, 0.3),
            seed=71,
        )
    )
    print(
        "\nPASS criterion 7: non-increasing MSE curves; two-sensor additive "
        f"noise {final2:.4g} <= baseline {base2:.4g}; three-sensor linear "
        f"mixing {final4:.4g} <= baseline {base4:.4g}"
    )


def test_criterion_8_image_pipeline(tmp_path):
    rng = np.random.default_rng(80)
    img_path = tmp_path / "source.pgm"
    save_pgm(rng.random((128, 128)), img_path)
    out_dir = tmp_path / "out"
    scenario_doc = {
        "kind": "image",
        "m": 128,
        "n": [128, 128],
        "r": [64, 64],
        "sigmas": [0.2, 0.1],
        "seed": 80,
        "image_path": str(img_path),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": scenario_doc,
                "mbi": {"epsilon": 1e-8, "max_iterations": 50},
                "outputs": {
                    "trace_csv": str(tmp_path / "trace.csv"),
                    "image_out_dir": str(out_dir),
                },
                "report_baseline": True,
            }
        )
    )
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
    assert (out_dir / "reconstruction.pgm").is_file()
    assert (out_dir / "error_map.pgm").is_file()

    spec = ScenarioSpec(
        kind="image",
        partition=SensorPartition(m=128, n=(128, 128), r=(64, 64)),
        sigmas=(0.2, 0.1),
        seed=80,
        image_path=str(img_path),
    )
    data = image_scenario(spec)
    model = estimate_moments(data.ensemble, spec.partition)
    baseline = init_bank(model)
    bank, _ = mbi_solve(model, baseline, MbiConfig(epsilon=1e-8, max_iterations=50))
    full = SampleEnsemble(x=data.x_full, y=data.y_full)
    mse_mbi = empirical_mse(full, bank)
    mse_base = empirical_mse(full, baseline)
    assert mse_mbi <= mse_base
    print(
        f"\nPASS criterion 8: 128x128 image pipeline in {elapsed:.1f}s; "
        f"reconstruction MSE {mse_mbi:.4g} <= baseline {mse_base:.4g}"
    )


def test_criterion_9_determinism(tmp_path):
    spec = ScenarioSpec(
        kind="linear_mixing",
        partition=SensorPartition(m=5, n=(5, 5), r=(2, 3)),
        s=12,
        sigmas=(0.1, 0.3),
        seed=90,
    )
    a, b = generate(spec), generate(spec)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": {
                    "kind": "linear_mixing",
                    "m": 5,
                    "n": [5, 5],
                    "r": [2, 3],
                    "s": 12,
                    "sigmas": [0.1, 0.3],
                    "seed": 90,
                },
                "mbi": {"epsilon": 1e-10, "max_iterations": 200},
                "outputs": {
                    "trace_csv": str(tmp_path / "trace.csv"),
                    "wsn_json": str(tmp_path / "wsn.json"),
                },
            }
        )
    )
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    csv1 = (tmp_path / "trace.csv").read_bytes()
    json1 = (tmp_path / "wsn.json").read_bytes()
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    assert (tmp_path / "trace.csv").read_bytes() == csv1
    assert (tmp_path / "wsn.json").read_bytes() == json1
    print(
        "\nPASS criterion 9: identical seeds reproduce ensembles bit-for-bit "
        "and trace/network files byte-for-byte"
    )
