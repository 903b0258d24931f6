"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kltmbi import (
    DegenerateTruncationWarning,
    InvalidInput,
    NotPsd,
    ScenarioSpec,
    SensorPartition,
    estimate_moments,
    generate,
)
from kltmbi.linalg import psd_sqrt, svd, truncated


def _random_matrix(rng, m, n):
    return rng.standard_normal((m, n))


# strategy: modest shapes and entries, enough to exercise the numerics
shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))


@st.composite
def matrices(draw):
    m, n = draw(shapes)
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(-10, 10, size=(m, n))


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert np.allclose(f.sigma, [1, 1, 1])
        assert f.numeric_rank == 3

    def test_zero_matrix(self):
        f = svd(np.zeros((2, 3)))
        assert f.sigma.shape == (2,)
        assert np.all(f.sigma == 0)
        assert f.numeric_rank == 0

    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3, 1])
        # U, V are I up to column signs
        assert np.allclose(np.abs(f.u), np.eye(2))
        assert np.allclose(np.abs(f.v), np.eye(2))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        c = _random_matrix(rng, 6, 4)
        f = svd(c)
        rebuilt = (f.u * f.sigma) @ f.v.T
        assert np.linalg.norm(rebuilt - c) <= 1e-10 * np.linalg.norm(c)

    def test_sigma_nonincreasing(self):
        rng = np.random.default_rng(1)
        f = svd(_random_matrix(rng, 5, 7))
        assert np.all(np.diff(f.sigma) <= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            svd(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInput):
            svd(np.array([[np.inf, 1.0]]))


class TestTruncated:
    def test_keep_largest(self):
        assert np.allclose(truncated(np.diag([3.0, 1.0]), 1), np.diag([3.0, 0.0]))

    def test_r_at_least_rank_returns_input(self):
        rng = np.random.default_rng(2)
        c = _random_matrix(rng, 4, 3)
        for r in (3, 5, 10):
            assert np.allclose(truncated(c, r), c, atol=1e-12)

    def test_residual_is_sigma_tail(self):
        # oracle: tail of the singular spectrum
        rng = np.random.default_rng(3)
        c = _random_matrix(rng, 5, 4)
        sigma = np.linalg.svd(c, compute_uv=False)
        resid = np.linalg.norm(c - truncated(c, 2)) ** 2
        assert resid == pytest.approx(sigma[2] ** 2 + sigma[3] ** 2, rel=1e-10)

    def test_truncation_spectrum(self):
        rng = np.random.default_rng(4)
        c = _random_matrix(rng, 6, 6)
        sigma = np.linalg.svd(c, compute_uv=False)
        got = np.linalg.svd(truncated(c, 3), compute_uv=False)
        want = np.concatenate([sigma[:3], np.zeros(3)])
        assert np.allclose(got, want, atol=1e-9)

    def test_degenerate_cut_warns_but_is_deterministic(self):
        with pytest.warns(DegenerateTruncationWarning):
            a = truncated(np.eye(3), 1)
        with pytest.warns(DegenerateTruncationWarning):
            b = truncated(np.eye(3), 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [-30, -10, 10, 30])
    def test_tie_decision_is_scale_free(self, k):
        # the tie tolerance is relative to sigma_1, so a tie at any scale 4^k
        # warns and a clear gap does not
        with pytest.warns(DegenerateTruncationWarning):
            truncated(4.0**k * np.eye(3), 1)
        truncated(4.0**k * np.diag([1.0, 1.0 - 1e-9, 0.5]), 1)

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidInput):
            truncated(np.eye(2), -1)

    def test_rank_zero(self):
        assert np.array_equal(truncated(np.eye(2), 0), np.zeros((2, 2)))


class TestPinv:
    def test_identity(self):
        assert np.allclose(svd(np.eye(4)).pinv(), np.eye(4))

    def test_zero(self):
        assert np.array_equal(svd(np.zeros((2, 3))).pinv(), np.zeros((3, 2)))

    def test_diagonal(self):
        assert np.allclose(svd(np.diag([2.0, 0.0])).pinv(), np.diag([0.5, 0.0]))

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_moore_penrose_axioms(self, c):
        cp = svd(c).pinv()
        scale = max(1.0, np.linalg.norm(c))
        assert np.linalg.norm(c @ cp @ c - c) <= 1e-8 * scale
        assert np.linalg.norm(cp @ c @ cp - cp) <= 1e-8 * max(1.0, np.linalg.norm(cp))
        assert np.linalg.norm((c @ cp) - (c @ cp).T) <= 1e-8
        assert np.linalg.norm((cp @ c) - (cp @ c).T) <= 1e-8


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_gram_roundtrip(self):
        rng = np.random.default_rng(5)
        a = _random_matrix(rng, 5, 7)
        c = a @ a.T
        s = psd_sqrt(c)
        assert np.array_equal(s, s.T)
        assert np.linalg.norm(s @ s - c) <= 1e-8 * max(1.0, np.linalg.norm(c))

    def test_small_negative_eigenvalue_clamped(self):
        c = np.diag([1.0, -1e-12])
        s = psd_sqrt(c)
        assert np.all(np.linalg.eigvalsh(s) >= 0)

    def test_rounding_level_eigenvalue_is_exact_zero(self):
        # 1e-17 is below the rank threshold 2 * eps * 1
        root = psd_sqrt(np.diag([1.0, 1e-17]))
        assert np.array_equal(root, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("s", [1, 5, 16, 31])
    def test_sample_moment_keeps_its_rank(self, s):
        # from s < N samples E_yy has rank s; the round-off in its null space
        # must add no rank to the root
        part = SensorPartition(m=8, n=(8, 8, 8, 8), r=(2, 2, 2, 2))
        spec = ScenarioSpec(
            kind="linear_mixing", partition=part, s=s, sigmas=(0.3,) * 4, seed=s
        )
        model = estimate_moments(generate(spec), part)
        assert svd(psd_sqrt(model.e_yy)).numeric_rank == s

    def test_not_square_rejected(self):
        with pytest.raises(InvalidInput, match="square"):
            psd_sqrt(np.ones((2, 3)))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsd):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            psd_sqrt(np.array([[1.0, 5.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "c, error",
        [
            (np.diag([1.0, -0.5]), NotPsd),
            (np.array([[1.0, 0.1], [0.0, 1.0]]), InvalidInput),  # 10% asymmetric
            (np.diag([1.0, -1e-12]), None),  # clamped
            (np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]]), None),  # symmetrized
        ],
        ids=["indefinite", "asymmetric", "clamped", "near_symmetric"],
    )
    def test_decision_is_scale_free(self, c, error):
        # both tolerances are relative to ||c||, so every scale 4^k c, exact
        # in floating point, gets the decision c gets
        for k in range(-30, 11):
            scaled = 4.0**k * c
            if error is None:
                psd_sqrt(scaled)
            else:
                with pytest.raises(error):
                    psd_sqrt(scaled)


def _projector(c):
    """``V_k V_k^T`` from :func:`svd`'s factors, as the block solve forms the
    projector onto the row space of ``c`` (the range of ``c.T``)."""
    f = svd(c)
    v = f.v[:, : f.numeric_rank]
    return v @ v.T


class TestProjectors:
    def test_full_column_rank_right_projector_is_identity(self):
        rng = np.random.default_rng(6)
        c = _random_matrix(rng, 6, 3)  # full column rank a.s.
        assert np.allclose(_projector(c), np.eye(3), atol=1e-9)

    def test_zero_matrix(self):
        assert np.array_equal(_projector(np.zeros((3, 2))), np.zeros((2, 2)))
        assert np.array_equal(_projector(np.zeros((2, 3))), np.zeros((3, 3)))

    def test_trace_equals_rank(self):
        rng = np.random.default_rng(7)
        c = _random_matrix(rng, 4, 2) @ _random_matrix(rng, 2, 4)  # rank 2
        assert np.trace(_projector(c)) == pytest.approx(2.0, abs=1e-9)

    def test_projection_action(self):
        rng = np.random.default_rng(8)
        c = _random_matrix(rng, 5, 3) @ _random_matrix(rng, 3, 6)
        scale = np.linalg.norm(c)
        assert np.linalg.norm(c @ _projector(c) - c) <= 1e-9 * scale
        assert np.linalg.norm(_projector(c.T) @ c - c) <= 1e-9 * scale

    def test_idempotent_and_symmetric(self):
        rng = np.random.default_rng(9)
        for c in (_random_matrix(rng, 4, 6), _random_matrix(rng, 3, 2)):
            for p in (_projector(c), _projector(c.T)):
                scale = max(1.0, np.linalg.norm(p))
                assert np.linalg.norm(p @ p - p) <= 1e-9 * scale
                assert np.linalg.norm(p - p.T) <= 1e-9 * scale

    def test_consistent_with_pinv(self):
        rng = np.random.default_rng(10)
        c = _random_matrix(rng, 5, 4)
        cp = svd(c).pinv()
        assert np.allclose(_projector(c), cp @ c, atol=1e-9)
        assert np.allclose(_projector(c.T), c @ cp, atol=1e-9)

    @pytest.mark.parametrize(
        "shape, rank", [((3, 7), 3), ((7, 3), 3), ((6, 9), 2), ((9, 6), 2)]
    )
    def test_exactly_symmetric(self, shape, rank):
        # wide, tall and rank-deficient: no symmetrization step is needed
        rng = np.random.default_rng(11)
        c = _random_matrix(rng, shape[0], rank) @ _random_matrix(rng, rank, shape[1])
        assert svd(c).numeric_rank == rank
        p = _projector(c)
        assert np.array_equal(p, p.T)

    def test_exactly_symmetric_in_the_solver_layout(self):
        # the G_j are row blocks of E_yy^(1/2) at N = 512, as the solver
        # slices them
        part = SensorPartition(m=32, n=(32,) * 16, r=(8,) * 16)
        spec = ScenarioSpec(
            kind="linear_mixing", partition=part, s=600, sigmas=(0.3,) * 16, seed=1
        )
        root = psd_sqrt(estimate_moments(generate(spec), part).e_yy)
        for j in range(part.p):
            p = _projector(root[part.y_slice(j)])
            assert np.array_equal(p, p.T)


@settings(max_examples=40, deadline=None)
@given(matrices(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_eckart_young(c, r, seed):
    """No random rank-r matrix beats the truncated SVD in Frobenius norm."""
    rng = np.random.default_rng(seed)
    m, n = c.shape
    best = np.linalg.norm(c - truncated(c, r))
    for _ in range(10):
        b = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        assert best <= np.linalg.norm(c - b) + 1e-9
