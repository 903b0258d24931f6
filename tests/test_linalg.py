"""Tests for the dense linear-algebra primitives."""

import dataclasses
import sys
import threading

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
from kltmbi import linalg
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


@pytest.fixture
def openblas():
    """NumPy's OpenBLAS as linalg binds it; skips unless every function is
    bound."""
    bound = linalg._openblas()
    if None in vars(bound).values():
        pytest.skip("NumPy's linalg does not link OpenBLAS")
    return bound


def _bind(monkeypatch, **fields):
    """Make linalg see its OpenBLAS record with ``fields`` replaced."""
    record = dataclasses.replace(linalg._openblas(), **fields)
    monkeypatch.setattr(linalg, "_openblas", lambda: record)


def _unbound_where_numpy_links_scipy_openblas(*fields):
    """Those of ``fields`` that linalg's OpenBLAS record leaves unbound;
    skips unless NumPy reports scipy-openblas as its BLAS and LAPACK."""
    try:
        built = np.show_config(mode="dicts")["Build Dependencies"]
        names = {built["blas"]["name"], built["lapack"]["name"]}
    except (TypeError, KeyError):
        pytest.skip("NumPy does not report its BLAS and LAPACK")
    if names != {"scipy-openblas"}:
        pytest.skip(f"NumPy links {', '.join(sorted(names))}")
    bound = linalg._openblas()
    return [field for field in fields if getattr(bound, field) is None]


class TestThinSvdThreads:
    """A thin SVD runs on one OpenBLAS thread and gives the bits NumPy gives
    at the caller's thread count."""

    @pytest.mark.parametrize(
        "shape",
        [(32, 32), (32, 256), (32, 512), (64, 512), (512, 32)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_same_bits_as_numpy(self, shape):
        c = np.random.default_rng(5).standard_normal(shape)
        f = svd(c)
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        assert np.array_equal(f.u, u)
        assert np.array_equal(f.sigma, s)
        assert np.array_equal(f.v, vt.T)

    @pytest.mark.parametrize(
        "shape, thin",
        [((32, 512), True), ((512, 32), True), ((512, 512), False)],
        ids=["32x512", "512x32", "512x512"],
    )
    def test_threads_seen_by_the_svd(self, openblas, monkeypatch, shape, thin):
        # every SVD is one call of LAPACKE's dgesdd, or NumPy's svd where
        # that is not bound; a thin one on one thread
        get = openblas.get_threads
        caller = get()
        seen = []

        def spy(name, real):
            def call(*args, **kwargs):
                seen.append((name, get()))
                return real(*args, **kwargs)

            return call

        c = np.random.default_rng(6).standard_normal(shape)
        monkeypatch.setattr(np.linalg, "svd", spy("numpy", np.linalg.svd))
        _bind(monkeypatch, gesdd=spy("lapacke", openblas.gesdd))
        svd(c)
        _bind(monkeypatch, gesdd=None)
        svd(c)
        threads = 1 if thin else caller
        assert seen == [("lapacke", threads), ("numpy", threads)]
        assert get() == caller

    def test_count_restored_after_a_raise(self, openblas, monkeypatch):
        get = openblas.get_threads
        caller = get()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        # a driver that raises, one that cannot allocate, and NumPy's svd
        for gesdd, error in [
            (fail, np.linalg.LinAlgError),
            (lambda *args: -1010, MemoryError),
            (None, np.linalg.LinAlgError),
        ]:
            _bind(monkeypatch, gesdd=gesdd)
            with pytest.raises(error):
                svd(np.ones((32, 512)))
            assert get() == caller

    def test_overlapping_threads_restore_the_count(self, openblas):
        # at two threads, a save-and-restore that is not counted across
        # overlapping callers would leave the process at one thread
        get, put = openblas.get_threads, openblas.set_threads
        caller, interval = get(), sys.getswitchinterval()
        c = np.random.default_rng(7).standard_normal((32, 64))
        done = []

        def work():
            for _ in range(50):
                svd(c)
            done.append(True)

        workers = [threading.Thread(target=work) for _ in range(4)]
        put(2)
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert len(done) == 4
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(caller)

    def test_setter_found_where_numpy_links_scipy_openblas(self):
        # a renamed symbol must not drop the one-thread rule silently
        assert _unbound_where_numpy_links_scipy_openblas(
            "get_threads", "set_threads"
        ) == []

    def test_without_openblas_svd_is_unchanged(self, monkeypatch):
        c = np.random.default_rng(8).standard_normal((32, 512))
        want = svd(c)
        monkeypatch.setattr(linalg, "_openblas", linalg._OpenBlas)
        got = svd(c)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.v, want.v)


def _gram(rng, n, s):
    """The second moment (1/s) Y Y^T of s Gaussian samples of n entries."""
    y = rng.standard_normal((n, s))
    return y @ y.T / s


def _zero_sensor(n):
    """A sample moment of n entries whose last n/2 (a sensor that sees
    nothing) are zero: rank n/2, with exact zero rows."""
    c = _gram(np.random.default_rng(n + 1), n, 2 * n)
    c[n // 2 :, :] = c[:, n // 2 :] = 0.0
    return c


def _gaussian(rows, cols, seed=None):
    """A Gaussian matrix, seeded by its shape unless ``seed`` is given."""
    rng = np.random.default_rng(rows + cols if seed is None else seed)
    return rng.standard_normal((rows, cols))


def _half_zero(rows, cols):
    """A Gaussian matrix whose second half of columns is zero."""
    c = _gaussian(rows, cols)
    c[:, cols // 2 :] = 0.0
    return c


# Inputs that svd and psd_sqrt factor by LAPACKE's drivers where those are
# bound: sample moments of N from 1 to 512 (N <= 64 also take the thin
# SVD's one thread; 65 to 100 fall in OpenBLAS's small-matrix GEMM range,
# where the bits of a product depend on its operands' order), thin and other
# rectangles, a thin one whose second half of columns is zero, a
# rank-deficient square, a sample moment from s < N samples and zero
_DIRECT = {
    **{
        f"{n}x{n}": lambda n=n: _gram(np.random.default_rng(n), n, 2 * n)
        for n in (1, 2, 3, 8, 17, 32, 33, 64, 65, 96, 128, 256, 512)
    },
    "65x300": lambda: _gaussian(65, 300, seed=1),
    "300x65": lambda: _gaussian(300, 65, seed=2),
    **{
        f"{a}x{b}": lambda a=a, b=b: _gaussian(a, b)
        for a, b in [
            (32, 512), (512, 32), (64, 512), (32, 256), (32, 128), (8, 32), (2, 32)
        ]
    },
    "32x64_half_zero": lambda: _half_zero(32, 64),
    "rank_deficient": lambda: _zero_sensor(96),
    "sample_moment": lambda: _gram(np.random.default_rng(3), 128, 40),
    "zero": lambda: np.zeros((96, 96)),
    # a leading dimension of 1 gives these NumPy's shapes
    **{
        f"empty_{a}x{b}": lambda a=a, b=b: np.zeros((a, b))
        for a, b in [(0, 5), (5, 0), (0, 0)]
    },
}
_SQUARE = [name for name, make in _DIRECT.items() if len(set(make().shape)) == 1]


def _same(got, want):
    """Same values, bit for bit, in the same memory order."""
    assert got.tobytes(order="A") == want.tobytes(order="A")
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous,
        want.flags.f_contiguous,
    )


class TestLapackeDirect:
    """An SVD or PSD root runs one call of LAPACKE's dgesdd or dsyevd in
    buffers the library owns, and gives NumPy's results and layouts bit for
    bit, empty inputs included."""

    @pytest.mark.parametrize("name", _DIRECT)
    def test_svd_is_numpys(self, openblas, monkeypatch, name):
        c = _DIRECT[name]()
        calls = []

        def gesdd(*args):
            calls.append(args)
            return openblas.gesdd(*args)

        _bind(monkeypatch, gesdd=gesdd)
        f = svd(c)
        # LAPACKE sizes the workspace within the one call
        assert len(calls) == 1
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        _same(f.u, u)
        _same(f.sigma, s)
        _same(f.v, vt.T)
        monkeypatch.setattr(linalg, "_openblas", linalg._OpenBlas)
        g = svd(c)
        assert g.numeric_rank == f.numeric_rank
        _same(f.pinv(), g.pinv())

    @pytest.mark.parametrize("name", _SQUARE)
    def test_eigh_and_psd_sqrt_are_numpys(self, openblas, monkeypatch, name):
        c = _DIRECT[name]()
        # a copy: dsyevd overwrites it, and a 1 x 1 is already in order F
        w, vecs = linalg._syevd(np.array(c, order="F"), openblas.syevd)
        want_w, want_vecs = np.linalg.eigh(c)
        _same(w, want_w)
        _same(vecs, want_vecs)
        calls = []

        def syevd(*args):
            calls.append(args)
            return openblas.syevd(*args)

        _bind(monkeypatch, syevd=syevd)
        root = psd_sqrt(c)
        assert len(calls) == 1
        monkeypatch.setattr(linalg, "_openblas", linalg._OpenBlas)
        _same(root, psd_sqrt(c))

    def test_empty_and_one_by_one_keep_numpys_results(self):
        f = svd(np.zeros((0, 5)))
        assert (f.u.shape, f.sigma.shape, f.v.shape) == ((0, 0), (0,), (5, 0))
        assert f.numeric_rank == 0
        f = svd(np.array([[-3.0]]))
        assert (f.u * f.sigma * f.v).tolist() == [[-3.0]] and f.sigma.tolist() == [3.0]
        assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)
        assert psd_sqrt(np.array([[4.0]])).tolist() == [[2.0]]

    @pytest.mark.parametrize("driver", ["gesdd", "syevd"], ids=["svd", "psd_sqrt"])
    def test_no_convergence_raises_as_numpy_does(self, openblas, monkeypatch, driver):
        # info > 0: no convergence; -1010 and -1011: LAPACKE could not
        # allocate its workspace or a transposed copy; -4: an argument LAPACK
        # refused
        call, message = {
            "gesdd": (svd, "SVD did not converge"),
            "syevd": (psd_sqrt, "Eigenvalues did not converge"),
        }[driver]
        caller = openblas.get_threads()
        for info, error, match in [
            (1, np.linalg.LinAlgError, message),
            (-4, np.linalg.LinAlgError, message),
            (-1010, MemoryError, "-1010"),
            (-1011, MemoryError, "-1011"),
        ]:
            _bind(monkeypatch, **{driver: lambda *args, info=info: info})
            with pytest.raises(error, match=match):
                call(_DIRECT["128x128"]())
            assert openblas.get_threads() == caller

    def test_lapacke_found_where_numpy_links_scipy_openblas(self):
        # a renamed symbol must not drop the direct calls silently
        assert _unbound_where_numpy_links_scipy_openblas("gesdd", "syevd") == []


def _two_calls(c, a, b):
    """``c - a @ b`` formed as the product into a buffer, then a subtraction."""
    t = np.empty(c.shape)
    np.matmul(a, b, out=t)
    c = c.copy()
    c -= t
    return c


# Operands CBLAS cannot take as row-major float64 matrices: each is passed
# on to the two-call form
_OTHER_LAYOUTS = {
    "fortran_c": lambda c, a, b: (np.asfortranarray(c), a, b),
    "fortran_a": lambda c, a, b: (c, np.asfortranarray(a), b),
    "fortran_b": lambda c, a, b: (c, a, np.asfortranarray(b)),
    "strided_row_b": lambda c, a, b: (c, a, np.repeat(b, 2, axis=1)[:, ::2]),
    "float32_b": lambda c, a, b: (c, a, b.astype(np.float32)),
}


class TestSubtractProduct:
    """``_subtract_product(c, a, b, scratch)`` is ``c -= a @ b``. Where
    OpenBLAS's cblas_dgemm is found it is one call on ``c`` in place, which
    gives the bits of the product into ``scratch`` and the subtraction while
    the inner size K fits one of OpenBLAS's K blocks (256 or more)."""

    @pytest.mark.parametrize("found", [True, False], ids=["found", "not_found"])
    @pytest.mark.parametrize("k", [1, 2, 32, 256])
    def test_same_bits_as_two_calls(self, monkeypatch, k, found):
        # b is k rows of a samples matrix, of row stride s, as a sensor's
        # rows of a replay chunk are; the second chunk is short
        if not found:
            _bind(monkeypatch, dgemm=None)
        rng = np.random.default_rng(9)
        m, s, chunk = 32, 6000, 4096
        y = rng.standard_normal((k + 3, s))
        a = rng.standard_normal((m, k))
        gemm = linalg._openblas().dgemm
        for cols in (slice(0, chunk), slice(chunk, s)):
            b = y[2 : 2 + k, cols]
            c = rng.standard_normal((m, b.shape[1]))
            want = _two_calls(c, a, b)
            scratch = np.full(c.shape, np.nan)
            linalg._subtract_product(c, a, b, scratch)
            assert c.tobytes() == want.tobytes()
            # the in-place call leaves the scratch buffer as it was
            assert np.isnan(scratch).all() == (gemm is not None)

    @pytest.mark.parametrize("layout", _OTHER_LAYOUTS)
    def test_other_layouts_take_the_two_calls(self, layout):
        rng = np.random.default_rng(10)
        c, a, b = _OTHER_LAYOUTS[layout](
            rng.standard_normal((6, 40)),
            rng.standard_normal((6, 5)),
            rng.standard_normal((5, 40)),
        )
        want = _two_calls(c, a, b)
        scratch = np.full(c.shape, np.nan)
        linalg._subtract_product(c, a, b, scratch)
        assert c.tobytes() == want.tobytes()
        assert not np.isnan(scratch).any()

    def test_read_only_c_is_refused_unchanged(self):
        rng = np.random.default_rng(11)
        c, a, b = (rng.standard_normal(shape) for shape in ((4, 8), (4, 3), (3, 8)))
        c.flags.writeable = False
        before = c.copy()
        with pytest.raises(ValueError, match="read-only"):
            linalg._subtract_product(c, a, b, np.empty(c.shape))
        assert np.array_equal(c, before)

    def test_in_place_gemm_found_where_numpy_links_scipy_openblas(self):
        # a renamed symbol must not drop the in-place step silently
        assert _unbound_where_numpy_links_scipy_openblas("dgemm") == []


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
