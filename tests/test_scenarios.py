"""Tests for scenario generators, the decoupled baseline and PGM I/O."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import joint_model_from_factor
from kltmbi import (
    InvalidInput,
    MbiConfig,
    ParseError,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    estimate_moments,
    example1_model,
    generate,
    image_scenario,
    init_bank,
    load_pgm,
    mbi_solve,
    save_pgm,
)
from kltmbi import scenarios
from kltmbi.covariance import SampleEnsemble, SecondMomentModel
from kltmbi.scenarios import KIND_FIELDS, MAX_SCENARIO_BYTES
from kltmbi.solver import klt_matrix

# Tiny two-sensor regression fixture: a 2-dimensional source with four
# training draws whose observations are pure noise (no signal component).
_TINY_X = np.array(
    [
        [0.086, 0.439, 0.857, 0.904],
        [0.074, 0.574, 0.386, 0.429],
    ]
)
_TINY_Y1 = np.array(
    [
        [0.284, -0.942, 0.067, 0.222],
        [-2.206, 0.514, -1.293, -0.686],
    ]
)
_TINY_Y2 = np.array(
    [
        [0.4660, -0.1260, 0.3870, 0.3290],
        [0.6880, -0.4690, -0.9420, -0.5630],
    ]
)


def tiny_pure_noise_fixture() -> tuple[SampleEnsemble, SensorPartition]:
    """Fixed m=2, s=4, two-sensor ensemble."""
    part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
    ens = SampleEnsemble(x=_TINY_X.copy(), y=np.vstack([_TINY_Y1, _TINY_Y2]))
    return ens, part


def _two_sensor_spec(kind="additive_noise", seed=3, sigmas=(0.1, 0.2), s=12):
    part = SensorPartition(m=4, n=(4, 4), r=(2, 3))
    if kind == "pure_noise_obs":  # its observations have no noise scale
        sigmas = None
    return ScenarioSpec(kind=kind, partition=part, s=s, sigmas=sigmas, seed=seed)


class TestScenarioSpec:
    def test_unknown_kind(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        with pytest.raises(InvalidInput):
            ScenarioSpec(kind="mystery", partition=part, s=2, sigmas=(0.1,))

    def test_sigma_length_must_match(self):
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        with pytest.raises(InvalidInput):
            ScenarioSpec(kind="additive_noise", partition=part, s=2, sigmas=(0.1,))

    def test_no_samples_rejected(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        with pytest.raises(InvalidInput, match="sample count"):
            ScenarioSpec(kind="additive_noise", partition=part, s=0, sigmas=(0.1,))

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, field)
            for kind, reads in KIND_FIELDS.items()
            for field in ("s", "sigmas", "image_path")
            if field not in reads
        ],
    )
    def test_field_the_kind_does_not_read(self, kind, field):
        # each kind owns the fields it reads; a field it would ignore is an
        # error, not a value that silently has no effect
        part = SensorPartition(m=3, n=(3, 3), r=(1, 1))
        value = {"s": 5, "sigmas": (5.0, 5.0), "image_path": "x.pgm"}[field]
        with pytest.raises(InvalidInput, match=f"{kind!r} does not read {field}$"):
            ScenarioSpec(kind=kind, partition=part, **{field: value})

    def test_image_requires_path(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        with pytest.raises(InvalidInput):
            ScenarioSpec(kind="image", partition=part, sigmas=(0.1,))

    @pytest.mark.parametrize(
        "field",
        [
            dict(s=2.0),
            dict(s=True),
            dict(s="2"),
            dict(seed=1.5),
            dict(seed=True),
            dict(sigmas=("0.1",)),
            dict(sigmas=(True,)),
            dict(sigmas=(10**400,)),
        ],
    )
    def test_wrong_typed_field(self, field):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        kwargs = dict(kind="additive_noise", partition=part, s=2, sigmas=(0.1,))
        with pytest.raises(InvalidInput):
            ScenarioSpec(**{**kwargs, **field})

    def test_numpy_numbers_pass(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        spec = ScenarioSpec(
            kind="additive_noise",
            partition=part,
            s=np.int64(2),
            sigmas=(np.float32(0.5),),
            seed=np.uint8(3),
        )
        assert (spec.s, spec.sigmas, spec.seed) == (2, (0.5,), 3)
        assert type(spec.s) is int and type(spec.seed) is int

    def test_size_cap(self):
        # 8 (m + N) (s + m + N) bytes: 16 (s + 2) at m = N = 1
        part = SensorPartition(m=1, n=(1,), r=(1,))
        s_max = MAX_SCENARIO_BYTES // 16 - 2
        for kind, sigmas in (
            ("additive_noise", (0.1,)),
            ("pure_noise_obs", None),
            ("linear_mixing", (0.1,)),
        ):
            ScenarioSpec(kind=kind, partition=part, s=s_max, sigmas=sigmas)
            with pytest.raises(InvalidInput, match="limit"):
                ScenarioSpec(kind=kind, partition=part, s=s_max + 1, sigmas=sigmas)

    def test_size_cap_counts_moments(self):
        # the exact scenario holds no samples, only its 9 x 9 moments
        exact = SensorPartition(m=3, n=(3, 3), r=(1, 1))
        ScenarioSpec(kind="exact_example1", partition=exact)
        # one sensor with a huge source: E_xx alone is m x m
        wide = SensorPartition(m=20_000, n=(1,), r=(1,))
        with pytest.raises(InvalidInput, match="limit"):
            ScenarioSpec(kind="pure_noise_obs", partition=wide, s=1)

    def test_read_fields_default_to_none_or_one_sample(self):
        part = SensorPartition(m=3, n=(3, 3), r=(1, 1))
        exact = ScenarioSpec(kind="exact_example1", partition=part)
        assert (exact.s, exact.sigmas, exact.image_path) == (None, None, None)
        assert ScenarioSpec(kind="pure_noise_obs", partition=part).s == 1


class TestGenerate:
    def test_exact_benchmark_model(self):
        model = example1_model(r=(2, 2))
        assert isinstance(model, SecondMomentModel)
        assert model.e_xx[0, 0] == 0.585
        assert model.partition == SensorPartition(m=3, n=(3, 3), r=(2, 2))
        with pytest.raises(InvalidInput):
            example1_model(r=(4, 1))

    def test_only_sampled_kinds(self, tmp_path):
        # exact_example1 has no samples and image samples an image; neither
        # is a second route through generate
        part = SensorPartition(m=3, n=(3, 3), r=(1, 1))
        for spec in (
            ScenarioSpec(kind="exact_example1", partition=part),
            ScenarioSpec(
                kind="image", partition=part, sigmas=(0.1, 0.1), image_path="x.pgm"
            ),
        ):
            with pytest.raises(InvalidInput, match="sampled kind"):
                generate(spec)

    def test_additive_noiseless_recovers_signal(self):
        spec = _two_sensor_spec(sigmas=(0.0, 0.0), s=30)
        ens = generate(spec)
        assert np.array_equal(ens.y[:4], ens.x)
        model = estimate_moments(ens, spec.partition)
        # one sensor with full rank reproduces x exactly
        part1 = SensorPartition(m=4, n=(4,), r=(4,))
        sub = SecondMomentModel(
            partition=part1,
            e_xx=model.e_xx,
            e_xy=model.e_xy[:, :4],
            e_yy=model.e_yy[:4, :4],
        )
        f = klt_matrix(sub.e_xy, sub.e_yy, 4)
        assert np.linalg.norm(ens.x - f @ ens.y[:4]) <= 1e-8

    def test_deterministic(self):
        for kind in ("additive_noise", "pure_noise_obs", "linear_mixing"):
            a = generate(_two_sensor_spec(kind=kind))
            b = generate(_two_sensor_spec(kind=kind))
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_seed_changes_output(self):
        a = generate(_two_sensor_spec(seed=1))
        b = generate(_two_sensor_spec(seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_shapes(self):
        part = SensorPartition(m=5, n=(5, 5, 5), r=(2, 2, 2))
        spec = ScenarioSpec(
            kind="linear_mixing", partition=part, s=7, sigmas=(0.1, 0.2, 0.3), seed=0
        )
        ens = generate(spec)
        assert ens.x.shape == (5, 7)
        assert ens.y.shape == (15, 7)

    def test_square_observation_required(self):
        # additive_noise adds x itself to each y_j, so the spec rejects the
        # partition before generate can run; linear_mixing's A_j are n_j x m
        part = SensorPartition(m=3, n=(4, 2), r=(1, 1))
        with pytest.raises(InvalidInput, match="n_j = m"):
            ScenarioSpec(
                kind="additive_noise", partition=part, s=3, sigmas=(0.1, 0.1), seed=0
            )
        spec = ScenarioSpec(
            kind="linear_mixing", partition=part, s=3, sigmas=(0.0, 0.0), seed=0
        )
        ens = generate(spec)
        assert ens.y.shape == (6, 3)
        # with sigma_j = 0 each y_j is exactly A_j x, drawn in stream order:
        # x, then per sensor A_j (n_j x m) and the noise it scales away
        rng = np.random.default_rng(0)
        x = rng.random((3, 3))
        assert np.array_equal(ens.x, x)
        for rows in (slice(0, 4), slice(4, 6)):
            a_j = rng.random((rows.stop - rows.start, 3))
            rng.standard_normal((rows.stop - rows.start, 3))
            assert np.array_equal(ens.y[rows], a_j @ x)

    def test_uniform_source_range(self):
        ens = generate(_two_sensor_spec(kind="pure_noise_obs", s=200))
        assert ens.x.min() >= 0.0
        assert ens.x.max() < 1.0


def _sha(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestPinnedSamples:
    """The generators' bits are part of the benchmark's references, so any
    rewrite of them must reproduce these digests exactly."""

    @pytest.mark.parametrize(
        "kind, n, s, digest",
        [
            pytest.param(
                "additive_noise",
                (3, 3, 3),
                50,
                "480f451a166670686271a25be995c4a04a8f5970e8c0201049f0c02f84c25e52",
                id="additive_noise-s50",
            ),
            pytest.param(
                "additive_noise",
                (3, 3),
                1,
                "a12dde0bc91616ce8ffc2d16ba1b596e3edd63f1791300a8cf0586942613ce90",
                id="additive_noise-s1",
            ),
            pytest.param(
                "linear_mixing",
                (3, 3, 3),
                50,
                "2dc8afa65f55979948a1ce1b2d9227ef32eb8a9058e01cba0a42795ea02444d9",
                id="linear_mixing-s50",
            ),
            pytest.param(
                "linear_mixing",
                (3, 3),
                1,
                "11b49d2291e6e14819d44ac592218ce92d5c92bbf024d999197c8bd04a99ef73",
                id="linear_mixing-s1",
            ),
            pytest.param(
                "pure_noise_obs",
                (2, 5, 1),
                40,
                "2c5cf7a3bfefa3acb206fccd6242a4441e156521e76b6157a11bb666ad58ef09",
                id="pure_noise_obs-s40",
            ),
            pytest.param(
                "pure_noise_obs",
                (2, 5, 1),
                1,
                "ae92b5f7cb90488e46ae9b129eed564bef3361d9fbf1a4c3167bfecebed03104",
                id="pure_noise_obs-s1",
            ),
        ],
    )
    def test_generate_digest(self, kind, n, s, digest):
        part = SensorPartition(m=3, n=n, r=(1,) * len(n))
        sigmas = None if kind == "pure_noise_obs" else (0.1, 0.25, 0.4)[: len(n)]
        ens = generate(
            ScenarioSpec(kind=kind, partition=part, s=s, sigmas=sigmas, seed=13)
        )
        assert _sha(ens.x, ens.y) == digest

    def test_image_digest(self, tmp_path):
        img_path = tmp_path / "src.pgm"
        save_pgm(np.random.default_rng(4).random((5, 6)), img_path)
        part = SensorPartition(m=5, n=(5, 5), r=(2, 2))
        spec = ScenarioSpec(
            kind="image",
            partition=part,
            sigmas=(0.2, 0.1),
            seed=8,
            image_path=str(img_path),
        )
        data = image_scenario(spec)
        assert _sha(data.x_full, data.y_full) == (
            "2ef0a2663ba80b88eba77d4aa133822f146ea3a63c0e0bf3785bf5212b858cf2"
        )
        ens = data.ensemble
        assert _sha(ens.x, ens.y) == (
            "ce852d882a17218202d38e4d421ff99a0bb3354d0b499a3aebff52c6fb01eb86"
        )

    @pytest.mark.parametrize(
        "kind", ["additive_noise", "pure_noise_obs", "linear_mixing"]
    )
    def test_generate_peak_memory(self, kind):
        # x and y themselves, one m x s temporary (a_j @ x), and slack for
        # the generator's own small objects
        m, p, s = 8, 4, 20_000
        part = SensorPartition(m=m, n=(m,) * p, r=(1,) * p)
        sigmas = None if kind == "pure_noise_obs" else (0.1,) * p
        spec = ScenarioSpec(kind=kind, partition=part, s=s, sigmas=sigmas, seed=2)
        tracemalloc.start()
        try:
            ens = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ens.x.nbytes + ens.y.nbytes + m * s * 8 + 64 * 1024


def test_tiny_pure_noise_fixture():
    ens, part = tiny_pure_noise_fixture()
    assert ens.x.shape == (2, 4)
    assert ens.y.shape == (4, 4)
    assert ens.x[0, 0] == 0.086
    assert ens.y[1, 0] == -2.206
    assert ens.y[2, 0] == 0.4660
    # the solver runs end to end on this rank-deficient instance
    model = estimate_moments(ens, part)
    bank, trace = mbi_solve(model, init_bank(model), MbiConfig(max_iterations=50))
    assert np.all(np.diff(trace.objective_per_iteration) <= 0)


class TestSubsample:
    """An image scenario trains on the image's even columns (2nd, 4th, ...
    in 1-based counting)."""

    @staticmethod
    def _training_x(tmp_path, image):
        path = tmp_path / "src.pgm"
        save_pgm(image, path)
        m = image.shape[0]
        spec = ScenarioSpec(
            kind="image",
            partition=SensorPartition(m=m, n=(m,), r=(1,)),
            sigmas=(0.1,),
            image_path=str(path),
        )
        data = image_scenario(spec)
        return data.x_full, data.ensemble.x

    def test_halves_columns(self, tmp_path):
        x_full, x = self._training_x(tmp_path, np.arange(12.0).reshape(3, 4) / 11)
        assert x.shape == (3, 2)
        assert np.array_equal(x, x_full[:, [1, 3]])

    def test_two_columns(self, tmp_path):
        x_full, x = self._training_x(tmp_path, np.array([[0.0, 1.0]]))
        assert np.array_equal(x, [[1.0]])

    def test_constant_image(self, tmp_path):
        x_full, x = self._training_x(tmp_path, np.full((4, 6), 0.5))
        assert np.array_equal(x, np.full((4, 3), x_full[0, 0]))

    def test_single_column_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            self._training_x(tmp_path, np.ones((3, 1)))


class TestPgm:
    def test_p2_parse(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n255 128 0\n")
        img = load_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0
        assert img[0, 2] == 1.0
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_p5_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((5, 7))
        path = tmp_path / "b.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        # quantized to 8 bits
        assert np.allclose(back, img, atol=0.5 / 255 + 1e-12)

    def test_16bit_roundtrip(self, tmp_path):
        # 16-bit input is read; save_pgm writes only 8-bit
        rng = np.random.default_rng(1)
        img = rng.random((4, 4))
        path = tmp_path / "c.pgm"
        raster = np.rint(img * 65535).astype(">u2").tobytes()
        path.write_bytes(b"P5\n4 4\n65535\n" + raster)
        assert np.allclose(load_pgm(path), img, atol=0.5 / 65535 + 1e-12)

    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b"P7\n2 2\n255\n",
            b"P2\n2\n255\n1 2 3 4",
            b"P2\n2 2\n255\n1 2 3",
            b"P5\n2 2\n255\nab",
            b"P2\n2 2\n255\n1 x 3 4",
            b"P2\n2 2\n255\n-5 10 20 30",
            b"P2\n2 2\n255\n1.5 10 20 30",
            pytest.param(b"P2\n2 2\n255\n1 2 3 1" + b"0" * 400, id="beyond_float"),
            b"P2\n2 x\n255\n1 2 3 4",
            b"P5\n2 2",
            b"P2\n0 2\n255\n",
            b"P2\n2 2\n0\n0 0 0 0",
            b"P2\n2 2\n65536\n0 0 0 0",
            # only ASCII decimal digits count as numbers: int() would take
            # an underscore or a sign
            pytest.param(b"P2\n2 1_0\n25_5\n" + b"1_0 " * 20, id="underscore_header"),
            pytest.param(b"P2\n+2 2\n255\n1 2 3 4", id="plus_width"),
            pytest.param(b"P2\n2 2\n255\n+3 1 2 3", id="plus_sample"),
            pytest.param(b"P2\n2 2\n255\n1_0 1 2 3", id="underscore_sample"),
            # the magic number is the file's first two bytes
            pytest.param(b" P2\n2 2\n255\n1 2 3 4", id="space_before_magic"),
            pytest.param(b"# c\nP2\n2 2\n255\n1 2 3 4", id="comment_before_magic"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            load_pgm(path)

    def test_save_needs_a_matrix(self, tmp_path):
        with pytest.raises(InvalidInput, match="2-d"):
            save_pgm(np.ones(4), tmp_path / "row.pgm")
        assert not (tmp_path / "row.pgm").exists()

    def test_save_rejects_an_empty_image(self, tmp_path):
        # load_pgm would reject the "3 0" header such a file would get
        with pytest.raises(InvalidInput, match="image"):
            save_pgm(np.zeros((0, 3)), tmp_path / "empty.pgm")
        assert not (tmp_path / "empty.pgm").exists()

    def test_save_rejects_a_nan_pixel(self, tmp_path):
        # the cast to uint8 would write it as 0
        img = np.full((2, 2), 0.5)
        img[1, 0] = np.nan
        with pytest.raises(InvalidInput, match="image"):
            save_pgm(img, tmp_path / "nan.pgm")
        assert not (tmp_path / "nan.pgm").exists()


class TestImageScenario:
    def _spec(self, tmp_path, rows=8, cols=8):
        rng = np.random.default_rng(2)
        img_path = tmp_path / "src.pgm"
        save_pgm(rng.random((rows, cols)), img_path)
        part = SensorPartition(m=rows, n=(rows, rows), r=(3, 3))
        return ScenarioSpec(
            kind="image",
            partition=part,
            sigmas=(0.2, 0.1),
            seed=5,
            image_path=str(img_path),
        )

    def test_shapes_and_training_split(self, tmp_path):
        spec = self._spec(tmp_path)
        data = image_scenario(spec)
        assert data.x_full.shape == (8, 8)
        assert data.y_full.shape == (16, 8)
        assert data.ensemble.x.shape == (8, 4)
        assert np.array_equal(data.ensemble.x, data.x_full[:, 1::2])
        assert np.array_equal(data.ensemble.y, data.y_full[:, 1::2])

    def test_deterministic(self, tmp_path):
        spec = self._spec(tmp_path)
        a, b = image_scenario(spec), image_scenario(spec)
        assert np.array_equal(a.y_full, b.y_full)

    def test_row_mismatch_rejected(self, tmp_path):
        spec = self._spec(tmp_path)
        bad = ScenarioSpec(
            kind="image",
            partition=SensorPartition(m=9, n=(9, 9), r=(3, 3)),
            sigmas=(0.2, 0.1),
            seed=5,
            image_path=spec.image_path,
        )
        with pytest.raises(InvalidInput):
            image_scenario(bad)

    def test_only_the_image_kind(self):
        with pytest.raises(InvalidInput, match="kind='image'"):
            image_scenario(_two_sensor_spec())

    def test_size_cap_counts_image_columns(self, tmp_path, monkeypatch):
        # 8 (m + N) (cols + m + N) bytes, with m + N = 12 and 10 columns
        spec = self._spec(tmp_path, rows=4, cols=10)
        need = 8 * 12 * (10 + 12)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", need)
        image_scenario(spec)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", need - 1)
        with pytest.raises(InvalidInput, match="limit"):
            image_scenario(spec)


class TestDecoupledBaseline:
    def test_single_sensor_equals_klt(self):
        rng = np.random.default_rng(6)
        part = SensorPartition(m=3, n=(4,), r=(2,))
        model = joint_model_from_factor(rng.standard_normal((7, 12)), part)
        bank = init_bank(model)
        klt = klt_matrix(model.e_xy, model.e_yy, 2)
        assert np.allclose(bank.blocks[0], klt, atol=1e-12)

    def test_mbi_never_worse(self):
        spec = _two_sensor_spec(seed=9)
        model = estimate_moments(generate(spec), spec.partition)
        baseline = init_bank(model)
        bank, _ = mbi_solve(model, baseline, MbiConfig(max_iterations=100))
        assert analytic_mse(model, bank) <= analytic_mse(model, baseline) + 1e-9
