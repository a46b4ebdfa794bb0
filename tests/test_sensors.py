import numpy as np
import pytest

from softprop.errors import DegenerateDataError
from softprop.sensors import (
    N_SENSORS,
    ResistanceFrame,
    SensorCalibration,
    StrainVector,
    least_squares_kappa,
    load_calibration_json,
    resistance_array_from_strain,
    resistance_from_strain,
    save_calibration_json,
    strain_array_from_resistance,
    strain_from_resistance,
)


def random_calibration(rng):
    return SensorCalibration(
        rng.uniform(50.0, 200.0, N_SENSORS),
        rng.uniform(0.6, 1.6, N_SENSORS),
        rng.uniform(0.6, 1.6, N_SENSORS),
    )


class TestTypes:
    def test_strain_vector_validation(self):
        StrainVector(np.zeros(12))
        with pytest.raises(ValueError):
            StrainVector(np.zeros(11))
        with pytest.raises(ValueError):
            StrainVector(np.full(12, -1.0))

    def test_resistance_frame_validation(self):
        ResistanceFrame(np.full(12, 100.0), timestamp=1.5)
        with pytest.raises(ValueError):
            ResistanceFrame(np.zeros(12))

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            SensorCalibration(np.full(12, 100.0), np.zeros(12), np.ones(12))


class TestForwardModel:
    def test_rest_strain_gives_baseline(self):
        cal = random_calibration(np.random.default_rng(0))
        frame = resistance_from_strain(StrainVector(np.zeros(12)), cal)
        assert np.array_equal(frame.r, cal.r0)

    def test_hand_evaluated_tension_case(self):
        # s = 0.1, kappa = 1, R0 = 100 -> R = 100 * 1.1^2 = 121.
        cal = SensorCalibration.ideal(r0=100.0)
        s = np.zeros(12)
        s[3] = 0.1
        frame = resistance_from_strain(StrainVector(s), cal)
        assert frame.r[3] == pytest.approx(121.0, abs=1e-12)
        assert frame.r[0] == pytest.approx(100.0, abs=1e-12)

    def test_monotone_in_strain(self):
        cal = random_calibration(np.random.default_rng(1))
        grid = np.linspace(-0.5, 0.8, 201)
        strains = np.tile(grid[:, None], (1, 12))
        r = resistance_array_from_strain(strains, cal)
        assert np.all(np.diff(r, axis=0) > 0.0)

    def test_nonphysical_strain_rejected(self):
        cal = SensorCalibration.ideal()
        s = np.zeros(12)
        s[5] = -0.999  # kappa = 1: base length hits zero at s = -1
        with pytest.raises(ValueError):
            resistance_array_from_strain(np.where(s == 0, s, -1.0), cal)
        bad = np.zeros(12)
        bad[5] = -1.5
        with pytest.raises(ValueError, match="sensor"):
            # The StrainVector type itself refuses s <= -1, so go through the
            # array path with a kappa_neg < |s| case instead.
            resistance_array_from_strain(
                np.full(12, -0.7),
                SensorCalibration(np.full(12, 100.0), np.ones(12), np.full(12, 0.65)),
            )

    def test_noise_is_seeded_and_multiplicative(self):
        cal = SensorCalibration.ideal()
        s = StrainVector(np.full(12, 0.05))
        a = resistance_from_strain(s, cal, noise_seed=7)
        b = resistance_from_strain(s, cal, noise_seed=7)
        c = resistance_from_strain(s, cal, noise_seed=8)
        assert np.array_equal(a.r, b.r)
        assert not np.array_equal(a.r, c.r)
        clean = resistance_from_strain(s, cal).r
        assert np.abs(a.r / clean - 1.0).max() < 0.05  # sigma = 0.5%


class TestInverseModel:
    def test_baseline_resistance_gives_zero_strain(self):
        cal = random_calibration(np.random.default_rng(2))
        s = strain_from_resistance(ResistanceFrame(cal.r0), cal)
        assert np.array_equal(s.s, np.zeros(12))

    def test_hand_evaluated_tension_case(self):
        # R/R0 = 1.21, kappa_pos = 1 -> strain 0.1.
        cal = SensorCalibration.ideal(r0=100.0)
        r = np.full(12, 100.0)
        r[2] = 121.0
        s = strain_from_resistance(ResistanceFrame(r), cal)
        assert s.s[2] == pytest.approx(0.1, abs=1e-12)

    def test_hand_evaluated_compression_case(self):
        # R/R0 = 0.81 -> dR = -0.1; kappa_neg = 2 -> strain -0.2.
        cal = SensorCalibration(
            np.full(12, 100.0), np.ones(12), np.full(12, 2.0)
        )
        r = np.full(12, 100.0)
        r[9] = 81.0
        s = strain_from_resistance(ResistanceFrame(r), cal)
        assert s.s[9] == pytest.approx(-0.2, abs=1e-12)

    def test_rejects_nonpositive_resistance(self):
        cal = SensorCalibration.ideal()
        with pytest.raises(ValueError):
            strain_array_from_resistance(np.full(12, -1.0), cal)


class TestRoundTrip:
    def test_identity_within_1e_12_both_branches(self):
        rng = np.random.default_rng(3)
        cal = random_calibration(rng)
        # Mix tension and compression; keep compression above -kappa_neg.
        s = rng.uniform(-0.5, 0.8, size=(500, 12)) * (cal.kappa_neg * 0.9)
        r = resistance_array_from_strain(s, cal)
        back = strain_array_from_resistance(r, cal)
        assert np.abs(back - s).max() < 1e-12

    def test_ideal_kappa_realizes_square_law(self):
        # kappa = 1: sqrt(R/R0) - 1 equals the engineering strain exactly.
        cal = SensorCalibration.ideal()
        rng = np.random.default_rng(4)
        s = rng.uniform(-0.4, 0.6, size=(200, 12))
        r = resistance_array_from_strain(s, cal)
        np.testing.assert_allclose(np.sqrt(r / cal.r0) - 1.0, s, atol=1e-13)


class TestLeastSquaresKappa:
    def test_planted_recovery_noise_free(self):
        rng = np.random.default_rng(5)
        kappa_star = rng.uniform(0.6, 1.6, 12)
        eps = rng.uniform(-0.3, 0.5, size=(40, 12))
        eps[0] = 0.0  # first frame at rest defines the baseline
        r0 = rng.uniform(80.0, 120.0, 12)
        r = r0 * (1.0 + kappa_star * eps) ** 2
        got = least_squares_kappa(r, eps)
        np.testing.assert_allclose(got, kappa_star, atol=1e-10)

    def test_single_informative_sample(self):
        # eps = 0.2 with sqrt(R/R0) - 1 = 0.26 -> kappa = 1.3.
        eps = np.zeros((2, 12))
        eps[1] = 0.2
        r = np.full((2, 12), 100.0)
        r[1] = 100.0 * 1.26**2
        got = least_squares_kappa(r, eps)
        np.testing.assert_allclose(got, 1.3, atol=1e-12)

    def test_all_zero_strain_is_degenerate(self):
        eps = np.zeros((10, 12))
        eps[:, :11] = 0.1  # sensor 11 stays silent
        r = np.full((10, 12), 100.0)
        with pytest.raises(DegenerateDataError) as exc:
            least_squares_kappa(r, eps)
        assert exc.value.sensor_indices == (11,)

    def test_unbiased_under_noise(self):
        # Mean over many noisy fits lands within 3 standard errors of truth.
        kappa_star = 1.3
        eps = np.zeros((50, 12))
        base = np.linspace(-0.25, 0.4, 49)
        for j in range(12):
            eps[1:, j] = np.roll(base, j)
        clean = 100.0 * (1.0 + kappa_star * eps) ** 2
        fits = []
        for seed in range(120):
            rng = np.random.default_rng(1000 + seed)
            noisy = clean * (1.0 + 0.005 * rng.standard_normal(clean.shape))
            fits.append(least_squares_kappa(noisy, eps))
        fits = np.array(fits)
        mean = fits.mean(axis=0)
        sem = fits.std(axis=0, ddof=1) / np.sqrt(len(fits))
        assert np.all(np.abs(mean - kappa_star) < 3.0 * np.maximum(sem, 1e-6))

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            least_squares_kappa(np.full((1, 12), 100.0), np.zeros((1, 12)))
        with pytest.raises(ValueError):
            least_squares_kappa(np.full((5, 12), 100.0), np.zeros((6, 12)))


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        cal = random_calibration(rng)
        phi = np.array([0.05, -0.1, 0.0])
        p = tmp_path / "cal.json"
        save_calibration_json(p, cal, phi, meta={"source": "test"})
        cal2, phi2, meta = load_calibration_json(p)
        np.testing.assert_allclose(cal2.r0, cal.r0, atol=1e-15)
        np.testing.assert_allclose(cal2.kappa_pos, cal.kappa_pos, atol=1e-15)
        np.testing.assert_allclose(cal2.kappa_neg, cal.kappa_neg, atol=1e-15)
        np.testing.assert_allclose(phi2, phi, atol=1e-15)
        assert meta["source"] == "test"

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"R0": [1], "phi": [0, 0, 0]}')
        with pytest.raises(ValueError, match="kappa_pos"):
            load_calibration_json(p)
