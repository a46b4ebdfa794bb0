import numpy as np
import pytest

from softprop.sensors import (
    N_SENSORS,
    ResistanceFrame,
    SensorCalibration,
    resistance_array_from_strain,
    strain_array_from_resistance,
)


def random_calibration(rng):
    return SensorCalibration(
        rng.uniform(50.0, 200.0, N_SENSORS),
        rng.uniform(0.6, 1.6, N_SENSORS),
        rng.uniform(0.6, 1.6, N_SENSORS),
    )


class TestTypes:
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
        r = resistance_array_from_strain(np.zeros(12), cal)
        assert np.array_equal(r, cal.r0)

    def test_hand_evaluated_tension_case(self):
        # s = 0.1, kappa = 1, R0 = 100 -> R = 100 * 1.1^2 = 121.
        cal = SensorCalibration.ideal(r0=100.0)
        s = np.zeros(12)
        s[3] = 0.1
        r = resistance_array_from_strain(s, cal)
        assert r[3] == pytest.approx(121.0, abs=1e-12)
        assert r[0] == pytest.approx(100.0, abs=1e-12)

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
        with pytest.raises(ValueError, match="sensor"):
            # kappa_neg < |s| puts the base length at or below zero too.
            resistance_array_from_strain(
                np.full(12, -0.7),
                SensorCalibration(np.full(12, 100.0), np.ones(12), np.full(12, 0.65)),
            )


class TestInverseModel:
    def test_baseline_resistance_gives_zero_strain(self):
        cal = random_calibration(np.random.default_rng(2))
        s = strain_array_from_resistance(cal.r0, cal)
        assert np.array_equal(s, np.zeros(12))

    def test_hand_evaluated_tension_case(self):
        # R/R0 = 1.21, kappa_pos = 1 -> strain 0.1.
        cal = SensorCalibration.ideal(r0=100.0)
        r = np.full(12, 100.0)
        r[2] = 121.0
        s = strain_array_from_resistance(r, cal)
        assert s[2] == pytest.approx(0.1, abs=1e-12)

    def test_hand_evaluated_compression_case(self):
        # R/R0 = 0.81 -> dR = -0.1; kappa_neg = 2 -> strain -0.2.
        cal = SensorCalibration(
            np.full(12, 100.0), np.ones(12), np.full(12, 2.0)
        )
        r = np.full(12, 100.0)
        r[9] = 81.0
        s = strain_array_from_resistance(r, cal)
        assert s[9] == pytest.approx(-0.2, abs=1e-12)

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
