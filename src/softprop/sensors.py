"""Resistance-strain sensor physics.

An incompressible conductive channel of length L and volume V has
resistance proportional to L^2/V, so R/R0 = (L/L0)^2 regardless of the
material's conductivity. Imperfect fabrication breaks the exact square
law; per-sensor correction factors kappa absorb that, with separate
values for tension (positive strain) and compression so the two response
slopes can differ. kappa_pos = kappa_neg = 1 is the ideal sensor.

Forward synthesis (strain -> resistance) and inverse recovery
(resistance -> strain) are exact inverses of each other. Strains are
engineering strain (L - L0)/L0, resistances are ohms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_SENSORS = 12


def _vec12(values, name):
    arr = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if arr.shape != (N_SENSORS,):
        raise ValueError(f"{name}: expected {N_SENSORS} values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite entries")
    return arr


@dataclass(frozen=True)
class ResistanceFrame:
    """One 12-channel resistance reading (ohms) with its capture time (s)."""

    r: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        r = _vec12(self.r, "ResistanceFrame")
        if r.min() <= 0.0:
            raise ValueError(f"ResistanceFrame: nonpositive resistance {r.min()}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "timestamp", float(self.timestamp))


@dataclass(frozen=True)
class SensorCalibration:
    """Baselines plus sign-split correction factors for all 12 sensors."""

    r0: np.ndarray
    kappa_pos: np.ndarray
    kappa_neg: np.ndarray

    def __post_init__(self):
        r0 = _vec12(self.r0, "SensorCalibration.r0")
        kp = _vec12(self.kappa_pos, "SensorCalibration.kappa_pos")
        kn = _vec12(self.kappa_neg, "SensorCalibration.kappa_neg")
        if r0.min() <= 0.0:
            raise ValueError("SensorCalibration: baseline resistances must be positive")
        if kp.min() <= 0.0 or kn.min() <= 0.0:
            raise ValueError("SensorCalibration: correction factors must be positive")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "kappa_pos", kp)
        object.__setattr__(self, "kappa_neg", kn)

    @staticmethod
    def ideal(r0=100.0):
        """Unit correction factors: the exact square-law sensor."""
        return SensorCalibration(
            np.full(N_SENSORS, float(r0)), np.ones(N_SENSORS), np.ones(N_SENSORS)
        )


def resistance_array_from_strain(strains, cal: SensorCalibration):
    """Vectorized forward model over (..., 12) strain arrays.

    R = R0 (1 + s / kappa_branch)^2 with the branch picked by sign(s).
    """
    s = np.asarray(strains, dtype=np.float64)
    if s.shape[-1] != N_SENSORS:
        raise ValueError(f"strain array last axis must be {N_SENSORS}, got {s.shape}")
    kappa = np.where(s >= 0.0, cal.kappa_pos, cal.kappa_neg)
    base = 1.0 + s / kappa
    if base.min() <= 0.0:
        bad = np.argwhere(base <= 0.0)
        raise ValueError(
            f"strain at or below -kappa for sensor(s) {bad[:, -1].tolist()}: "
            "resistance would be nonpositive"
        )
    return cal.r0 * base * base


def strain_array_from_resistance(resistances, cal: SensorCalibration):
    """Vectorized inverse model over (..., 12) resistance arrays.

    dR = sqrt(R/R0) - 1; strain = dR * kappa_pos if dR >= 0 else dR * kappa_neg.
    """
    r = np.asarray(resistances, dtype=np.float64)
    if r.shape[-1] != N_SENSORS:
        raise ValueError(f"resistance array last axis must be {N_SENSORS}, got {r.shape}")
    if r.min() <= 0.0:
        raise ValueError("resistances must be positive")
    dr = np.sqrt(r / cal.r0) - 1.0
    return dr * np.where(dr >= 0.0, cal.kappa_pos, cal.kappa_neg)

