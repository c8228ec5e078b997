"""gwalk: a discrete-time quantum walk on a 2D lattice whose coin angles
encode a weak-field metric, with spectral and interference diagnostics."""

from .errors import (ConfigurationError, ConsistencyError, GeometryError,
                     SignConditionError, WalkError)
from .geometry import GwParams, gw_angle_provider, gw_angles
from .walk import (AngleProvider, SpinorField, WalkParams, array_angles, evolve,
                   flat_angles, plane_wave_transfer_matrix, pure_shear_angles, step,
                   uniform_time_angles)

__all__ = [
    "AngleProvider", "ConfigurationError", "ConsistencyError", "GeometryError",
    "GwParams", "SignConditionError", "SpinorField", "WalkError", "WalkParams",
    "array_angles", "evolve", "flat_angles", "gw_angle_provider", "gw_angles",
    "plane_wave_transfer_matrix", "pure_shear_angles", "step", "uniform_time_angles",
]

__version__ = "0.1.0"
