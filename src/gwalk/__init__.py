"""gwalk: a discrete-time quantum walk on a 2D lattice whose coin angles
encode a weak-field metric, with spectral and interference diagnostics."""

from .errors import (ConfigurationError, ConsistencyError, GeometryError,
                     SignConditionError, WalkError)
from .geometry import (DualTriad, GwParams, Metric3, Triad, dual_triad,
                       gw_angle_provider, gw_angles, gw_metric_reference,
                       metric_from_dual_triad, t_epsilon_compact,
                       triad_from_angles)
from .walk import (AngleProvider, SpinorField, WalkParams, array_angles,
                   coin_matrix, evolve, flat_angles, plane_wave_transfer_matrix,
                   pure_shear_angles, step, t_epsilon, uniform_time_angles)

__all__ = [
    "AngleProvider", "ConfigurationError", "ConsistencyError", "DualTriad",
    "GeometryError", "GwParams", "Metric3", "SignConditionError",
    "SpinorField", "Triad", "WalkError", "WalkParams", "array_angles",
    "coin_matrix", "dual_triad", "evolve", "flat_angles",
    "gw_angle_provider", "gw_angles", "gw_metric_reference",
    "metric_from_dual_triad", "plane_wave_transfer_matrix",
    "pure_shear_angles", "step", "t_epsilon", "t_epsilon_compact",
    "triad_from_angles", "uniform_time_angles",
]

__version__ = "0.1.0"
