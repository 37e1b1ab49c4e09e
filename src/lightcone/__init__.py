"""Conformal geometry of spacelike surfaces in the projectivized light
cone of R^{4,2}: frames, invariants, Willmore functionals, polar and
adjoint transforms."""

from .ambient import ETA, SIGNS, Motion, inner, projective_distance
from .analysis import (EnergyResult, ResidualReport, gauss_metric_report,
                       harmonicity_report, homogeneous_torus_energy,
                       integrability_residual, omega_report,
                       structure_residual, swillmore_report, theta_report,
                       willmore_energy, willmore_report)
from .charts import (CATALOG, SurfaceChart, catalog_chart, moved_chart,
                     sample_axes, sample_grid, scaled_chart,
                     validate_chart)
from .dsl import chart_from_source
from .errors import LightconeError
from .frames import (FrameData, InvariantSet, Tolerances, canonical_lift,
                     classify_point, frame_and_invariants, invariants)
from .jets import Jet2, JetVec6, seed_point
from .transforms import (TransformedSurface, apply_chain, duality_report,
                         inverse_check)

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "ETA", "EnergyResult", "FrameData", "InvariantSet", "Jet2",
    "JetVec6", "LightconeError", "Motion", "ResidualReport", "SIGNS",
    "SurfaceChart", "Tolerances", "TransformedSurface", "apply_chain",
    "canonical_lift", "catalog_chart", "chart_from_source", "classify_point",
    "duality_report", "frame_and_invariants", "gauss_metric_report",
    "harmonicity_report", "homogeneous_torus_energy", "inner",
    "integrability_residual", "invariants", "inverse_check", "moved_chart",
    "omega_report", "projective_distance", "sample_axes", "sample_grid",
    "scaled_chart", "seed_point", "structure_residual", "swillmore_report",
    "theta_report", "validate_chart", "willmore_energy", "willmore_report",
]
