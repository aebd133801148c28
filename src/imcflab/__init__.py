"""imcflab: a desk-scale laboratory for inverse mean curvature flow in
rotationally symmetric static asymptotically flat manifolds.

The package evolves hypersurfaces (coordinate spheres in 3 <= n <= 7,
axisymmetric radial graphs in n = 3) by smooth IMCF, evaluates the
weighted total mean curvature, its scale-normalized monotone combination
Q, the Minkowski-type deficit and the Hawking mass on every slice, and
renders monotonicity/limit verdicts with explicit tolerances.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, FitQualityError,
                     InsideHorizonError, LabError, MeanConvexityError,
                     SolverFailureError, UnsupportedDimensionError)
from .metrics import (ManifoldSpec, RadialProfile, StaticPotential,
                      adm_mass_fit, adm_mass_flux, constant_potential,
                      harmonicity_residual, horizon_radius, profile_weight,
                      rescale_to_unit, sampled_potential, scalar_curvature,
                      sqrt_potential, static_residual, unit_sphere_area)
from .surfaces import (AxisymmetricGraph, CoordinateSphere, GraphGrid,
                       SurfaceGeometry, graph_geometry, load_graph,
                       save_graph, sphere_geometry, surface_integral,
                       umbilicity_deficit)
from .flow import (FlowTrace, area_law_residual, flow_graph, flow_sphere,
                   require_reach)
from .quantities import (MonotonicityVerdict, SliceQuantities,
                         attach_quantities, hawking_mass, limit_target,
                         minkowski_deficit, monotone_quantity,
                         monotonicity_verdict, slice_quantities,
                         weighted_total_mean_curvature)
from .scenario import (RunReport, ScenarioConfig, emit_outputs, load_config,
                       parse_config, run_scenario)

__all__ = [
    "__version__",
    # errors
    "LabError", "DomainError", "InsideHorizonError", "FitQualityError",
    "MeanConvexityError", "SolverFailureError", "ConfigError",
    "UnsupportedDimensionError",
    # metrics
    "ManifoldSpec", "RadialProfile", "StaticPotential", "unit_sphere_area",
    "scalar_curvature", "static_residual", "harmonicity_residual",
    "adm_mass_flux", "adm_mass_fit", "horizon_radius", "sqrt_potential",
    "constant_potential", "profile_weight", "sampled_potential",
    "rescale_to_unit",
    # surfaces
    "CoordinateSphere", "AxisymmetricGraph", "SurfaceGeometry", "GraphGrid",
    "sphere_geometry", "graph_geometry", "surface_integral",
    "umbilicity_deficit", "save_graph", "load_graph",
    # flow
    "FlowTrace", "flow_sphere", "flow_graph",
    "require_reach", "area_law_residual",
    # quantities
    "SliceQuantities", "MonotonicityVerdict", "limit_target",
    "weighted_total_mean_curvature", "monotone_quantity", "minkowski_deficit",
    "hawking_mass", "slice_quantities", "attach_quantities",
    "monotonicity_verdict",
    # scenario
    "ScenarioConfig", "RunReport", "parse_config", "load_config",
    "run_scenario", "emit_outputs",
]
