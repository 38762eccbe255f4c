"""frenetsim: similarity-invariant analysis of curves in E^n.

Frenet frames and curvatures from sampled curves, shape curvatures on
the unit-vector indicatrices, similarity detection by signature
matching, synthesis of self-similar curves from constant invariants,
focal curvatures, and evolutes in E^3.
"""

from . import errors
from . import series  # unused by the library; loaded so perfbench's tracer wraps it
from .curves import (
    AffineImage,
    BuiltinCurve,
    FrenetData,
    SampledCurve,
    arclength_reparam,
    arclength_values,
    builtin_evaluate,
    circle,
    curve_from_csv,
    curve_to_csv,
    custom_poly,
    field_derivative,
    frenet_apparatus,
    frenet_residual_supnorm,
    helix,
    line,
    log_spiral,
    parameter_speeds,
    structure_skew,
)
from .evolute import EvoluteData, EvoluteReport, evolute_e3, evolute_invariant_report
from .focal import FocalData, focal_curvatures, shape_from_focal
from .indicatrix import (
    SabbanData,
    SphericalCurve,
    geodesic_closed_form,
    indicatrix_curve,
    indicatrix_to_csv,
    sabban_geodesic_curvature,
)
from .selfsimilar import (
    SelfSimilarSolution,
    SelfSimilarSpec,
    frame_ode_oracle,
    solve_self_similar,
    synthesize_self_similar,
)
from .signatures import (
    MatchResult,
    ShapeSignature,
    invariance_sweep,
    shape_curvatures,
    signature_distance,
    signature_from_json,
    signature_supnorm_deviation,
    signature_to_json,
    similarity_test,
    structure_matrix,
)
from .transforms import (
    SimilarityTransform,
    TransformReport,
    apply_similarity,
    compose,
    random_similarity,
    similarity_report,
    transform_from_json,
    transform_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AffineImage",
    "BuiltinCurve",
    "EvoluteData",
    "EvoluteReport",
    "FocalData",
    "FrenetData",
    "MatchResult",
    "SabbanData",
    "SampledCurve",
    "SelfSimilarSolution",
    "SelfSimilarSpec",
    "ShapeSignature",
    "SimilarityTransform",
    "SphericalCurve",
    "TransformReport",
    "apply_similarity",
    "arclength_reparam",
    "arclength_values",
    "builtin_evaluate",
    "circle",
    "compose",
    "curve_from_csv",
    "curve_to_csv",
    "custom_poly",
    "errors",
    "evolute_e3",
    "evolute_invariant_report",
    "field_derivative",
    "focal_curvatures",
    "frame_ode_oracle",
    "frenet_apparatus",
    "frenet_residual_supnorm",
    "geodesic_closed_form",
    "helix",
    "indicatrix_curve",
    "indicatrix_to_csv",
    "invariance_sweep",
    "line",
    "log_spiral",
    "parameter_speeds",
    "random_similarity",
    "sabban_geodesic_curvature",
    "shape_curvatures",
    "shape_from_focal",
    "signature_distance",
    "signature_from_json",
    "signature_supnorm_deviation",
    "signature_to_json",
    "similarity_report",
    "similarity_test",
    "solve_self_similar",
    "structure_matrix",
    "structure_skew",
    "synthesize_self_similar",
    "__version__",
]
