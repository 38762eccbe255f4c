"""frenetsim: similarity-invariant analysis of curves in E^n.

Frenet frames and curvatures from sampled curves, shape curvatures on
the unit-vector indicatrices, similarity detection by signature
matching, synthesis of self-similar curves from constant invariants,
focal curvatures, and evolutes in E^3.
"""

from . import errors
from . import series  # unused by the library; loaded so perfbench's tracer wraps it
from .curves import (
    SampledCurve,
    arclength_reparam,
    builtin_evaluate,
    circle,
    curve_from_csv,
    curve_to_csv,
    custom_poly,
    frenet_apparatus,
    helix,
    line,
    log_spiral,
)
from .evolute import evolute_e3, evolute_invariant_report
from .focal import focal_curvatures, shape_from_focal
from .indicatrix import (
    geodesic_closed_form,
    indicatrix_curve,
    indicatrix_to_csv,
    sabban_geodesic_curvature,
)
from .selfsimilar import (
    SelfSimilarSpec,
    frame_ode_oracle,
    solve_self_similar,
    synthesize_self_similar,
)
from .signatures import (
    ShapeSignature,
    invariance_sweep,
    shape_curvatures,
    signature_from_json,
    signature_to_json,
    similarity_test,
)
from .transforms import (
    apply_similarity,
    random_similarity,
    transform_from_json,
    transform_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "SampledCurve",
    "SelfSimilarSpec",
    "ShapeSignature",
    "apply_similarity",
    "arclength_reparam",
    "builtin_evaluate",
    "circle",
    "curve_from_csv",
    "curve_to_csv",
    "custom_poly",
    "errors",
    "evolute_e3",
    "evolute_invariant_report",
    "focal_curvatures",
    "frame_ode_oracle",
    "frenet_apparatus",
    "geodesic_closed_form",
    "helix",
    "indicatrix_curve",
    "indicatrix_to_csv",
    "invariance_sweep",
    "line",
    "log_spiral",
    "random_similarity",
    "sabban_geodesic_curvature",
    "shape_curvatures",
    "shape_from_focal",
    "signature_from_json",
    "signature_to_json",
    "similarity_test",
    "solve_self_similar",
    "synthesize_self_similar",
    "transform_from_json",
    "transform_to_json",
    "__version__",
]
