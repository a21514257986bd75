"""Structure tensors of second-order superintegrable systems, the affine
connections they induce, and numerical verification of their shared
dual-geodesic geometry."""

__version__ = "0.1.0"

from .expressions import ParseError, EvalDomainError, parse, to_source
from .jets import Jet, eval_jet2, eval_jet3, eval_value
from .geometry import Metric, ScalarField, TensorField, grid_points
from .connections import (
    AffineConnection, dual_projective_test, semi_compatibility_test,
    difference_tensor, levi_civita,
)
from .structure import PotentialFamily, StructureSolver, classify, decompose
from .geodesics import Trajectory, curves_coincide, integrate_dual_geodesic
from .fixtures import Fixture, builtin, builtin_names, load
from .theorems import (
    VerificationReport, applicable_suites, verify_remark_digamma,
    verify_theorem1, verify_theorem2, verify_weyl_symmetry,
)
