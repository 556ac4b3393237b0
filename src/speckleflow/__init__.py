"""Speckle-augmented optical-flow displacement estimation and two-step
quantitative elastography.

The pipeline: detect and match bright speckle "bubbles" between two
intensity volumes (:mod:`speckleflow.speckle`), estimate a dense
displacement field from the image pair plus the matched bubble vectors
(:mod:`speckleflow.flow`), then recover Lame parameters and the Young's
modulus by iterative inversion of a linearized-elasticity forward model
(:mod:`speckleflow.elastic`, :mod:`speckleflow.invert`).  Synthetic test
problems live in :mod:`speckleflow.phantom`, file formats and grid
containers in :mod:`speckleflow.grids`, the sparse factorization shared by
flow and elasticity in :mod:`speckleflow.linsolve`, and the command-line
interface in :mod:`speckleflow.cli`.
"""

from . import errors
from .elastic import (BoundaryConditions, LameField, forward_solve,
                      frechet_adjoint, frechet_apply, young_modulus)
from .flow import (FlowParams, FlowSystem, assemble, evaluate_functional,
                   gaussian_weight, gradient, multiscale_flow, solve_flow)
from .grids import (ScalarGrid, VectorGrid, Volume, downsample,
                    gaussian_filter, normalize_intensity, prolong,
                    pyramid_sigma, read_f64grid, spatial_gradient,
                    temporal_difference, write_f64grid)
from .invert import (InversionConfig, IterationTrace, field_error,
                     landweber_step, nesterov_iterate, stop_discrepancy,
                     stop_heuristic)
from .phantom import PhantomSpec, make_inclusion_phantom, make_moving_squares
from .speckle import (Bubble, CylinderGeometry, DisplacementSample,
                      MatchCriteria, binarize_quantile, connected_components,
                      extract_bubbles, fit_circle, match_bubbles, run_tracking)

__version__ = "0.1.0"
