"""Numerical laboratory for de Bruijn-Newman type constants of even measures.

The package evaluates transforms H_{rho,lam}(z) = int e^{izt} e^{lam t^2}
d rho(t) for finite positive even measures rho, certifies reality of their
zeros through contour winding counts, estimates the infimum of the set of
lam with only real zeros, and runs the supporting machinery: repulsive zero
dynamics, Lee-Yang partition-function checks, and a casebook of worked
measures.
"""

from .precision import (
    DEFAULT_CONTEXT,
    BracketError,
    ContourError,
    DbnlabError,
    DomainError,
    EntirenessError,
    FieldError,
    PrecisionContext,
    PrecisionLossError,
    QuadratureError,
    RangeError,
    ResolutionError,
    SchemaError,
    TailBoundError,
    WindingError,
)
from .numerics import (
    TransformEval,
    eval_H_density,
    eval_phi,
    eval_theta,
    eval_xi_reference,
    integrate_adaptive,
)
from .measures import (
    EvenMeasure,
    TailSet,
    apply_gaussian_multiplier,
    convolve_gaussian,
    eval_H,
    eval_H_parts,
    make_measure,
    named_density,
    partial_gaussian_mass,
    symmetric_atoms,
    tail_set,
    transform_function,
)

__version__ = "0.1.0"
