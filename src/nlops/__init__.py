"""Numerical laboratory for nonlocal spherical and radial operators.

The package implements the operator family attached to a first-order
constant-coefficient differential operator: the local operator itself, its
sphere-averaged difference-quotient version at scale s, and the radial
principal-value version driven by a nonnegative radial weight.  Everything is
realized on the flat torus through Fourier multipliers, with direct quadrature
oracles, plus exact measure-side computations on windows.
"""

from nlops.operators import (
    FirstOrderOperator,
    gradient,
    divergence,
    curl3,
    sym_grad,
    scalar_derivative,
)
from nlops.weights import RadialWeight
from nlops.fields import TorusField
from nlops.measures import MeasureField, AreaIntegrand

__version__ = "0.1.0"

__all__ = [
    "FirstOrderOperator",
    "gradient",
    "divergence",
    "curl3",
    "sym_grad",
    "scalar_derivative",
    "RadialWeight",
    "TorusField",
    "MeasureField",
    "AreaIntegrand",
    "__version__",
]
