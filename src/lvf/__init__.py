"""lvf: exact Lie algebras of vector fields with exponential-polynomial
coefficients.

The package provides exact scalar arithmetic (:mod:`lvf.expr`), vector
fields with Lie bracket and generic rank (:mod:`lvf.fields`), linear
algebra over the rationals for spans, closures and structure tensors
(:mod:`lvf.algebra`), rank-2 root systems and the inductive
Chevalley-style construction (:mod:`lvf.roots`), a bracket-constraint
solver over finite ansatz spaces (:mod:`lvf.solve`), a built-in catalog
of canonical realizations (:mod:`lvf.catalog`), relation verification
(:mod:`lvf.verify`) and the rank-2 obstruction pipeline
(:mod:`lvf.obstruction`).

Everything is immutable and deterministic; results never depend on
floating point.
"""

from lvf.expr import ExpPoly, format_scalar
from lvf.fields import AffineMap, VectorField, affine_pullback, bracket, format_field, generic_rank
from lvf.parsing import parse_field, parse_scalar

__all__ = [
    "AffineMap",
    "ExpPoly",
    "VectorField",
    "affine_pullback",
    "bracket",
    "format_field",
    "format_scalar",
    "generic_rank",
    "kernel_backend",
    "parse_field",
    "parse_scalar",
]

__version__ = "0.1.0"

# The kernels have one pure-Python implementation, lvf._kernels; the name
# stays because benchmark records carry it.
kernel_backend = "py"
