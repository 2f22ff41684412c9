"""The package's numerical error types.

Dense solves call numpy directly: restrictions to conserved-check
sectors are exact and symbolic (`pauli.taper`, `pauli.check_blocks`),
and dense realizations are bounded by `pauli.DENSE_QUBIT_LIMIT`.
"""

from __future__ import annotations

__all__ = ["ConvergenceError", "NumericalCheckError"]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class NumericalCheckError(ConvergenceError):
    """A computed quantity failed a sanity check that exact numerics obey."""
