"""The package's numerical error types.

Dense solves call numpy directly: conserved-check sectors are exact
blocks of a symbolic Clifford frame (`pauli.check_blocks`), and dense
realizations are bounded by `pauli.DENSE_QUBIT_LIMIT`.
"""

from __future__ import annotations

__all__ = ["ConvergenceError", "NumericalCheckError"]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class NumericalCheckError(ConvergenceError):
    """A computed quantity failed a sanity check that exact numerics obey."""
