"""Adiabatic preparation of cluster states from two-body spin models.

Pauli-string operator algebra, the frustration-free chain / torus /
plaquette model builders with their conserved checks, Boltzmann
occupations of the cooled levels, piecewise-linear coupling schedules
(a knot table with one column per coupling part) and their propagators
from a step-doubled eighth-order Magnus integrator (run in the sector
blocks of the conserved checks, with matrix-product Taylor step
exponentials), and the sector-resolved spectrum and per-eigenstate
error-channel readout used to size temperature thresholds.
"""

from .pauli import OperatorSum, PauliString, commutator_terms, commutes, multiply, to_dense
from .pham import OperatorDocument, PhamError, parse, parse_document, serialize
from .linalg import ConvergenceError, NumericalCheckError
from .models import (
    ModelInstance,
    build_chain_1d,
    build_lattice_2d,
    build_plaquette_3d,
    gap_closed_form,
    stabilizer_3d_local,
    stabilizers_1d,
)
from .thermal import DensityMatrix
from .evolve import Schedule, linear_rampdown, schedule_unitary, sequential_switchoff
from .analysis import (
    ErrorChannelReport,
    SectorSpectrumTable,
    chain_sector_gap,
    plaquette_parts,
    rampdown_series,
    run_point,
    spectrum_path,
    spectrum_scan,
    threshold_temperature,
    total_phase_flip_error,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PauliString",
    "OperatorSum",
    "multiply",
    "commutes",
    "commutator_terms",
    "to_dense",
    "PhamError",
    "OperatorDocument",
    "parse",
    "parse_document",
    "serialize",
    "ConvergenceError",
    "NumericalCheckError",
    "ModelInstance",
    "build_chain_1d",
    "build_lattice_2d",
    "build_plaquette_3d",
    "stabilizers_1d",
    "stabilizer_3d_local",
    "gap_closed_form",
    "DensityMatrix",
    "Schedule",
    "linear_rampdown",
    "sequential_switchoff",
    "schedule_unitary",
    "ErrorChannelReport",
    "SectorSpectrumTable",
    "total_phase_flip_error",
    "spectrum_scan",
    "spectrum_path",
    "run_point",
    "rampdown_series",
    "plaquette_parts",
    "threshold_temperature",
    "chain_sector_gap",
]
