"""Adiabatic preparation of cluster states from two-body spin models.

Pauli-string operator algebra, the frustration-free chain / torus /
plaquette model builders with their conserved checks, thermal input
states, unitary schedule evolution by a step-doubled eighth-order Magnus
integrator (run in the sector blocks of the conserved checks, with
matrix-product Taylor step exponentials), and the sector-resolved
spectrum and error-channel analysis used to size temperature thresholds.
"""

from .pauli import OperatorSum, PauliString, commutator_terms, commutes, multiply, taper, to_dense
from .pham import OperatorDocument, PhamError, parse, parse_document, serialize
from .linalg import ConvergenceError, NumericalCheckError, Spectrum, eigh
from .models import (
    ModelInstance,
    build_chain_1d,
    build_lattice_2d,
    build_plaquette_3d,
    cz_conjugate,
    gap_closed_form,
    logical_x,
    logical_z,
    stabilizer_3d_local,
    stabilizers_1d,
)
from .thermal import DensityMatrix, gibbs_state
from .evolve import (
    PiecewiseLinear,
    Schedule,
    linear_rampdown,
    propagate,
    schedule_unitary,
    sequential_switchoff,
)
from .analysis import (
    ErrorChannelReport,
    SectorSpectrumTable,
    chain_sector_gap,
    error_tomography,
    ghz_fidelity,
    no_evolution_point,
    plaquette_parts,
    run_point,
    sector_projectors,
    spectrum_path,
    spectrum_scan,
    threshold_temperature,
    tomography_basis,
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
    "taper",
    "to_dense",
    "PhamError",
    "OperatorDocument",
    "parse",
    "parse_document",
    "serialize",
    "ConvergenceError",
    "NumericalCheckError",
    "Spectrum",
    "eigh",
    "ModelInstance",
    "build_chain_1d",
    "build_lattice_2d",
    "build_plaquette_3d",
    "stabilizers_1d",
    "stabilizer_3d_local",
    "cz_conjugate",
    "gap_closed_form",
    "logical_x",
    "logical_z",
    "DensityMatrix",
    "gibbs_state",
    "PiecewiseLinear",
    "Schedule",
    "linear_rampdown",
    "sequential_switchoff",
    "schedule_unitary",
    "propagate",
    "ErrorChannelReport",
    "SectorSpectrumTable",
    "tomography_basis",
    "sector_projectors",
    "ghz_fidelity",
    "error_tomography",
    "total_phase_flip_error",
    "spectrum_scan",
    "spectrum_path",
    "run_point",
    "no_evolution_point",
    "plaquette_parts",
    "threshold_temperature",
    "chain_sector_gap",
]
