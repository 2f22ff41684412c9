"""Builders for Ising-ring logical qubits with two-body X/Y couplings.

Each logical qubit is a small ferromagnetic Ising ring of physical
spins; logical neighbors are tied together by two-body XX and YY bonds
arranged so that one eight-body check operator per logical qubit
commutes with the full Hamiltonian at every coupling strength.  The
builders return the Hamiltonian symbolically (exact coefficients), so
conservation can be checked by exact commutators rather than numerics.

Geometry conventions
--------------------
1D chain of N logical qubits, two spins each, flat index
``2*j + (m-1)`` for spin m of logical j.  Intra-pair ZZ bonds carry -J;
the coupling adds ``-lam * X(j,1) X(j-2,2)`` and ``-lam * Y(j,1) Y(j-1,2)``
per logical site, indices periodic.

2D torus of L1 x L2 logical qubits, four spins each sitting on the four
edge directions of a logical site: spin 1 faces +e2, spin 2 faces +e1,
spin 3 faces -e2, spin 4 faces -e1.  Flat index
``4*(j2*L1 + j1) + (mu-1)``.  The four ring ZZ bonds per site carry -J.
XX bonds join facing spins of next-nearest logical sites (straddling
one site): ``(j,1)-(j+2*e2,3)`` and ``(j,2)-(j+2*e1,4)``; YY bonds join
facing spins of nearest sites: ``(j,1)-(j+e2,3)`` and ``(j,2)-(j+e1,4)``.
Every physical spin then touches exactly two ZZ, one XX and one YY
bond, which is what makes the check operators conserved.

3D building block: the four-spin plaquette
``-J * (ring ZZ) - sum_mu lam_mu * X_mu``, with the local check X X X X.
The paper reaches it by conjugating the 3D lattice with a CZ entangling
pattern, under which the per-site problem decouples into such
plaquettes.  There is no 3D lattice builder here, so that decoupling is
the paper's claim and is not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import OperatorSum, PauliString

__all__ = [
    "ModelInstance",
    "build_chain_1d",
    "stabilizers_1d",
    "build_lattice_2d",
    "build_plaquette_3d",
    "plaquette_ring_term",
    "plaquette_field_term",
    "stabilizer_3d_local",
    "gap_closed_form",
]


@dataclass(frozen=True)
class ModelInstance:
    """Geometry record: lattice shape, spins per logical site, couplings."""

    kind: str
    shape: tuple[int, ...]
    spins_per_site: int
    J: float
    couplings: tuple[float, ...]

    @property
    def n_sites(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def n_qubits(self) -> int:
        return self.n_sites * self.spins_per_site

    def site_index(self, *site: int) -> int:
        """Flat logical-site index from lattice coordinates (periodic)."""
        if len(site) != len(self.shape):
            raise ValueError("coordinate rank does not match lattice shape")
        flat = 0
        for length, coord in zip(reversed(self.shape), reversed(site)):
            flat = flat * length + (coord % length)
        return flat

    def qubit_index(self, site, m: int) -> int:
        """Flat qubit index of physical spin m (1-based) at a logical site."""
        if not 1 <= m <= self.spins_per_site:
            raise ValueError(f"spin index {m} outside 1..{self.spins_per_site}")
        if isinstance(site, int):
            site = (site,)
        return self.site_index(*site) * self.spins_per_site + (m - 1)


def _check_couplings(J: float | None, *lams: float):
    """Refuse a J that is not positive and finite (None skips it), then any lam that is not >= 0 and finite."""
    if J is not None and not (math.isfinite(J) and J > 0):
        raise ValueError("J must be positive and finite")
    if not all(math.isfinite(lam) and lam >= 0 for lam in lams):
        raise ValueError("coupling strength must be >= 0 and finite")


def build_chain_1d(N: int, J: float, lam: float) -> tuple[ModelInstance, OperatorSum]:
    """Periodic chain of N two-spin logical qubits on 2N physical qubits."""
    if N < 3:
        raise ValueError("need N >= 3 so the two coupling offsets are distinct")
    _check_couplings(J, lam)
    inst = ModelInstance("chain1d", (N,), 2, float(J), (float(lam),))
    n = inst.n_qubits
    terms = []
    for j in range(N):
        terms.append((-J, PauliString.from_ops(n, {
            inst.qubit_index(j, 1): "Z", inst.qubit_index(j, 2): "Z"})))
        terms.append((-lam, PauliString.from_ops(n, {
            inst.qubit_index(j, 1): "X", inst.qubit_index(j - 2, 2): "X"})))
        terms.append((-lam, PauliString.from_ops(n, {
            inst.qubit_index(j, 1): "Y", inst.qubit_index(j - 1, 2): "Y"})))
    return inst, OperatorSum(n, terms)


def stabilizers_1d(inst: ModelInstance) -> list[OperatorSum]:
    """The N conserved four-body checks of the 1D chain."""
    if inst.kind != "chain1d":
        raise ValueError("instance is not a 1D chain")
    n = inst.n_qubits
    out = []
    for j in range(inst.shape[0]):
        s = PauliString.from_ops(n, {
            inst.qubit_index(j, 1): "X",
            inst.qubit_index(j, 2): "X",
            inst.qubit_index(j - 1, 2): "Z",
            inst.qubit_index(j + 1, 1): "Z",
        })
        out.append(OperatorSum(n, [(1.0, s)]))
    return out


# Spin mu of a 2D site faces direction _DIR_2D[mu]; the facing spin of the
# neighbor in that direction is mu+2 (mod 4, 1-based).
_DIR_2D = {1: (0, 1), 2: (1, 0), 3: (0, -1), 4: (-1, 0)}


def _facing(mu: int) -> int:
    return ((mu + 1) % 4) + 1


def build_lattice_2d(
    L1: int, L2: int, J: float, lam: float
) -> tuple[ModelInstance, OperatorSum, list[OperatorSum]]:
    """Torus of L1 x L2 four-spin logical qubits, with its check operators.

    At extent 2 the XX bond from (j, mu) to the facing spin at j + 2e
    wraps onto site j itself, outside the 2D gap formula's window.
    """
    if L1 < 2 or L2 < 2:
        raise ValueError("torus needs L1 >= 2 and L2 >= 2 to place all bonds")
    _check_couplings(J, lam)
    inst = ModelInstance("lattice2d", (L1, L2), 4, float(J), (float(lam),))
    n = inst.n_qubits
    terms = []
    for j2 in range(L2):
        for j1 in range(L1):
            site = (j1, j2)
            ring = [inst.qubit_index(site, mu) for mu in (1, 2, 3, 4)]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                terms.append((-J, PauliString.from_ops(n, {a: "Z", b: "Z"})))
            for mu in (1, 2):
                d1, d2 = _DIR_2D[mu]
                far = (j1 + 2 * d1, j2 + 2 * d2)
                near = (j1 + d1, j2 + d2)
                terms.append((-lam, PauliString.from_ops(n, {
                    inst.qubit_index(site, mu): "X",
                    inst.qubit_index(far, _facing(mu)): "X"})))
                terms.append((-lam, PauliString.from_ops(n, {
                    inst.qubit_index(site, mu): "Y",
                    inst.qubit_index(near, _facing(mu)): "Y"})))
    stabs = []
    for j2 in range(L2):
        for j1 in range(L1):
            ops = {}
            for mu in (1, 2, 3, 4):
                ops[inst.qubit_index((j1, j2), mu)] = "X"
            for mu in (1, 2, 3, 4):
                d1, d2 = _DIR_2D[mu]
                neighbor = (j1 + d1, j2 + d2)
                ops[inst.qubit_index(neighbor, _facing(mu))] = "Z"
            stabs.append(OperatorSum(n, [(1.0, PauliString.from_ops(n, ops))]))
    return inst, OperatorSum(n, terms), stabs


def _lam_vector(lam) -> tuple[float, float, float, float]:
    if np.isscalar(lam):
        vec = (float(lam),) * 4
    else:
        vec = tuple(float(v) for v in lam)
        if len(vec) != 4:
            raise ValueError("per-spin couplings need exactly 4 entries")
    _check_couplings(None, *vec)
    return vec


def plaquette_ring_term(J: float) -> OperatorSum:
    """The static four-spin ZZ ring at strength -J."""
    _check_couplings(J)
    terms = []
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        terms.append((-float(J), PauliString.from_ops(4, {a: "Z", b: "Z"})))
    return OperatorSum(4, terms)


def plaquette_field_term(lam) -> OperatorSum:
    """The per-spin transverse fields -sum_mu lam_mu X_mu (may be empty)."""
    vec = _lam_vector(lam)
    terms = [(-vec[q], PauliString.from_ops(4, {q: "X"})) for q in range(4)]
    return OperatorSum(4, terms)


def build_plaquette_3d(J: float, lam) -> tuple[ModelInstance, OperatorSum]:
    """Four-spin ZZ ring with per-spin transverse fields: the 3D model's plaquette.

    ``lam`` is a scalar (uniform field) or a 4-sequence of per-spin
    strengths, which is what staged switch-off schedules drive.
    """
    vec = _lam_vector(lam)
    inst = ModelInstance("plaquette3d", (1,), 4, float(J), vec)
    return inst, plaquette_ring_term(J) + plaquette_field_term(vec)


def stabilizer_3d_local() -> OperatorSum:
    """The plaquette check operator: X on all four spins."""
    return OperatorSum(4, [(1.0, PauliString.from_label("XXXX"))])


def gap_closed_form(kind: str, J: float, lam: float) -> float:
    """Known gap of each model family in its stated validity window.

    The 2D window needs torus extents of 3 or more: at L = 2 the XX bond
    to j + 2e wraps onto the site itself, and the gap goes as lam^2.
    """
    _check_couplings(J, lam)
    if kind == "1d":
        if lam >= J / 2:
            raise ValueError("1D closed form only valid for lam < J/2")
        return 2.0 * J - 4.0 * lam
    if kind == "2d":
        return lam**6 / (768.0 * J**5)
    if kind == "3d":
        return (
            2.0 * math.sqrt(2.0 * J * J + 2.0 * lam * lam + 2.0 * math.sqrt(J**4 + lam**4))
            - 2.0 * math.sqrt(J * J + lam * lam)
            - 2.0 * J
        )
    raise ValueError(f"unknown model kind {kind!r}")

