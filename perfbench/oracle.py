"""Reference results for the benchmark, computed without clusterprep.

Everything here uses numpy and scipy only: the plaquette and chain
Hamiltonians are rebuilt from Kronecker products, the rampdown
propagator is a fixed fine-step fourth-order Magnus product of
``scipy.linalg.expm`` factors, and the chain's check-sector levels come
from a sparse ``scipy.sparse.linalg.eigsh`` solve of a penalized
Hamiltonian.  Seed-dependent references (Gibbs states, readouts,
spectra along a drawn schedule) are cheap and computed on demand; the
expensive ones (propagators, chain levels) do not depend on the seed
and are stored in ``oracle_data.json`` next to this file.

Regenerate the stored data with::

    python3 perfbench/oracle.py

Qubit q is bit q of a basis index, as in ``clusterprep.pauli.to_dense``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import lru_cache

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_data.json")

# (lambda0, tau) pairs whose rampdown propagators are stored: the sweep
# grid plus the phase-diagram grid.
SWEEP_LAMBDA0 = (1.5, 2.0, 2.5)
SWEEP_TAU = (2.0, 5.0, 10.0)
PHASE_LAMBDA0 = (0.3, 1.5, 2.0, 2.5)
PHASE_TAU = (2.0, 5.0)
CHAIN_N = (3, 4, 5, 6, 7)
CHAIN_J = 1.0
CHAIN_LAM = 0.2
J = 1.0

# Magnus steps per unit of ramp time; the script checks that doubling
# them moves no propagator entry by more than MAGNUS_SELF_CHECK.
MAGNUS_STEPS_PER_TIME = 400
MAGNUS_SELF_CHECK = 1e-11

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_dense(n: int, ops: dict[int, str]) -> np.ndarray:
    """Dense Pauli string on n qubits; qubit q is bit q of the index."""
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, _PAULI[ops[q]] if q in ops else _I2)
    return out


def pauli_sparse(n: int, ops: dict[int, str]) -> scipy.sparse.csr_matrix:
    out = scipy.sparse.identity(1, dtype=complex, format="csr")
    for q in reversed(range(n)):
        factor = _PAULI[ops[q]] if q in ops else _I2
        out = scipy.sparse.kron(out, scipy.sparse.csr_matrix(factor), format="csr")
    return out


# ------------------------------------------------------------- plaquette

_RING = ((0, 1), (1, 2), (2, 3), (3, 0))


@lru_cache(maxsize=None)
def _plaquette_parts(J_: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    ring = -J_ * sum(pauli_dense(4, {a: "Z", b: "Z"}) for a, b in _RING)
    fields = tuple(-pauli_dense(4, {q: "X"}) for q in range(4))
    return ring, fields


def plaquette_h(lam, J_: float = J) -> np.ndarray:
    """-J * (ZZ ring) - sum_q lam_q X_q, with lam a scalar or 4 values."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (4,))
    ring, fields = _plaquette_parts(float(J_))
    return ring + sum(lam[q] * fields[q] for q in range(4))


def plaquette_check() -> np.ndarray:
    """The conserved plaquette check X X X X."""
    return pauli_dense(4, {q: "X" for q in range(4)})


def plaquette_gap_closed_form(J_: float, lam: float) -> float:
    """Global gap of the uniform plaquette (clusterprep's gap_closed_form("3d"))."""
    return (
        2.0 * math.sqrt(2.0 * J_ * J_ + 2.0 * lam * lam + 2.0 * math.sqrt(J_**4 + lam**4))
        - 2.0 * math.sqrt(J_ * J_ + lam * lam)
        - 2.0 * J_
    )


@lru_cache(maxsize=None)
def _sector_bases() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the +1 and -1 eigenspaces of X X X X."""
    values, vectors = scipy.linalg.eigh(plaquette_check())
    return vectors[:, values > 0], vectors[:, values < 0]


def sector_spectra(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All levels, +1-sector levels and -1-sector levels, each ascending."""
    plus, minus = _sector_bases()
    full = scipy.linalg.eigvalsh(h)
    return (
        full,
        scipy.linalg.eigvalsh(plus.conj().T @ h @ plus),
        scipy.linalg.eigvalsh(minus.conj().T @ h @ minus),
    )


def sequential_couplings(lambda_init: float, tau_each: float, order, ts) -> np.ndarray:
    """Per-spin couplings along a staged switch-off: shape (len(ts), 4).

    Spin order[k] ramps linearly from lambda_init to 0 during
    [k * tau_each, (k + 1) * tau_each] and is constant otherwise.
    """
    ts = np.asarray(ts, dtype=float)
    lams = np.zeros((ts.size, 4))
    for k, spin in enumerate(order):
        frac = np.clip(1.0 - (ts - k * tau_each) / tau_each, 0.0, 1.0)
        lams[:, spin - 1] = lambda_init * frac
    return lams


def gibbs(h: np.ndarray, T: float) -> np.ndarray:
    values, vectors = scipy.linalg.eigh(h)
    weights = np.exp(-(values - values[0]) / T)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


# Error classes: representative flip masks (spin mu on bit mu-1) for the
# identity, the four single flips, two adjacent pairs and one diagonal pair.
_SINGLES = (1, 2, 4, 7)
_ADJACENT = (3, 6)
_DIAGONAL = 5
_CLASSES = (0,) + _SINGLES + _ADJACENT + (_DIAGONAL,)


def readout(rho: np.ndarray) -> dict[str, float]:
    """Error-channel figures of a four-spin state.

    Weight of class e in check sector s is <e,s| rho |e,s> with
    |e,s> = (|e> + s |~e>)/sqrt(2).  Minus-sector weight is moved to the
    class with one more single flip, a quarter to each spin.
    """
    def weight(e: int, s: int) -> float:
        v = np.zeros(16, dtype=complex)
        v[e] = v[15 - e] = 1.0 / math.sqrt(2.0)
        v[15 - e] *= s
        return float(np.real(v.conj() @ rho @ v))

    def rep(e: int) -> int:
        return min(e & 0xF, (~e) & 0xF)

    probs = {e: weight(e, 1) for e in _CLASSES}
    w_minus = 0.0
    for e in _CLASSES:
        w = weight(e, -1)
        w_minus += w
        for mu in range(4):
            probs[rep(e ^ (1 << mu))] += w / 4.0
    p_z = sum(probs[e] for e in _SINGLES) / 4.0
    p_c1 = sum(probs[e] for e in _ADJACENT) / 2.0
    p_c2 = probs[_DIAGONAL]
    return {
        "fidelity": probs[0],
        "p_z": p_z,
        "p_c1": p_c1,
        "p_c2": p_c2,
        "w_minus": w_minus,
        "e_zeta": p_z + 4.0 * p_c1 + 2.0 * p_c2,
    }


def magnus_rampdown(lambda0: float, tau: float, steps: int, J_: float = J) -> np.ndarray:
    """Propagator of lambda(t) = lambda0 (1 - t/tau), 4th-order Magnus.

    Each step is exp(-i h/2 (H1 + H2) - sqrt(3) h^2/12 [H2, H1]) with H1,
    H2 at the two Gauss-Legendre nodes of the step.
    """
    h = tau / steps
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    u = np.eye(16, dtype=complex)
    for n in range(steps):
        t = n * h
        h1 = plaquette_h(lambda0 * (1.0 - (t + c1 * h) / tau), J_)
        h2 = plaquette_h(lambda0 * (1.0 - (t + c2 * h) / tau), J_)
        omega = -0.5j * h * (h1 + h2) - (math.sqrt(3.0) * h * h / 12.0) * (h2 @ h1 - h1 @ h2)
        u = scipy.linalg.expm(omega) @ u
    return u


# ------------------------------------------------------------- chain


def chain_operators(N: int, J_: float, lam: float):
    """Sparse chain Hamiltonian and its N checks on 2N qubits.

    Spin m of logical site j is qubit 2*(j mod N) + m - 1.
    """
    n = 2 * N

    def q(j: int, m: int) -> int:
        return 2 * (j % N) + m - 1

    h = scipy.sparse.csr_matrix((1 << n, 1 << n), dtype=complex)
    checks = []
    for j in range(N):
        h = h - J_ * pauli_sparse(n, {q(j, 1): "Z", q(j, 2): "Z"})
        h = h - lam * pauli_sparse(n, {q(j, 1): "X", q(j - 2, 2): "X"})
        h = h - lam * pauli_sparse(n, {q(j, 1): "Y", q(j - 1, 2): "Y"})
        checks.append(pauli_sparse(n, {q(j, 1): "X", q(j, 2): "X", q(j - 1, 2): "Z", q(j + 1, 1): "Z"}))
    return h, checks


def chain_sector_levels(N: int, J_: float, lam: float, k: int = 2) -> np.ndarray:
    """Lowest k levels of the chain inside the all-checks +1 sector.

    The checks commute with H and with each other, so H + c * sum_j
    (1 - S_j)/2 has exactly the sector levels shifted by c per violated
    check; with c above the spectral width of H the lowest levels are
    the +1-sector ones.
    """
    h, checks = chain_operators(N, J_, lam)
    width = 2.0 * (N * J_ + 2 * N * lam)
    dim = h.shape[0]
    eye = scipy.sparse.identity(dim, dtype=complex, format="csr")
    pen = h + (width + 1.0) * sum(0.5 * (eye - s) for s in checks)
    values = scipy.sparse.linalg.eigsh(pen, k=k + 2, which="SA", tol=1e-13, return_eigenvectors=False)
    return np.sort(values.real)[:k]


# ------------------------------------------------------------- stored data


def _key(lambda0: float, tau: float) -> str:
    return f"{float(lambda0)!r}:{float(tau)!r}"


@lru_cache(maxsize=1)
def load() -> dict:
    with open(DATA_PATH) as fh:
        data = json.load(fh)
    unitaries = {
        _key(u["lambda0"], u["tau"]): np.array(u["re"]) + 1j * np.array(u["im"])
        for u in data["unitaries"]
    }
    chain = {int(c["N"]): np.array(c["levels"]) for c in data["chain"]}
    return {"unitaries": unitaries, "chain": chain, "meta": data["meta"]}


def rampdown_unitary(lambda0: float, tau: float) -> np.ndarray:
    return load()["unitaries"][_key(lambda0, tau)]


def chain_levels(N: int) -> np.ndarray:
    return load()["chain"][int(N)]


def point(T: float, lambda0: float, tau) -> dict[str, float]:
    """Readout after cooling at lambda0 and ramping over tau (None: no ramp)."""
    rho = gibbs(plaquette_h(lambda0), T)
    if tau is not None:
        u = rampdown_unitary(lambda0, tau)
        rho = u @ rho @ u.conj().T
    return readout(rho)


def _generate() -> dict:
    pairs = sorted({(l, t) for l in SWEEP_LAMBDA0 for t in SWEEP_TAU}
                   | {(l, t) for l in PHASE_LAMBDA0 for t in PHASE_TAU})
    unitaries = []
    for lambda0, tau in pairs:
        steps = int(math.ceil(MAGNUS_STEPS_PER_TIME * tau))
        u = magnus_rampdown(lambda0, tau, steps)
        finer = magnus_rampdown(lambda0, tau, 2 * steps)
        diff = float(np.abs(u - finer).max())
        defect = float(np.abs(finer.conj().T @ finer - np.eye(16)).max())
        print(f"lambda0={lambda0} tau={tau} steps={2 * steps} doubling diff={diff:.2e} "
              f"unitarity defect={defect:.2e}", file=sys.stderr)
        if diff > MAGNUS_SELF_CHECK:
            raise SystemExit(f"Magnus reference not converged at ({lambda0}, {tau}): {diff:.2e}")
        unitaries.append({
            "lambda0": lambda0, "tau": tau, "J": J, "steps": 2 * steps,
            "doubling_diff": diff, "unitarity_defect": defect,
            "re": finer.real.tolist(), "im": finer.imag.tolist(),
        })
    chain = []
    for N in CHAIN_N:
        levels = chain_sector_levels(N, CHAIN_J, CHAIN_LAM)
        print(f"chain N={N} levels={levels.tolist()}", file=sys.stderr)
        chain.append({"N": N, "J": CHAIN_J, "lam": CHAIN_LAM, "levels": levels.tolist()})
    return {
        "meta": {
            "method": "4th-order Magnus with scipy.linalg.expm, fixed steps; "
                      "chain levels by scipy.sparse.linalg.eigsh on a penalized Hamiltonian",
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "unitaries": unitaries,
        "chain": chain,
    }


if __name__ == "__main__":
    data = _generate()
    with open(DATA_PATH, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
