"""Exact invariances of the plaquette pipeline: time rescaling and ring symmetry.

These oracles need no reference solver: each compares the pipeline with
itself under a map that must leave its output unchanged.
"""

import numpy as np
import pytest

from clusterprep.analysis import plaquette_parts, run_point, threshold_temperature
from clusterprep.evolve import schedule_unitary, sequential_switchoff
from clusterprep.models import plaquette_ring_term
from clusterprep.pauli import OperatorSum, PauliString, to_dense


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_time_rescaling_leaves_the_readout_unchanged(c):
    # H -> cH with tau -> tau / c and T -> c T maps the ramp and the Gibbs state onto
    # themselves, so the bond strength is only the unit (measured: 0 at c = 0.5 and 2,
    # at most 1.4e-15 at c = 3)
    for T, lambda0, tau in ((0.3, 2.5, 10.0), (0.05, 1.5, 2.0), (0.7, 1.0, 5.0)):
        unit = run_point(T, lambda0, tau, h0=plaquette_ring_term(1.0), tol=1e-10).raw
        scaled = run_point(c * T, c * lambda0, tau / c, h0=plaquette_ring_term(c), tol=1e-10).raw
        assert max(abs(scaled[k] - unit[k]) for k in unit) <= 1e-14


def test_threshold_scales_with_the_bond_strength():
    # doubling the ring doubles the threshold, with lambda0 and the bracket doubled
    # and tau halved (the measured ratio is exactly 2)
    doubled = threshold_temperature(5.0, 5.0, h0=plaquette_ring_term(2.0), bracket=(2e-3, 6.0))
    unit = threshold_temperature(2.5, 10.0)
    assert abs(doubled / (2.0 * unit) - 1.0) <= 1e-12


def spin_permutation(pi) -> np.ndarray:
    """The 16 x 16 permutation that moves spin q to spin pi[q]."""
    p = np.zeros((16, 16))
    for b in range(16):
        p[sum(((b >> q) & 1) << pi[q] for q in range(4)), b] = 1.0
    return p


def field(q: int) -> np.ndarray:
    return to_dense(OperatorSum(4, [(1.0, PauliString.from_ops(4, {q: "X"}))]))


@pytest.mark.parametrize("pi", [(1, 2, 3, 0), (0, 3, 2, 1)], ids=["rotation", "reflection"])
def test_ring_symmetry_permutes_the_switch_off_order(pi):
    # a symmetry P of the ring takes field X_q to X_pi(q), so P U P^T is the
    # propagator that switches the spins off in the permuted order
    p = spin_permutation(pi)
    for q in range(4):
        assert np.array_equal(p @ field(q) @ p.T, field(pi[q]))
    h0, parts = plaquette_parts()
    assert np.array_equal(p @ to_dense(h0) @ p.T, to_dense(h0))
    order = (1, 3, 2, 4)
    u = schedule_unitary(h0, parts, sequential_switchoff(1.5, 2.0, order))
    permuted = schedule_unitary(h0, parts, sequential_switchoff(1.5, 2.0, tuple(pi[o - 1] + 1 for o in order)))
    # measured: within 1.1e-15, against 0.87 (rotation) and 1.27 (reflection) for U itself
    assert np.abs(p @ u @ p.T - permuted).max() <= 1e-13
    assert np.abs(p @ u @ p.T - u).max() > 0.5


@pytest.mark.parametrize("T, lambda0, tau", [(0.5, 2.5, 10.0), (0.0, 1.5, 2.0), (1.0, 1.0, 5.0)])
def test_uniform_ramp_weighs_the_four_single_flips_alike(T, lambda0, tau):
    # the uniform ramp commutes with every ring symmetry, and these carry each
    # single flip onto every other (measured spread: at most 1.8e-17)
    probs = run_point(T, lambda0, tau).class_probs
    singles = [probs[rep] for rep in (1, 2, 4, 7)]
    assert max(singles) - min(singles) <= 1e-15
