"""Protected gap of the pair chain as the chain grows.

The chain Hamiltonian conserves one four-body check per cell. In the
exact Clifford frame where each check is one Z, the sector with every
check at +1 is one block of dimension 2^N rather than the 2^(2N) of the
full chain, and only that block is built. Its two lowest levels come
from a dense solve, and
their splitting approaches the single-cell value 2J - 4*lam as N grows.
N = 3..10 runs in well under a second.
"""

from clusterprep import chain_sector_gap, gap_closed_form

J, lam = 1.0, 0.2
target = gap_closed_form("1d", J, lam)
print("J = %g, lam = %g, closed-form single-cell gap 2J - 4 lam = %g" % (J, lam, target))
print()
print(" N   qubits   sector dim   sector gap   deviation")
for N in range(3, 11):
    levels = chain_sector_gap(N, J, lam)
    gap = levels[1] - levels[0]
    print("%2d   %6d   %10d   %10.6f   %+8.2e" % (N, 2 * N, 2 ** N, gap, gap - target))
