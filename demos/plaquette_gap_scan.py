"""Scan the four-spin plaquette spectrum over the transverse coupling.

Prints the low-lying levels with their parity sector, the global gap,
and the gap restricted to the even-check sector. The global gap closes
as the coupling is switched off (the two cluster-frame ground states
become degenerate) while the sector gap stays open; the sector gap is
the one that protects the preparation.
"""

import numpy as np

from clusterprep import gap_closed_form, spectrum_scan
from clusterprep.models import plaquette_ring_term

J = 1.0
grid = np.linspace(0.0, 2.0, 9)

table = spectrum_scan(grid, plaquette_ring_term(J))

print("lam      E0        E1        E2      gap_global  gap_sector  closed form")
for i, lam in enumerate(table.axis):
    e = table.energies[i]
    print("%.3f  %8.4f  %8.4f  %8.4f   %9.6f  %9.6f   %9.6f"
          % (lam, e[0], e[1], e[2],
             table.gap_global[i], table.gap_sector[i],
             gap_closed_form("3d", J, lam)))

print()
print("ground state sector along the scan:",
      "".join("+" if s > 0 else "-" for s in table.sectors[:, 0]))
print("min sector gap over the scan: %.6f" % table.min_gap_sector())

# at lam = 0 the degenerate ground pair is one state per sector
i0 = int(np.argmin(np.abs(table.axis)))
print("levels at lam=0:", np.round(table.energies[i0, :4], 10))
print("sectors at lam=0:", table.sectors[i0, :4])
