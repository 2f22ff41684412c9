"""Map the temperature threshold of the preparation protocol.

For each initial coupling and ramp duration, bisect for the highest
temperature at which the summed phase-flip error of the final state
still meets a 3% target. A slower ramp tolerates a hotter start. The
same target applied to the bare thermal state (no evolution at all)
gives a threshold orders of magnitude lower, or none at all inside the
bracket when even the cold limit misses the target.
"""

import time

from clusterprep import run_point, threshold_temperature

TARGET = 0.03
BRACKET = (1e-4, 3.0)

print("threshold temperature at %.0f%% total phase-flip error" % (100 * TARGET))
print()
print("lam0   tau    T*")
for lam0 in (1.5, 2.5):
    for tau in (2.0, 5.0, 10.0):
        t0 = time.perf_counter()
        t_star = threshold_temperature(lam0, tau, bracket=BRACKET, tol=1e-7)
        dt = time.perf_counter() - t0
        shown = "none in bracket" if t_star is None else "%.6f" % t_star
        print("%4.1f  %5.1f   %-16s (%.2f s)" % (lam0, tau, shown, dt))

print()
print("without any evolution the cold thermal state already misses the")
print("target once the coupling dresses the ground state appreciably:")
for lam0 in (0.3, 1.5, 2.5):
    cold = run_point(1e-4, lam0, None)
    t_raw = threshold_temperature(lam0, None, bracket=BRACKET)
    shown = "none in bracket" if t_raw is None else "%.6f" % t_raw
    print("  lam0=%.1f  cold e_zeta=%.4f  raw T*=%s" % (lam0, cold.e_zeta, shown))
