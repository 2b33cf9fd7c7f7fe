"""Smooth numbers: global counts, short windows, the Dickman density, and
the certified upper bound they force on g.

The punchline: a window (x, x+z] holding more than pi(y) many y-smooth
numbers cannot receive distinct prime divisors, so g(x) < z -- no matching
required, just counting.
"""

import math

from grimmsmooth import (
    PrimeTable,
    build_rho_table,
    g,
    grimm_upper_bound,
    psi,
    psi_window,
    rho,
)

table = PrimeTable(1_000_000)

# exact global counts
print("Psi(10, 3)      =", psi(10, 3, table), "   (1,2,3,4,6,8,9)")
print("Psi(10^6, 10^3) =", psi(10**6, 10**3, table))

# Dickman's density: Psi(x, x^(1/t))/x -> rho(t); the approach is slow,
# with a visible O(1/log x) excess at desk scale
rt = build_rho_table(6.0)
print("\n x        Psi(x, sqrt(x))/x   rho(2)")
for e in (4, 5, 6):
    x = 10**e
    ratio = psi(x, math.isqrt(x), table) / x
    print(f" 10^{e}:    {ratio:.6f}          {rho(2.0, rt):.6f}")

print("\nrho on the integer grid (via the tabulated delay equation):")
for t in (1.0, 1.5, 2.0, 3.0, 5.0):
    print(f"  rho({t}) = {rho(t, rt):.8g}")
print("  closed form on [1,2] is 1 - log t; at t=2:",
      f"{abs(rho(2.0, rt) - (1 - math.log(2))):.2e} away")

# the window criterion: more smooth numbers than available primes
x = 50_000
y = z = int(x**0.6)
report = psi_window(x, z, float(y), table)
print(f"\nwindow ({x}, {x + z}] with y={y}: {report.count} smooth numbers "
      f"vs pi(y)={report.pi_y}")
bound = grimm_upper_bound(x, float(y), z, table)
if bound is not None:
    exact = g(x, table)
    print(f"criterion fires: g({x}) < {bound.z} certified "
          f"(first/last smooth: {bound.smooth_head}, {bound.smooth_tail})")
    print(f"exact g({x}) = {exact}  -> bound honest: {exact < bound.z}")
else:
    print("criterion did not fire at these parameters")

# the same criterion runs far beyond where exact g is computable
x = 10**8
y = z = int(x**0.455)
b = grimm_upper_bound(x, x**0.455, z, table)
print(f"\nat x=1e8 with y=z=x^0.455: established={b is not None}"
      + (f", so g(1e8) < {b.z}" if b else ""))
