"""Scaled prime-counting sums S(x, a) = sum_j [pi((x+x^a)/j) - pi(x/j)].

Each term counts primes q with jq landing in (x, x+x^a]; for a < 1/2 the
scaled windows are disjoint, so S counts distinct large prime divisors of
the window elements.  The short-interval heuristic predicts
S ~ -x^a log(1-a); exact evaluation shows the finite-x excess.
"""

from grimmsmooth import (
    build_table,
    phi_sum,
    r_d,
    ram_sum,
    scaled_intervals_disjoint,
)

table = build_table(10_001)  # primes to sqrt(x + W) for the sums at x <= 1e8

print("S(x, 1/3) against the heuristic -log(2/3) = 0.405465:")
print(" x        S     S/x^a    excess")
for e in (5, 6, 7, 8):
    res = ram_sum(10**e, 1 / 3, table)
    print(f" 10^{e}: {res.sum:>6}  {res.normalized:.6f}  "
          f"{(res.normalized / res.heuristic - 1):+.2%}")

# the window-density instantiation: alpha = (1 - 1/30)/2
lam = 1 / 30
res = ram_sum(10**8, (1 - lam) / 2, table, delta_target=0.25 + lam / 2)
print(f"\nlambda=1/30, x=1e8: S={res.sum}, normalized={res.normalized:.4f} "
      f"(target floor {res.delta_target:.4f})")

# disjointness of the scaled windows, the fact that makes S count
# *distinct* primes: [n/j, (n+k)/j] descend without touching while jk < n
n, k = 10**6, 999
print(f"\nwindows [n/j, (n+k)/j] for n={n}, k={k}: "
      f"first overlap at j={scaled_intervals_disjoint(n, k, k)}"
      f" (none below {n // k + 1})")

# remainder probes: the floor-difference sums R_d and the sawtooth sums
print("\nR_d at x=1e6, alpha=0.4, R=10, S=100:")
for d in (1, 2, 5, 10, 100):
    print(f"  d={d:<4} R_d={r_d(10**6, 0.4, 10, 100, d):>6}")

print("\nsawtooth sums phi(eta/n) over n in [V, 2V] "
      "(cancellation keeps them far below the trivial (V+1)/2):")
for V, eta in ((10, 12345), (100, 123456), (1000, 1234567)):
    s = phi_sum(V, 2 * V, eta)
    print(f"  V={V:<5} eta={eta:<8} sum={s:+.4f}  trivial bound {(V + 1) / 2:.1f}")
