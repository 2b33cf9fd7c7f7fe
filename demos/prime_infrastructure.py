"""Tour of the exact prime infrastructure.

Builds a ten-million table and queries pi, lists primes from the segment
sieve, and runs the two scan-style checks (prime gaps against
1 + (log p)^2, and the explicit pi/theta bounds), which sieve their own
primes and need no table.
"""

import math
import time

from grimmsmooth import PrimeTable, check_dusart, gap_check, segments

t0 = time.time()
table = PrimeTable(10_000_000)
print(f"built table to 1e7 in {time.time() - t0:.2f}s")

# point queries are exact
print(f"pi(1e7)    = {table.pi(10_000_000):,}")
ps = table.primes_to(10_000_000)
print(f"p_100000   = {ps[100_000 - 1]:,}")
print(f"pi(p_t) == t round trip: {table.pi(int(ps[100_000 - 1])) == 100_000}")

# the segment sieve lists the primes of any range, one chunk at a time
window = [p for seg in segments(10**12, 10**12 + 200) for p in seg.tolist()]
print(f"primes in [1e12, 1e12 + 200]: {window}")

# the first few prime gaps, with the Cramer-style comparison bound
print("\nfirst gaps vs 1 + (log p)^2:")
ps = table.primes_to(30).tolist()
for p, q in zip(ps, ps[1:]):
    bound = 1 + math.log(p) ** 2
    print(f"  p={p:<3} next={q:<3} gap={q - p}  "
          f"bound={bound:6.2f}  ok={q - p < bound}")

# the full scan to 1e7: the bound holds with room to spare
s = gap_check(10_000_000)
worst = 1 + math.log(s.max_gap_p) ** 2
print(f"\ngaps to 1e7: {s.pairs:,} pairs, 0 violations expected "
      f"-> got {len(s.violations)}")
print(f"largest gap {s.max_gap} after p={s.max_gap_p:,} "
      f"(bound there {worst:.1f})")

# explicit bounds: pi(x) < (x/log x)(1 + 1.2762/log x), theta(x) <= 1.00008 x
rep = check_dusart(1_000_000)
print(f"\nexplicit bounds to 1e6: ok={rep.ok}")
print(f"  pi bound:    {rep.pi_points_checked:,} integers checked, "
      f"min slack {rep.pi_min_slack:.4f}")
print(f"  theta bound: {rep.theta_primes_checked:,} primes checked, "
      f"min slack {rep.theta_min_slack:.4f}")
