"""Grimm's function g(n) and its relaxation g1(n).

g(n) is the largest k such that n+1, ..., n+k can be assigned pairwise
distinct prime divisors; g1(n) only asks that the product of each prefix
have at least as many distinct prime factors as its length.  The matching
decision produces either an explicit assignment or a Hall-violation
certificate, and both are shown below.
"""

from grimmsmooth import (
    PrimeTable,
    g,
    g1,
    has_representation,
    verify_grimm_summary,
)

table = PrimeTable(1_000_000)

# a window that works: 9, 10, 11 get 3, 2, 11
res = has_representation(8, 3, table)
print("window 9..11:", "representable, assignment",
      {8 + i: p for i, p in enumerate(res.assignment, start=1)})

# a window that cannot work: 3,4,5,6 -- the offsets {3,4,6} only ever see
# the primes {2,3}
res = has_representation(2, 4, table)
print("window 3..6: representable?" , res.representable,
      "| Hall witness offsets:", sorted(res.hall_witness),
      "-> elements", [2 + i for i in sorted(res.hall_witness)])

# g and g1 for small n
print("\n n :  g  g1")
for n in [2, 3, 10, 16, 32, 64, 100, 1000, 10_000, 100_000]:
    print(f"{n:>7}: {g(n, table):>3} {g1(n, table):>3}")

# powers of two stay below the trivial barrier g(2^m) < 2^m
print("\ng(2^m) vs 2^m:")
for m in range(4, 11):
    print(f"  m={m:<2} g={g(2**m, table):>4}  2^m={2**m}")

# every composite run between consecutive primes is representable: the
# first few with their certificates, then a whole range at once
print("\nfirst composite runs:")
ps = table.primes_to(50).tolist()
for p, q in zip(ps, ps[1:]):
    if q - p > 1:
        res = has_representation(p, q - p - 1, table)
        cert = res.assignment if res.representable else sorted(res.hall_witness)
        status = "ok" if res.representable else "FAIL"
        print(f"  after p={p:<3} run of {q - p - 1}: {status} {cert}")

s = verify_grimm_summary(1_000_000, table)
print(f"\nall runs below 1e6: {s.runs:,} runs, {len(s.failures)} failures, "
      f"longest run {s.max_k} after p={s.max_k_p:,}")
