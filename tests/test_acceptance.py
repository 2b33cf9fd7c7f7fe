"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Seeded RNGs keep every sampled check reproducible.

Known red: criterion 5's first clause compares Psi(10^6, 10^3)/10^6 against
the Dickman limit rho(2) at tolerance 0.015.  The exact count is 344299
(confirmed here by two independent methods), giving |0.344299 - 0.306853| =
0.037 > 0.015: at x = 10^6 the finite-x convergence gap (~(1-gamma)/log x ~
0.031) exceeds the gate, so the clause fails as stated.  The assertion is
kept faithful rather than loosened.
"""

import io
import math
from fractions import Fraction

import numpy as np

from grimmsmooth import (
    alpha1_heuristic,
    alpha1_quartic,
    build_rho_table,
    check_dusart,
    delta_of_lambda,
    exponent_report,
    floor_decomposition,
    g,
    g1,
    gamma_theorem4,
    grimm_upper_bound,
    has_representation,
    psi,
    psi_window,
    ram_sum,
    rho,
)
from grimmsmooth.cli import run as cli_run
from oracles import distinct_primes, g1_prefix_union, g_exhaustive, psi_buchstab, trial_primes

SEED = 20260809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli_run(list(argv) + ["--manifest", "-"], stdout=buf)
    return code, buf.getvalue()


def test_criterion_01_grimm_verification_1e7():
    code, out = _cli(["verify-grimm", "--limit", "10000000", "--workers", "2"])
    row = out.splitlines()[1].split(",")
    runs, failures = int(row[1]), int(row[2])
    ok = code == 0 and failures == 0 and runs == 664577
    _report(1, ok, f"verify-grimm 1e7: runs={runs} failures={failures} exit={code}")


def test_criterion_02_gap_bound_1e7():
    code, out = _cli(["gap-scan", "--limit", "10000000", "--workers", "2"])
    row = out.splitlines()[1].split(",")
    pairs, violations, max_gap = int(row[1]), int(row[2]), int(row[3])
    ok = code == 0 and violations == 0 and pairs == 664578
    _report(
        2,
        ok,
        f"gap-scan 1e7: pairs={pairs} violations={violations} max_gap={max_gap}",
    )


def test_criterion_03_g_oracle_equivalence(table_1e4):
    bad = []
    for n in range(2, 301):
        gm = g(n, table_1e4)
        go = g_exhaustive(n)
        g1m = g1(n, table_1e4)
        g1o = g1_prefix_union(n)
        if gm != go or g1m != g1o or gm > g1m:
            bad.append((n, gm, go, g1m, g1o))
    _report(3, not bad, f"n<=300: matching vs backtracking SDR, g1 vs prefix union, g<=g1; mismatches={bad}")


def test_criterion_04_powers_of_two(table_1e5):
    values = {m: g(2**m, table_1e5) for m in range(4, 11)}
    ok = all(values[m] < 2**m for m in values)
    _report(4, ok, f"g(2^m) for m=4..10: {values}")


def test_criterion_05_dickman_consistency(table_1e6):
    # (a) global smooth count against the Dickman limit at x = 10^6
    count = psi(10**6, 10**3, table_1e6)
    count_oracle = psi_buchstab(10**6, 10**3, trial_primes(1000))
    ratio = count / 10**6
    target = 1 - math.log(2)
    dev = abs(ratio - target)
    a_ok = count == count_oracle and dev <= 0.015

    # (b) rho solver against the closed form on [1, 2], relative 1e-6
    t = build_rho_table(5.0)
    worst = 0.0
    for x in np.linspace(1.0, 2.0, 2001):
        exact = 1.0 - math.log(x) if x > 1 else 1.0
        worst = max(worst, abs(rho(float(x), t) - exact) / exact)
    b_ok = worst <= 1e-6

    # (c) step-halving self-consistency at grid nodes on [0, 5], 1e-8
    fine = build_rho_table(5.0, step=5e-4)
    diff = float(np.max(np.abs(fine.values[::2] - t.values)))
    c_ok = diff <= 1e-8

    detail = (
        f"Psi(1e6,1e3)={count} (oracle {count_oracle}), ratio={ratio:.6f}, "
        f"|ratio-rho(2)|={dev:.6f} (gate 0.015, {'ok' if a_ok else 'EXCEEDED'}); "
        f"rho vs analytic rel err={worst:.2e} (gate 1e-6); "
        f"step-halving={diff:.2e} (gate 1e-8)"
    )
    _report(5, a_ok and b_ok and c_ok, detail)


def test_criterion_06_window_bound_soundness(table_1e5):
    rng = np.random.default_rng(SEED)
    checked = 0
    violations = []
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        x = int(rng.integers(1000, 100_001))
        z = int(x**0.6)
        b = grimm_upper_bound(x, float(x**0.6), z, table_1e5)
        if b is None:
            continue
        checked += 1
        exact = g(x, table_1e5)
        if not exact < b.bound:
            violations.append((x, exact, b.bound))
    ok = checked == 100 and not violations
    _report(
        6,
        ok,
        f"smooth-window bound vs exact g on {checked} established x<=1e5: "
        f"violations={violations} (attempts={attempts})",
    )


def test_criterion_07_window_counts_three_decades(table_1e5):
    rng = np.random.default_rng(SEED)
    alpha = 0.455
    fractions = {}
    ok = True
    for decade in (10**6, 10**7, 10**8):
        hits = 0
        for x in rng.integers(decade, 10 * decade, size=50):
            x = int(x)
            y = x**alpha
            rep = psi_window(x, int(y), y, table_1e5)
            hits += rep.bound_established
        fractions[decade] = hits / 50
        ok = ok and hits / 50 >= 0.95
    _report(
        7,
        ok,
        f"alpha=0.455 window count > pi(x^alpha), fraction per decade: "
        + ", ".join(f"1e{int(math.log10(d))}: {f:.2f}" for d, f in fractions.items()),
    )


def test_criterion_08_window_density_1e8(table_1e4):
    lam = 1 / 30
    alpha = (1 - lam) / 2
    res = ram_sum(10**8, alpha, table_1e4, delta_target=0.25 + lam / 2)
    floor_target = 0.2667 - 0.05
    ok = res.normalized >= floor_target and res.sum == 5076
    _report(
        8,
        ok,
        f"x=1e8 lambda=1/30: S={res.sum} normalized={res.normalized:.6f} "
        f">= {floor_target:.4f}",
    )


def test_criterion_09_heuristic_1e8(table_1e4):
    res = ram_sum(10**8, 1 / 3, table_1e4)
    target = 0.405465
    rel = abs(res.normalized - target) / target
    ok = rel <= 0.10 and res.sum == 198
    _report(
        9,
        ok,
        f"x=1e8 alpha=1/3: S={res.sum} normalized={res.normalized:.6f}, "
        f"heuristic={target}, rel dev={rel:.3%} (gate 10%)",
    )


def test_criterion_10_exponent_constant():
    exact = exponent_report(Fraction(1, 30))
    rational_ok = exact.gamma == Fraction(1, 2) - Fraction(1, 390) == Fraction(97, 195)
    flt = gamma_theorem4((1 - 1 / 30) / 2, float(delta_of_lambda(1 / 30)))
    float_ok = abs(flt - (0.5 - 1 / 390)) <= 1e-12
    a1 = alpha1_heuristic(1 / 3)
    a1_ok = abs(a1 - 0.45762) <= 1e-5
    ok = rational_ok and float_ok and a1_ok
    _report(
        10,
        ok,
        f"gamma(1/30) = {exact.gamma} (exact rational), float dev "
        f"{abs(flt - (0.5 - 1/390)):.1e}; alpha1(1/3)={a1:.6f} "
        f"(quartic approx {alpha1_quartic(1/3):.6f}; historically quoted 0.4567)",
    )


def test_criterion_11_dusart_1e6():
    rep = check_dusart(10**6)
    ok = rep.ok
    _report(
        11,
        ok,
        f"pi bound: {len(rep.pi_violations)} violations over "
        f"{rep.pi_points_checked} points (min slack {rep.pi_min_slack:.4f}); "
        f"theta bound: {len(rep.theta_violations)} violations over "
        f"{rep.theta_primes_checked} primes (min slack {rep.theta_min_slack:.4f})",
    )


def test_criterion_12_property_suites(table_1e4, table_1e5):
    # Hall-certificate soundness on every non-representable window arising
    # from criteria 3-4: the step past g(n), re-derived and re-counted.
    hall_checked = 0
    hall_bad = []
    ns = list(range(2, 301)) + [2**m for m in range(4, 11)]
    for n in ns:
        table = table_1e4 if n <= 300 else table_1e5
        gn = g(n, table)
        res = has_representation(n, gn + 1, table)
        if res.representable:
            hall_bad.append((n, "unexpected representable"))
            continue
        wit = res.hall_witness
        union = set()
        for i in wit:
            union.update(distinct_primes(n + i))
        hall_checked += 1
        if len(union) >= len(wit):
            hall_bad.append((n, sorted(wit)))

    # window/global Psi consistency on a 1000-point grid
    psi_bad = []
    ys = (2, 3, 5, 17, 97, 500)
    for i, x in enumerate(range(1, 1001)):
        y = ys[i % len(ys)]
        if psi_window(0, x, y, table_1e4).count != psi(x, y, table_1e4):
            psi_bad.append((x, y))

    # floor/sawtooth decomposition identity on 1e4 random tuples
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        x = int(rng.integers(10, 10**8))
        alpha = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 5000))
        d = int(rng.integers(1, 100))
        lhs, rhs = floor_decomposition(x, alpha, n, d)
        worst = max(worst, abs(lhs - rhs))

    ok = not hall_bad and not psi_bad and worst <= 1e-9
    _report(
        12,
        ok,
        f"hall certificates: {hall_checked} checked, bad={hall_bad}; "
        f"psi window/global grid: bad={psi_bad}; "
        f"decomposition identity worst residual={worst:.2e} (gate 1e-9)",
    )
