import math
from fractions import Fraction

import numpy as np
import pytest

from grimmsmooth import (
    alpha1_heuristic,
    alpha1_quartic,
    alpha1_scan,
    delta_of_lambda,
    exponent_report,
    gamma_theorem4,
)


def test_delta_examples():
    assert math.isclose(delta_of_lambda(1 / 30), 1 / 4 + 1 / 60)
    assert math.isclose(delta_of_lambda(1 / 32), 0.265625)
    full = delta_of_lambda(1 / 30)
    assert delta_of_lambda(1 / 30, eps_prime=full) == 0.0


def test_delta_domain():
    # the interval is open: the exact endpoints are rejected
    with pytest.raises(ValueError, match="1/33"):
        delta_of_lambda(Fraction(1, 33))
    with pytest.raises(ValueError):
        delta_of_lambda(Fraction(1, 29))
    with pytest.raises(ValueError):
        delta_of_lambda(0.03)
    with pytest.raises(ValueError):
        delta_of_lambda(0.05)
    with pytest.raises(ValueError):
        delta_of_lambda(1 / 30, eps_prime=-0.1)


def test_delta_exact_rational():
    assert delta_of_lambda(Fraction(1, 30)) == Fraction(4, 15)


def test_gamma_examples():
    lam = 1 / 30
    got = gamma_theorem4((1 - lam) / 2, 1 / 4 + lam / 2)
    assert math.isclose(got, 0.5 - 1 / 390, abs_tol=1e-12)
    assert gamma_theorem4(0.3, 0.0) == 0.5
    assert gamma_theorem4(0.3, 1.0) == pytest.approx(0.3)


def test_gamma_exact_rational():
    got = gamma_theorem4(Fraction(29, 60), Fraction(4, 15))
    assert got == Fraction(97, 195) == Fraction(1, 2) - Fraction(1, 390)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_theorem4(0.5, 0.2)
    with pytest.raises(ValueError):
        gamma_theorem4(0.3, 1.1)
    with pytest.raises(ValueError):
        gamma_theorem4(0.0, 0.5)


def test_gamma_below_half_on_grid():
    alphas = np.arange(1e-3, 0.5, 1e-3)
    deltas = np.arange(1e-3, 1.0, 1e-3)
    for a in alphas[::7]:
        vals = [gamma_theorem4(float(a), float(d)) for d in deltas[::7]]
        assert all(v < 0.5 for v in vals)
        # nonincreasing in delta for fixed alpha
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


def test_alpha1_values():
    assert abs(alpha1_heuristic(1 / 3) - 0.45762) < 1e-5
    # alpha -> 0: branch tends to 1/2
    assert alpha1_heuristic(1e-9) == pytest.approx(0.5, abs=1e-8)
    # fixed point at alpha = 1/2
    assert alpha1_heuristic(0.5) == pytest.approx(0.5)


def test_alpha1_pole():
    with pytest.raises(ValueError, match="pole"):
        alpha1_heuristic(0.9)
    with pytest.raises(ValueError):
        alpha1_heuristic(1.5)


def test_alpha1_quartic_disagrees_in_third_decimal():
    exact = alpha1_heuristic(1 / 3)
    quart = alpha1_quartic(1 / 3)
    assert abs(quart - 49 / 108) < 1e-15  # 0.453703...
    assert 3e-3 < exact - quart < 5e-3


def test_alpha1_scan_against_grid_oracle():
    scan = alpha1_scan(step=1e-4)
    # independent brute grid with plain math
    best_b, best_ba = None, None
    best_c, best_ca = None, None
    a = 1e-4
    while a <= 0.8:
        l = math.log1p(-a)
        b = (1 + (1 - a) * l) / (2 + l)
        c = max(a, b)
        if best_b is None or b < best_b:
            best_b, best_ba = b, a
        if best_c is None or c < best_c:
            best_c, best_ca = c, a
        a += 1e-4
    assert scan.branch_min == pytest.approx(best_b, abs=1e-12)
    assert scan.alpha_branch_min == pytest.approx(best_ba, abs=1e-9)
    assert scan.combined_min == pytest.approx(best_c, abs=1e-12)
    assert scan.alpha_combined_min == pytest.approx(best_ca, abs=1e-9)


def test_pipeline_instantiation():
    rep = exponent_report(1 / 30)
    assert math.isclose(rep.gamma, 0.5 - 1 / 390, abs_tol=1e-12)
    assert rep.alpha == (1 - 1 / 30) / 2
    exact = exponent_report(Fraction(1, 30))
    assert exact.gamma == Fraction(97, 195)
    assert exact.alpha1 is not None  # float diagnostic still filled
