import math

import numpy as np
import pytest
from scipy.integrate import quad

from grimmsmooth import build_rho_table, dickman, rho
from grimmsmooth.smooth import scan_c0
from oracles import rho_grid_loop


def test_flat_part_and_range():
    t = build_rho_table(5.0)
    assert rho(0.0, t) == 1.0
    assert rho(0.5, t) == 1.0
    assert rho(1.0, t) == 1.0
    with pytest.raises(ValueError):
        rho(-0.1, t)
    with pytest.raises(ValueError):
        rho(5.5, t)


def test_build_validation():
    with pytest.raises(ValueError):
        build_rho_table(t_max=0.5)
    with pytest.raises(ValueError):
        build_rho_table(step=0.3)  # does not divide 1
    with pytest.raises(ValueError):
        build_rho_table(t_max=100.0)


def test_finest_step_is_bounded(monkeypatch):
    # the bound is checked before any grid is built
    def refuse(m, n):
        raise AssertionError(f"built a grid of {n} nodes")

    monkeypatch.setattr(dickman, "_integrate", refuse)
    top = dickman.MAX_NODES_PER_UNIT
    assert top == 10**5
    assert dickman.nodes_per_unit(1e-5) == top
    for step in (1 / (top + 1), 1e-9):
        assert dickman.nodes_per_unit(step) is None
        with pytest.raises(ValueError, match=rf"m in \[2, {top}\]"):
            build_rho_table(step=step)


def test_analytic_on_1_2():
    # closed form on [1, 2] is 1 - log t; target 1e-6 relative, achieved ~1e-15
    t = build_rho_table(3.0)
    for x in np.linspace(1.0, 2.0, 997):
        exact = 1.0 - math.log(x) if x > 1 else 1.0
        assert abs(rho(float(x), t) - exact) <= 1e-6 * max(exact, 1e-12)


def test_rho2_value():
    t = build_rho_table(3.0)
    assert abs(rho(2.0, t) - (1 - math.log(2))) < 1e-12


def test_quadrature_oracle_on_2_3():
    # rho(t) = rho(2) - int_2^t (1 - log(u-1))/u du on [2, 3]
    t = build_rho_table(4.0)
    rho2 = 1 - math.log(2)
    for x in (2.2, 2.5, 2.8, 3.0):
        ival, err = quad(lambda u: (1 - math.log(u - 1)) / u, 2, x, epsabs=1e-13)
        assert abs(rho(x, t) - (rho2 - ival)) < 1e-10


def test_step_halving_self_consistency():
    # table nodes at h=1e-3 vs h=5e-4 agree far below the 1e-8 gate
    a = build_rho_table(5.0, step=1e-3)
    b = build_rho_table(5.0, step=5e-4)
    diff = np.max(np.abs(b.values[::2] - a.values))
    assert diff <= 1e-8
    # rho(3) is stable to 1e-8 under halving
    assert abs(rho(3.0, a) - rho(3.0, b)) <= 1e-8


def test_reported_self_consistency_metadata():
    t = build_rho_table(5.0)
    # raw trapezoid h-vs-h/2 discrepancy: small but honest (not zero)
    assert 0 < t.max_self_consistency_error < 1e-6


def test_monotone_decreasing_positive():
    t = build_rho_table(8.0)
    m = round(1 / t.step)
    tail = t.values[m:]
    assert np.all(np.diff(tail) < 0)
    assert np.all(t.values > 0)
    assert np.all(t.values <= 1.0)


def test_known_deep_values():
    # independent literature-grade checks of the decay
    t = build_rho_table(8.0)
    assert abs(rho(5.0, t) - 3.547247e-4) < 1e-9
    assert abs(rho(8.0, t) - 3.232069e-8) < 1e-12


def test_interpolation_between_nodes():
    t = build_rho_table(3.0)
    # midpoints on [1,2] still meet the analytic target
    for x in (1.0005, 1.2345678, 1.9998765):
        assert abs(rho(x, t) - (1 - math.log(x))) < 1e-6


@pytest.mark.parametrize("m", [2, 3, 7, 1000, 2000])
def test_unit_steps_equal_the_node_loop(m):
    # n = m takes no step, m + 1 and 3m + 7 end in a partial unit, 2m - 1 is
    # one partial unit and 5m whole units only: every node is the same double
    for n in (m, m + 1, 2 * m - 1, 3 * m + 7, 5 * m):
        assert np.array_equal(dickman._integrate(m, n), rho_grid_loop(m, n)), n


def test_scan_c0_pinned():
    # the default c0 of `exceptional-scan --eps 0.3`, whose output prints it
    # by repr: rho(1/0.3) / 2 off the table to t_max = 5
    assert scan_c0(0.3, 4, None) == 0.011825075096236447
