"""Dickman's rho: the density of smooth numbers, tabulated on a fixed grid.

rho is the continuous solution of rho(t) = 1 on [0, 1] and
-t rho'(t) = rho(t - 1) for t >= 1; it gives the limiting density
Psi(x, x^(1/t)) / x of x^(1/t)-smooth numbers.

The solver integrates the equivalent integral form

    rho(t_{i+1}) = rho(t_i) - integral_{t_i}^{t_{i+1}} rho(u - 1) / u du

with the trapezoid rule on a uniform grid whose step divides 1 exactly, so
the lagged value rho(u - 1) is always a grid node and the kinks of rho at
integer t always fall on nodes.  The increments on a unit interval
(k, k + 1] read only nodes of [k - 1, k], so each unit is one numpy step: a
running sum of rho(k) and the negated increments, added in the recurrence's
own order, so every node is the double a node-by-node loop gives
(x - y and x + (-y) round alike).  One Richardson extrapolation step (solve
at h and h/2, combine) removes the leading h^2 error term; the h-vs-h/2
discrepancy is kept as the table's self-consistency metadata.  Against the
closed form 1 - log t on [1, 2] the extrapolated grid is accurate to ~1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_T_MAX = 8.0
DEFAULT_STEP = 1e-3

# Accuracy degrades (relatively) as rho decays; past ~30 the tabulated tail
# would be extrapolation noise, so refuse to build that far.
MAX_T = 32.0

# Finest grid, in nodes per unit of t.  The fine solve holds 2 t_max m + 1
# doubles (about 51 MB at m = 10^5 and t_max = 32), and the extrapolated
# grid is at rounding level from m = 1000 on, so a finer step costs memory
# for nothing.
MAX_NODES_PER_UNIT = 10**5


@dataclass(frozen=True)
class RhoTable:
    """rho on the grid i * step, 0 <= i <= t_max / step."""

    t_max: float
    step: float
    values: np.ndarray
    max_self_consistency_error: float


def _integrate(nodes_per_unit: int, n_nodes: int) -> np.ndarray:
    m = nodes_per_unit
    vals = np.ones(n_nodes + 1)
    h = 1.0 / m
    half_h = 0.5 * h
    # one unit interval (k, k+1] per step, the last one perhaps partial
    for lo in range(m, n_nodes, m):
        hi = min(lo + m, n_nodes)
        f = vals[lo - m : hi - m + 1] / (np.arange(lo, hi + 1) * h)
        steps = np.empty(hi - lo + 1)
        steps[0] = vals[lo]
        np.multiply(f[:-1] + f[1:], -half_h, out=steps[1:])
        np.add.accumulate(steps, out=vals[lo : hi + 1])
    return vals


def nodes_per_unit(step: float) -> int | None:
    """The integer m in [2, MAX_NODES_PER_UNIT] with step = 1/m, or None if
    there is none."""
    if not 0 < step <= 0.5 or not math.isfinite(1.0 / step):
        return None
    m = round(1.0 / step)
    return m if m <= MAX_NODES_PER_UNIT and abs(m * step - 1.0) <= 1e-9 else None


def build_rho_table(t_max: float = DEFAULT_T_MAX, step: float = DEFAULT_STEP) -> RhoTable:
    """Tabulate rho on [0, t_max] with the given step (step must divide 1)."""
    if not 1.0 <= t_max <= MAX_T:
        raise ValueError(f"t_max must be in [1, {MAX_T}], got {t_max}")
    m = nodes_per_unit(step)
    if m is None:
        raise ValueError(
            f"step must be 1/m for an integer m in [2, {MAX_NODES_PER_UNIT}], "
            f"got {step}"
        )
    n = round(t_max * m)
    coarse = _integrate(m, n)
    fine = _integrate(2 * m, 2 * n)[::2]
    err = float(np.max(np.abs(fine - coarse)))
    values = (4.0 * fine - coarse) / 3.0
    return RhoTable(
        t_max=n / m, step=1.0 / m, values=values, max_self_consistency_error=err
    )


def rho(t: float, table: RhoTable) -> float:
    """rho(t) by linear interpolation on the table's grid."""
    if t < 0 or t > table.t_max + 1e-12:
        raise ValueError(f"t must be in [0, {table.t_max}], got {t}")
    if t <= 1.0:
        return 1.0
    pos = t / table.step
    i = min(int(math.floor(pos)), len(table.values) - 2)
    frac = pos - i
    return float((1.0 - frac) * table.values[i] + frac * table.values[i + 1])
