"""Closed-form exponent arithmetic for the g1 upper-bound pipeline.

Small, pure functions tying the pieces together: the window density
delta(lambda) = 1/4 + lambda/2 - eps', the exponent

    gamma(alpha, delta) = max(alpha, (1 - delta (1 - alpha)) / (2 - delta)),

and the short-interval heuristic variant

    alpha1(alpha) = max(alpha, (1 + (1 - alpha) log(1 - alpha))
                                / (2 + log(1 - alpha))).

delta_of_lambda and gamma_theorem4 are plain rational functions, so they
accept ``fractions.Fraction`` inputs and then return exact rationals; the
headline instantiation lambda = 1/30 -> gamma = 97/195 = 1/2 - 1/390 is
reproducible exactly that way.

alpha1_quartic is the quartic curve (2 - a + a^2 + a^3)/4 that approximates
the second branch of alpha1 for small alpha; it is kept as a diagnostic
because it visibly disagrees with the exact formula in the third decimal
(0.45370 vs 0.45762 at alpha = 1/3), and the scan helper reports where each
branch actually bottoms out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LAMBDA_LO = Fraction(1, 33)
LAMBDA_HI = Fraction(1, 29)


@dataclass(frozen=True)
class ExponentReport:
    lam: float | Fraction
    alpha: float | Fraction
    delta: float | Fraction
    gamma: float | Fraction
    alpha1: float | None = None


def delta_of_lambda(lam, eps_prime=0):
    """1/4 + lambda/2 - eps', for lambda strictly inside (1/33, 1/29)."""
    if not LAMBDA_LO < lam < LAMBDA_HI:
        raise ValueError(
            f"lambda must lie strictly in (1/33, 1/29) "
            f"~ (0.030303, 0.034483), got {lam}"
        )
    if eps_prime < 0:
        raise ValueError(f"eps_prime must be >= 0, got {eps_prime}")
    return Fraction(1, 4) + lam / 2 - eps_prime


def gamma_theorem4(alpha, delta):
    """max(alpha, (1 - delta (1 - alpha)) / (2 - delta)).

    Defined for 0 < alpha < 1/2 and 0 <= delta <= 1 (the closed endpoints
    are the degenerate boundary cases: delta=0 gives 1/2, delta=1 gives
    alpha).
    """
    if not 0 < alpha < Fraction(1, 2):
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha}")
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    return max(alpha, (1 - delta * (1 - alpha)) / (2 - delta))


def alpha1_heuristic(alpha: float) -> float:
    """max(alpha, (1 + (1-alpha) log(1-alpha)) / (2 + log(1-alpha)))."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    log1a = math.log1p(-alpha)
    den = 2.0 + log1a
    if den <= 0:
        raise ValueError(
            f"formula has a pole at alpha = 1 - e^-2 ~ 0.8647; got {alpha}"
        )
    return max(alpha, (1.0 + (1.0 - alpha) * log1a) / den)


def alpha1_quartic(alpha: float) -> float:
    """Diagnostic quartic approximation (2 - a + a^2 + a^3)/4."""
    return (2.0 - alpha + alpha**2 + alpha**3) / 4.0


@dataclass(frozen=True)
class Alpha1Scan:
    """Where the alpha1 branches bottom out on a grid."""

    alpha_branch_min: float  # argmin of the second branch
    branch_min: float
    alpha_combined_min: float  # argmin of max(alpha, branch)
    combined_min: float


def alpha1_scan(lo: float = 1e-4, hi: float = 0.8, step: float = 1e-4) -> Alpha1Scan:
    """Grid scan of the second branch and of the full max-expression."""
    if not 0 < lo < hi < 1 - math.exp(-2):
        raise ValueError("need 0 < lo < hi < 1 - e^-2")
    a = np.arange(lo, hi + step / 2, step)
    log1a = np.log1p(-a)
    branch = (1.0 + (1.0 - a) * log1a) / (2.0 + log1a)
    combined = np.maximum(a, branch)
    ib = int(np.argmin(branch))
    ic = int(np.argmin(combined))
    return Alpha1Scan(
        alpha_branch_min=float(a[ib]),
        branch_min=float(branch[ib]),
        alpha_combined_min=float(a[ic]),
        combined_min=float(combined[ic]),
    )


def exponent_report(lam, eps_prime=0) -> ExponentReport:
    """Full pipeline lambda -> (alpha, delta, gamma, alpha1).

    alpha = (1 - lambda)/2 and delta = delta_of_lambda(lambda, eps');
    Fraction inputs keep alpha/delta/gamma exact (alpha1 is always float).
    """
    alpha = (1 - lam) / 2
    delta = delta_of_lambda(lam, eps_prime)
    gamma = gamma_theorem4(alpha, delta)
    return ExponentReport(
        lam=lam,
        alpha=alpha,
        delta=delta,
        gamma=gamma,
        alpha1=alpha1_heuristic(float(alpha)),
    )
