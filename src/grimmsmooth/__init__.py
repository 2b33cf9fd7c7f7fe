"""grimmsmooth: exact computations around Grimm's conjecture.

Prime representations of composite runs (g, g1, Hall certificates), smooth
numbers in short windows (Psi counts and the g upper-bound criterion), the
Dickman rho function, scaled prime-counting sums, and the exponent
arithmetic tying them together.
"""

from .dickman import RhoTable, build_rho_table, rho
from .exponents import (
    Alpha1Scan,
    ExponentReport,
    alpha1_heuristic,
    alpha1_quartic,
    alpha1_scan,
    delta_of_lambda,
    exponent_report,
    gamma_theorem4,
)
from .grimm import (
    GrimmRunReport,
    RepresentationResult,
    SearchCapExceeded,
    VerifySummary,
    g,
    g1,
    has_representation,
    verify_grimm_summary,
)
from .primes import (
    DusartReport,
    GapRecord,
    GapScanSummary,
    PrimeTable,
    TableLimitError,
    check_dusart,
    gap_check,
    pi_table,
    prime_pi,
    segments,
)
from .smooth import (
    ExceptionalScanReport,
    SmoothWindowReport,
    exceptional_scan,
    grimm_upper_bound,
    psi,
    psi_part,
    psi_window,
)
from .sums import (
    RamSumResult,
    floor_decomposition,
    phi,
    phi_sum,
    r_d,
    ram_sum,
    scaled_intervals_disjoint,
    window_exponent_floor,
)

__version__ = "0.2.0"

__all__ = [
    "Alpha1Scan",
    "DusartReport",
    "ExceptionalScanReport",
    "ExponentReport",
    "GapRecord",
    "GapScanSummary",
    "GrimmRunReport",
    "PrimeTable",
    "RamSumResult",
    "RepresentationResult",
    "RhoTable",
    "SearchCapExceeded",
    "SmoothWindowReport",
    "TableLimitError",
    "VerifySummary",
    "alpha1_heuristic",
    "alpha1_quartic",
    "alpha1_scan",
    "build_rho_table",
    "check_dusart",
    "delta_of_lambda",
    "exceptional_scan",
    "exponent_report",
    "floor_decomposition",
    "g",
    "g1",
    "gamma_theorem4",
    "gap_check",
    "grimm_upper_bound",
    "has_representation",
    "phi",
    "phi_sum",
    "pi_table",
    "prime_pi",
    "psi",
    "psi_part",
    "psi_window",
    "r_d",
    "ram_sum",
    "rho",
    "scaled_intervals_disjoint",
    "segments",
    "verify_grimm_summary",
    "window_exponent_floor",
]
