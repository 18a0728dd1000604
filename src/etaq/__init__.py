"""etaq: exact q-series computations for eta quotients and Eisenstein
series on Gamma0(N).

The package computes with truncated formal q-series over exact rational
and cyclotomic coefficients: expansions of eta quotients and Eisenstein
combinations at infinity and at arbitrary cusps, exact orders of
vanishing, certified identity checking via Sturm bounds, and the
classification searches for eta quotients inside the Eisenstein spans
of prime-power levels (including derivative and second-derivative
pairs).
"""

from .arith import bernoulli, divisors, sigma
from .cyclotomic import CycNumber, cyclotomic_polynomial
from .series import QSeries, SeriesDomainError
from .eta import EtaQuotient, ModularityReport, parse_eta
from .eisenstein import (
    EisensteinElement,
    MembershipTag,
    eisenstein_series,
    match_eta,
    parse_element,
    sturm_bound,
    verify_identities,
)
from .cusps import (
    Cusp,
    CuspExpansion,
    check_order_bound,
    cusp_reps,
    expansion_at_cusp,
    order_at_cusp,
)
from .search import (
    DualPair,
    SearchResult,
    antiderivative,
    classify_second_derivatives_level4,
    dual_pairs_prime_power,
    enumerate_eta_in_e,
    second_derivative_ratio,
    verify_classification_lists,
)
from .kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "divisors",
    "sigma",
    "CycNumber",
    "cyclotomic_polynomial",
    "QSeries",
    "SeriesDomainError",
    "EtaQuotient",
    "ModularityReport",
    "parse_eta",
    "EisensteinElement",
    "MembershipTag",
    "eisenstein_series",
    "match_eta",
    "parse_element",
    "sturm_bound",
    "verify_identities",
    "Cusp",
    "CuspExpansion",
    "check_order_bound",
    "cusp_reps",
    "expansion_at_cusp",
    "order_at_cusp",
    "DualPair",
    "SearchResult",
    "antiderivative",
    "classify_second_derivatives_level4",
    "dual_pairs_prime_power",
    "enumerate_eta_in_e",
    "second_derivative_ratio",
    "verify_classification_lists",
    "KERNEL_BACKEND",
    "__version__",
]
