"""etaq: exact q-series computations for eta quotients and Eisenstein
series on Gamma0(N).

The package computes with truncated formal q-series over exact rational
and cyclotomic coefficients: expansions of eta quotients and Eisenstein
combinations at infinity and at arbitrary cusps, exact orders of
vanishing, certified identity checking via Sturm bounds, and the
classification searches for eta quotients inside the Eisenstein spans
of prime-power levels (including derivative and second-derivative
pairs).

``import etaq`` loads no submodule.  Each exported name and each
submodule is imported on first access (PEP 562), and an exported name
is looked up in its submodule on every access, so ``etaq.X`` is always
``etaq.<module>.X``, even after that attribute has been replaced.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "arith": ("bernoulli", "divisors", "sigma"),
    "cyclotomic": ("CycNumber", "cyclotomic_polynomial"),
    "series": ("QSeries", "SeriesDomainError"),
    "eta": ("EtaQuotient", "ModularityReport", "parse_eta"),
    "eisenstein": (
        "EisensteinElement",
        "MembershipTag",
        "eisenstein_series",
        "match_eta",
        "parse_element",
        "sturm_bound",
        "verify_identities",
    ),
    "cusps": (
        "Cusp",
        "CuspExpansion",
        "check_order_bound",
        "cusp_reps",
        "expansion_at_cusp",
        "order_at_cusp",
    ),
    "search": (
        "DualPair",
        "SearchResult",
        "antiderivative",
        "classify_second_derivatives_level4",
        "dual_pairs_prime_power",
        "enumerate_eta_in_e",
        "second_derivative_ratio",
        "verify_classification_lists",
    ),
}

# exported name -> (submodule, attribute there)
_WHERE = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_WHERE["KERNEL_BACKEND"] = ("kernels", "BACKEND")

_SUBMODULES = (
    "arith", "cli", "cusps", "cyclotomic", "eisenstein", "eta", "kernels", "linalg", "search", "series",
)

__all__ = [*_WHERE, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module, attr = _WHERE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
