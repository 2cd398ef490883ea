"""Exact analysis of nearly-subadditive sequences.

Verification scans, certified slope brackets, doubling-chain certificates,
2-good merge chains, and explicit constructions, all in arbitrary-precision
rational arithmetic.

Each name of ``__all__``, and each of the modules ``checker``,
``constructions``, ``limits`` and ``model``, is loaded on its first use
(PEP 562), so a program that uses one module compiles no other.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them: the one list of them.
# Each module's ``__all__`` is its entry, and the package finds a name's
# module here without importing any.
_EXPORTS = {
    "checker": (
        "QSequence",
        "Violation",
        "ViolationReport",
        "check_convexity",
        "check_q_monotone",
        "q_sequence",
        "scan_violations",
    ),
    "constructions": (
        "ConstructionOutput",
        "HorizonExhausted",
        "TwoGoodChain",
        "convex_from_error",
        "enumerate_rationals",
        "linear_error_example",
        "rational_slope_sequence",
        "simplest_rational_in",
        "threshold_gap_example",
        "two_good_chain",
    ),
    "limits": (
        "Eq8Sample",
        "LimitBracket",
        "MuChainCertificate",
        "chain_coverage_failures",
        "fekete_bracket",
        "find_split",
        "g_deficit",
        "mu_chain_certificate",
        "smoothed",
    ),
    "model": (
        "ErrorTerm",
        "ExplicitDomain",
        "FullDomain",
        "IntervalDomain",
        "MuBandDomain",
        "OnePlusDomain",
        "PairDomain",
        "SequencePrefix",
        "ThresholdDomain",
        "builtin_error_term",
        "family_parameters",
        "format_rational",
        "parse_ascii_int",
        "parse_error_term",
        "parse_rational",
        "parse_sequence",
        "sequence_to_csv",
        "sequence_to_json",
        "zero_error_term",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
