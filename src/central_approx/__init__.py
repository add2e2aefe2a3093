"""Asymptotics of annealed partition functions, exact to the constant factor.

The package computes E[Z] (and replica powers E[Z^n]) for mean-field and
sparse factor-graph ensembles two ways: exactly, as guarded sums over
empirical types, and asymptotically, as e^{N F} times a Gaussian constant
factor obtained from a central approximation of the type sum.  Agreement of
the two routes is the core acceptance test.

The public names below load their module on first use (PEP 562), so
``import central_approx`` and the command-line start-up load no numpy
until a model is built.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "Alphabet": "types_core",
    "DenseModelSpec": "dense",
    "PolyOverlap": "dense",
    "zero_local": "dense",
    "field_local": "dense",
    "exact_type_sum": "dense",
    "solve_variational": "dense",
    "central_approx_constant": "dense",
    "RSParams": "replica_rs",
    "rs_determinant": "replica_rs",
    "rs_correction_n0": "replica_rs",
    "sk_paramagnetic_correction": "replica_rs",
    "dense_type_covariance": "clt",
    "overlap_covariance": "clt",
    "fg_type_covariances": "clt",
    "EnsembleSpec": "factor_graph",
    "make_ensemble": "factor_graph",
    "exact_expected_Z": "factor_graph",
    "exact_expected_Z_exact": "factor_graph",
    "solve_bethe": "factor_graph",
    "fg_constant_log": "factor_graph",
    "fg_asymptotic_estimate": "factor_graph",
    "lattice_step_s": "factor_graph",
    "ldpc_expected_codewords": "factor_graph",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
