"""Exact arithmetic for Nekrasov-Okounkov / D'Arcais polynomials.

The package computes the polynomials Q_n(z) defined by

    sum_n Q_n(z) q^n  =  prod_m (1 - q^m)^(-z-1)

by four routes (hook products, part-multiplicity binomials, a power-series
recursion, and trivial-leg hook products, which relabel the multiplicities of
the conjugate partition) and provides verification tooling: log-concavity and
unimodality scans of the powers of f(q) = sum sigma_{-1}(n) q^n, unsigned
Stirling number inequalities, and certified floating-point scans where exact
rationals are infeasible.
"""

__version__ = "0.1.0"
