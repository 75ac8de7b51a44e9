"""Polynomial scalar fields: exact-jet oracles for the norm and FD tests."""

import itertools

import numpy as np

from warpforce.model import Domain, Field


def _poly_eval(coeffs: np.ndarray, pts):
    out = np.zeros(len(pts))
    for powers in itertools.product(*(range(s) for s in coeffs.shape)):
        c = coeffs[powers]
        if c == 0.0:
            continue
        term = np.full(len(pts), c)
        for i, p in enumerate(powers):
            if p:
                term = term * pts[:, i] ** p
        out = out + term
    return out


def polynomial_scalar(domain: Domain, coeffs: np.ndarray,
                      name: str = "poly") -> Field:
    """Multivariate polynomial with exact jets; coeffs[p1,...,pd] multiplies
    x1^p1 ... xd^pd."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != domain.dim:
        raise ValueError("coefficient array rank must match domain dim")
    return Field(domain, lambda pts: _poly_eval(coeffs, pts), analytic=True,
                 name=name)
