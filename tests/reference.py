"""Test-side references that no verdict reads: the case-by-case closed form
of the second-order equation for the first covector component, and the
normalizer and centralizer of a subspace by SVD null spaces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from abnorm.lie import StructureConstants
from abnorm.subspace import Subspace
from abnorm.tolerances import is_zero, norm, row_and_null_space


@dataclass(frozen=True)
class ClosedFormPsi1:
    case: str  # B_pos | B_zero | B_neg | C1_zero
    evaluate: object

    def __call__(self, t):
        return self.evaluate(t)


def closed_form_psi1(c23, u2: float, a1: float, a2: float) -> ClosedFormPsi1:
    """General solution of psi1'' - u2 C323 psi1' + u2^2 C123 psi1 + u2 C223 = 0,
    split by the discriminant B = (C323)^2 - 4 C123 when C123 != 0.  The map
    (C123, C223, C323, u2) -> (l^2 C123, l C223, l C323, u2 / l) leaves the
    equation as it is, so C223 and C323 count as zero against the constants'
    scale d, and C123 and B against d^2."""
    c1, c2, c3 = float(c23[0]), float(c23[1]), float(c23[2])
    d = norm([c2, c3, math.sqrt(abs(c1))])
    b = c3 * c3 - 4.0 * c1
    if not is_zero(c1, d * d):
        if not is_zero(c2, d):
            raise ValueError("closed form expects the C223 = 0 normalization when C123 != 0")
        if is_zero(b, d * d):
            rate = 0.5 * c3 * u2
            fn = lambda t: (a1 * np.asarray(t) + a2) * np.exp(rate * t)
            case = "B_zero"
        elif b > 0:
            lam1 = u2 * (c3 + math.sqrt(b)) / 2.0
            lam2 = u2 * (c3 - math.sqrt(b)) / 2.0
            fn = lambda t: a1 * np.exp(lam1 * t) + a2 * np.exp(lam2 * t)
            case = "B_pos"
        else:
            rate = 0.5 * c3 * u2
            omega = u2 * math.sqrt(-b) / 2.0
            fn = lambda t: np.exp(rate * t) * (a1 * np.cos(omega * t) + a2 * np.sin(omega * t))
            case = "B_neg"
    else:
        if not is_zero(c3, d):
            rate = c3 * u2
            fn = lambda t: a1 * np.exp(rate * t) + (c2 / c3) * np.asarray(t) + a2
        else:
            fn = lambda t: -0.5 * c2 * u2 * np.asarray(t) ** 2 + a1 * np.asarray(t) + a2
        case = "C1_zero"
    return ClosedFormPsi1(case=case, evaluate=fn)


def normalizer(alg: StructureConstants, p: Subspace) -> np.ndarray:
    """N(p) = {X : [X, v] in p for all v in p}; orthonormal rows."""
    q = p.orthonormal
    comp = row_and_null_space(q)[1]  # complement of p
    # X -> projection of [X, v] off p, linear in X
    return row_and_null_space(np.vstack([comp @ np.einsum("ijk,j->ki", alg.c, v) for v in q]))[1]


def centralizer(alg: StructureConstants, p: Subspace) -> np.ndarray:
    """C(p) = {X : [X, v] = 0 for all v in p}; orthonormal rows."""
    return row_and_null_space(np.vstack([np.einsum("ijk,j->ki", alg.c, v) for v in p.orthonormal]))[1]
