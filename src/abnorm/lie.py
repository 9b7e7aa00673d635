"""Structure-constant arithmetic for four-dimensional real Lie algebras.

An algebra is its full bracket table ``c[i, j, k]`` in a fixed basis
(E1..E4), meaning ``[E_i, E_j] = sum_k c[i, j, k] E_k`` with zero-based
indices internally.  Everything here is a pure function of immutable
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .tolerances import ANTISYMMETRY_TOL, rank

DIM = 4


class LieError(ValueError):
    pass


@dataclass(frozen=True)
class StructureConstants:
    """Dense 4x4x4 bracket table with antisymmetry enforced at construction."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (DIM, DIM, DIM):
            raise LieError(f"structure constants must be {DIM}x{DIM}x{DIM}")
        if not np.all(np.isfinite(c)):
            raise LieError("structure constants must be finite")
        if not np.allclose(c, -c.transpose(1, 0, 2), atol=ANTISYMMETRY_TOL):
            raise LieError("structure constants are not antisymmetric")
        # halving first keeps entries near the float limit from overflowing
        c = 0.5 * c - 0.5 * c.transpose(1, 0, 2)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_brackets(cls, brackets):
        """Build from sparse rows [(i, j, {k: coeff})] with 1-based indices."""
        c = np.zeros((DIM, DIM, DIM))
        for i, j, comps in brackets:
            for k, coeff in comps.items():
                c[i - 1, j - 1, int(k) - 1] += coeff
                c[j - 1, i - 1, int(k) - 1] -= coeff
        return cls(c)

    def nonzero_brackets(self):
        """Yield (i, j, {k: coeff}) with i < j, 1-based, for display; every exact nonzero."""
        for i in range(DIM):
            for j in range(i + 1, DIM):
                comps = {
                    k + 1: self.c[i, j, k]
                    for k in range(DIM)
                    if self.c[i, j, k] != 0.0
                }
                if comps:
                    yield i + 1, j + 1, comps


def bracket(alg: StructureConstants, x, y) -> np.ndarray:
    """[x, y] in coordinates: bilinear, antisymmetric."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("i,j,ijk->k", x, y, alg.c)


def ad_matrix(alg: StructureConstants, x) -> np.ndarray:
    """Matrix of ad x = [x, .]; column j is [x, E_j]."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,ijk->kj", x, alg.c)


def jacobi_defect(alg: StructureConstants) -> float:
    """Max norm of the Jacobi cyclic sum over basis triples; 0 iff Lie."""
    e = np.eye(DIM)
    worst = 0.0
    for i, j, k in combinations(range(DIM), 3):
        s = (
            bracket(alg, e[i], bracket(alg, e[j], e[k]))
            + bracket(alg, e[j], bracket(alg, e[k], e[i]))
            + bracket(alg, e[k], bracket(alg, e[i], e[j]))
        )
        worst = max(worst, float(np.max(np.abs(s))))
    return worst


def killing_matrix(alg: StructureConstants) -> np.ndarray:
    """K[i, j] = tr(ad E_i ad E_j)."""
    ads = [ad_matrix(alg, e) for e in np.eye(DIM)]
    k = np.empty((DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            k[i, j] = np.trace(ads[i] @ ads[j])
    return k


def automorphism_defect(alg: StructureConstants, m) -> float:
    """Max-entry norm of m[E_i, E_j] - [m E_i, m E_j] over basis pairs.

    Zero iff m is a Lie algebra automorphism.  A matrix whose rows, each
    taken at unit size, have rank below 4 is refused.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise LieError("automorphism matrix must be finite")
    if rank(m) < DIM:
        raise LieError("not invertible")
    worst = 0.0
    e = np.eye(DIM)
    for i in range(DIM):
        for j in range(i + 1, DIM):
            lhs = m @ bracket(alg, e[i], e[j])
            rhs = bracket(alg, m[:, i], m[:, j])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-18 Taylor step.

    a is scaled by 2^-s so that its 1-norm is below 1, where the Taylor
    remainder is below 1/19! < 1e-17; the step is then squared s times
    (Moler & Van Loan, SIAM Rev. 45(1), 2003).  The work is fixed: 18
    Taylor terms and s squarings.  A non-finite matrix has no such scaling
    and raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("expm needs a finite matrix")
    s = max(0, int(np.frexp(np.abs(a).sum(axis=0).max())[1]))
    x = a * 2.0**-s  # exact, like a / 2.0**s, but 2.0**1024 overflows
    eye = np.eye(len(a))
    out = eye
    for k in range(18, 0, -1):
        out = eye + x @ out / k
    for _ in range(s):
        out = out @ out
    return out


def inner_automorphism(alg: StructureConstants, x) -> np.ndarray:
    """exp(ad x); always an automorphism of a Lie algebra.

    Used to transport subspaces in families whose automorphism group is
    not tabulated in the catalog.
    """
    return expm(ad_matrix(alg, x))
