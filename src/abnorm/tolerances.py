"""Every numerical tolerance of abnorm.  Zero and rank tests follow one rule:
a number counts as zero when it is small against the scale of its own
inputs, so no verdict depends on how the spanners, the body or the
structure constants are scaled (rank after row scaling: Golub & Van Loan,
Matrix Computations, 5.4; overflow-free norms: Higham, Accuracy and
Stability of Numerical Algorithms, 27).  This is the only module that
applies a singular-value cutoff: every span, null-space and invertibility
test goes through ``row_and_null_space``."""

import math

import numpy as np

#: zero tests: relative to the scale of the inputs; rank tests: to the largest singular value
RTOL = 1e-9
#: body checks: relative to the body's size (squared for cross products), to 1 for the
#: scale-free c^T S^-1 c < 1 of an ellipse, or to the largest ratio among polygon edges
BODY_RTOL = 1e-12
#: absolute: the support identity F_U(psi1, psi2) = 1 is scale-free
SUPPORT_TOL = 1e-7

# absolute bounds of abnorm verify and acceptance criteria 1-2 on catalog data
JACOBI_TOL = 1e-12  # Jacobi defect of a bracket table
AUTOMORPHISM_TOL = 1e-10  # defect of a sampled automorphism
PROP2_TOL = 1e-9  # Proposition 2 defect of a canonical basis
ANTISYMMETRY_TOL = 1e-12  # slack on top of numpy's relative allclose
_SMALLEST = 5e-324  # the smallest positive float: divides a zero row and leaves it zero


def norm(x) -> float:
    """Euclidean norm of an array of any shape."""
    return math.hypot(*np.asarray(x).ravel().tolist())


def is_zero(value: float, scale: float) -> bool:
    """|value| <= RTOL * scale, where scale is the size the inputs of value bound it by."""
    return abs(value) <= RTOL * scale


def row_and_null_space(m) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row space of m and its null space: the
    singular values above RTOL times the largest one count, at m's own scale."""
    m = np.asarray(m, dtype=float)
    _, s, vt = np.linalg.svd(m)  # the full V^T holds the null space
    s, r = s.tolist(), len(s)  # s is sorted, largest first
    while r and s[r - 1] <= RTOL * s[0]:
        r -= 1
    return vt[:r], vt[r:]


def span(rows) -> np.ndarray:
    """Orthonormal rows spanning finite rows, each divided by its largest
    entry in absolute value (which cannot overflow), so their lengths may
    differ by any factor; exact-zero rows span nothing."""
    a = np.asarray(rows, dtype=float)
    return row_and_null_space(a / np.maximum(np.abs(a).max(axis=1), _SMALLEST)[:, None])[0]


def rank(rows) -> int:
    """Numerical rank of finite rows: the number of rows of their span."""
    return len(span(rows))
