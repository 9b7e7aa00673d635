"""Every numerical tolerance of abnorm.  Zero and rank tests follow one rule:
a number counts as zero when it is small against the scale of its own
inputs, so no verdict depends on how the spanners, the body or the
structure constants are scaled (rank after row scaling: Golub & Van Loan,
Matrix Computations, 5.4; overflow-free norms: Higham, Accuracy and
Stability of Numerical Algorithms, 27)."""

import math

import numpy as np

#: zero tests: relative to the scale of the inputs; rank tests: to the largest singular value
RTOL = 1e-9
#: body checks: relative to the body's size (squared for cross products), to 1 for the
#: scale-free c^T S^-1 c < 1 of an ellipse, or to the largest ratio among polygon edges
BODY_RTOL = 1e-12
#: absolute: the support identity F_U(psi1, psi2) = 1 is scale-free
SUPPORT_TOL = 1e-7
#: absolute: closed_form_psi1 takes bare constants with no scale to compare with
CLOSED_FORM_ATOL = 1e-9

# absolute bounds of abnorm verify and acceptance criteria 1-2 on catalog data
JACOBI_TOL = 1e-12  # Jacobi defect of a bracket table
AUTOMORPHISM_TOL = 1e-10  # defect of a sampled automorphism
PROP2_TOL = 1e-9  # Proposition 2 defect of a canonical basis
ANTISYMMETRY_TOL = 1e-12  # slack on top of numpy's relative allclose
DET_TOL = 1e-12  # |det m| below which m is not invertible


def norm(x) -> float:
    """Euclidean norm of an array of any shape."""
    return math.hypot(*np.asarray(x).ravel().tolist())


def is_zero(value: float, scale: float) -> bool:
    """|value| <= RTOL * scale, where scale is the size the inputs of value bound it by."""
    return abs(value) <= RTOL * scale


def rank(rows) -> int:
    """Numerical rank of finite, nonzero rows, each taken at unit length."""
    a = np.asarray(rows, dtype=float)
    sv = np.linalg.svd(a / np.hypot.reduce(a, axis=1)[:, None], compute_uv=False)
    return int(np.sum(sv > RTOL * sv[0]))
