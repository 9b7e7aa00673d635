"""Independent PMP oracle for the adjoint system along an abnormal curve:
fixed-step integration cross-checked against the matrix exponential, and
the search for a bounded normal-witness covector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import expm
from .seminorm import SeminormBody
from .subspace import CanonicalBasis
from .tolerances import SUPPORT_TOL


def system_matrix(c23, u2: float) -> np.ndarray:
    """Right-hand side of the adjoint system; psi2' = 0 identically."""
    c1, c2, c3 = float(c23[0]), float(c23[1]), float(c23[2])
    return u2 * np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [c1, c2, c3, 0.0],
            [0.0, 0.0, c2, c3],
        ]
    )


def _powers(m: np.ndarray, psi0: np.ndarray, n: int) -> np.ndarray:
    """Rows m^k psi0 for k = 0..n, filled by doubling: the block of rows
    [k, 2k) is rows [0, k) times m^k, and m^k is squared after each block."""
    out = np.empty((n + 1, m.shape[0]))
    out[0] = psi0
    k, mk = 1, m
    while k <= n:
        j = min(k, n + 1 - k)
        out[k:k + j] = out[:j] @ mk.T
        k += j
        mk = mk @ mk
    return out


def rk4_trajectory(a: np.ndarray, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """Classical RK4 for psi' = a @ psi; returns (n_steps + 1, 4) states.

    With constant coefficients one step is the RK4 stability matrix R(h a),
    so the states are the powers of R applied to psi0.
    """
    h = dt * np.asarray(a, dtype=float)
    h2 = h @ h
    r = np.eye(len(h)) + h + h2 / 2 + h2 @ h / 6 + h2 @ h2 / 24
    return _powers(r, np.asarray(psi0, dtype=float), n_steps)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    psi: np.ndarray  # RK4 states, shape (n+1, 4)
    max_deviation: float  # max-entry distance to the matrix-exponential states


def integrate(c23, u2: float, psi0, T: float, dt: float) -> Trajectory:
    """Fixed-step RK4 plus the exact matrix-exponential solution."""
    psi0 = np.asarray(psi0, dtype=float)
    if not (0 < T < math.inf and 0 < dt < math.inf and T / dt < math.inf and np.isfinite(psi0).all()):
        raise ValueError("T, dt and T / dt must be positive and finite, and psi0 finite")
    n = max(1, int(round(T / dt)))
    t = np.arange(n + 1) * dt
    # an overflowing trajectory is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        a = system_matrix(c23, u2)
        psi = rk4_trajectory(a, psi0, dt, n)
        exact = _powers(expm(a * dt), psi0, n)
        dev = float(np.max(np.abs(psi - exact)))
    # an entry that is not finite in either trajectory makes the distance inf or nan
    if not math.isfinite(dev):
        raise ValueError("the trajectory leaves the float range: "
                         "the constants, u2 or T are out of numerical range")
    return Trajectory(t=t, psi=psi, max_deviation=dev)


def witness_search(basis: CanonicalBasis, body: SeminormBody, s: int) -> float | None:
    """The constant psi1 = k of a bounded PMP covector with psi2 = 1/u2,
    u2 = s / F(0, s), and F_U(k, 1/u2) = 1, or None when there is none.

    Boundedness is read off the zero pattern of the canonical constants;
    the constant is checked against the support function.
    """
    u2 = s / body.axis_gauge(s)
    height = 1.0 / u2
    c1, c2, _ = basis.constants
    if c1 == 0.0 and c2 == 0.0:
        # every bounded branch is a constant psi1 = k; one always exists
        lo, hi = body.level_interval(s)
        k = min(max(0.0, lo), hi)
        if abs(body.support((k, height)) - 1.0) > SUPPORT_TOL:
            return None
        return k

    if c1 == 0.0:
        # C223 != 0 forces an unbounded drift (linear or parabolic) in
        # every branch of the general solution
        return None

    # C123 != 0: the bounded branches are psi1 = 0 and, when the roots are
    # purely imaginary, oscillations around 0; psi1 = 0 decides
    if abs(body.support((0.0, height)) - 1.0) > SUPPORT_TOL:
        return None
    return 0.0
